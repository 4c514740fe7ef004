"""Perron eigenpair of the equal-mitosis size-division balance.

The steady profile N and growth rate lambda0 solve

    N'(x) + (lambda0 + B(x)) N(x) = 4 B(2x) N(2x),   N(0) = 0,  int N = 1,

where B is the size-dependent division rate. The adjoint profile phi solves

    phi'(x) - (lambda0 + B(x)) phi(x) = -2 B(x) phi(x/2),   int phi N = 1.

N is the trapezoidal collocation of the stationary equation (second-order
accurate). With lambda fixed, the collocation is marched from right to
left: after one integrating factor per march, every dyadic block of nodes
reads its doubled arguments from nodes already solved and is one prefix
sum. lambda0 is the root of the shooting residual N_lambda(0) = 0, so
the direct solve is O(n) per root iteration. The adjoint profile is the
positive eigenvector of the unit-CFL downwind step (an exact node shift with
the reaction and half-argument terms averaged along the characteristic),
found by a few dozen right-to-left recurrence sweeps, each O(n).

For constant B = b there is a closed-form Dirichlet series solution which
serves as an independent oracle for everything else in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    Grid,
    GridFunction,
    derivative,
    double_sample_values,
    half_sample_values,
    linear_recurrence,
    norm,
    product_window,
    trapezoid,
)

__all__ = [
    "RateBounds",
    "EigenPair",
    "InvariantCheck",
    "InvariantReport",
    "constant_rate",
    "piecewise_rate",
    "bump_rate",
    "bump_values",
    "solve_direct",
    "solve_adjoint",
    "solve_pair",
    "direct_residual",
    "adjoint_residual",
    "constant_b_series",
    "check_invariants",
]

@dataclass(frozen=True)
class RateBounds:
    """A sampled division rate together with certified bounds 0 < b_min <= B <= b_max."""

    rate: GridFunction
    b_min: float
    b_max: float

    def __post_init__(self) -> None:
        v = self.rate.values
        if not (0.0 < self.b_min <= self.b_max) or not np.isfinite(self.b_max):
            raise ValueError("rate bounds must satisfy 0 < b_min <= b_max < inf")
        tol = 1e-12 * max(1.0, self.b_max)
        if v.min() < self.b_min - tol or v.max() > self.b_max + tol:
            raise ValueError("sampled rate leaves its declared bounds")

    @classmethod
    def from_function(cls, rate: GridFunction) -> "RateBounds":
        v = rate.values
        if v.min() <= 0.0:
            raise ValueError("division rate must be strictly positive")
        return cls(rate, float(v.min()), float(v.max()))

    @property
    def grid(self) -> Grid:
        return self.rate.grid

    @property
    def values(self) -> np.ndarray:
        return self.rate.values


def constant_rate(grid: Grid, value: float) -> RateBounds:
    """Constant division rate B = value."""
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError("constant rate must be positive and finite")
    return RateBounds(GridFunction(grid, np.full(grid.intervals + 1, float(value))), value, value)


def piecewise_rate(grid: Grid, breakpoints, values) -> RateBounds:
    """Piecewise-constant rate sampled by cell averages.

    ``values[i]`` holds on ``[breakpoints[i], breakpoints[i+1])`` with the
    last piece extending to the end of the grid. Nodes are assigned the
    average of the rate over their surrounding cell ``[x - h/2, x + h/2]``;
    a jump sitting exactly on a node therefore gets the half-sum of its
    one-sided values, which keeps the quadrature identities used by the
    invariant checks second-order accurate.
    """
    bp = np.asarray(breakpoints, dtype=float)
    vals = np.asarray(values, dtype=float)
    if bp.size != vals.size or bp.size == 0:
        raise ValueError("need one value per breakpoint")
    if bp[0] != 0.0 or np.any(np.diff(bp) <= 0):
        raise ValueError("breakpoints must start at 0 and increase")
    if vals.min() <= 0.0:
        raise ValueError("division rate must be strictly positive")
    half = 0.5 * grid.spacing
    lo = np.maximum(grid.nodes - half, 0.0)
    hi = grid.nodes + half
    first = np.searchsorted(bp, lo, side="right") - 1  # piece holding lo
    last = np.searchsorted(bp, hi, side="left") - 1  # piece holding hi from the left
    sampled = vals[first]
    edges = np.append(bp, np.inf)
    for j in np.flatnonzero(first != last):  # cells that contain a breakpoint
        total = 0.0
        for k in range(first[j], last[j] + 1):
            total += (min(hi[j], edges[k + 1]) - max(lo[j], edges[k])) * vals[k]
        sampled[j] = total / (hi[j] - lo[j])
    return RateBounds(GridFunction(grid, sampled), float(vals.min()), float(vals.max()))


def bump_values(x: np.ndarray, center: float, width: float) -> np.ndarray:
    """Smooth compactly supported bump, equal to 1 at its center."""
    t = (np.asarray(x, dtype=float) - center) / width
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


def bump_rate(grid: Grid, base: float, amplitude: float, center: float, width: float) -> RateBounds:
    """Constant base rate plus a smooth compactly supported bump."""
    v = base + amplitude * bump_values(grid.nodes, center, width)
    if v.min() <= 0.0:
        raise ValueError("bump drives the rate nonpositive")
    return RateBounds(GridFunction(grid, v), float(v.min()), float(v.max()))


@dataclass(frozen=True)
class EigenPair:
    """Converged eigen-elements; ``iterations`` counts the root search's marches.

    ``phi`` is None after :func:`solve_direct`; :func:`solve_pair` fills it.
    """

    lambda0: float
    N: GridFunction
    phi: GridFunction | None
    iterations: int


# Floor of Brent's stop width, times h: 1 + h/2 (B + lam) keeps lam only to
# about 2 eps / h, below which the shooting residual is a staircase in lam.
_ROOT_FLOOR = 4 * np.finfo(float).eps
# The discrete growth rate may leave the continuous bounds [b_min, b_max]
# by the discretization error; the bracket is widened by this fraction.
_BRACKET_WIDENING = 1e-2
# Clipping budget for the converged profile: the roots of the shooting
# residual other than the Perron one change sign on (0, L].
_SIGN_TOLERANCE = 1e-10
# Floor of the adjoint stop threshold. Once converged, the sweep-to-sweep
# change of the pairing-normalized iterate is round-off: up to about
# 20 eps at n = 4096 and 230 eps at n = 65536 on the bump rate.
_ADJOINT_FLOOR = 256 * np.finfo(float).eps


def _shoot(B: np.ndarray, h: float, lam: float) -> np.ndarray:
    """Right-to-left march of the trapezoidal collocation at a fixed ``lam``.

    Starts from ``v[n] = 1`` and solves every equation
    ``v[k] - v[k-1] = h/2 (G[k] + G[k-1])`` for ``v[k-1]``, with
    ``G = 4 B(2x) v(2x) - (B + lam) v``, as ``v[j] = A[j] v[j+1] + S[j]``.
    With the integrating factor ``Q[j] = prod_{i>=j} A[i]`` (products over
    windows of :func:`product_window` steps, one log scale each)
    ``u = v / Q`` obeys ``u[j] = u[j+1] + K1[j] u[2j] + K2[j] u[2j+2]``.
    Once the nodes from ``m`` up are known, nodes ``ceil(m/2) .. m-1`` only
    read known nodes, so each such dyadic block is one prefix sum; past
    ``n/2`` nothing is read and ``u = 1``. The doubled-argument read of
    node 0 is its boundary value 0, so ``v[0]`` is the shooting residual.
    Returns ``v`` scaled to ``max |v| = 1``.
    """
    n = B.size - 1
    half = 0.5 * h * (B + lam)
    den = 1.0 - half[:-1]
    A = np.divide(1.0 + half[1:], den, out=half[1:])
    window = product_window(A)
    Q, scale = np.ones(n + 1), np.zeros(n + 1)  # the factor is Q e^scale
    for hi in range(n, 0, -window):
        lo = max(hi - window, 0)
        np.multiply.accumulate(A[lo:hi][::-1], out=Q[lo:hi][::-1])
        scale[:lo] = scale[lo] + np.log(Q[lo])
    m = n // 2 + 1
    g = np.divide(-2.0 * h, den[:m] * Q[:m], out=den[:m])
    W = np.append(0.0, B[2::2] * Q[2::2])  # B(2x) Q(2x), 0 at the boundary x = 0
    K1, K2 = g * W, g * np.append(W[1:], 0.0)
    if window < n:
        K1 *= np.exp(scale[::2] - scale[:m])
        K2[:-1] *= np.exp(scale[2::2] - scale[: m - 1])
        Q *= np.exp(scale - scale[0])
    u = np.ones(n + 3)  # the first block reads up to node n + 2, where K2 = 0
    while m > 0:
        lo = (m + 1) // 2 if m > 1 else 0
        T = K1[lo:m] * u[2 * lo : 2 * m : 2] + K2[lo:m] * u[2 * lo + 2 : 2 * m + 2 : 2]
        T[-1] += u[m]
        np.add.accumulate(T[::-1], out=u[lo:m][::-1])
        m = lo
    v = np.multiply(Q, u[: n + 1], out=Q)
    return np.divide(v, max(v.max(), -v.min()), out=v)


def solve_direct(rate: RateBounds, tol: float = 1e-9, max_iters: int = 200) -> EigenPair:
    """Stable size distribution and growth rate by dyadic shooting.

    ``lambda0`` is the root of the shooting residual ``v[0] / max |v|`` of
    :func:`_shoot`, found by Brent's method on a bracket that shrinks to
    ``tol * h`` or, where the march cannot resolve that, ``4 eps / h``;
    ``N`` is the march at that root, normalized to unit mass. The bracket
    is the rate bounds, widened slightly. ``iterations`` counts marches.
    Raises if ``max_iters`` marches do not suffice, if the bracket holds no
    sign change, or if the profile changes sign (a non-Perron root). The
    adjoint slot of the returned pair is left empty.
    """
    if not (tol > 0.0):
        raise ValueError("tolerance must be positive")
    grid = rate.grid
    B = rate.values
    h = grid.spacing
    lam_lo = rate.b_min * (1.0 - _BRACKET_WIDENING)
    lam_hi = rate.b_max * (1.0 + _BRACKET_WIDENING)
    if 0.5 * h * (rate.b_max + lam_hi) >= 1.0:
        raise ValueError(
            "grid too coarse for the rate: need h (b_max + lam_hi) < 2, "
            f"lam_hi = {1.0 + _BRACKET_WIDENING:g} b_max"
        )

    marches = 0

    def residual(lam: float) -> tuple[float, float, np.ndarray]:
        nonlocal marches
        if marches >= max_iters:
            raise RuntimeError(f"direct solve did not converge in {max_iters} iterations")
        marches += 1
        v = _shoot(B, h, lam)
        return lam, float(v[0]), v

    lo, hi = residual(lam_lo), residual(lam_hi)
    if lo[1] * hi[1] > 0.0:
        raise RuntimeError(f"shooting residual has no sign change on [{lam_lo:.6g}, {lam_hi:.6g}]")
    lam, _, v = _brent(residual, lo, hi, max(tol * h, _ROOT_FLOOR / h))

    if v[1:].min() < -_SIGN_TOLERANCE:
        raise RuntimeError("direct solve found a non-Perron root: the profile changes sign")
    v = np.maximum(v, 0.0)
    v[0] = 0.0
    v /= trapezoid(v, grid)
    return EigenPair(lam, GridFunction(grid, v), None, marches)


def _brent(f, a, b, xtol: float):
    """Brent's safeguarded root finder (zeroin) on a sign-changing bracket.

    Points are tuples ``(x, f(x), payload)`` as returned by ``f``. Returns
    the point of smaller residual once the bracket around the root is at
    most ``xtol`` (plus a few ulps of the root) wide, or once the residual
    vanishes exactly.
    """
    eps = np.finfo(float).eps
    c = a
    d = e = b[0] - a[0]
    while True:
        if abs(c[1]) < abs(b[1]):
            a, b, c = b, c, b
        tol1 = 2.0 * eps * abs(b[0]) + 0.5 * xtol
        xm = 0.5 * (c[0] - b[0])
        if abs(xm) <= tol1 or b[1] == 0.0:
            return b
        if abs(e) >= tol1 and abs(a[1]) > abs(b[1]):
            s = b[1] / a[1]
            if a[0] == c[0]:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = a[1] / c[1], b[1] / c[1]
                p = s * (2.0 * xm * q * (q - r) - (b[0] - a[0]) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a = b
        b = f(b[0] + (d if abs(d) > tol1 else np.copysign(tol1, xm)))
        if (b[1] > 0.0) == (c[1] > 0.0):
            c = a
            d = e = b[0] - a[0]


def direct_residual(N: GridFunction, rate: RateBounds, lambda0: float) -> float:
    """Centred-difference residual of the continuous direct equation on ``N``.

    An O(h^2) discretization-error estimate, not the residual of the
    trapezoidal collocation that :func:`solve_direct` solves.
    """
    B = rate.values
    r = derivative(N).values + (lambda0 + B) * N.values - 4.0 * double_sample_values(B * N.values)
    return norm(GridFunction(N.grid, r))


def solve_adjoint(
    rate: RateBounds,
    lambda0: float,
    N: GridFunction,
    tol: float = 1e-9,
    max_iters: int = 200,
) -> GridFunction:
    """Adjoint profile by right-to-left recurrence sweeps, reusing ``lambda0``.

    ``phi`` is the positive eigenvector of the unit-CFL downwind step ``S``:
    ``(S psi)_j = psi_{j+1} + h/2 (G_j + G_{j+1})`` with
    ``G = 2 B psi(x/2) - (lambda0 + B) psi`` and a flat ghost value at the
    truncation boundary. Each sweep lags the half-argument term, takes the
    eigenvalue estimate ``mu = int (S psi) N`` from one step, solves
    ``S psi = mu psi`` for the other terms as one linear recurrence with
    coefficients ``(1 - r) / (mu + r)``, ``r = h/2 (lambda0 + B)``, from the
    boundary row leftward, and renormalizes to ``int psi N = 1``. The
    pairing with ``N`` also weights the convergence test, which stops once
    the change falls below ``tol * h`` or, when that is below round-off,
    256 machine epsilons. ``max_iters`` caps the sweeps. Raises unless
    ``h (b_max + lambda0) < 2``, which keeps those coefficients positive.
    """
    grid = rate.grid
    B = rate.values
    h = grid.spacing
    if 0.5 * h * (rate.b_max + lambda0) >= 1.0:
        raise ValueError("grid too coarse for the adjoint: need h (b_max + lambda0) < 2")
    Nv = N.values
    r = 0.5 * h * (lambda0 + B)
    step = np.empty_like(Nv)

    psi = np.ones(grid.intervals + 1)
    psi /= trapezoid(psi * Nv, grid)
    threshold = max(tol * h, _ADJOINT_FLOOR)
    for _ in range(max_iters):
        BH = B * half_sample_values(psi)
        G = 2.0 * BH - (lambda0 + B) * psi
        step[:-1] = psi[1:] + 0.5 * h * (G[:-1] + G[1:])
        step[-1] = psi[-1] + h * G[-1]
        mu = trapezoid(step * Nv, grid)
        den = mu + r[:-1]
        new = np.empty_like(psi)
        new[-1] = 2.0 * h * BH[-1] / (mu - 1.0 + 2.0 * r[-1])
        coef = ((1.0 - r[1:]) / den)[::-1]
        new[:-1] = linear_recurrence(coef, (h * (BH[:-1] + BH[1:]) / den)[::-1], new[-1])[::-1]
        c = trapezoid(new * Nv, grid)
        if not np.isfinite(c) or c <= 0.0:
            raise RuntimeError("adjoint iteration lost positivity of the pairing")
        new /= c
        if new.min() <= 0.0:
            raise RuntimeError("adjoint iterate changed sign")
        diff = trapezoid(np.abs(new - psi) * Nv, grid)
        psi = new
        if diff <= threshold:
            break
    else:
        raise RuntimeError(f"adjoint solve did not converge in {max_iters} iterations")
    return GridFunction(grid, psi)


def adjoint_residual(phi: GridFunction, rate: RateBounds, lambda0: float) -> float:
    """Centred-difference residual of the continuous adjoint equation on ``phi``.

    An O(h^2) discretization-error estimate, not the residual of the
    discrete fixed point that :func:`solve_adjoint` solves.
    """
    B = rate.values
    r = derivative(phi).values - (lambda0 + B) * phi.values + 2.0 * B * half_sample_values(phi.values)
    return norm(GridFunction(phi.grid, r))


def solve_pair(
    rate: RateBounds,
    tol: float = 1e-9,
    max_iters: int = 200,
) -> EigenPair:
    """Direct solve followed by the adjoint, sharing one eigenvalue.

    ``max_iters`` caps the adjoint's sweeps; the direct root search keeps
    the default cap of :func:`solve_direct`.
    """
    pair = solve_direct(rate, tol=tol)
    return replace(pair, phi=solve_adjoint(rate, pair.lambda0, pair.N, tol=tol, max_iters=max_iters))


def constant_b_series(b: float, grid: Grid, terms: int = 40) -> GridFunction:
    """Closed-form stable distribution for constant rate ``b``.

    Superposition of exponentials exp(-2 b 2^k x) whose coefficients obey
    c_k = 2 c_{k-1} / (1 - 2^k); the prefactor is fixed by unit mass on
    the whole half-line. The coefficient tail decays super-geometrically,
    so 40 terms sit far below double-precision resolution.
    """
    if terms < 2:
        raise ValueError("series needs at least two terms")
    if b <= 0.0:
        raise ValueError("rate must be positive")
    k = np.arange(terms)
    coef = np.empty(terms)
    coef[0] = 1.0
    for i in range(1, terms):
        coef[i] = coef[i - 1] * 2.0 / (1.0 - 2.0 ** i)
    total = float(np.sum(coef / (2.0 * b * 2.0 ** k)))
    decay = 2.0 * b * 2.0 ** k
    vals = (coef[None, :] * np.exp(-decay[None, :] * grid.nodes[:, None])).sum(axis=1) / total
    return GridFunction(grid, vals)


@dataclass(frozen=True)
class InvariantCheck:
    """One eigen-invariant: equality |lhs - rhs| <= tol or bound lhs <= rhs + tol."""

    name: str
    lhs: float
    rhs: float
    tolerance: float
    kind: str  # "eq" or "le"

    @property
    def passed(self) -> bool:
        if self.kind == "eq":
            return abs(self.lhs - self.rhs) <= self.tolerance
        return self.lhs <= self.rhs + self.tolerance

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs if self.kind == "le" else self.tolerance - abs(self.lhs - self.rhs)


# Tolerances of the equality checks and of the relative tail bound (f4).
TOL_EQ = 1e-4
TOL_TAIL = 1e-2


@dataclass(frozen=True)
class InvariantReport:
    checks: dict[str, InvariantCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def lines(self) -> list[str]:
        out = []
        for c in self.checks.values():
            status = "pass" if c.passed else "FAIL"
            out.append(f"{c.name}: {status} lhs={c.lhs:.6g} rhs={c.rhs:.6g} tol={c.tolerance:.2g}")
        return out


def check_invariants(pair: EigenPair, rate: RateBounds) -> InvariantReport:
    """Evaluate the stationary-profile invariants by quadrature.

    f1: the growth rate equals the rate average int B N and is bracketed
    by the rate bounds. f2: the mean size int x N equals 1 / lambda0.
    f3: the profile is bounded by twice the upper rate bound. f4: the
    exponentially weighted profile stays integrable below the decay rate,
    checked through tail smallness of e^{a x} N at the truncation
    boundary. f5: the weighted rate average int B N e^{lambda0 x} stays
    below 4 lambda0. Equalities hold to ``TOL_EQ``; the tail bound is
    ``TOL_TAIL``. Failures are recorded, never raised.
    """
    grid = pair.N.grid
    x = grid.nodes
    Nv = pair.N.values
    B = rate.values
    lam = pair.lambda0

    checks: dict[str, InvariantCheck] = {}
    checks["f1"] = InvariantCheck("f1", lam, trapezoid(B * Nv, grid), TOL_EQ, "eq")
    checks["f1.lower"] = InvariantCheck("f1.lower", rate.b_min, lam, TOL_EQ, "le")
    checks["f1.upper"] = InvariantCheck("f1.upper", lam, rate.b_max, TOL_EQ, "le")
    checks["f2"] = InvariantCheck("f2", trapezoid(x * Nv, grid), 1.0 / lam, TOL_EQ, "eq")
    checks["f3"] = InvariantCheck("f3", float(Nv.max()), 2.0 * rate.b_max, 0.0, "le")

    # Weights in log space: e^{lam x} overflows where N has underflowed to 0.
    log_n = np.log(Nv, out=np.full_like(Nv, -np.inf), where=Nv > 0)
    w = (lam + 0.5 * rate.b_min) * x + log_n
    tail = float(np.exp(w[-1] - w.max()))
    checks["f4"] = InvariantCheck("f4", tail, TOL_TAIL, 0.0, "le")

    checks["f5"] = InvariantCheck(
        "f5", trapezoid(B * np.exp(lam * x + log_n), grid), 4.0 * lam, 0.0, "le"
    )
    return InvariantReport(checks)
