"""Perron eigenpair of the equal-mitosis size-division balance.

The steady profile N and growth rate lambda0 solve

    N'(x) + (lambda0 + B(x)) N(x) = 4 B(2x) N(2x),   N(0) = 0,  int N = 1,

where B is the size-dependent division rate. The adjoint profile phi solves

    phi'(x) - (lambda0 + B(x)) phi(x) = -2 B(x) phi(x/2),   int phi N = 1.

N is the trapezoidal collocation of the stationary equation (second-order
accurate). With lambda fixed, the collocation is marched from right to
left: after one integrating factor per march, every dyadic block of nodes
reads its doubled arguments from nodes already solved and is one prefix
sum; the lowest nodes are marched one at a time. lambda0 is the root of
the shooting residual N_lambda(0) = 0, found by Anderson-Bjorck false
position. The root search's marches form only the residual; N is formed
once, from the bracket end of positive residual, so it starts
nonnegative, and the direct solve is O(n) per root iteration. The adjoint
has no discretization of its own: phi is the left null vector of the same
collocation rows, found in one direct solve. On each dyadic level of
columns the row weights are an exact linear function of the levels' first
weights, log2(n) unknowns in all, by one right-to-left recurrence per
level; the levels' first columns then give a small system whose null
vector fixes them, so the solve is O(n log n) and has no iteration count.
So the discrete solvability condition int phi dR = 0 holds to round-off,
and phi has an outflow layer 1 - e^{-(lambda0+B)(L-x)} at the truncation
boundary, where the half-line adjoint would stay flat.

For constant B = b there is a closed-form Dirichlet series solution which
serves as an independent oracle for everything else in this module.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import (
    SCALAR_NODES,
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
    """A sampled division rate and its bounds 0 < b_min <= B <= b_max, read from the samples."""

    rate: GridFunction
    b_min: float = field(init=False)
    b_max: float = field(init=False)

    def __post_init__(self) -> None:
        v = self.rate.values
        if v.min() <= 0.0:
            raise ValueError("division rate must be strictly positive")
        object.__setattr__(self, "b_min", float(v.min()))
        object.__setattr__(self, "b_max", float(v.max()))

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
    return RateBounds(GridFunction(grid, np.full(grid.intervals + 1, float(value))))


def piecewise_rate(grid: Grid, breakpoints, values) -> RateBounds:
    """Piecewise-constant rate sampled by cell averages.

    ``values[i]`` holds on ``[breakpoints[i], breakpoints[i+1])`` with the
    last piece extending to the end of the grid. Nodes are assigned the
    average of the rate over their surrounding cell ``[x - h/2, x + h/2]``;
    a jump sitting exactly on a node therefore gets the half-sum of its
    one-sided values, which keeps the quadrature identities used by the
    invariant checks second-order accurate. The bounds are those of the
    cell averages, so a piece narrower than a cell only enters averaged.
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
    return RateBounds(GridFunction(grid, sampled))


def bump_values(x: np.ndarray, center: float, width: float) -> np.ndarray:
    """Smooth compactly supported bump, equal to 1 at its center."""
    t = (np.asarray(x, dtype=float) - center) / width
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


def bump_rate(grid: Grid, base: float, amplitude: float, center: float, width: float) -> RateBounds:
    """Constant base rate plus a smooth compactly supported bump."""
    return RateBounds(GridFunction(grid, base + amplitude * bump_values(grid.nodes, center, width)))


@dataclass(frozen=True)
class EigenPair:
    """Converged eigen-elements; ``iterations`` counts the root search's marches.

    ``phi`` is None after :func:`solve_direct`; :func:`solve_pair` fills it.
    """

    lambda0: float
    N: GridFunction
    phi: GridFunction | None
    iterations: int


# Floor of the root search's bracket width, times h: 1 + h/2 (B + lam) keeps
# lam only to about 2 eps / h, below which the shooting residual is a
# staircase in lam.
_ROOT_FLOOR = 4 * sys.float_info.epsilon
# The discrete growth rate may leave the continuous bounds [b_min, b_max]
# by the discretization error; the bracket is widened by this fraction.
_BRACKET_WIDENING = 1e-2
# Clipping budget for the converged profile: the roots of the shooting
# residual other than the Perron one change sign on (0, L].
_SIGN_TOLERANCE = 1e-10
# Interior points of the walk down from lam_hi that looks for a sign change
# when both ends of the bracket have one sign.
_BRACKET_WALK = 32
# Cap on the root search's marches. The acceptance rates take at most 8
# marches up to n = 65536.
_MAX_MARCHES = 200


def _shoot(B: np.ndarray, h: float, lam: float) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Right-to-left march of the trapezoidal collocation at a fixed ``lam``.

    Starts from ``v[n] = 1`` and solves every equation
    ``v[k] - v[k-1] = h/2 (G[k] + G[k-1])`` for ``v[k-1]``, with
    ``G = 4 B(2x) v(2x) - (B + lam) v``, as ``v[j] = A[j] v[j+1] + S[j]``.
    With the integrating factor ``Q[j] = prod_{i>=j} A[i]`` (products over
    windows of :func:`product_window` steps, one log scale each, none when
    one window spans the grid) ``u = v / Q`` obeys
    ``u[j] = u[j+1] + K1[j] u[2j] + K2[j] u[2j+2]``.
    Past ``n/2`` nothing is read and ``u = 1``. Once the nodes from ``m`` up
    are known, nodes ``ceil(m/2) .. m-1`` only read known nodes, so each
    such dyadic block is one prefix sum; the lowest nodes, up to
    ``SCALAR_NODES`` at most, are marched one at a time. The doubled-
    argument read of node 0 is its boundary value 0. Returns the shooting
    residual ``v[0] / peak``, ``Q``, the head ``v[:n//2 + 1] = Q u`` and
    ``peak = max |v|``, from which :func:`_profile` forms the profile.
    """
    n = B.size - 1
    m = n // 2 + 1
    half = 0.5 * h * (B + lam)
    den = 1.0 - half[:-1]
    A = np.divide(1.0 + half[1:], den, out=half[1:])
    window = product_window(A)
    Q = np.empty(n + 1)
    Q[n] = 1.0
    scale = np.zeros(n + 1) if window < n else None  # the factor is Q e^scale
    for hi in range(n, 0, -window):
        lo = max(hi - window, 0)
        np.multiply.accumulate(A[lo:hi][::-1], out=Q[lo:hi][::-1])
        if lo:
            scale[:lo] = scale[lo] + np.log(Q[lo])
    g = np.divide(-2.0 * h, den[:m] * Q[:m], out=den[:m])
    W = np.zeros(m + 1)  # B(2x) Q(2x), 0 at the boundary x = 0 and past L
    np.multiply(B[2::2], Q[2::2], out=W[1:m])
    K1, K2 = g * W[:m], g * W[1:]
    if window < n:
        K1 *= np.exp(scale[::2] - scale[:m])
        K2[:-1] *= np.exp(scale[2::2] - scale[: m - 1])
        Q *= np.exp(scale - scale[0])
    u = np.empty(m + 2)
    u[m:] = 1.0
    lo = (m + 1) // 2  # the first block reads only nodes past n/2
    T = K1[lo:] + K2[lo:]
    T[-1] += 1.0
    np.add.accumulate(T[::-1], out=u[lo:m][::-1])
    top = lo
    while top > SCALAR_NODES + 1:
        lo = (top + 1) // 2
        T = K1[lo:top] * u[2 * lo : 2 * top : 2] + K2[lo:top] * u[2 * lo + 2 : 2 * top + 2 : 2]
        T[-1] += u[top]
        np.add.accumulate(T[::-1], out=u[lo:top][::-1])
        top = lo
    k1, k2, w = K1[:top].tolist(), K2[:top].tolist(), [0.0] + u[1 : 2 * top + 1].tolist()
    for j in range(top - 1, -1, -1):
        w[j] = w[j + 1] + (k1[j] * w[2 * j] + k2[j] * w[2 * j + 2])
    u[:top] = w[:top]
    head = np.multiply(Q[:m], u[:m], out=u[:m])
    peak = max(head.max(), -head.min(), Q[m:].max())
    return head[0] / peak, Q, head, peak


def _profile(Q: np.ndarray, head: np.ndarray, peak: float) -> np.ndarray:
    """The profile ``v / max |v|`` of a :func:`_shoot` march, formed in its
    ``Q``: ``v`` is the head up to ``n/2`` and ``Q`` past it."""
    Q[: head.size] = head
    return np.divide(Q, peak, out=Q)


def solve_direct(rate: RateBounds, tol: float = 1e-9) -> EigenPair:
    """Stable size distribution and growth rate by dyadic shooting.

    ``lambda0`` is the root of the shooting residual of :func:`_shoot`,
    found by Anderson-Bjorck false position on a bracket that shrinks to
    ``tol * h`` or, where the march cannot resolve that, ``4 eps / h``; each
    march forms only the residual and the pieces of its profile. ``N`` is
    formed once, from the march at the bracket end of positive residual,
    whose profile starts nonnegative, and normalized to unit mass. The
    bracket is the rate bounds, widened slightly; when both of its ends have
    one sign, it is the first sign-changing step of a ``_BRACKET_WALK``-point
    walk down from its top. ``iterations`` counts marches.
    Raises if ``_MAX_MARCHES`` marches do not suffice, if neither holds a
    sign change, or if the profile changes sign (a non-Perron root). The
    adjoint slot of the returned pair is left empty.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tolerance must be positive and finite")
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

    def residual(lam: float) -> tuple[float, float, list]:
        nonlocal marches
        if marches >= _MAX_MARCHES:
            raise RuntimeError(f"direct solve did not converge in {_MAX_MARCHES} iterations")
        marches += 1
        res, *pieces = _shoot(B, h, lam)
        return lam, float(res), pieces

    lo, hi = residual(lam_lo), residual(lam_hi)
    if lo[1] * hi[1] > 0.0:
        # The bracket holds no root or two; the Perron root is the largest,
        # so the root search runs on the first sub-bracket below lam_hi that
        # changes sign.
        above = hi
        for lam in np.linspace(lam_hi, lam_lo, _BRACKET_WALK + 2)[1:-1].tolist():
            below = residual(lam)
            if below[1] * above[1] <= 0.0:
                lo, hi = below, above
                break
            above = below
    if lo[1] * hi[1] > 0.0:
        raise RuntimeError(
            f"shooting residual has no sign change on [{lam_lo:.6g}, {lam_hi:.6g}]: "
            f"residuals {lo[1]:.3g} and {hi[1]:.3g} at its ends, L b_min = "
            f"{grid.length * rate.b_min:.3g}; a small L b_min loses mass past L, "
            "so a longer --grid-length may help"
        )
    lam, _, pieces = _false_position(residual, lo, hi, max(tol * h, _ROOT_FLOOR / h))
    v = _profile(*pieces)

    if v[1:].min() < -_SIGN_TOLERANCE:
        raise RuntimeError("direct solve found a non-Perron root: the profile changes sign")
    v = np.maximum(v, 0.0)
    v[0] = 0.0
    v /= trapezoid(v, grid)
    return EigenPair(lam, GridFunction(grid, v), None, marches)


def _false_position(f, a, b, xtol: float):
    """Anderson-Bjorck false position on a sign-changing bracket.

    Points are tuples ``(x, f(x), payload)`` as returned by ``f``. Each step
    marches the secant point of the two bracket ends, kept at least ``tol1``
    inside them. An end kept twice in a row has its residual scaled by
    ``1 - f(new) / f(last)``, or by 1/2 when that is not positive; on entry
    ``b`` counts as the last point and ``a`` as kept once. Returns the end
    of nonnegative residual once the bracket is at most ``xtol`` (plus a
    few ulps of the root) wide, or a point whose residual vanishes exactly.
    """
    eps = sys.float_info.epsilon
    fa = a[1]  # scaled while a is kept
    while True:
        tol1 = 2.0 * eps * abs(b[0]) + 0.5 * xtol
        if abs(b[0] - a[0]) <= 2.0 * tol1:
            return a if a[1] >= 0.0 else b
        x = b[0] - b[1] * (b[0] - a[0]) / (b[1] - fa)
        c = f(min(max(x, min(a[0], b[0]) + tol1), max(a[0], b[0]) - tol1))
        if c[1] == 0.0:
            return c
        if (c[1] > 0.0) != (b[1] > 0.0):
            a, fa = b, b[1]
        else:
            m = 1.0 - c[1] / b[1]
            fa *= m if m > 0.0 else 0.5
        b = c


def direct_residual(N: GridFunction, rate: RateBounds, lambda0: float) -> float:
    """Centred-difference residual of the continuous direct equation on ``N``.

    An O(h^2) discretization-error estimate, not the residual of the
    trapezoidal collocation that :func:`solve_direct` solves.
    """
    B, v = rate.values, N.values
    r = derivative(v, N.grid.spacing) + (lambda0 + B) * v - 4.0 * double_sample_values(B * v)
    return norm(r, N.grid)


def solve_adjoint(rate: RateBounds, lambda0: float, N: GridFunction) -> GridFunction:
    """Adjoint profile: the left null vector of :func:`_shoot`'s rows, in one solve.

    Weight ``w_k`` multiplies the collocation row ``k = 1..n``; with
    ``a = h/2 (lambda0 + B)`` column ``j`` of the transposed rows reads
    ``w_j = c_j w_{j+1} + g_j (w_{j/2} + w_{j/2+1})``, ``w_{n+1} = 0``,
    with ``c = (1 - a) / (1 + a)`` and ``g = 2 h B / (1 + a)`` for even
    ``j``, 0 for odd ``j``. The columns fall into the dyadic levels
    ``l = 0..K-1``, ``[2^l, min(2^(l+1) - 1, n)]``, ``K = n.bit_length()``,
    and the unknowns are the first weights ``e_l = w_{2^l}``. Lowest level
    first, each level's ``w`` is an exact linear function of ``e``: one
    right-to-left recurrence whose stacked source reads level ``l - 1`` and
    the level's own first column, from ``e_{l+1}`` at its right end (0 past
    ``n``). Each level's recurrence returns its first column as row ``l`` of
    ``M``; ``M e = e`` makes every column hold, so ``e`` is the last right
    singular vector of ``M - I``. Nodes take ``phi_j = (w_j + w_{j+1}) / 2``,
    so ``trapezoid(phi r)`` is the row-weighted sum of any node residual
    ``r`` that vanishes at 0 and L, and ``phi`` has an outflow layer that
    falls to ``w_n / 2`` at L, which is 0 for odd ``n`` (column ``n`` then
    has no half-argument term); ``phi_0 = 2 phi_1 - phi_2``, and
    ``int phi N = 1``. Raises unless ``h (b_max + lambda0) < 2``, which
    keeps the coefficients positive, or if ``phi`` changes sign.
    """
    grid = rate.grid
    B = rate.values
    h = grid.spacing
    if 0.5 * h * (rate.b_max + lambda0) >= 1.0:
        raise ValueError("grid too coarse for the adjoint: need h (b_max + lambda0) < 2")
    n = grid.intervals
    K = n.bit_length()
    a = 0.5 * h * (lambda0 + B)
    c = (1.0 - a) / (1.0 + a)
    g = np.zeros(n + 1)
    g[2::2] = 2.0 * h * B[2::2] / (1.0 + a[2::2])
    W = np.zeros((n + 2, K))  # row j: w_j as a combination of e; row n + 1 is w_{n+1} = 0
    W[2 ** np.arange(K), np.arange(K)] = 1.0
    M = np.empty((K, K))
    for l in range(K):
        lo, hi = 2**l, min(2 ** (l + 1) - 1, n)
        reads = W[(lo + 1) // 2 : hi // 2 + 2]  # w_{j/2} and w_{j/2+1} of the level's even j
        S = np.zeros((hi - lo + 1, K))
        S[lo % 2 :: 2] = g[lo + lo % 2 : hi + 1 : 2, None] * (reads[:-1] + reads[1:])
        level = linear_recurrence(c[hi : lo - 1 : -1])(S[::-1], W[hi + 1])[::-1]
        M[l] = level[0]
        W[lo + 1 : hi + 1] = level[1:]
    w = W @ np.linalg.svd(M - np.eye(K))[2][-1]
    phi = 0.5 * (w[:-1] + w[1:])  # w[0] is unused
    phi[0] = 2.0 * phi[1] - phi[2]
    phi /= trapezoid(phi * N.values, grid)
    if not (phi[:-1].min() > 0.0 and phi[-1] >= 0.0):
        raise RuntimeError("adjoint null vector changed sign")
    return GridFunction(grid, np.abs(phi))  # phi(L) = 0 for odd n, never -0.0


def adjoint_residual(phi: GridFunction, rate: RateBounds, lambda0: float, N: GridFunction) -> float:
    """Centred-difference residual of the continuous adjoint equation on ``phi``,
    in the ``N``-weighted norm that pairs ``phi`` with ``N``.

    An O(h^2) discretization-error estimate, not the residual of the
    transposed rows that :func:`solve_adjoint` solves. The weight keeps it
    O(h^2) through the outflow layer at L, where ``N`` has decayed and the
    layer's last nodes are first order.
    """
    B, v = rate.values, phi.values
    r = derivative(v, phi.grid.spacing) - (lambda0 + B) * v + 2.0 * B * half_sample_values(v)
    return norm(r, phi.grid, N.values)


def solve_pair(rate: RateBounds, tol: float = 1e-9) -> EigenPair:
    """Direct solve followed by the adjoint, sharing one eigenvalue."""
    pair = solve_direct(rate, tol=tol)
    return replace(pair, phi=solve_adjoint(rate, pair.lambda0, pair.N))


def constant_b_series(b: float, grid: Grid) -> GridFunction:
    """Closed-form stable distribution for constant rate ``b``.

    Superposition of exponentials exp(-2 b 2^k x) whose coefficients obey
    c_k = 2 c_{k-1} / (1 - 2^k); the prefactor is fixed by unit mass on
    the whole half-line. The coefficient tail decays super-geometrically,
    so 40 terms sit far below double-precision resolution. Terms are
    added one at a time, each over the nodes where its exponential is at
    least 1e-300, so memory stays O(n).
    """
    if b <= 0.0:
        raise ValueError("rate must be positive")
    k = np.arange(40)
    coef = np.ones(k.size)
    for i in range(1, k.size):
        coef[i] = coef[i - 1] * 2.0 / (1.0 - 2.0 ** i)
    decay = 2.0 * b * 2.0 ** k
    total = float(np.sum(coef / decay))
    x = grid.nodes
    reach = np.searchsorted(x, np.log(1e300) / decay, side="right")
    vals = np.zeros_like(x)
    for c, d, m in zip(coef, decay, reach):
        vals[:m] += c * np.exp(-d * x[:m])
    return GridFunction(grid, vals / total)


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
