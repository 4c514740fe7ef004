"""Entropy-balance and spectral-gap diagnostics for rate perturbations.

Perturbing the division rate B to B + dB shifts the eigen-elements; the
first-order bookkeeping lives in the residual

    dR(x) = 4 dB(2x) Nbar(2x) - (dlambda + dB(x)) Nbar(x),

where Nbar is the perturbed profile. The perturbation difference
dN = Nbar - N then solves the linearized balance with source dR, which
forces the two solvability conditions int phi dR = 0 and int dN = 0.

For any convex probe H the weighted entropy balance holds:

    int 4 phi(x) B(2x) N(2x) [ H'(u(x)) (u(2x) - u(x))
                               + H(u(x)) - H(u(2x)) ] dx
        = - int H'(u(x)) dR(x) phi(x) dx,

with u = dN / N. The left side is a sum of nonpositive bracket terms
(tangent-line inequality), so the identity doubles as a dissipation
statement. Numerically both sides are quadratures of node values and
agree to the discretization order.

The spectral-gap study measures, over a family of perturbation
directions, the worst ratio between the polynomially weighted residual
norm and the profile shift, plus the companion moment bound
int x^m dN^2 <= C (1 + int x^m dR^2). The exponent m is the smallest
integer with lambda0 > b_max / 2^(m-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .direct import EigenPair, RateBounds, bump_values, solve_direct
from .grid import GridFunction, double_sample_values, norm, trapezoid

__all__ = [
    "ConvexProbe",
    "PerturbationPair",
    "GapSample",
    "GapReport",
    "build_perturbation",
    "gre_terms",
    "gap_study",
    "minimal_moment_exponent",
    "random_bump_directions",
]

# Ratios dN / N are formed only where N clears this fraction of its peak;
# the profile vanishes at the origin, where the balance integrand
# degenerates to 0 anyway.
RATIO_FLOOR = 1e-12


@dataclass(frozen=True)
class ConvexProbe:
    """Convex probe H with a nodewise one-sided derivative.

    Kinds: ``square`` (u^2), ``linear`` (u), ``positive-part`` ((u - xi)+
    with derivative the right-continuous step).
    """

    kind: str
    xi: float = 0.0

    _KINDS = ("square", "linear", "positive-part")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown probe kind {self.kind!r}")

    @classmethod
    def square(cls) -> "ConvexProbe":
        return cls("square")

    @classmethod
    def linear(cls) -> "ConvexProbe":
        return cls("linear")

    @classmethod
    def positive_part(cls, xi: float) -> "ConvexProbe":
        return cls("positive-part", float(xi))

    def value(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "square":
            return u ** 2
        if self.kind == "linear":
            return u
        return np.maximum(u - self.xi, 0.0)

    def slope(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "square":
            return 2.0 * u
        if self.kind == "linear":
            return np.ones_like(u)
        return (u > self.xi).astype(float)

    @property
    def slope_jump(self) -> float | None:
        """Argument at which the derivative jumps, None for smooth probes."""
        return self.xi if self.kind == "positive-part" else None


@dataclass(frozen=True)
class PerturbationPair:
    """Eigen-elements of a base rate and a perturbed rate, with differences."""

    base_rate: RateBounds
    base: EigenPair
    perturbed: EigenPair
    delta: float  # L2 size of the rate perturbation
    delta_n: GridFunction
    delta_lambda: float
    delta_r: GridFunction


def build_perturbation(
    rate: RateBounds,
    d_rate: GridFunction,
    base: EigenPair,
    tol: float = 1e-10,
) -> PerturbationPair:
    """Solve the perturbed problem and assemble the difference data.

    ``base`` holds the eigen-elements of ``rate``, solved once by the
    caller and shared across repeated studies against that rate. Only
    :func:`gre_terms` reads its adjoint profile.
    """
    grid = rate.grid
    if d_rate.grid != grid:
        raise ValueError("perturbation sampled on a different grid")

    perturbed_values = rate.values + d_rate.values
    if perturbed_values.min() <= 0.0:
        raise ValueError("perturbed rate violates positivity")
    perturbed = solve_direct(RateBounds.from_function(GridFunction(grid, perturbed_values)), tol=tol)

    d_lambda = perturbed.lambda0 - base.lambda0
    d_r_values = 4.0 * double_sample_values(d_rate.values * perturbed.N.values) - (
        d_lambda + d_rate.values
    ) * perturbed.N.values

    return PerturbationPair(
        base_rate=rate,
        base=base,
        perturbed=perturbed,
        delta=norm(d_rate),
        delta_n=GridFunction(grid, perturbed.N.values - base.N.values),
        delta_lambda=d_lambda,
        delta_r=GridFunction(grid, d_r_values),
    )


def gre_terms(pair: PerturbationPair, probe: ConvexProbe) -> tuple[float, float, float]:
    """Both sides of the entropy balance plus a cancellation-free scale.

    Returns (lhs, rhs, scale): the dissipation integral, the residual
    pairing it must equal, and the quadrature of the term magnitudes
    before cancellation, which calibrates relative agreement even for
    probes whose two sides vanish identically.

    Cells in which a probe with a derivative jump crosses its threshold
    are integrated by splitting at the interpolated crossing point, so
    the quadrature keeps the second-order accuracy of the piecewise
    linear field model instead of degrading to first order there. The
    balance is weighted by ``pair.base.phi``, which only solve_pair fills.
    """
    if pair.base.phi is None:
        raise ValueError("base pair must carry the adjoint profile")
    grid = pair.base.N.grid
    h = grid.spacing
    N = pair.base.N.values
    phi = pair.base.phi.values
    B = pair.base_rate.values
    dN = pair.delta_n.values
    dR = pair.delta_r.values

    floor = RATIO_FLOOR * float(N.max())
    ok = N >= floor
    u = np.zeros_like(N)
    u[ok] = dN[ok] / N[ok]

    N2 = double_sample_values(N)
    dN2 = double_sample_values(dN)
    ok2 = N2 >= floor
    u2 = np.zeros_like(N)
    u2[ok2] = dN2[ok2] / N2[ok2]

    coef = 4.0 * phi * double_sample_values(B * N)
    coef[~ok2] = 0.0
    coef[~ok] = 0.0

    slope = probe.slope(u)
    val = probe.value(u)
    val2 = probe.value(u2)
    bracket = slope * (u2 - u) + val - val2

    pairing = np.where(ok, slope * dR * phi, 0.0)
    lhs = trapezoid(coef * bracket, grid)
    rhs_int = trapezoid(pairing, grid)

    xi = probe.slope_jump
    if xi is not None:
        active = ok & ok2
        lhs_int_nodes = coef * bracket
        pr = np.where(ok, dR * phi, 0.0)
        for k in _threshold_cells(u, u2, xi, active):
            plain_lhs = 0.5 * h * (lhs_int_nodes[k] + lhs_int_nodes[k + 1])
            plain_rhs = 0.5 * h * (pairing[k] + pairing[k + 1])
            split_lhs, split_rhs = _split_cell(
                probe, xi, h,
                (u[k], u[k + 1]), (u2[k], u2[k + 1]),
                (coef[k], coef[k + 1]), (pr[k], pr[k + 1]),
            )
            lhs += split_lhs - plain_lhs
            rhs_int += split_rhs - plain_rhs

    rhs = -rhs_int
    scale = trapezoid(
        coef * (np.abs(slope * u2) + np.abs(slope * u) + np.abs(val) + np.abs(val2)), grid
    ) + trapezoid(np.abs(pairing), grid)
    return lhs, rhs, scale


def _threshold_cells(u: np.ndarray, u2: np.ndarray, xi: float, active: np.ndarray) -> np.ndarray:
    """Indices of cells in which u or u2 crosses the probe threshold."""
    s1 = np.sign(u - xi)
    s2 = np.sign(u2 - xi)
    crossing = (s1[:-1] * s1[1:] < 0) | (s2[:-1] * s2[1:] < 0)
    return np.nonzero(crossing & active[:-1] & active[1:])[0]


def _split_cell(probe, xi, h, u_ends, u2_ends, coef_ends, pr_ends):
    """Integrate one threshold-crossing cell with the fields kept linear.

    The cell is split at the crossing points of u and u2 through the
    threshold; on each piece the probe derivative is constant and every
    integrand is quadratic, so a Simpson evaluation is exact.
    """
    cuts = {0.0, 1.0}
    for a, b in (u_ends, u2_ends):
        if (a - xi) * (b - xi) < 0:
            cuts.add((xi - a) / (b - a))
    points = sorted(cuts)

    def fields(t):
        uu = u_ends[0] + (u_ends[1] - u_ends[0]) * t
        vv = u2_ends[0] + (u2_ends[1] - u2_ends[0]) * t
        cc = coef_ends[0] + (coef_ends[1] - coef_ends[0]) * t
        pp = pr_ends[0] + (pr_ends[1] - pr_ends[0]) * t
        return uu, vv, cc, pp

    lhs = rhs = 0.0
    for t0, t1 in zip(points[:-1], points[1:]):
        if t1 <= t0:
            continue
        tm = 0.5 * (t0 + t1)
        samples = [fields(t0), fields(tm), fields(t1)]
        branch = float(samples[1][0] > xi)  # probe slope, constant on the piece
        fl = [c * (branch * (v - uu) + max(uu - xi, 0.0) - max(v - xi, 0.0))
              for uu, v, c, _ in samples]
        fr = [branch * p for uu, v, c, p in samples]
        weight = (t1 - t0) / 6.0
        lhs += weight * (fl[0] + 4.0 * fl[1] + fl[2])
        rhs += weight * (fr[0] + 4.0 * fr[1] + fr[2])
    return h * lhs, h * rhs


def minimal_moment_exponent(lambda0: float, b_max: float) -> int:
    """Smallest integer m with lambda0 strictly above b_max / 2^(m-1)."""
    m = 1
    while lambda0 <= b_max / 2.0 ** (m - 1):
        m += 1
        if m > 64:
            raise ValueError("no admissible moment exponent below 2^64")
    return m


@dataclass(frozen=True)
class GapSample:
    delta: float
    delta_n_norm: float
    weighted_residual_norm: float
    ratio: float
    moment_lhs: float
    moment_rhs: float


@dataclass(frozen=True)
class GapReport:
    m: int
    samples: list[GapSample]
    nu_hat: float
    moment_check: tuple[float, float, float]  # (lhs, 1 + int x^m dR^2, constant) at the worst direction


def gap_study(
    rate: RateBounds,
    directions: list[GridFunction],
    amplitude: float,
    tol: float = 1e-9,
) -> GapReport:
    """Empirical spectral-gap ratios over a family of perturbation directions.

    For every direction d the pair (rate, rate + amplitude d) is solved
    and the ratio of the weighted residual norm to the profile shift is
    recorded; the report's nu_hat is the worst (smallest) ratio. Zero
    directions are rejected since the ratio degenerates. The moment bound
    constant is the worst observed int x^m dN^2 over 1 + int x^m dR^2.
    """
    if not directions:
        raise ValueError("need at least one perturbation direction")
    grid = rate.grid
    base = solve_direct(rate, tol=tol)  # the gap never reads the adjoint

    b_max_family = rate.b_max
    for d in directions:
        if norm(d) == 0.0:
            raise ValueError("zero perturbation direction rejected")
        b_max_family = max(b_max_family, float((rate.values + amplitude * d.values).max()))
    m = minimal_moment_exponent(base.lambda0, b_max_family)

    x_m = grid.nodes ** m
    samples: list[GapSample] = []
    for d in directions:
        scaled = GridFunction(grid, amplitude * d.values)
        pair = build_perturbation(rate, scaled, base, tol=tol)
        dn_norm = norm(pair.delta_n)
        weighted = norm(GridFunction(grid, pair.delta_r.values * (1.0 + x_m)))
        if dn_norm == 0.0:
            raise ValueError("direction produced no profile shift; ratio undefined")
        samples.append(
            GapSample(
                delta=pair.delta,
                delta_n_norm=dn_norm,
                weighted_residual_norm=weighted,
                ratio=weighted / dn_norm,
                moment_lhs=trapezoid(x_m * pair.delta_n.values ** 2, grid),
                moment_rhs=trapezoid(x_m * pair.delta_r.values ** 2, grid),
            )
        )

    nu_hat = min(s.ratio for s in samples)
    worst = max(samples, key=lambda s: s.moment_lhs / (1.0 + s.moment_rhs))
    constant = worst.moment_lhs / (1.0 + worst.moment_rhs)
    return GapReport(m, samples, nu_hat, (worst.moment_lhs, 1.0 + worst.moment_rhs, constant))


# Ranges of the random bump centres and widths.
BUMP_CENTERS = (0.5, 6.0)
BUMP_WIDTHS = (0.4, 1.6)


def random_bump_directions(grid, count: int, seed: int) -> list[GridFunction]:
    """Smooth compactly supported bump directions of either sign, unit peak height."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        center = rng.uniform(*BUMP_CENTERS)
        width = rng.uniform(*BUMP_WIDTHS)
        sign = rng.choice([-1.0, 1.0])
        out.append(GridFunction(grid, sign * bump_values(grid.nodes, center, width)))
    return out
