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
    "perturbations",
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
    """Eigen-elements of a base rate and a perturbed rate, with node-array differences."""

    base_rate: RateBounds
    base: EigenPair
    perturbed: EigenPair
    delta: float  # L2 size of the rate perturbation
    delta_n: np.ndarray
    delta_lambda: float
    delta_r: np.ndarray


def build_perturbation(
    rate: RateBounds,
    d_rate: np.ndarray,
    base: EigenPair,
    tol: float = 1e-10,
) -> PerturbationPair:
    """Solve the perturbed problem and assemble the difference data.

    ``d_rate`` holds the rate perturbation at the nodes of ``rate``'s
    grid. ``base`` holds the eigen-elements of ``rate``, solved once by
    the caller and shared across repeated studies against that rate. Only
    :func:`gre_terms` reads its adjoint profile.
    """
    grid = rate.grid
    perturbed_values = rate.values + d_rate
    if perturbed_values.min() <= 0.0:
        raise ValueError("perturbed rate violates positivity")
    perturbed = solve_direct(RateBounds(GridFunction(grid, perturbed_values)), tol=tol)

    d_lambda = perturbed.lambda0 - base.lambda0
    Nbar = perturbed.N.values
    d_r = 4.0 * double_sample_values(d_rate * Nbar) - (d_lambda + d_rate) * Nbar

    return PerturbationPair(
        base_rate=rate,
        base=base,
        perturbed=perturbed,
        delta=norm(d_rate, grid),
        delta_n=Nbar - base.N.values,
        delta_lambda=d_lambda,
        delta_r=d_r,
    )


def perturbations(rate: RateBounds, base: EigenPair, directions, amplitude: float, tol: float):
    """Iterator over the pairs of ``rate`` and ``rate + amplitude d``, one per direction ``d``.

    The amplitude and the directions are checked when this is called;
    each pair is solved when it is reached. A zero direction, or a pair
    whose profile did not move, is rejected, since every ratio or balance
    on it is 0 / 0.
    """
    if not 0.0 <= amplitude < np.inf:
        raise ValueError("perturbation amplitude must be nonnegative and finite")
    if any(norm(d, rate.grid) == 0.0 for d in directions):
        raise ValueError("zero perturbation direction rejected")
    return (_shifted(build_perturbation(rate, amplitude * d, base, tol)) for d in directions)


def _shifted(pair: PerturbationPair) -> PerturbationPair:
    if norm(pair.delta_n, pair.base_rate.grid) == 0.0:
        raise ValueError("direction produced no profile shift; ratio undefined")
    return pair


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
    dR = pair.delta_r

    ok = N >= RATIO_FLOOR * float(N.max())
    u = np.zeros_like(N)
    u[ok] = pair.delta_n[ok] / N[ok]
    u2 = double_sample_values(u)
    # Nodes x at which N clears the floor at both x and 2x <= L.
    active = ok & (double_sample_values(ok) > 0.0)

    coef = 4.0 * phi * double_sample_values(B * N)
    coef[~active] = 0.0

    slope = probe.slope(u)
    val = probe.value(u)
    val2 = probe.value(u2)
    bracket = slope * (u2 - u) + val - val2

    pairing = np.where(ok, slope * dR * phi, 0.0)
    lhs = trapezoid(coef * bracket, grid)
    rhs_int = trapezoid(pairing, grid)

    xi = probe.slope_jump
    if xi is not None:
        lhs_int_nodes = coef * bracket
        pr = np.where(ok, dR * phi, 0.0)
        for k in _threshold_cells(u, u2, xi, active):
            plain_lhs = 0.5 * h * (lhs_int_nodes[k] + lhs_int_nodes[k + 1])
            plain_rhs = 0.5 * h * (pairing[k] + pairing[k + 1])
            split_lhs, split_rhs = _split_cell(
                xi, h,
                (u[k], u[k + 1]), (u2[k], u2[k + 1]),
                (coef[k], coef[k + 1]), (pr[k], pr[k + 1]),
            )
            lhs += split_lhs - plain_lhs
            rhs_int += split_rhs - plain_rhs

    rhs = -rhs_int
    scale = trapezoid(
        coef * (np.abs(slope * u2) + np.abs(slope * u) + np.abs(val) + np.abs(val2)), grid
    ) + trapezoid(np.abs(pairing), grid)
    return float(lhs), float(rhs), float(scale)


def _threshold_cells(u: np.ndarray, u2: np.ndarray, xi: float, active: np.ndarray) -> np.ndarray:
    """Indices of cells in which u or u2 crosses the probe threshold."""
    s1 = np.sign(u - xi)
    s2 = np.sign(u2 - xi)
    crossing = (s1[:-1] * s1[1:] < 0) | (s2[:-1] * s2[1:] < 0)
    return np.nonzero(crossing & active[:-1] & active[1:])[0]


def _split_cell(xi, h, u_ends, u2_ends, coef_ends, pr_ends):
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
    directions: list[np.ndarray],
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
    pairs = perturbations(rate, base, directions, amplitude, tol)  # checks its inputs now

    family_peaks = (float((rate.values + amplitude * d).max()) for d in directions)
    m = minimal_moment_exponent(base.lambda0, max(rate.b_max, *family_peaks))

    x_m = grid.nodes ** m
    samples: list[GapSample] = []
    for pair in pairs:
        dn_norm = norm(pair.delta_n, grid)
        weighted = norm(pair.delta_r * (1.0 + x_m), grid)
        samples.append(
            GapSample(
                delta=pair.delta,
                delta_n_norm=dn_norm,
                weighted_residual_norm=weighted,
                ratio=weighted / dn_norm,
                moment_lhs=trapezoid(x_m * pair.delta_n ** 2, grid),
                moment_rhs=trapezoid(x_m * pair.delta_r ** 2, grid),
            )
        )

    nu_hat = min(s.ratio for s in samples)
    worst = max(samples, key=lambda s: s.moment_lhs / (1.0 + s.moment_rhs))
    constant = worst.moment_lhs / (1.0 + worst.moment_rhs)
    return GapReport(m, samples, nu_hat, (worst.moment_lhs, 1.0 + worst.moment_rhs, constant))


# Ranges of the random bump centres and widths.
BUMP_CENTERS = (0.5, 6.0)
BUMP_WIDTHS = (0.4, 1.6)


def random_bump_directions(grid, count: int, seed: int) -> list[np.ndarray]:
    """Node arrays of smooth compactly supported bumps of either sign, unit peak height."""
    if count < 1:
        raise ValueError("need at least one perturbation direction")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        center = rng.uniform(*BUMP_CENTERS)
        width = rng.uniform(*BUMP_WIDTHS)
        sign = rng.choice([-1.0, 1.0])
        out.append(sign * bump_values(grid.nodes, center, width))
    return out
