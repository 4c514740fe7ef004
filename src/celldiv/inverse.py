"""Division-rate recovery from an observed size distribution.

Writing the stationary balance at the doubled argument turns it into an
exact relation for the product P = B N,

    4 B(y) N(y) = B(y/2) N(y/2) + lambda0 N(y/2) + 2 d/dy [N(y/2)],

which is forward-solvable but differentiates the data. The stabilized
version adds a small first-order term in the unknown product,

    alpha P'(y) + 4 P(y) = P(y/2) + F(y),      P(0) = 0,

with F carrying the data terms. Implicit marching solves it in one sweep:
the half-argument reads only touch already-computed entries, so the
delay structure costs nothing.

Both schemes march this one equation on F = lambda0 N(y/2) + 2 D[N(y/2)]
and differ only in the difference quotient D of the half-sampled
observation: ``direct-fd`` takes the grid's centred derivative (second
order), ``derivative-free`` the backward quotient (first order). The
latter is the march of the shifted unknown S(y) = P(y) - (2/alpha) N(y/2)
written for P, so both schemes differentiate the data.

Energy estimates for the marching problem (sup alpha P^2, mass and
gradient bounds against the source) and their empirical constants are
computed on request by :func:`stability_report` against the source the
solve marched, not with every solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    SCALAR_NODES,
    Grid,
    GridFunction,
    constant_recurrence,
    derivative,
    half_sample_values,
    norm,
    trapezoid,
)

__all__ = [
    "NoisyObservation",
    "Filters",
    "StabilityReport",
    "RegularizedSolve",
    "SCHEMES",
    "clamp_observation",
    "solve_regularized_general",
    "recover_rate",
    "stability_report",
    "weak_stability_check",
    "estimate_lambda0",
    "product_source",
    "weighted_product_error",
    "rate_error_on_support",
]


def _backward_quotient(values: np.ndarray, spacing: float) -> np.ndarray:
    """Backward quotient ``(v[j] - v[j-1]) / h``, the value before node 0 read as 0."""
    d = np.empty_like(values)
    np.subtract(values[1:], values[:-1], out=d[1:])
    d[0] = values[0]
    d /= spacing
    return d


# Difference quotient of the half-sampled observation, per scheme.
_DATA_QUOTIENTS = {"direct-fd": derivative, "derivative-free": _backward_quotient}
SCHEMES = tuple(_DATA_QUOTIENTS)

# Nodes where the observation falls below this fraction of its peak carry
# no usable rate information (the profile vanishes at both ends).
RATE_SUPPORT_FLOOR = 1e-6


@dataclass(frozen=True)
class NoisyObservation:
    """Observed size distribution, as clamped by :func:`clamp_observation`.

    ``epsilon`` is the achieved L2 distance to the truth when the truth
    was available (None otherwise); ``lambda0`` is the supplied growth
    rate ``int B N``, finite and positive, or None to estimate it.
    """

    data: GridFunction
    epsilon: float | None
    lambda0: float | None = None

    def __post_init__(self) -> None:
        if self.epsilon is not None and self.epsilon < 0.0:
            raise ValueError("noise level must be nonnegative")
        if self.lambda0 is not None and not 0.0 < self.lambda0 < np.inf:
            raise ValueError(f"lambda0 must be a finite positive growth rate, got {self.lambda0!r}")

    @property
    def grid(self) -> Grid:
        return self.data.grid

    def growth_rate(self) -> float:
        return self.lambda0 if self.lambda0 is not None else estimate_lambda0(self)


class Filters(tuple):
    """The pair ``(lower, upper)`` of filter envelopes, checked once when built.

    The filters encode what any admissible profile must satisfy, in
    particular the zero boundary value at the origin: an upper filter
    that does not vanish there, filters on two grids, or crossing filters
    are rejected.
    """

    def __new__(cls, lower: GridFunction, upper: GridFunction) -> "Filters":
        if lower.grid != upper.grid:
            raise ValueError("filters must share the observation grid")
        if upper.values[0] != 0.0:
            raise ValueError("upper filter must vanish at the origin")
        if np.any(lower.values > upper.values):
            raise ValueError("filter envelopes cross")
        return super().__new__(cls, (lower, upper))


def clamp_observation(
    raw: GridFunction,
    filters: tuple[GridFunction, GridFunction],
    truth: GridFunction | None = None,
    lambda0: float | None = None,
) -> NoisyObservation:
    """Clamp a raw observation into its filter envelopes.

    ``filters`` is a :class:`Filters`, or a plain ``(lower, upper)`` pair
    that is checked as one on every call. When the truth is supplied the
    achieved post-clamp distance is recorded as the observation's noise
    level.
    """
    lower, upper = filters if isinstance(filters, Filters) else Filters(*filters)
    if lower.grid != raw.grid:
        raise ValueError("filters must share the observation grid")
    clamped = raw.with_values(np.clip(raw.values, lower.values, upper.values))
    achieved = None
    if truth is not None:
        achieved = norm(clamped.values - truth.values, raw.grid)
    return NoisyObservation(clamped, achieved, lambda0)


def estimate_lambda0(obs: NoisyObservation) -> float:
    """Growth rate from the mean-size identity: 1 over the first moment."""
    moment = trapezoid(obs.grid.nodes * obs.data.values, obs.grid)
    if moment <= 0.0:
        raise ValueError("observation has nonpositive first moment")
    return 1.0 / moment


@dataclass(frozen=True)
class StabilityReport:
    """Energy diagnostics of one regularized marching solve.

    Records the quantities entering the stability estimates of the
    marching problem together with their empirical constants: the
    pointwise bound alpha P^2 and the mass bound 4 int P^2 against
    int F^2, the gradient bound alpha^2 int P'^2 against int F^2, and,
    when the source vanishes at the origin, int P'^2 against int F'^2
    (proof constant 4/11).
    """

    sup_alpha_p_sq: float
    int_p_sq: float
    int_f_sq: float
    alpha_sq_int_dp_sq: float
    int_dp_sq: float
    int_df_sq: float
    source_vanishes_at_origin: bool

    @property
    def const_sup(self) -> float:
        return self.sup_alpha_p_sq / self.int_f_sq if self.int_f_sq > 0 else 0.0

    @property
    def const_mass(self) -> float:
        return 4.0 * self.int_p_sq / self.int_f_sq if self.int_f_sq > 0 else 0.0

    @property
    def const_combined(self) -> float:
        return (self.sup_alpha_p_sq + self.int_p_sq) / self.int_f_sq if self.int_f_sq > 0 else 0.0

    @property
    def const_gradient(self) -> float:
        return self.alpha_sq_int_dp_sq / self.int_f_sq if self.int_f_sq > 0 else 0.0

    @property
    def const_gradient_vs_source(self) -> float:
        return self.int_dp_sq / self.int_df_sq if self.int_df_sq > 0 else 0.0


@dataclass(frozen=True)
class RegularizedSolve:
    """Product solution P (about B N) of one regularized marching solve.

    ``rate`` holds P divided by the observation where the observation
    exceeds its support floor and NaN elsewhere; ``defined`` is the
    corresponding mask. ``data`` keeps the observation the solve consumed
    and ``F`` the source values it marched.
    """

    alpha: float
    scheme: str
    P: GridFunction
    F: np.ndarray
    rate: np.ndarray
    defined: np.ndarray
    data: GridFunction
    lambda0: float

    @property
    def grid(self) -> Grid:
        return self.P.grid


def _march(F: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """Implicit forward marching of alpha P' + 4 P = P(y/2) + F, P(0) = 0.

    The half-argument reads of nodes ``lo..2 lo - 2`` only touch nodes
    below ``lo``, so each such dyadic block is one linear recurrence with
    a known source and the constant coefficient ``r / (r + 4)``,
    ``r = alpha / h``, whose powers are formed once per march. The first
    ``SCALAR_NODES`` nodes are marched node by node instead. At the first
    node the read meets the not yet computed (zero) value there and
    reduces to the boundary value 0.
    """
    n = F.size - 1
    r = alpha / h
    denom = r + 4.0
    head = min(n, SCALAR_NODES)
    p = [0.0] * (head + 1)
    f = F[: head + 1].tolist()
    for j in range(1, head + 1):
        p[j] = (r * p[j - 1] + 0.5 * (p[j // 2] + p[(j + 1) // 2]) + f[j]) / denom
    P = np.zeros(n + 1)
    P[: head + 1] = p
    solve = constant_recurrence(r / denom, n - n // 2)
    lo = head + 1
    while lo <= n:
        hi = min(2 * lo - 2, n)
        source = half_sample_values(P, lo, hi)
        source += F[lo : hi + 1]
        source /= denom
        P[lo : hi + 1] = solve(source, P[lo - 1])
        lo = hi + 1
    return P


def stability_report(solve: RegularizedSolve) -> StabilityReport:
    """Energy diagnostics of ``solve`` against the source it marched."""
    grid = solve.grid
    h = grid.spacing
    alpha = solve.alpha
    P, F = solve.P.values, solve.F
    dP = derivative(P, h)
    dF = derivative(F, h)
    f_scale = max(1.0, float(np.abs(F).max()))
    return StabilityReport(
        sup_alpha_p_sq=alpha * float(np.max(P ** 2)),
        int_p_sq=trapezoid(P ** 2, grid),
        int_f_sq=trapezoid(F ** 2, grid),
        alpha_sq_int_dp_sq=alpha ** 2 * trapezoid(dP ** 2, grid),
        int_dp_sq=trapezoid(dP ** 2, grid),
        int_df_sq=trapezoid(dF ** 2, grid),
        source_vanishes_at_origin=abs(F[0]) <= 1e-12 * f_scale,
    )


def _solve(F: np.ndarray, data: GridFunction, alpha: float, scheme: str,
           lambda0: float) -> RegularizedSolve:
    """March the source ``F`` and divide the product by the observation ``data``."""
    P = _march(F, alpha, data.grid.spacing)
    dv = data.values
    defined = dv >= RATE_SUPPORT_FLOOR * float(dv.max())
    rate = np.divide(P, dv, out=np.full_like(P, np.nan), where=defined)
    return RegularizedSolve(
        alpha=alpha,
        scheme=scheme,
        P=GridFunction(data.grid, P),
        F=F,
        rate=rate,
        defined=defined,
        data=data,
        lambda0=lambda0,
    )


def solve_regularized_general(
    N: GridFunction,
    F: GridFunction,
    alpha: float,
) -> RegularizedSolve:
    """Solve the stabilized product equation with a general source.

    ``N`` only enters the recovered-rate division; the marching itself is
    driven entirely by the source.
    """
    if not 0.0 < alpha < np.inf:
        raise ValueError("regularization parameter must be positive and finite")
    if N.grid != F.grid:
        raise ValueError("source and observation grids differ")
    return _solve(F.values, N, alpha, "general", float("nan"))


def product_source(data: GridFunction, lambda0: float, scheme: str) -> np.ndarray:
    """Data terms of the product equation, lambda0 N(y/2) + 2 D[N(y/2)], with
    D the difference quotient of ``scheme``."""
    if scheme not in _DATA_QUOTIENTS:
        raise ValueError(f"unknown scheme {scheme!r}")
    half = half_sample_values(data.values)
    return lambda0 * half + 2.0 * _DATA_QUOTIENTS[scheme](half, data.grid.spacing)


def recover_rate(
    obs: NoisyObservation,
    alpha: float,
    scheme: str = "derivative-free",
) -> RegularizedSolve:
    """Recover the division rate from an observation.

    Marches P on :func:`product_source` of the scheme: ``direct-fd`` differences
    the half-sampled observation with the centred stencil, ``derivative-free``
    (default) with the backward quotient. The recovered rate is P over the
    observation wherever the observation exceeds its support floor.
    """
    if not 0.0 < alpha < np.inf:
        raise ValueError("regularization parameter must be positive and finite")
    data = obs.data
    if data.values[0] != 0.0:
        raise ValueError("observation must vanish at the origin (filter violated)")
    lam = obs.growth_rate()
    return _solve(product_source(data, lam, scheme), data, alpha, scheme, lam)


def weak_stability_check(exact_solve: RegularizedSolve, noisy_solve: RegularizedSolve) -> tuple[float, float]:
    """Squared product gap between two solves against its noise bound.

    Returns (int |P_noisy - P_exact|^2, |data gap|^2 / alpha^2), alpha being
    the regularization parameter both solves share; the ratio of the two is
    the empirical stability constant.
    """
    if exact_solve.grid != noisy_solve.grid:
        raise ValueError("solves live on different grids")
    if exact_solve.alpha != noisy_solve.alpha:
        raise ValueError("solves were run at different regularization parameters")
    grid, alpha = exact_solve.grid, exact_solve.alpha
    gap = noisy_solve.P.values - exact_solve.P.values
    data_gap = noisy_solve.data.values - exact_solve.data.values
    lhs = trapezoid(gap ** 2, grid)
    bound = trapezoid(data_gap ** 2, grid) / alpha ** 2
    return lhs, bound


def weighted_product_error(solve: RegularizedSolve, true_rate: GridFunction) -> float:
    """Recovery error in the observation-squared weight.

    Equals the L2 norm of P - B N_obs, which extends the weighted rate
    error over the whole grid without dividing by the observation.
    """
    return norm(solve.P.values - true_rate.values * solve.data.values, solve.grid)


def rate_error_on_support(
    solve: RegularizedSolve,
    true_rate: GridFunction,
    weight_values: np.ndarray | None = None,
) -> float:
    """L2 rate error over the defined region, weighted as in :func:`norm` when
    ``weight_values`` are given."""
    diff = np.subtract(solve.rate, true_rate.values, out=np.zeros_like(solve.rate),
                       where=solve.defined)
    return norm(diff, solve.grid, weight_values)
