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

Two ways to assemble the data terms are provided. ``direct-fd``
differentiates the (half-sampled) observation with the grid stencil.
``derivative-free`` substitutes S(y) = P(y) - (2/alpha) N(y/2), which
absorbs the data derivative into the unknown; the observation is then
never differentiated, only sampled at half and quarter arguments. On
noise-free data the two agree to first order in the mesh width.

Energy estimates for the marching problem (sup alpha P^2, mass and
gradient bounds against the source) and their empirical constants are
computed on request by :func:`stability_report`, not with every solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    GridFunction,
    derivative_values,
    half_sample_values,
    linear_recurrence,
    norm,
    trapezoid,
)

__all__ = [
    "NoisyObservation",
    "StabilityReport",
    "RegularizedSolve",
    "SCHEMES",
    "clamp_observation",
    "solve_regularized_general",
    "recover_rate",
    "stability_report",
    "weak_stability_check",
    "estimate_lambda0",
    "exact_product_source",
    "weighted_product_error",
    "rate_error_on_support",
]

SCHEMES = ("direct-fd", "derivative-free")

# Nodes where the observation falls below this fraction of its peak carry
# no usable rate information (the profile vanishes at both ends).
RATE_SUPPORT_FLOOR = 1e-6


@dataclass(frozen=True)
class NoisyObservation:
    """Observed size distribution, as clamped by :func:`clamp_observation`.

    ``epsilon`` is the achieved L2 distance to the truth when the truth
    was available (None otherwise); ``lambda0`` is the supplied growth
    rate, or None to estimate it from the data.
    """

    data: GridFunction
    epsilon: float | None
    lambda0: float | None = None

    def __post_init__(self) -> None:
        if self.epsilon is not None and self.epsilon < 0.0:
            raise ValueError("noise level must be nonnegative")

    @property
    def grid(self) -> Grid:
        return self.data.grid

    def growth_rate(self) -> float:
        return self.lambda0 if self.lambda0 is not None else estimate_lambda0(self)


def clamp_observation(
    raw: GridFunction,
    filters: tuple[GridFunction, GridFunction],
    truth: GridFunction | None = None,
    lambda0: float | None = None,
) -> NoisyObservation:
    """Clamp a raw observation into its filter envelopes.

    The filters encode what any admissible profile must satisfy, in
    particular the zero boundary value at the origin: an upper filter
    that does not vanish there, or crossing filters, are rejected.
    When the truth is supplied the achieved post-clamp distance is
    recorded as the observation's noise level.
    """
    lower, upper = filters
    if lower.grid != raw.grid or upper.grid != raw.grid:
        raise ValueError("filters must share the observation grid")
    if upper.values[0] != 0.0:
        raise ValueError("upper filter must vanish at the origin")
    if np.any(lower.values > upper.values):
        raise ValueError("filter envelopes cross")
    clamped = raw.with_values(np.clip(raw.values, lower.values, upper.values))
    achieved = None
    if truth is not None:
        achieved = norm(raw.with_values(clamped.values - truth.values))
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
    corresponding mask. ``data`` keeps the observation the solve consumed.
    """

    alpha: float
    scheme: str
    P: GridFunction
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
    a known source. At the first node the read meets the not yet computed
    (zero) value there and reduces to the boundary value 0.
    """
    n = F.size - 1
    P = np.zeros(n + 1)
    r = alpha / h
    denom = r + 4.0
    lo = 1
    while lo <= n:
        hi = min(max(lo, 2 * lo - 2), n)
        source = half_sample_values(P[: hi + 1])[lo:] + F[lo : hi + 1]
        P[lo : hi + 1] = linear_recurrence(r / denom, source / denom, P[lo - 1])
        lo = hi + 1
    return P


def stability_report(solve: RegularizedSolve, F: np.ndarray) -> StabilityReport:
    """Energy diagnostics of ``solve`` against the source values ``F``."""
    grid = solve.grid
    h = grid.spacing
    alpha = solve.alpha
    P = solve.P.values
    dP = derivative_values(P, h)
    dF = derivative_values(F, h)
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


def _with_rate(P: np.ndarray, data: GridFunction, alpha: float, scheme: str,
               lambda0: float) -> RegularizedSolve:
    grid = data.grid
    dv = data.values
    floor = RATE_SUPPORT_FLOOR * float(dv.max())
    defined = dv >= floor
    rate = np.full_like(P, np.nan)
    rate[defined] = P[defined] / dv[defined]
    return RegularizedSolve(
        alpha=alpha,
        scheme=scheme,
        P=GridFunction(grid, P),
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
    if alpha <= 0.0:
        raise ValueError("regularization parameter must be positive")
    if N.grid != F.grid:
        raise ValueError("source and observation grids differ")
    P = _march(F.values, alpha, F.grid.spacing)
    return _with_rate(P, N, alpha, "general", float("nan"))


def exact_product_source(data: GridFunction, lambda0: float) -> np.ndarray:
    """Data terms of the product equation: lambda0 N(y/2) + 2 d/dy N(y/2)."""
    half = half_sample_values(data.values)
    return lambda0 * half + 2.0 * derivative_values(half, data.grid.spacing)


def recover_rate(
    obs: NoisyObservation,
    alpha: float,
    scheme: str = "derivative-free",
) -> RegularizedSolve:
    """Recover the division rate from an observation.

    ``direct-fd`` assembles the data source with the discrete derivative
    of the half-sampled observation and marches for P directly.
    ``derivative-free`` (default) marches for the shifted unknown
    S(y) = P(y) - (2/alpha) N(y/2), whose equation

        alpha S' + 4 S = S(y/2) + (2/alpha) N(y/4) + (lambda0 - 8/alpha) N(y/2)

    carries no data derivative, then restores P. The recovered rate is
    P over the observation wherever the observation exceeds its support
    floor.
    """
    if alpha <= 0.0:
        raise ValueError("regularization parameter must be positive")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    data = obs.data
    if data.values[0] != 0.0:
        raise ValueError("observation must vanish at the origin (filter violated)")
    h = data.grid.spacing
    lam = obs.growth_rate()

    if scheme == "direct-fd":
        P = _march(exact_product_source(data, lam), alpha, h)
    else:
        half = half_sample_values(data.values)
        quarter = half_sample_values(half)
        F_s = (2.0 / alpha) * quarter + (lam - 8.0 / alpha) * half
        S = _march(F_s, alpha, h)
        P = S + (2.0 / alpha) * half

    return _with_rate(P, data, alpha, scheme, lam)


def weak_stability_check(
    exact_solve: RegularizedSolve,
    noisy_solve: RegularizedSolve,
    alpha: float,
) -> tuple[float, float]:
    """Squared product gap between two solves against its noise bound.

    Returns (int |P_noisy - P_exact|^2, |data gap|^2 / alpha^2); the ratio
    of the two is the empirical stability constant.
    """
    if exact_solve.grid != noisy_solve.grid:
        raise ValueError("solves live on different grids")
    if not (exact_solve.alpha == noisy_solve.alpha == alpha):
        raise ValueError("solves were run at different regularization parameters")
    grid = exact_solve.grid
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
    diff = solve.P.values - true_rate.values * solve.data.values
    return norm(GridFunction(solve.grid, diff))


def rate_error_on_support(
    solve: RegularizedSolve,
    true_rate: GridFunction,
    weight_values: np.ndarray | None = None,
) -> float:
    """Plain (or weighted) L2 rate error over the defined region."""
    mask = solve.defined
    diff = np.zeros_like(solve.rate)
    diff[mask] = solve.rate[mask] - true_rate.values[mask]
    if weight_values is not None:
        diff = diff * np.sqrt(np.maximum(weight_values, 0.0))
    return norm(GridFunction(solve.grid, diff))
