"""Recovering a function from its weighted antiderivative, stably.

Given data v with int_0^x w(s) u(s) ds = v(x), differentiating noisy v is
ill posed. The stabilized problem adds a small first-order term,

    alpha (w u_a)' + w u_a = v',    (w u_a)(0) = 0,

and is solved by implicit backward marching so that any ratio of alpha to
the mesh width is stable. The data enters only through difference
quotients; noisy observations are never differentiated with a finer
stencil than the grid. Balancing the consistency error (alpha times the
data curvature bound E) against the amplified noise (epsilon / alpha)
gives the parameter rule alpha = sqrt(epsilon / E) and a total error of
at most 2 sqrt(epsilon E).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fitting import fit_loglog_slope
from .grid import GridFunction, constant_recurrence, derivative, norm
from .noise import perturbed, unit_noise

__all__ = [
    "ToyProblem",
    "ToyStudyRow",
    "ToyStudyReport",
    "NoiseFloorWarning",
    "ALPHA_FLOOR",
    "toy_solve",
    "optimal_alpha",
    "toy_study",
]

# Returned instead of zero when the noise level vanishes; the limit
# alpha -> 0 is the unregularized (ill-posed) problem.
ALPHA_FLOOR = 1e-8


class NoiseFloorWarning(UserWarning):
    """Raised-as-warning flag: noise level zero, smallest positive alpha used."""


def _curvature(f: GridFunction) -> float:
    """H2 seminorm of ``f``: the L2 norm of its second discrete derivative."""
    h = f.grid.spacing
    return norm(derivative(derivative(f.values, h), h), f.grid)


@dataclass(frozen=True)
class ToyProblem:
    """Weighted-antiderivative data on [0, L].

    ``weight`` must be strictly positive, the data must vanish at the left
    endpoint, and when an a-priori curvature bound ``apriori`` is supplied
    the discrete second derivative of the data must respect it.
    ``u_true`` optionally carries the exact solution for error studies;
    when absent the reference is the difference quotient of the data.
    """

    weight: GridFunction
    data: GridFunction
    apriori: float | None = None
    u_true: GridFunction | None = None

    def __post_init__(self) -> None:
        if self.weight.grid != self.data.grid:
            raise ValueError("weight and data live on different grids")
        if self.weight.values.min() <= 0.0:
            raise ValueError("weight must be strictly positive")
        scale = max(1.0, float(np.abs(self.data.values).max()))
        if abs(self.data.values[0]) > 1e-12 * scale:
            raise ValueError("data must vanish at the left endpoint")
        if self.apriori is not None:
            observed = _curvature(self.data)
            if not observed <= self.apriori * (1.0 + 1e-3) + 1e-9:
                raise ValueError(
                    f"data curvature {observed:.6g} exceeds the declared bound {self.apriori:.6g}"
                )

    @property
    def compatible(self) -> bool:
        """True when the data slope vanishes at 0, so no boundary layer forms.

        The discrete slope carries the second-order stencil error, so the
        test tolerance scales with the squared mesh width.
        """
        slope = derivative(self.data.values, self.data.grid.spacing)
        scale = max(1.0, float(np.abs(slope).max()))
        tol = max(1e-8, 20.0 * self.data.grid.spacing ** 2)
        return abs(slope[0]) <= tol * scale

    def curvature_bound(self) -> float:
        return self.apriori if self.apriori is not None else _curvature(self.data)

    def reference(self) -> GridFunction:
        if self.u_true is not None:
            return self.u_true
        slope = derivative(self.data.values, self.data.grid.spacing)
        return self.data.with_values(slope / self.weight.values)


def toy_solve(problem: ToyProblem, alpha: float, data: GridFunction | None = None) -> GridFunction:
    """March the stabilized first-order problem and return u_alpha.

    ``data`` overrides the problem's data (used for noisy realizations);
    only its difference quotients enter the scheme, so a constant offset
    or endpoint noise is harmless.
    """
    if not 0.0 < alpha < np.inf:
        raise ValueError("regularization parameter must be positive and finite")
    v = (problem.data if data is None else data).values
    h = problem.data.grid.spacing
    # w_{j+1} = (alpha w_j + v_{j+1} - v_j) / (alpha + h),  w_0 = 0
    w = np.zeros_like(v)
    w[1:] = constant_recurrence(alpha / (alpha + h), v.size - 1)(np.diff(v) / (alpha + h))
    return problem.data.with_values(w / problem.weight.values)


def optimal_alpha(epsilon: float, bound: float) -> float:
    """Minimizer sqrt(epsilon / bound) of alpha -> alpha bound + epsilon / alpha.

    A zero noise level would give alpha = 0, which is rejected: the
    smallest supported positive value is returned and flagged through
    :class:`NoiseFloorWarning`.
    """
    if not 0.0 < bound < np.inf:
        raise ValueError("a-priori bound must be positive and finite")
    if epsilon < 0.0:
        raise ValueError("noise level must be nonnegative")
    if epsilon == 0.0:
        warnings.warn("zero noise level, returning the smallest positive alpha", NoiseFloorWarning)
        return ALPHA_FLOOR
    return float(np.sqrt(epsilon / bound))


@dataclass(frozen=True)
class ToyStudyRow:
    epsilon: float
    seed: int
    alpha: float
    error: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class ToyStudyReport:
    rows: list[ToyStudyRow]
    slope: float | None = None
    slope_halfwidth: float | None = None


def toy_study(problem: ToyProblem, seeds: int, epsilons) -> ToyStudyReport:
    """Noise sweep with the balanced parameter rule.

    For every noise level the data is perturbed to exact L2 distance
    epsilon, solved with alpha = sqrt(epsilon / E), and the recovery error
    is measured in the weight-squared norm against the reference solution.
    Rows pass when the error stays within 10% of the predicted bound
    2 sqrt(epsilon E); noise-free rows are judged against the consistency
    bound alpha E plus the scheme floor instead. The fitted slope of log
    error against log epsilon is attached when at least two noisy levels
    are present.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    bound = problem.curvature_bound()
    reference = problem.reference()
    weight = problem.weight.values ** 2
    grid = problem.data.grid
    h = grid.spacing
    levels = sorted(set(float(e) for e in epsilons), reverse=True)
    if not all(0.0 <= e < np.inf for e in levels):
        raise ValueError("noise levels must be nonnegative and finite")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoiseFloorWarning)
        alphas = [optimal_alpha(eps, bound) for eps in levels]
    # Each seed's noise draw serves every level.
    draws = [unit_noise(grid, seed) for seed in range(seeds)]
    rows: list[ToyStudyRow] = []
    for eps, alpha in zip(levels, alphas):
        for seed in range(seeds):
            solution = toy_solve(problem, alpha, data=perturbed(problem.data, eps, draws[seed]))
            err = norm(solution.values - reference.values, grid, weight)
            predicted = 2.0 * float(np.sqrt(eps * bound))
            if eps == 0.0:
                ok = err <= 1.1 * alpha * bound + 2.0 * h * bound
            else:
                ok = err <= 1.1 * predicted
            rows.append(ToyStudyRow(eps, seed, alpha, err, predicted, ok))
            if eps == 0.0:
                break  # noise-free rows are seed-independent
    noisy_eps = sorted({r.epsilon for r in rows if r.epsilon > 0.0})
    slope = halfwidth = None
    if len(noisy_eps) >= 2:
        means = [float(np.mean([r.error for r in rows if r.epsilon == e])) for e in noisy_eps]
        slope, halfwidth = fit_loglog_slope(noisy_eps, means)
    return ToyStudyReport(rows, slope, halfwidth)
