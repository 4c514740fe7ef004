import numpy as np
import pytest

from celldiv.grid import GridFunction, WeightSpec, make_grid, norm, seminorm
from celldiv.toy import (
    ALPHA_FLOOR,
    NoiseFloorWarning,
    ToyProblem,
    optimal_alpha,
    toy_solve,
    toy_study,
)
from celldiv.noise import perturbed


@pytest.fixture(scope="module")
def square_problem():
    grid = make_grid(1.0, 4096)
    x = grid.nodes
    return ToyProblem(
        GridFunction(grid, np.ones_like(x)),
        GridFunction(grid, x ** 2),
        apriori=2.0,
        u_true=GridFunction(grid, 2.0 * x),
    )


def test_problem_validation():
    grid = make_grid(1.0, 64)
    x = grid.nodes
    ones = GridFunction(grid, np.ones_like(x))
    with pytest.raises(ValueError, match="vanish"):
        ToyProblem(ones, GridFunction(grid, x + 1.0))
    with pytest.raises(ValueError, match="positive"):
        ToyProblem(GridFunction(grid, x), GridFunction(grid, x ** 2))
    with pytest.raises(ValueError, match="curvature"):
        ToyProblem(ones, GridFunction(grid, x ** 2), apriori=0.5)


def test_compatibility_flag():
    grid = make_grid(1.0, 256)
    x = grid.nodes
    ones = GridFunction(grid, np.ones_like(x))
    assert ToyProblem(ones, GridFunction(grid, x ** 2)).compatible
    assert not ToyProblem(ones, GridFunction(grid, x.copy())).compatible


def test_zero_data_gives_zero(square_problem):
    grid = square_problem.data.grid
    p = ToyProblem(square_problem.weight, GridFunction(grid, np.zeros(grid.intervals + 1)))
    u = toy_solve(p, 0.05)
    np.testing.assert_array_equal(u.values, 0.0)


def test_closed_form_square_data(square_problem):
    grid = square_problem.data.grid
    x = grid.nodes
    alpha = 0.1
    u = toy_solve(square_problem, alpha)
    closed = 2.0 * x - 2.0 * alpha * (1.0 - np.exp(-x / alpha))
    assert norm(GridFunction(grid, u.values - closed)) <= 5.0 * grid.spacing


def test_consistency_bound_square_data(square_problem):
    # error within alpha * ||v''|| and matching its analytic value
    grid = square_problem.data.grid
    x = grid.nodes
    alpha = 0.1
    u = toy_solve(square_problem, alpha)
    weight = WeightSpec.squared_data(square_problem.weight)
    err = norm(GridFunction(grid, u.values - 2.0 * x), weight)
    assert err <= alpha * 2.0
    analytic = 2.0 * alpha * np.sqrt(
        np.trapezoid((1.0 - np.exp(-x / alpha)) ** 2, dx=grid.spacing)
    )
    assert err == pytest.approx(analytic, rel=2e-3)


def test_solve_rejects_bad_alpha(square_problem):
    with pytest.raises(ValueError):
        toy_solve(square_problem, 0.0)
    with pytest.raises(ValueError):
        toy_solve(square_problem, -0.1)


def test_solver_is_linear_in_data(square_problem, rng):
    grid = square_problem.data.grid
    v1 = GridFunction(grid, np.sin(3.0 * grid.nodes) - np.sin(0.0))
    v2 = GridFunction(grid, grid.nodes ** 3)
    both = GridFunction(grid, v1.values + v2.values)
    alpha = 0.03
    u1 = toy_solve(square_problem, alpha, data=v1)
    u2 = toy_solve(square_problem, alpha, data=v2)
    u12 = toy_solve(square_problem, alpha, data=both)
    np.testing.assert_allclose(u12.values, u1.values + u2.values, rtol=0, atol=1e-13)


def test_stability_estimate_family(square_problem):
    # alpha * ||u_alpha|| stays below ||v|| for rough and smooth data
    grid = square_problem.data.grid
    x = grid.nodes
    weight = WeightSpec.squared_data(square_problem.weight)
    for values in (x ** 2, np.sin(40.0 * x), np.exp(-x / 0.01) - 1.0):
        data = GridFunction(grid, values - values[0])
        p = ToyProblem(square_problem.weight, data)
        for alpha in (1e-3, 1e-2, 1e-1):
            u = toy_solve(p, alpha)
            assert alpha * norm(u, weight) <= norm(data) * (1.0 + 1e-9)


def test_consistency_estimate_compatible_suite():
    grid = make_grid(1.0, 4096)
    x = grid.nodes
    ones = GridFunction(grid, np.ones_like(x))
    weight = WeightSpec.squared_data(ones)
    suite = [
        (x ** 2, 2.0 * x),
        (x ** 2 + x ** 3, 2.0 * x + 3.0 * x ** 2),
        (1.0 - np.cos(np.pi * x), np.pi * np.sin(np.pi * x)),
    ]
    for values, exact in suite:
        p = ToyProblem(ones, GridFunction(grid, values), u_true=GridFunction(grid, exact))
        assert p.compatible
        curvature = seminorm(p.data, "H2")
        for alpha in (1e-2, 5e-2, 1e-1):
            u = toy_solve(p, alpha)
            err = norm(GridFunction(grid, u.values - exact), weight)
            assert err <= 1.02 * alpha * curvature + 5.0 * grid.spacing


def test_incompatible_data_shows_boundary_layer():
    # slope at the origin forces an O(sqrt(alpha)) layer, breaking the
    # consistency bound; the problem flags such data
    grid = make_grid(1.0, 4096)
    x = grid.nodes
    ones = GridFunction(grid, np.ones_like(x))
    p = ToyProblem(ones, GridFunction(grid, x.copy()), u_true=ones)
    assert not p.compatible
    alpha = 0.01
    u = toy_solve(p, alpha)
    err = norm(GridFunction(grid, u.values - 1.0), WeightSpec.squared_data(ones))
    curvature = seminorm(p.data, "H2")  # about zero for linear data
    assert err > alpha * curvature + 10.0 * grid.spacing  # bound genuinely fails


def test_optimal_alpha_values():
    assert optimal_alpha(1e-4, 1.0) == pytest.approx(1e-2)
    assert optimal_alpha(4.0, 1.0) == pytest.approx(2.0)
    assert 2.0 * np.sqrt(4.0 * 1.0) == pytest.approx(4.0)  # predicted bound at that point
    with pytest.raises(ValueError):
        optimal_alpha(1e-4, 0.0)
    with pytest.raises(ValueError):
        optimal_alpha(-1.0, 1.0)


def test_optimal_alpha_zero_noise_flagged():
    with pytest.warns(NoiseFloorWarning):
        alpha = optimal_alpha(0.0, 1.0)
    assert alpha == ALPHA_FLOOR


def test_study_slope_and_bound(square_problem):
    report = toy_study(square_problem, seeds=4, epsilons=[1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    assert report.slope == pytest.approx(0.5, abs=0.15)
    assert all(r.passed for r in report.rows)
    # halving the noise with re-balanced alpha shrinks the bound by sqrt(2)
    by_eps = {r.epsilon: r.bound for r in report.rows}
    assert by_eps[1e-4] / by_eps[1e-5] == pytest.approx(np.sqrt(10.0))


def test_bound_shrinks_by_sqrt2_when_noise_halves(square_problem):
    report = toy_study(square_problem, seeds=1, epsilons=[2e-4, 1e-4])
    bounds = {r.epsilon: r.bound for r in report.rows}
    assert bounds[2e-4] / bounds[1e-4] == pytest.approx(np.sqrt(2.0))


def test_study_noise_free_row(square_problem):
    report = toy_study(square_problem, seeds=3, epsilons=[0.0])
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.epsilon == 0.0
    assert row.bound == 0.0
    assert row.passed
    assert report.slope is None


def _toy_loop(v, weight, alpha, h):
    """Per-node reference for the stabilized toy marcher."""
    w = np.empty_like(v)
    w[0] = 0.0
    scale = alpha / (alpha + h)
    gain = 1.0 / (alpha + h)
    dv = np.diff(v)
    for j in range(v.size - 1):
        w[j + 1] = scale * w[j] + gain * dv[j]
    return w / weight


@pytest.mark.parametrize("n", [16, 17, 1024, 4096, 65536])
def test_toy_solve_matches_per_node_loop(n):
    grid = make_grid(1.0, n)
    x = grid.nodes
    p = ToyProblem(GridFunction(grid, 1.0 + x), GridFunction(grid, x ** 2))
    for alpha in (1e-8, 1e-4, 3e-3, 1e-2, 0.3, 10.0):
        for data in (p.data, perturbed(p.data, 1e-3, seed=1)):
            expected = _toy_loop(data.values, p.weight.values, alpha, grid.spacing)
            got = toy_solve(p, alpha, data=data).values
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), alpha
