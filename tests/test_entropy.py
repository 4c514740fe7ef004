import numpy as np
import pytest

from celldiv.direct import bump_values, constant_rate, solve_direct, solve_pair
from celldiv.entropy import (
    ConvexProbe,
    build_perturbation,
    gap_study,
    gre_terms,
    minimal_moment_exponent,
    random_bump_directions,
)
from celldiv.grid import GridFunction, make_grid, norm, trapezoid


@pytest.fixture(scope="module")
def small_grid():
    return make_grid(12.0, 1024)


@pytest.fixture(scope="module")
def small_base(small_grid):
    return solve_pair(constant_rate(small_grid, 1.0), tol=1e-11)


def _bump(grid, center, width, amplitude):
    return GridFunction(grid, amplitude * bump_values(grid.nodes, center, width))


def test_probe_validation():
    with pytest.raises(ValueError):
        ConvexProbe("cubic")
    probe = ConvexProbe.positive_part(0.1)
    u = np.array([-0.5, 0.1, 0.3])
    np.testing.assert_allclose(probe.value(u), [0.0, 0.0, 0.2])
    np.testing.assert_allclose(probe.slope(u), [0.0, 0.0, 1.0])
    assert ConvexProbe.square().slope_jump is None
    assert probe.slope_jump == 0.1


def test_zero_perturbation_is_degenerate(small_grid, small_base):
    rate = constant_rate(small_grid, 1.0)
    zero = GridFunction(small_grid, np.zeros(small_grid.intervals + 1))
    pair = build_perturbation(rate, zero, base=small_base)
    assert pair.delta == 0.0
    assert abs(pair.delta_lambda) <= 1e-9
    assert norm(pair.delta_n) <= 1e-8
    assert norm(pair.delta_r) <= 1e-8
    for probe in (ConvexProbe.square(), ConvexProbe.linear()):
        lhs, rhs, _ = gre_terms(pair, probe)
        assert abs(lhs) <= 1e-10 and abs(rhs) <= 1e-10


def test_constant_shift_moves_growth_rate_only(small_grid, small_base):
    rate = constant_rate(small_grid, 1.0)
    shift = GridFunction(small_grid, np.full(small_grid.intervals + 1, 0.1))
    pair = build_perturbation(rate, shift, base=small_base)
    assert pair.delta_lambda == pytest.approx(0.1, abs=2e-5)


def test_perturbation_solvability(small_grid, small_base):
    rate = constant_rate(small_grid, 1.0)
    pair = build_perturbation(rate, _bump(small_grid, 2.0, 1.5, 0.08), base=small_base)
    # both conditions hold at the discretization level
    mass = trapezoid(pair.delta_n.values, small_grid)
    adjoint = trapezoid(small_base.phi.values * pair.delta_r.values, small_grid)
    assert abs(mass) <= 1e-12
    assert abs(adjoint) <= 1e-6
    scale = norm(pair.delta_r)
    assert abs(adjoint) <= 1e-3 * scale


def test_eigenvalue_shift_bound(small_grid, small_base):
    # |dlambda| <= C Delta with C assembled from the adjoint and the
    # perturbed profile
    rate = constant_rate(small_grid, 1.0)
    pair = build_perturbation(rate, _bump(small_grid, 2.0, 1.0, 0.1), base=small_base)
    phi = small_base.phi.values
    x = small_grid.nodes
    nbar = pair.perturbed.N.values
    c_growth = np.max(phi / (1.0 + x))
    c_profile = norm(GridFunction(small_grid, (1.0 + x) * nbar))
    pairing = trapezoid(nbar * phi, small_grid)
    constant = c_growth * c_profile / pairing
    assert abs(pair.delta_lambda) <= constant * pair.delta


def test_perturbation_rejects_inadmissible(small_grid, small_base):
    rate = constant_rate(small_grid, 1.0)
    too_deep = GridFunction(small_grid, -1.5 * bump_values(small_grid.nodes, 2.0, 1.0))
    with pytest.raises(ValueError):
        build_perturbation(rate, too_deep, base=small_base)


def test_gre_terms_rejects_base_without_adjoint(small_grid):
    rate = constant_rate(small_grid, 1.0)
    base = solve_direct(rate, tol=1e-11)
    pair = build_perturbation(rate, _bump(small_grid, 2.0, 1.5, 0.08), base)
    with pytest.raises(ValueError, match="adjoint profile"):
        gre_terms(pair, ConvexProbe.square())


def test_gre_balance_linear_probe_reduces_to_solvability(small_grid, small_base):
    rate = constant_rate(small_grid, 1.0)
    pair = build_perturbation(rate, _bump(small_grid, 1.5, 1.5, 0.08), base=small_base)
    lhs, rhs, scale = gre_terms(pair, ConvexProbe.linear())
    assert abs(lhs) <= 1e-13 * max(scale, 1.0)  # bracket cancels for slope-one probes
    assert abs(rhs) <= 1e-6 * max(scale, 1.0)


def test_gre_balance_square_probe_second_order():
    gaps = []
    for n in (1024, 2048):
        grid = make_grid(12.0, n)
        rate = constant_rate(grid, 1.0)
        base = solve_pair(rate, tol=1e-11)
        pair = build_perturbation(rate, _bump(grid, 1.5, 2.0, 0.1), base=base)
        lhs, rhs, scale = gre_terms(pair, ConvexProbe.square())
        gaps.append(abs(lhs - rhs) / scale)
    assert gaps[0] <= 1e-3
    assert gaps[0] / gaps[1] >= 3.0  # near fourfold for a second-order balance


def test_gre_dissipation_sign(small_grid, small_base):
    # the bracket side is nonpositive for convex probes
    rate = constant_rate(small_grid, 1.0)
    pair = build_perturbation(rate, _bump(small_grid, 1.5, 2.0, 0.1), base=small_base)
    for probe in (ConvexProbe.square(), ConvexProbe.positive_part(0.1)):
        lhs, rhs, _ = gre_terms(pair, probe)
        assert lhs <= 1e-12
        assert lhs == pytest.approx(rhs, abs=1e-3 * max(abs(lhs), 1e-6))


def test_gre_positive_part_crossing_cells_handled(small_grid, small_base):
    # perturbation large enough that the ratio crosses the threshold
    rate = constant_rate(small_grid, 1.0)
    pair = build_perturbation(rate, _bump(small_grid, 1.0, 1.5, 0.1), base=small_base)
    lhs, rhs, scale = gre_terms(pair, ConvexProbe.positive_part(0.1))
    assert lhs < 0.0  # crossings exist, identity is nontrivial
    assert abs(lhs - rhs) <= 1e-3 * scale


def test_minimal_moment_exponent():
    assert minimal_moment_exponent(1.0, 2.0) == 3  # 2/2^2 < 1, 2/2 = 1 not strict
    assert minimal_moment_exponent(1.0, 1.05) == 2
    assert minimal_moment_exponent(2.0, 1.0) == 1


def test_gap_study_rejects_zero_direction(small_grid):
    rate = constant_rate(small_grid, 1.0)
    zero = GridFunction(small_grid, np.zeros(small_grid.intervals + 1))
    with pytest.raises(ValueError, match="zero"):
        gap_study(rate, [zero], 0.05)


def test_gap_study_small_family(small_grid):
    rate = constant_rate(small_grid, 1.0)
    directions = random_bump_directions(small_grid, 6, seed=3)
    report = gap_study(rate, directions, 0.05, tol=1e-9)
    assert report.m == 2
    assert len(report.samples) == 6
    assert report.nu_hat > 0.0
    assert all(s.ratio >= report.nu_hat for s in report.samples)
    lhs, rhs, constant = report.moment_check
    assert np.isfinite(constant) and constant >= 0.0
    assert lhs <= constant * rhs + 1e-12


def test_random_directions_deterministic(small_grid):
    a = random_bump_directions(small_grid, 3, seed=11)
    b = random_bump_directions(small_grid, 3, seed=11)
    for f, g in zip(a, b):
        np.testing.assert_array_equal(f.values, g.values)
