import numpy as np
import pytest

import celldiv.entropy
from celldiv.direct import bump_rate, bump_values, constant_rate, piecewise_rate, solve_direct, solve_pair
from celldiv.entropy import (
    RATIO_FLOOR,
    ConvexProbe,
    build_perturbation,
    gap_study,
    gre_terms,
    minimal_moment_exponent,
    perturbations,
    random_bump_directions,
)
from celldiv.grid import double_sample_values, make_grid, norm, trapezoid


@pytest.fixture(scope="module")
def small_grid():
    return make_grid(12.0, 1024)


@pytest.fixture(scope="module")
def small_base(small_grid):
    return solve_pair(constant_rate(small_grid, 1.0), tol=1e-11)


def _bump(grid, center, width, amplitude):
    return amplitude * bump_values(grid.nodes, center, width)


def test_probe_validation():
    with pytest.raises(ValueError):
        ConvexProbe("cubic")
    probe = ConvexProbe("positive-part", 0.1)
    u = np.array([-0.5, 0.1, 0.3])
    np.testing.assert_allclose(probe.value(u), [0.0, 0.0, 0.2])
    np.testing.assert_allclose(probe.slope(u), [0.0, 0.0, 1.0])
    assert ConvexProbe("square").slope_jump is None
    assert probe.slope_jump == 0.1


def test_zero_perturbation_is_degenerate(small_grid, small_base):
    rate = constant_rate(small_grid, 1.0)
    zero = np.zeros(small_grid.intervals + 1)
    pair = build_perturbation(rate, zero, base=small_base)
    assert pair.delta == 0.0
    assert abs(pair.delta_lambda) <= 1e-9
    assert norm(pair.delta_n, small_grid) <= 1e-8
    assert norm(pair.delta_r, small_grid) <= 1e-8
    for probe in (ConvexProbe("square"), ConvexProbe("linear")):
        lhs, rhs, _ = gre_terms(pair, probe)
        assert abs(lhs) <= 1e-10 and abs(rhs) <= 1e-10


def test_constant_shift_moves_growth_rate_only(small_grid, small_base):
    rate = constant_rate(small_grid, 1.0)
    shift = np.full(small_grid.intervals + 1, 0.1)
    pair = build_perturbation(rate, shift, base=small_base)
    assert pair.delta_lambda == pytest.approx(0.1, abs=2e-5)


def test_perturbation_solvability(small_grid, small_base):
    # The adjoint weights the collocation rows, so int phi dR is their
    # weighted sum and vanishes to round-off; the step rate's jump leaves
    # phi first order in h, and the condition still holds exactly.
    step = piecewise_rate(small_grid, [0.0, 3.0], [1.0, 2.0])
    cases = ((constant_rate(small_grid, 1.0), small_base), (step, solve_pair(step, tol=1e-11)))
    for rate, base in cases:
        pair = build_perturbation(rate, _bump(small_grid, 2.0, 1.5, 0.08), base=base)
        mass = trapezoid(pair.delta_n, small_grid)
        adjoint = trapezoid(base.phi.values * pair.delta_r, small_grid)
        assert abs(mass) <= 1e-12
        assert abs(adjoint) <= 1e-12
        scale = norm(pair.delta_r, small_grid)
        assert abs(adjoint) <= 1e-3 * scale


def test_perturbation_solvability_on_odd_grid():
    # On an odd grid phi(L) = 0, and the condition still holds to round-off.
    grid = make_grid(12.0, 1001)
    rate = bump_rate(grid, 1.0, 0.4, 2.0, 1.5)
    base = solve_pair(rate, tol=1e-11)
    assert base.phi.values[:-1].min() > 0.0
    pair = build_perturbation(rate, _bump(grid, 2.0, 1.5, 0.08), base=base)
    assert abs(trapezoid(base.phi.values * pair.delta_r, grid)) <= 1e-12


def test_eigenvalue_shift_bound(small_grid, small_base):
    # |dlambda| <= C Delta with C assembled from the adjoint and the
    # perturbed profile
    rate = constant_rate(small_grid, 1.0)
    pair = build_perturbation(rate, _bump(small_grid, 2.0, 1.0, 0.1), base=small_base)
    phi = small_base.phi.values
    x = small_grid.nodes
    nbar = pair.perturbed.N.values
    c_growth = np.max(phi / (1.0 + x))
    c_profile = norm((1.0 + x) * nbar, small_grid)
    pairing = trapezoid(nbar * phi, small_grid)
    constant = c_growth * c_profile / pairing
    assert abs(pair.delta_lambda) <= constant * pair.delta


def test_perturbation_rejects_inadmissible(small_grid, small_base):
    rate = constant_rate(small_grid, 1.0)
    too_deep = -1.5 * bump_values(small_grid.nodes, 2.0, 1.0)
    with pytest.raises(ValueError):
        build_perturbation(rate, too_deep, base=small_base)


def test_gre_terms_rejects_base_without_adjoint(small_grid):
    rate = constant_rate(small_grid, 1.0)
    base = solve_direct(rate, tol=1e-11)
    pair = build_perturbation(rate, _bump(small_grid, 2.0, 1.5, 0.08), base)
    with pytest.raises(ValueError, match="adjoint profile"):
        gre_terms(pair, ConvexProbe("square"))


def test_gre_balance_linear_probe_reduces_to_solvability(small_grid, small_base):
    rate = constant_rate(small_grid, 1.0)
    pair = build_perturbation(rate, _bump(small_grid, 1.5, 1.5, 0.08), base=small_base)
    lhs, rhs, scale = gre_terms(pair, ConvexProbe("linear"))
    assert abs(lhs) <= 1e-13 * max(scale, 1.0)  # bracket cancels for slope-one probes
    assert abs(rhs) <= 1e-6 * max(scale, 1.0)


def _gre_terms_from_doubled_samples(pair, probe):
    """Reference for smooth probes: u(2x) formed from doubled samples of dN and N."""
    grid = pair.base.N.grid
    N, phi, B = pair.base.N.values, pair.base.phi.values, pair.base_rate.values
    dN, dR = pair.delta_n, pair.delta_r
    floor = RATIO_FLOOR * float(N.max())
    ok = N >= floor
    u = np.zeros_like(N)
    u[ok] = dN[ok] / N[ok]
    N2, dN2 = double_sample_values(N), double_sample_values(dN)
    ok2 = N2 >= floor
    u2 = np.zeros_like(N)
    u2[ok2] = dN2[ok2] / N2[ok2]
    coef = 4.0 * phi * double_sample_values(B * N)
    coef[~ok2] = 0.0
    coef[~ok] = 0.0
    slope, val, val2 = probe.slope(u), probe.value(u), probe.value(u2)
    pairing = np.where(ok, slope * dR * phi, 0.0)
    lhs = trapezoid(coef * (slope * (u2 - u) + val - val2), grid)
    scale = trapezoid(
        coef * (np.abs(slope * u2) + np.abs(slope * u) + np.abs(val) + np.abs(val2)), grid
    ) + trapezoid(np.abs(pairing), grid)
    return float(lhs), float(-trapezoid(pairing, grid)), float(scale)


def test_gre_terms_match_doubled_samples_bit_for_bit():
    # the faster decay past x = 3 puts N(2x) below the ratio floor while N(x) clears it
    grid = make_grid(12.0, 1024)
    rate = piecewise_rate(grid, [0.0, 3.0], [1.0, 2.0])
    pair = build_perturbation(rate, _bump(grid, 2.0, 1.5, 0.08), base=solve_pair(rate, tol=1e-11))
    N = pair.base.N.values
    floor = RATIO_FLOOR * N.max()
    assert np.any((N >= floor) & (double_sample_values(N) < floor) & (np.arange(N.size) <= N.size // 2))
    for probe in (ConvexProbe("square"), ConvexProbe("linear")):
        assert gre_terms(pair, probe) == _gre_terms_from_doubled_samples(pair, probe)


def test_gre_balance_square_probe_second_order():
    gaps = []
    for n in (1024, 2048):
        grid = make_grid(12.0, n)
        rate = constant_rate(grid, 1.0)
        base = solve_pair(rate, tol=1e-11)
        pair = build_perturbation(rate, _bump(grid, 1.5, 2.0, 0.1), base=base)
        lhs, rhs, scale = gre_terms(pair, ConvexProbe("square"))
        gaps.append(abs(lhs - rhs) / scale)
    assert gaps[0] <= 1e-3
    assert gaps[0] / gaps[1] >= 3.0  # near fourfold for a second-order balance


def test_gre_dissipation_sign(small_grid, small_base):
    # the bracket side is nonpositive for convex probes
    rate = constant_rate(small_grid, 1.0)
    pair = build_perturbation(rate, _bump(small_grid, 1.5, 2.0, 0.1), base=small_base)
    for probe in (ConvexProbe("square"), ConvexProbe("positive-part", 0.1)):
        lhs, rhs, _ = gre_terms(pair, probe)
        assert lhs <= 1e-12
        assert lhs == pytest.approx(rhs, abs=1e-3 * max(abs(lhs), 1e-6))


def test_gre_positive_part_crossing_cells_handled(small_grid, small_base):
    # perturbation large enough that the ratio crosses the threshold
    rate = constant_rate(small_grid, 1.0)
    pair = build_perturbation(rate, _bump(small_grid, 1.0, 1.5, 0.1), base=small_base)
    lhs, rhs, scale = gre_terms(pair, ConvexProbe("positive-part", 0.1))
    assert lhs < 0.0  # crossings exist, identity is nontrivial
    assert abs(lhs - rhs) <= 1e-3 * scale


def test_minimal_moment_exponent():
    assert minimal_moment_exponent(1.0, 2.0) == 3  # 2/2^2 < 1, 2/2 = 1 not strict
    assert minimal_moment_exponent(1.0, 1.05) == 2
    assert minimal_moment_exponent(2.0, 1.0) == 1


def test_gap_study_rejects_zero_direction(small_grid):
    rate = constant_rate(small_grid, 1.0)
    zero = np.zeros(small_grid.intervals + 1)
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


@pytest.mark.parametrize("amplitude", [-0.05, np.nan, np.inf])
def test_perturbations_check_the_amplitude_when_called(small_grid, small_base, amplitude):
    # before any pair is built: gap_study reads the amplitude before its first pair
    rate = constant_rate(small_grid, 1.0)
    with pytest.raises(ValueError, match="perturbation amplitude must be nonnegative and finite"):
        perturbations(rate, small_base, [], amplitude, 1e-9)


def test_perturbations_reject_a_zero_direction_when_called(small_grid, small_base, monkeypatch):
    # gap and gre both refuse it before any perturbed solve, with one message
    solves = []
    monkeypatch.setattr(celldiv.entropy, "solve_direct", lambda *args, **kw: solves.append(args))
    rate = constant_rate(small_grid, 1.0)
    directions = [_bump(small_grid, 3.0, 1.0, 1.0), np.zeros(small_grid.intervals + 1)]
    with pytest.raises(ValueError, match="zero perturbation direction rejected"):
        perturbations(rate, small_base, directions, 0.05, 1e-9)
    assert solves == []


def test_perturbed_growth_rates_are_python_floats():
    # The directions of `celldiv gap --bspec constant:1.0 --grid-n 4096
    # --directions 8 --amplitude 0.05 --seed 3`: in all eight the root
    # search's last step is clamped to its minimum step, which must not make
    # lambda0 a numpy scalar.
    grid = make_grid(12.0, 4096)
    rate = constant_rate(grid, 1.0)
    base = solve_direct(rate)
    directions = random_bump_directions(grid, 8, 3)
    for pair in perturbations(rate, base, directions, 0.05, 1e-9):
        assert type(pair.perturbed.lambda0) is float


def test_random_directions_deterministic(small_grid):
    a = random_bump_directions(small_grid, 3, seed=11)
    b = random_bump_directions(small_grid, 3, seed=11)
    for f, g in zip(a, b):
        np.testing.assert_array_equal(f, g)
