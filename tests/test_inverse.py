import numpy as np
import pytest

from celldiv.direct import constant_b_series
from celldiv.fitting import fit_loglog_slope
from celldiv.grid import GridFunction, half_sample_values, make_grid, norm
from celldiv.harness import add_noise, default_filters
from celldiv.inverse import (
    _march,
    clamp_observation,
    estimate_lambda0,
    exact_product_source,
    rate_error_on_support,
    recover_rate,
    solve_regularized_general,
    stability_report,
    weak_stability_check,
    weighted_product_error,
)
from celldiv.noise import perturbed


@pytest.fixture(scope="module")
def exact_obs(grid12, unit_series):
    return clamp_observation(
        unit_series, default_filters(unit_series), truth=unit_series, lambda0=1.0
    )


def _ones(grid):
    return GridFunction(grid, np.ones(grid.intervals + 1))


def test_clamp_inside_is_identity(grid12, unit_series):
    obs = clamp_observation(unit_series, default_filters(unit_series), truth=unit_series)
    np.testing.assert_allclose(obs.data.values[1:], unit_series.values[1:])
    assert obs.data.values[0] == 0.0
    assert obs.epsilon <= 1e-12


def test_clamp_enforces_zero_at_origin(grid12, unit_series):
    raw_values = unit_series.values.copy()
    raw_values[0] = 0.3
    raw = GridFunction(grid12, raw_values)
    obs = clamp_observation(raw, default_filters(unit_series))
    assert obs.data.values[0] == 0.0


def test_clamp_clips_negative_excursions(grid12, unit_series):
    raw_values = unit_series.values.copy()
    raw_values[100::50] -= 1.0
    raw = GridFunction(grid12, raw_values)
    obs = clamp_observation(raw, default_filters(unit_series))
    assert obs.data.values.min() >= 0.0


def test_clamp_rejects_crossed_filters(grid12, unit_series):
    lower, upper = default_filters(unit_series)
    with pytest.raises(ValueError, match="cross"):
        clamp_observation(unit_series, (upper, lower))


def test_clamp_rejects_upper_filter_open_at_origin(grid12, unit_series):
    lower, upper = default_filters(unit_series)
    open_upper = upper.with_values(upper.values + 1.0)
    with pytest.raises(ValueError, match="vanish at the origin"):
        clamp_observation(unit_series, (lower, open_upper))


def test_estimate_lambda0(grid12, unit_series):
    obs = clamp_observation(unit_series, default_filters(unit_series))
    assert estimate_lambda0(obs) == pytest.approx(1.0, abs=1e-4)
    grid = make_grid(6.0, 2048)
    series2 = constant_b_series(2.0, grid)
    obs2 = clamp_observation(series2, default_filters(series2))
    assert estimate_lambda0(obs2) == pytest.approx(2.0, abs=1e-3)


def test_estimate_lambda0_noisy(grid12, unit_series):
    obs = add_noise(unit_series, 1e-3, seed=5)
    assert estimate_lambda0(obs) == pytest.approx(1.0, abs=0.05)


def test_estimate_lambda0_rejects_nonpositive_moment(grid12):
    zero = GridFunction(grid12, np.zeros(grid12.intervals + 1))
    obs = clamp_observation(zero, default_filters(zero))
    with pytest.raises(ValueError, match="moment"):
        estimate_lambda0(obs)


def test_general_solve_zero_source(grid12, unit_series):
    zero = GridFunction(grid12, np.zeros(grid12.intervals + 1))
    solve = solve_regularized_general(unit_series, zero, 1e-2)
    np.testing.assert_array_equal(solve.P.values, 0.0)


def test_general_solve_rejects_bad_alpha(grid12, unit_series):
    zero = GridFunction(grid12, np.zeros(grid12.intervals + 1))
    with pytest.raises(ValueError):
        solve_regularized_general(unit_series, zero, 0.0)


def test_general_solve_rejects_grid_mismatch(grid12, unit_series):
    other = make_grid(12.0, grid12.intervals // 2)
    zero = GridFunction(other, np.zeros(other.intervals + 1))
    with pytest.raises(ValueError, match="grids differ"):
        solve_regularized_general(unit_series, zero, 1e-2)


def test_general_solve_boundary_value(exact_obs):
    solve = recover_rate(exact_obs, 1e-2)
    assert solve.P.values[0] == 0.0


def test_general_solve_recovers_product_from_exact_source(grid12, unit_series):
    from celldiv.inverse import exact_product_source

    F = GridFunction(grid12, exact_product_source(unit_series, 1.0))
    solve = solve_regularized_general(unit_series, F, 1e-3)
    # P approximates B N = N for the unit rate
    err = norm(GridFunction(grid12, solve.P.values - unit_series.values))
    assert err <= 0.05 * (1e-3 / grid12.spacing + 1.0) * grid12.spacing + 0.01


def test_energy_estimates_manufactured_sources(grid12, unit_series):
    x = grid12.nodes
    sources = [x ** 2 * np.exp(-x), np.exp(-((x - 3.0) ** 2)), x * np.sin(2 * x) * np.exp(-0.5 * x)]
    for values in sources:
        F = GridFunction(grid12, values)
        for alpha in (1e-3, 1e-2, 1e-1):
            report = stability_report(solve_regularized_general(unit_series, F, alpha), F.values)
            assert report.const_sup <= 1.1
            assert report.const_mass <= 1.1
            assert report.const_combined <= 1.1
            assert report.const_gradient <= 1.1 * 16.5
            if report.source_vanishes_at_origin:
                assert report.const_gradient_vs_source <= 4.0 / 11.0 + 0.05


def test_recover_rate_consistency(exact_obs, grid12, unit_series):
    truth = _ones(grid12)
    for scheme in ("direct-fd", "derivative-free"):
        solve = recover_rate(exact_obs, 1e-2, scheme)
        err = rate_error_on_support(solve, truth, weight_values=unit_series.values)
        assert err <= 0.06, (scheme, err)


def test_recover_rate_rejects_bad_input(exact_obs):
    with pytest.raises(ValueError):
        recover_rate(exact_obs, -1.0)
    with pytest.raises(ValueError):
        recover_rate(exact_obs, 1e-2, scheme="spectral")


def test_schemes_agree_to_first_order(unit_series, grid12):
    gaps = {}
    for n in (2048, 4096):
        grid = make_grid(12.0, n)
        series = constant_b_series(1.0, grid)
        obs = clamp_observation(series, default_filters(series), truth=series, lambda0=1.0)
        fd = recover_rate(obs, 1e-2, "direct-fd")
        dfree = recover_rate(obs, 1e-2, "derivative-free")
        gaps[n] = norm(GridFunction(grid, fd.P.values - dfree.P.values)) / grid.spacing
    assert 0.5 <= gaps[2048] / gaps[4096] <= 2.0  # difference scales like h


def test_consistency_slope_ladder():
    # Noise-free slopes over the alphas of criterion 7. The derivative-free
    # scheme substitutes (2/alpha) N(y/2), which needs h well below alpha:
    # its slope climbs from 0.77 at n = 4096 and exceeds 0.99 from n = 32768
    # (h = 3.7e-4 against alpha = 1e-3). direct-fd sits at 0.998 throughout.
    alphas = [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1]
    slopes = {"direct-fd": [], "derivative-free": []}
    for n in (4096, 8192, 16384, 32768, 65536):
        grid = make_grid(12.0, n)
        series = constant_b_series(1.0, grid)
        obs = clamp_observation(series, default_filters(series), truth=series, lambda0=1.0)
        for scheme, ladder in slopes.items():
            errs = [
                rate_error_on_support(recover_rate(obs, a, scheme), _ones(grid), weight_values=series.values)
                for a in alphas
            ]
            ladder.append(fit_loglog_slope(alphas, errs)[0])
    dfree = np.array(slopes["derivative-free"])
    assert np.all(np.diff(dfree) >= 0.0), dfree
    assert dfree[-2:].min() >= 0.99, dfree
    assert min(slopes["direct-fd"]) >= 0.99, slopes["direct-fd"]


def test_weak_stability_identical_inputs(exact_obs):
    alpha = 0.05
    a = recover_rate(exact_obs, alpha)
    b = recover_rate(exact_obs, alpha)
    lhs, bound = weak_stability_check(a, b, alpha)
    assert lhs == 0.0
    assert bound == 0.0


def test_weak_stability_bound_scaling(grid12, unit_series, exact_obs):
    obs = add_noise(unit_series, 1e-3, seed=0, lambda0=1.0)
    data_gap = norm(GridFunction(grid12, obs.data.values - unit_series.values))
    for alpha in (0.02, 0.04):
        ex = recover_rate(exact_obs, alpha)
        nz = recover_rate(obs, alpha)
        lhs, bound = weak_stability_check(ex, nz, alpha)
        assert bound == pytest.approx(data_gap ** 2 / alpha ** 2)
        assert lhs <= 10.0 * bound  # empirical constant stays moderate
    with pytest.raises(ValueError, match="parameters"):
        weak_stability_check(recover_rate(exact_obs, 0.02), nz, 0.04)


def test_monotone_noise_response(grid12, unit_series):
    truth = _ones(grid12)
    alpha = 0.03
    means = []
    for eps in (1e-4, 1e-3, 1e-2):
        errs = []
        for seed in range(8):
            obs = add_noise(unit_series, eps, seed, lambda0=1.0)
            solve = recover_rate(obs, alpha)
            errs.append(weighted_product_error(solve, truth))
        means.append(np.mean(errs))
    assert means[0] <= means[1] <= means[2]


def test_recovered_rate_support_mask(exact_obs, grid12, unit_series):
    solve = recover_rate(exact_obs, 1e-2)
    floor = 1e-6 * unit_series.values.max()
    np.testing.assert_array_equal(solve.defined, unit_series.values >= floor)
    assert np.all(np.isnan(solve.rate[~solve.defined]))
    assert np.all(np.isfinite(solve.rate[solve.defined]))


def test_noisy_recovery_error_consistent_with_rate_theory(grid12, unit_series):
    # at eps = 1e-3 with alpha = sqrt(eps) the weighted error stays near
    # the scale sqrt(eps) predicted by the balanced bound
    truth = _ones(grid12)
    eps = 1e-3
    alpha = float(np.sqrt(eps))
    errs = []
    for seed in range(5):
        obs = add_noise(unit_series, eps, seed, lambda0=1.0)
        errs.append(weighted_product_error(recover_rate(obs, alpha), truth))
    assert np.mean(errs) <= 10.0 * np.sqrt(eps)


def _march_loop(F, alpha, h):
    """Per-node reference for the implicit product marcher."""
    n = F.size - 1
    P = np.zeros(n + 1)
    r = alpha / h
    denom = r + 4.0
    P[1] = F[1] / denom
    for j in range(2, n + 1):
        if j % 2 == 0:
            half = P[j // 2]
        else:
            m = j // 2
            half = 0.5 * (P[m] + P[m + 1])
        P[j] = (r * P[j - 1] + half + F[j]) / denom
    return P


@pytest.mark.parametrize("n", [16, 17, 1024, 4096, 65536])
def test_march_matches_per_node_loop(n):
    grid = make_grid(12.0, n)
    data = perturbed(constant_b_series(1.0, grid), 1e-3, seed=0)
    half = half_sample_values(data.values)
    quarter = half_sample_values(half)
    fd_source = exact_product_source(data, 1.0)
    for alpha in (1e-8, 1e-4, 3e-3, 1e-2, 0.3, 10.0):
        dfree_source = (2.0 / alpha) * quarter + (1.0 - 8.0 / alpha) * half
        for F in (fd_source, dfree_source):
            expected = _march_loop(F, alpha, grid.spacing)
            got = _march(F, alpha, grid.spacing)
            assert got[0] == 0.0
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), alpha
