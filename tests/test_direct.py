import numpy as np
import pytest

import celldiv.direct
from celldiv.direct import (
    _shoot,
    adjoint_residual,
    bump_rate,
    check_invariants,
    constant_b_series,
    constant_rate,
    direct_residual,
    piecewise_rate,
    solve_adjoint,
    solve_direct,
    solve_pair,
)
from celldiv.grid import (
    GridFunction,
    derivative,
    half_sample_values,
    linear_recurrence,
    make_grid,
    norm,
    trapezoid,
)


def _power_iteration(rate, tol, max_iters=500_000):
    """Reference oracle: renormalized upwind stepping at unit CFL.

    The transport part of each step is an exact node shift and the
    reaction and doubled-argument terms are averaged between the foot and
    the head of the characteristic, so the fixed point is the trapezoidal
    collocation that the shooting solve marches; the growth rate is
    accumulated from the per-step renormalization factors. About 1.7 n
    steps, each O(n). Returns (lambda0, N values).
    """
    grid = rate.grid
    B = rate.values
    h = grid.spacing
    half_n = grid.intervals // 2 + 1
    x = grid.nodes
    v = x * np.exp(-float(np.mean(B)) * x)
    v = v / trapezoid(v, grid)
    lam = trapezoid(B * v, grid)
    dbl = np.zeros_like(v)
    w = np.empty_like(v)
    threshold = tol * h
    for _ in range(max_iters):
        Bv = B * v
        dbl[:half_n] = Bv[::2]
        G = 4.0 * dbl - (B + lam) * v
        w[0] = 0.0
        w[1:] = v[:-1] + 0.5 * h * (G[1:] + G[:-1])
        peak = w.max()
        assert np.isfinite(peak) and peak > 0.0
        assert w.min() >= -0.05 * peak
        np.maximum(w, 0.0, out=w)
        rho = trapezoid(w, grid)
        w /= rho
        diff = trapezoid(np.abs(w - v), grid)
        v, w = w, v
        lam += (rho - 1.0) / h
        if diff <= threshold and abs(rho - 1.0) <= threshold:
            return lam, v
    raise AssertionError("power iteration did not converge")


def _adjoint_power_iteration(rate, lambda0, N, tol, max_iters=500_000):
    """Reference oracle: renormalized downwind stepping at unit CFL.

    Each step is an exact left shift with the reaction and half-argument
    terms averaged along the characteristic and the ghost value held flat
    at the truncation boundary; the fixed point is the eigenvector that
    :func:`solve_adjoint` sweeps to. Thousands of O(n) steps at n = 4096.
    Returns the values of phi, normalized to int phi N = 1.
    """
    grid = rate.grid
    B = rate.values
    h = grid.spacing
    Nv = N.values
    psi = np.ones(grid.intervals + 1)
    psi /= trapezoid(psi * Nv, grid)
    shifted = np.empty_like(psi)
    g_shift = np.empty_like(psi)
    for _ in range(max_iters):
        G = 2.0 * B * half_sample_values(psi) - (lambda0 + B) * psi
        shifted[:-1] = psi[1:]
        shifted[-1] = psi[-1]
        g_shift[:-1] = G[1:]
        g_shift[-1] = G[-1]
        new = shifted + 0.5 * h * (G + g_shift)
        new /= trapezoid(new * Nv, grid)
        assert new.min() > 0.0
        diff = trapezoid(np.abs(new - psi) * Nv, grid)
        psi = new
        if diff <= tol * h:
            return psi
    raise AssertionError("adjoint power iteration did not converge")


def _block_march(B, h, lam):
    """Reference oracle: the shooting march as one linear recurrence per block.

    Marches ``v[j] = A[j] v[j+1] + S[j]`` right to left in ``v`` itself:
    each dyadic block of nodes, whose doubled-argument reads touch only
    nodes already solved, is one :func:`linear_recurrence`, cut into chunks
    of growth at most 1e100; the solved tail is rescaled whenever its peak
    passes that limit. Returns ``v`` scaled to
    ``max |v| = 1``, like :func:`celldiv.direct._shoot`.
    """
    n = B.size - 1
    half = 0.5 * h * (B + lam)
    den = 1.0 - half[:-1]
    A = (1.0 + half[1:]) / den
    coef = -2.0 * h / den
    limit = 1e100
    chunk = max(1, int(np.log(limit) / np.log(A.max())))
    v = np.zeros(n + 1)
    v[n] = peak = 1.0
    m = n
    while m > 0:
        lo = max((m + 1) // 2 if m > 1 else 0, m - chunk)
        dbl = B[2 * lo : 2 * m + 1 : 2] * v[2 * lo : 2 * m + 1 : 2]
        D = np.zeros(m - lo + 1)  # B(2x) v(2x) at nodes lo..m, zero past L
        D[: dbl.size] = dbl
        S = coef[lo:m] * (D[1:] + D[:-1])
        v[lo:m] = linear_recurrence(A[lo:m][::-1], S[::-1], v[m])[::-1]
        peak = max(peak, float(np.abs(v[lo:m]).max()))
        if peak > limit:
            v[lo:] /= peak
            peak = 1.0
        m = lo
    return v / peak


ACCEPTANCE_RATES = {
    "constant-1": lambda g: constant_rate(g, 1.0),
    "constant-2": lambda g: constant_rate(g, 2.0),
    "step-up": lambda g: piecewise_rate(g, [0.0, 3.0], [1.0, 2.0]),
    "step-down": lambda g: piecewise_rate(g, [0.0, 4.5], [2.0, 1.0]),
    "bump": lambda g: bump_rate(g, 1.0, 0.4, 2.0, 1.5),
}


def test_rate_bounds_guard():
    grid = make_grid(4.0, 64)
    with pytest.raises(ValueError):
        constant_rate(grid, 0.0)
    with pytest.raises(ValueError):
        constant_rate(grid, -2.0)


def test_piecewise_rate_cell_average_at_jump():
    grid = make_grid(4.0, 64)  # h = 1/16, jump at x = 2 is a node
    rate = piecewise_rate(grid, [0.0, 2.0], [1.0, 2.0])
    j = 32
    assert rate.values[j] == pytest.approx(1.5)  # straddling cell: half-sum
    assert rate.values[j - 1] == 1.0
    assert rate.values[j + 1] == 2.0
    assert rate.b_min == 1.0 and rate.b_max == 2.0


def piecewise_rate_loop(grid, breakpoints, values):
    """Reference for :func:`piecewise_rate`: every node's cell average,
    summed over all pieces."""
    edges = np.append(np.asarray(breakpoints, dtype=float), np.inf)
    h = grid.spacing

    def cell_average(x):
        lo, hi = max(x - 0.5 * h, 0.0), x + 0.5 * h
        total = 0.0
        for a, b, v in zip(edges[:-1], edges[1:], values):
            left, right = max(lo, a), min(hi, b)
            if right > left:
                total += (right - left) * v
        return total / (hi - lo)

    return np.array([cell_average(x) for x in grid.nodes])


PIECEWISE_CASES = {
    # (breakpoints, values) on a grid of spacing h over [0, 12]; x = 3 is a node for every n below
    "jump-on-node": lambda h: ([0.0, 3.0], [1.0, 2.0]),
    "sub-cell-piece": lambda h: ([0.0, 2.0, 2.0 + 1e-5, 5.0], [0.7, 3.3, 0.9, 1.3]),
    # the cell of node 5 ends exactly on the first jump, the next one starts on it
    "edge-on-breakpoint": lambda h: ([0.0, 5.5 * h, 4.0 + 0.5 * h], [1.1, 0.6, 1.9]),
    "five-pieces": lambda h: ([0.0, 1.1, 2.9, 4.45, 7.3], [0.3, 1.7, 0.45, 2.2, 0.9]),
}


@pytest.mark.parametrize("n", [64, 4096, 65536])
@pytest.mark.parametrize("case", sorted(PIECEWISE_CASES))
def test_piecewise_rate_matches_loop(case, n):
    grid = make_grid(12.0, n)
    breakpoints, values = PIECEWISE_CASES[case](grid.spacing)
    got = piecewise_rate(grid, breakpoints, values).values
    expected = piecewise_rate_loop(grid, breakpoints, values)
    assert np.max(np.abs(got - expected) / expected) <= 4e-16


def test_piecewise_rate_rejects_bad_breakpoints():
    grid = make_grid(4.0, 64)
    with pytest.raises(ValueError):
        piecewise_rate(grid, [0.5, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        piecewise_rate(grid, [0.0, 2.0], [1.0, 0.0])


def test_series_coefficient_ratios():
    # recurrence imposed by the stationary balance for constant rates
    grid = make_grid(6.0, 64)
    coef = [1.0]
    for k in range(1, 5):
        coef.append(coef[-1] * 2.0 / (1.0 - 2.0 ** k))
    assert coef[1] == pytest.approx(-2.0)
    assert coef[2] == pytest.approx(4.0 / 3.0)
    series = constant_b_series(1.0, grid)
    assert series.values[0] == pytest.approx(0.0, abs=1e-10)  # coefficients telescope


def test_series_rejects_degenerate():
    grid = make_grid(6.0, 64)
    with pytest.raises(ValueError):
        constant_b_series(1.0, grid, terms=1)
    with pytest.raises(ValueError):
        constant_b_series(0.0, grid)


def test_series_residual_at_truncation_level(grid12, unit_series):
    # the sampled closed form must satisfy the balance to quadrature order
    B = np.ones(grid12.intervals + 1)
    from celldiv.grid import double_sample_values

    r = (
        derivative(unit_series).values
        + 2.0 * unit_series.values
        - 4.0 * double_sample_values(unit_series.values)
    )
    res = norm(GridFunction(grid12, r))
    assert res <= 30.0 * grid12.spacing ** 2


def test_series_mass_and_moment(grid12, unit_series):
    x = grid12.nodes
    assert trapezoid(unit_series.values, grid12) == pytest.approx(1.0, abs=1e-6)
    assert trapezoid(x * unit_series.values, grid12) == pytest.approx(1.0, abs=1e-6)
    assert unit_series.values.max() == pytest.approx(0.90989, abs=2e-3)


def test_unit_rate_growth_and_profile(unit_pair, unit_series, grid12):
    assert abs(unit_pair.lambda0 - 1.0) <= 1e-3
    dist = norm(GridFunction(grid12, unit_pair.N.values - unit_series.values))
    assert dist <= 1e-3
    assert unit_pair.N.values[0] == 0.0
    assert unit_pair.N.values.min() >= 0.0
    assert trapezoid(unit_pair.N.values, grid12) == pytest.approx(1.0, abs=1e-12)


def test_double_rate_growth_and_mean_size():
    grid = make_grid(6.0, 2048)
    pair = solve_direct(constant_rate(grid, 2.0), tol=1e-10)
    assert pair.lambda0 == pytest.approx(2.0, abs=1e-3)
    mean_size = trapezoid(grid.nodes * pair.N.values, grid)
    assert mean_size == pytest.approx(0.5, abs=1e-4)


def test_growth_rate_agrees_with_rate_average(unit_pair, unit_rate, grid12):
    lambda0_quad = trapezoid(unit_rate.values * unit_pair.N.values, grid12)
    assert abs(unit_pair.lambda0 - lambda0_quad) <= 1e-6


def test_direct_solve_rejects_bad_arguments():
    grid = make_grid(6.0, 256)
    rate = constant_rate(grid, 1.0)
    with pytest.raises(ValueError):
        solve_direct(rate, tol=0.0)
    with pytest.raises(RuntimeError, match="converge"):
        solve_direct(rate, max_iters=3)


def test_eigen_residual_refines_at_second_order():
    residuals = []
    for n in (512, 1024):
        grid = make_grid(12.0, n)
        rate = constant_rate(grid, 1.0)
        pair = solve_direct(rate, tol=1e-11)
        residuals.append(direct_residual(pair.N, rate, pair.lambda0))
    assert residuals[0] / residuals[1] >= 1.7


def test_adjoint_constant_rate_is_flat(unit_pair, grid12):
    phi = unit_pair.phi
    assert phi is not None
    np.testing.assert_allclose(phi.values, 1.0, atol=1e-9)
    assert trapezoid(phi.values * unit_pair.N.values, grid12) == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(np.max(phi.values / (1.0 + grid12.nodes)))


def test_adjoint_bump_rate_properties():
    grid = make_grid(12.0, 1024)
    rate = bump_rate(grid, 1.0, 0.4, 2.0, 1.5)
    pair = solve_pair(rate, tol=1e-10)
    phi = pair.phi
    assert phi.values.min() > 0.0
    assert trapezoid(phi.values * pair.N.values, grid) == pytest.approx(1.0, abs=1e-12)
    growth = np.max(phi.values / (1.0 + grid.nodes))
    assert np.isfinite(growth)
    assert adjoint_residual(phi, rate, pair.lambda0) <= 50.0 * grid.spacing ** 2


def test_adjoint_residual_refines_at_second_order():
    residuals = []
    for n in (512, 1024):
        grid = make_grid(12.0, n)
        rate = bump_rate(grid, 1.0, 0.4, 2.0, 1.5)
        pair = solve_pair(rate, tol=1e-11)
        residuals.append(adjoint_residual(pair.phi, rate, pair.lambda0))
    assert residuals[0] / residuals[1] >= 1.7


@pytest.mark.parametrize("name", ACCEPTANCE_RATES)
@pytest.mark.parametrize("n", [1024, 2048])
def test_adjoint_sweeps_match_power_iteration(name, n):
    grid = make_grid(12.0, n)
    rate = ACCEPTANCE_RATES[name](grid)
    pair = solve_direct(rate)
    phi = solve_adjoint(rate, pair.lambda0, pair.N)
    ref = _adjoint_power_iteration(rate, pair.lambda0, pair.N, tol=1e-11)
    assert np.max(np.abs(phi.values - ref) / ref) <= 1e-8


@pytest.mark.parametrize("name", ACCEPTANCE_RATES)
def test_adjoint_converges_in_64_sweeps_at_n4096(name):
    # unit-CFL stepping would need thousands of steps at n = 4096
    rate = ACCEPTANCE_RATES[name](make_grid(12.0, 4096))
    pair = solve_direct(rate)
    phi = solve_adjoint(rate, pair.lambda0, pair.N, max_iters=64)
    assert phi.values.min() > 0.0


def test_adjoint_refinement_ladder():
    residuals = []
    for n in (1024, 2048, 4096, 8192, 16384, 32768, 65536):
        rate = bump_rate(make_grid(12.0, n), 1.0, 0.4, 2.0, 1.5)
        pair = solve_pair(rate)
        residuals.append(adjoint_residual(pair.phi, rate, pair.lambda0))
    ratios = np.array(residuals[:-1]) / np.array(residuals[1:])
    assert ratios.min() >= 3.5, ratios


def test_check_invariants_unit_rate(unit_pair, unit_rate):
    report = check_invariants(unit_pair, unit_rate)
    assert report.passed, report.lines()
    f2 = report.checks["f2"]
    assert f2.lhs == pytest.approx(1.0, abs=1e-4)
    assert f2.rhs == pytest.approx(1.0, abs=1e-4)
    f3 = report.checks["f3"]
    assert f3.lhs == pytest.approx(0.90989, abs=2e-3)
    assert f3.rhs == 2.0
    f5 = report.checks["f5"]
    assert f5.lhs == pytest.approx(3.4627, abs=5e-3)
    assert f5.rhs == pytest.approx(4.0, abs=4e-3)
    assert f5.slack > 0.5


def test_invariant_report_lines(unit_pair, unit_rate):
    report = check_invariants(unit_pair, unit_rate)
    lines = report.lines()
    assert any(line.startswith("f1:") for line in lines)
    assert all("FAIL" not in line for line in lines)


@pytest.mark.parametrize("name", ACCEPTANCE_RATES)
@pytest.mark.parametrize("n", [1024, 4096])
def test_shooting_matches_power_iteration(name, n):
    grid = make_grid(12.0, n)
    rate = ACCEPTANCE_RATES[name](grid)
    lam, v = _power_iteration(rate, tol=1e-11)
    pair = solve_direct(rate)
    assert abs(pair.lambda0 - lam) <= 1e-10
    assert norm(GridFunction(grid, pair.N.values - v), order="L1") <= 1e-10


def test_steep_rate_march_stays_finite():
    # (lambda0 + B) L = 1600: the unscaled march would span e^1600
    grid = make_grid(40.0, 16384)
    pair = solve_direct(constant_rate(grid, 20.0))
    assert abs(pair.lambda0 - 20.0) <= 1e-9
    series = constant_b_series(20.0, grid)
    assert norm(GridFunction(grid, pair.N.values - series.values), order="L1") <= 3e-3


def test_steep_rate_invariants_finite():
    # lambda0 L = 800: e^{lambda0 x} overflows where N has underflowed to 0
    grid = make_grid(40.0, 4096)
    rate = constant_rate(grid, 20.0)
    report = check_invariants(solve_direct(rate), rate)
    assert np.isfinite(report.checks["f5"].lhs)
    assert report.passed


def test_steep_rate_adjoint_stays_flat():
    # the sweep coefficients multiply to about e^-1600 over [0, L]
    pair = solve_pair(constant_rate(make_grid(40.0, 16384), 20.0))
    np.testing.assert_allclose(pair.phi.values, 1.0, rtol=0.0, atol=1e-9)


def test_direct_solve_rejects_coarse_grid():
    with pytest.raises(ValueError, match="coarse.*lam_hi"):
        solve_direct(constant_rate(make_grid(12.0, 8), 1.0))


def test_adjoint_rejects_coarse_grid():
    # r = h/2 (lambda0 + B) >= 1 would turn the sweep coefficients (1 - r) / (mu + r) negative
    grid = make_grid(12.0, 16)
    rate = constant_rate(grid, 1.0)
    N = solve_direct(rate).N
    with pytest.raises(ValueError, match="grid too coarse"):
        solve_adjoint(rate, 5.0, N)


def test_pair_max_iters_caps_only_the_adjoint():
    # Three steps suffice for neither solve on a bump, whose adjoint takes
    # about 30 sweeps at n = 256 (B = 1 would make phi = 1 exact at once):
    # the cap must reach the adjoint's sweeps and leave the direct root
    # search alone.
    with pytest.raises(RuntimeError, match="adjoint solve did not converge"):
        solve_pair(bump_rate(make_grid(12.0, 256), 1.0, 0.4, 2.0, 1.5), max_iters=3)


def test_residual_without_sign_change_fails_loudly(monkeypatch):
    monkeypatch.setattr(celldiv.direct, "_shoot", lambda B, h, lam: np.ones(B.size))
    with pytest.raises(RuntimeError, match="no sign change"):
        solve_direct(constant_rate(make_grid(12.0, 256), 1.0))


def test_non_perron_root_fails_loudly(monkeypatch):
    def shoot(B, h, lam):
        v = np.ones(B.size)
        v[0] = lam - 1.0
        v[B.size // 2] = -0.5
        return v

    monkeypatch.setattr(celldiv.direct, "_shoot", shoot)
    with pytest.raises(RuntimeError, match="non-Perron"):
        solve_direct(constant_rate(make_grid(12.0, 256), 1.0))


def test_unit_rate_refinement_ladder():
    distances = []
    for n in (1024, 2048, 4096, 8192, 16384, 32768, 65536):
        grid = make_grid(12.0, n)
        pair = solve_direct(constant_rate(grid, 1.0))
        # the deviation of -2.6e-10 comes from truncating at L = 12, not from h
        assert abs(pair.lambda0 - 1.0) <= 1e-9
        series = constant_b_series(1.0, grid)
        distances.append(norm(GridFunction(grid, pair.N.values - series.values), order="L1"))
    ratios = np.array(distances[:-1]) / np.array(distances[1:])
    assert ratios.min() >= 3.5, ratios


SHOOT_RATES = {**ACCEPTANCE_RATES, "constant-20": lambda g: constant_rate(g, 20.0)}
SHOOT_CASES = [(name, n) for name in ACCEPTANCE_RATES for n in (16, 17, 1024, 4096, 65536)]


@pytest.mark.parametrize("name, n", SHOOT_CASES + [("constant-20", 16384)])
def test_shoot_matches_block_march(name, n):
    # [0, 12] is too coarse at n = 16 and 17 for every rate but constant-1.
    # Constant 20 on [0, 40] spans e^1600: several windows, each with its own scale.
    length = 40.0 if name == "constant-20" else 12.0 if n >= 1024 else 6.0
    grid = make_grid(length, n)
    rate = SHOOT_RATES[name](grid)
    root = solve_direct(rate).lambda0
    for lam in (0.99 * rate.b_min, root, 1.01 * rate.b_max):
        got = _shoot(rate.values, grid.spacing, lam)
        assert np.max(np.abs(got - _block_march(rate.values, grid.spacing, lam))) <= 1e-12


@pytest.mark.parametrize("name", ["constant-2", "step-down"])
@pytest.mark.parametrize("n", [4096, 65536])
def test_shooting_residual_noise_floor(name, n):
    # Near the root the residual is a line plus the round-off of the march;
    # summing log A instead of multiplying A makes that 17-35 times rougher.
    grid = make_grid(12.0, n)
    rate = ACCEPTANCE_RATES[name](grid)
    root = solve_direct(rate).lambda0
    offsets = np.linspace(-2e-11, 2e-11, 81)
    res = np.array([_shoot(rate.values, grid.spacing, root + d)[0] for d in offsets])
    line = np.polyval(np.polyfit(offsets, res, 1), offsets)
    assert np.max(np.abs(res - line)) <= 16.0 * np.finfo(float).eps * np.sqrt(n)


@pytest.mark.parametrize("name", ACCEPTANCE_RATES)
@pytest.mark.parametrize("n", [32768, 65536])
def test_direct_solve_takes_at_most_8_marches_at_fine_grids(name, n):
    # Brent must not step across the round-off plateaus of the residual
    pair = solve_direct(ACCEPTANCE_RATES[name](make_grid(12.0, n)))
    assert pair.iterations <= 8
