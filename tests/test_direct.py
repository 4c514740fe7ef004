import itertools

import numpy as np
import pytest

import celldiv.direct
from celldiv.direct import (
    RateBounds,
    _profile,
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
    linear_recurrence,
    make_grid,
    norm,
    product_window,
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


def _collocation_rows(B, h, lam):
    """The n x n matrix of :func:`celldiv.direct._shoot`'s rows.

    Row ``k = 1..n`` is the collocation equation
    ``v[k] - v[k-1] = h/2 (G[k] + G[k-1])``, ``G = 4 B(2x) v(2x) - (B + lam) v``,
    on the unknowns ``v[1..n]``: ``v[0]`` is the boundary value 0, and
    ``v(2x)`` is 0 past L.
    """
    n = B.size - 1
    a = 0.5 * h * (lam + B)
    M = np.zeros((n, n))
    k = np.arange(1, n + 1)
    M[k - 1, k - 1] = 1.0 + a[1:]
    M[k[1:] - 1, k[1:] - 2] = -(1.0 - a[1:-1])
    up = k[2 * k <= n]  # v(2x) at the row's right node
    M[up - 1, 2 * up - 1] -= 2.0 * h * B[2 * up]
    down = k[(k >= 2) & (2 * k - 2 <= n)]  # and at its left node
    M[down - 1, 2 * down - 3] -= 2.0 * h * B[2 * down - 2]
    return M


def _dense_left_null_vector(rate, lambda0, N):
    """Reference oracle: inverse iteration on the dense transpose of
    :func:`celldiv.direct._shoot`'s rows at ``lambda0``.

    The row weights ``w`` span the left null vector; the nodes take
    ``phi_j = (w_j + w_{j+1}) / 2`` with ``w_{n+1} = 0`` and
    ``phi_0 = 2 phi_1 - phi_2``, normalized to ``int phi N = 1``.
    """
    M = _collocation_rows(rate.values, rate.grid.spacing, lambda0)
    w = np.ones(M.shape[0])
    for _ in range(3):  # M is singular up to the root's tolerance: one step nearly suffices
        w = np.linalg.solve(M.T, w / np.abs(w).max())
    w = np.append(w, 0.0)
    phi = np.empty(w.size)
    phi[1:] = 0.5 * (w[:-1] + w[1:])
    phi[0] = 2.0 * phi[1] - phi[2]
    return phi / trapezoid(phi * N.values, rate.grid)


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


def _full_march(B, h, lam):
    """Reference oracle: :func:`celldiv.direct._shoot` with every dyadic
    block a vector pass and the whole profile multiplied out.

    The same operations on the same operands, so its ``v / max |v|`` must
    equal the profile formed from ``_shoot`` bit for bit.
    """
    n = B.size - 1
    half = 0.5 * h * (B + lam)
    den = 1.0 - half[:-1]
    A = np.divide(1.0 + half[1:], den, out=half[1:])
    window = product_window(A)
    Q, scale = np.ones(n + 1), np.zeros(n + 1)  # the factor is Q e^scale
    for hi in range(n, 0, -window):
        lo = max(hi - window, 0)
        np.multiply.accumulate(A[lo:hi][::-1], out=Q[lo:hi][::-1])
        scale[:lo] = scale[lo] + np.log(Q[lo])
    m = n // 2 + 1
    g = np.divide(-2.0 * h, den[:m] * Q[:m], out=den[:m])
    W = np.append(0.0, B[2::2] * Q[2::2])
    K1, K2 = g * W, g * np.append(W[1:], 0.0)
    if window < n:
        K1 *= np.exp(scale[::2] - scale[:m])
        K2[:-1] *= np.exp(scale[2::2] - scale[: m - 1])
        Q *= np.exp(scale - scale[0])
    u = np.ones(n + 3)
    while m > 0:
        lo = (m + 1) // 2 if m > 1 else 0
        T = K1[lo:m] * u[2 * lo : 2 * m : 2] + K2[lo:m] * u[2 * lo + 2 : 2 * m + 2 : 2]
        T[-1] += u[m]
        np.add.accumulate(T[::-1], out=u[lo:m][::-1])
        m = lo
    v = Q * u[: n + 1]
    return v / max(v.max(), -v.min())


def _shot_profile(B, h, lam):
    """Residual and normalized profile ``v / max |v|`` of one ``_shoot`` march."""
    res, *pieces = _shoot(B, h, lam)
    return res, _profile(*pieces)


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


def test_rate_bounds_are_read_from_the_samples():
    grid = make_grid(4.0, 64)  # h = 1/16
    bump = bump_rate(grid, 1.0, 0.4, 2.0, 1.5)
    assert (bump.b_min, bump.b_max) == (1.0, float(bump.values.max()))
    # a piece narrower than a cell enters the samples, and the bounds, averaged
    narrow = piecewise_rate(grid, [0.0, 2.0, 2.01], [1.0, 3.0, 1.0])
    assert narrow.b_max == pytest.approx(1.32) and narrow.b_max == narrow.values.max()
    assert narrow.b_min == 1.0
    with pytest.raises(ValueError, match="strictly positive"):
        RateBounds(GridFunction(grid, np.linspace(0.0, 1.0, 65)))


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


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("b", [1.0, 20.0])
def test_series_matches_dense_sum(n, b):
    # oracle: all 40 terms at every node, summed as one (n + 1) x 40 table
    grid = make_grid(12.0, n)
    coef = np.ones(40)
    for i in range(1, 40):
        coef[i] = coef[i - 1] * 2.0 / (1.0 - 2.0 ** i)
    decay = 2.0 * b * 2.0 ** np.arange(40)
    dense = (coef * np.exp(-decay * grid.nodes[:, None])).sum(axis=1) / np.sum(coef / decay)
    got = constant_b_series(b, grid).values
    assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(dense)


def test_series_rejects_degenerate():
    grid = make_grid(6.0, 64)
    with pytest.raises(ValueError):
        constant_b_series(0.0, grid)


def test_series_residual_at_truncation_level(grid12, unit_series):
    # the sampled closed form must satisfy the balance to quadrature order
    B = np.ones(grid12.intervals + 1)
    from celldiv.grid import double_sample_values

    r = (
        derivative(unit_series.values, grid12.spacing)
        + 2.0 * unit_series.values
        - 4.0 * double_sample_values(unit_series.values)
    )
    res = norm(r, grid12)
    assert res <= 30.0 * grid12.spacing ** 2


def test_series_mass_and_moment(grid12, unit_series):
    x = grid12.nodes
    assert trapezoid(unit_series.values, grid12) == pytest.approx(1.0, abs=1e-6)
    assert trapezoid(x * unit_series.values, grid12) == pytest.approx(1.0, abs=1e-6)
    assert unit_series.values.max() == pytest.approx(0.90989, abs=2e-3)


def test_unit_rate_growth_and_profile(unit_pair, unit_series, grid12):
    assert abs(unit_pair.lambda0 - 1.0) <= 1e-3
    dist = norm(unit_pair.N.values - unit_series.values, grid12)
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


def test_direct_solve_fails_loudly_at_its_march_cap(monkeypatch):
    monkeypatch.setattr(celldiv.direct, "_MAX_MARCHES", 3)
    with pytest.raises(RuntimeError, match="direct solve did not converge in 3 iterations"):
        solve_direct(constant_rate(make_grid(6.0, 256), 1.0))


def test_eigen_residual_refines_at_second_order():
    residuals = []
    for n in (512, 1024):
        grid = make_grid(12.0, n)
        rate = constant_rate(grid, 1.0)
        pair = solve_direct(rate, tol=1e-11)
        residuals.append(direct_residual(pair.N, rate, pair.lambda0))
    assert residuals[0] / residuals[1] >= 1.7


def _outflow_layer_start(pair, b, length, depth):
    """First x of the adjoint's outflow layer ``1 - e^{-(lambda0 + b)(L - x)}``
    for constant ``b``: below it the layer is under ``e^{-depth}``."""
    return length - depth / (pair.lambda0 + b)


def test_adjoint_constant_rate_is_flat(unit_pair, grid12):
    # phi = 1 is the half-line adjoint; the truncated one falls to about
    # 2 h b at L. In the bulk it sits 3.2e-9 above 1 at every n (truncation).
    phi = unit_pair.phi
    assert phi is not None
    bulk = grid12.nodes <= _outflow_layer_start(unit_pair, 1.0, 12.0, 21.0)
    np.testing.assert_allclose(phi.values[bulk], 1.0, rtol=0.0, atol=1e-8)
    assert 0.0 < phi.values[-1] <= 5.0 * grid12.spacing
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
    assert adjoint_residual(phi, rate, pair.lambda0, pair.N) <= 50.0 * grid.spacing ** 2


def test_adjoint_residual_refines_at_second_order():
    residuals = []
    for n in (512, 1024):
        grid = make_grid(12.0, n)
        rate = bump_rate(grid, 1.0, 0.4, 2.0, 1.5)
        pair = solve_pair(rate, tol=1e-11)
        residuals.append(adjoint_residual(pair.phi, rate, pair.lambda0, pair.N))
    assert residuals[0] / residuals[1] >= 1.7


@pytest.mark.parametrize("name", ACCEPTANCE_RATES)
@pytest.mark.parametrize("n", [256, 1024, 2048])
def test_adjoint_sweeps_match_power_iteration(name, n):
    grid = make_grid(12.0, n)
    rate = ACCEPTANCE_RATES[name](grid)
    pair = solve_direct(rate)
    # the oracle's rows are _shoot's: they annihilate its march at the root
    # (the first row up to the shooting residual, which multiplies v[0])
    _, v = _shot_profile(rate.values, grid.spacing, pair.lambda0)
    rows = _collocation_rows(rate.values, grid.spacing, pair.lambda0)
    assert np.max(np.abs(rows @ v[1:])[1:]) <= 1e-13
    phi = solve_adjoint(rate, pair.lambda0, pair.N)
    ref = _dense_left_null_vector(rate, pair.lambda0, pair.N)
    assert np.max(np.abs(phi.values - ref) / ref) <= 1e-8


def test_adjoint_on_odd_grid_vanishes_only_at_L():
    # For odd n column n of the rows has no half-argument term, so the row
    # weight w_n and phi(L) = w_n / 2 are 0; every other node stays positive.
    grid = make_grid(12.0, 1001)
    rate = bump_rate(grid, 1.0, 0.4, 2.0, 1.5)
    pair = solve_pair(rate)
    phi = pair.phi.values
    assert phi[:-1].min() > 0.0
    assert phi[-1] == 0.0
    ref = _dense_left_null_vector(rate, pair.lambda0, pair.N)
    np.testing.assert_allclose(phi[:-1], ref[:-1], rtol=1e-8)


@pytest.mark.parametrize("name", ACCEPTANCE_RATES)
def test_adjoint_converges_in_64_sweeps_at_n4096(name):
    # The name predates the direct solve, which has no sweeps to cap.
    rate = ACCEPTANCE_RATES[name](make_grid(12.0, 4096))
    pair = solve_direct(rate)
    phi = solve_adjoint(rate, pair.lambda0, pair.N)
    assert phi.values.min() > 0.0


@pytest.mark.parametrize("name", ACCEPTANCE_RATES)
@pytest.mark.parametrize("n", [1024, 4096, 65536])
def test_adjoint_converges_at_the_round_off_floor(name, n):
    # The name predates the direct solve, which has no stop test.
    grid = make_grid(12.0, n)
    rate = ACCEPTANCE_RATES[name](grid)
    pair = solve_direct(rate)
    phi = solve_adjoint(rate, pair.lambda0, pair.N).values
    assert phi[:-1].min() > 0.0
    assert trapezoid(phi * pair.N.values, grid) == pytest.approx(1.0, abs=1e-12)


def test_adjoint_refinement_ladder():
    # The N-weighted residual, and the Richardson differences on x <= 5,
    # away from the outflow layer at L, both fall like h^2.
    residuals, changes, coarse = [], [], None
    for n in (1024, 2048, 4096, 8192, 16384, 32768, 65536):
        grid = make_grid(12.0, n)
        rate = bump_rate(grid, 1.0, 0.4, 2.0, 1.5)
        pair = solve_pair(rate)
        residuals.append(adjoint_residual(pair.phi, rate, pair.lambda0, pair.N))
        if coarse is not None:
            common = pair.phi.values[::2] - coarse
            changes.append(np.abs(common[grid.nodes[::2] <= 5.0]).max())
        coarse = pair.phi.values
    ratios = np.array(residuals[:-1]) / np.array(residuals[1:])
    assert ratios.min() >= 3.5, ratios
    ratios = np.array(changes[:-1]) / np.array(changes[1:])
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


BALANCE_RATES = {
    "constant-1": lambda g: constant_rate(g, 1.0),
    "step-up": lambda g: piecewise_rate(g, [0.0, 3.0], [1.0, 2.0]),
    "bump": lambda g: bump_rate(g, 1.0, 0.5, 2.0, 1.5),
}


@pytest.mark.parametrize("name", BALANCE_RATES)
@pytest.mark.parametrize("n", [1024, 4096, 65536])
def test_balance_identities_split_the_moment_gaps(name, n):
    # Summing the collocation rows with weights 1 and x_{k-1/2} gives, for
    # even n, the gaps of lambda0 = int B N and lambda0 int x N = 1 exactly
    # as a mesh term (the even-node trapezoid T_2h against T_h) plus a
    # truncation term in N(L) (Perthame & Zubelli, Inverse Problems 23,
    # 2007, for the continuous identities). The gaps are 2e-11 to 4e-6.
    grid = make_grid(12.0, n)
    rate = BALANCE_RATES[name](grid)
    pair = solve_direct(rate)
    lam, N, B, x, h, L = pair.lambda0, pair.N.values, rate.values, grid.nodes, grid.spacing, grid.length

    def mesh(f):  # (T_2h - T_h)(f)
        return 2.0 * h * (0.5 * f[0] + f[2:-1:2].sum() + 0.5 * f[-1]) - trapezoid(f, grid)

    first = lam - trapezoid(B * N, grid) - 2.0 * mesh(B * N) - (2.0 * h * B[-1] - 1.0) * N[-1]
    assert abs(first) <= 1e-11
    truncation = N[-1] * (h * L * B[-1] - L + h * h * (B[-1] + lam) / 4.0)
    second = lam * trapezoid(x * N, grid) - 1.0 - mesh(x * B * N) - truncation
    assert abs(second) <= 1e-11


@pytest.mark.parametrize("name", ACCEPTANCE_RATES)
@pytest.mark.parametrize("n", [1024, 4096])
def test_shooting_matches_power_iteration(name, n):
    grid = make_grid(12.0, n)
    rate = ACCEPTANCE_RATES[name](grid)
    lam, v = _power_iteration(rate, tol=1e-11)
    pair = solve_direct(rate)
    assert abs(pair.lambda0 - lam) <= 1e-10
    assert trapezoid(np.abs(pair.N.values - v), grid) <= 1e-10  # L1 distance


def test_steep_rate_march_stays_finite():
    # (lambda0 + B) L = 1600: the unscaled march would span e^1600
    grid = make_grid(40.0, 16384)
    pair = solve_direct(constant_rate(grid, 20.0))
    assert abs(pair.lambda0 - 20.0) <= 1e-9
    series = constant_b_series(20.0, grid)
    assert trapezoid(np.abs(pair.N.values - series.values), grid) <= 3e-3  # L1 distance


def test_steep_rate_invariants_finite():
    # lambda0 L = 800: e^{lambda0 x} overflows where N has underflowed to 0
    grid = make_grid(40.0, 4096)
    rate = constant_rate(grid, 20.0)
    report = check_invariants(solve_direct(rate), rate)
    assert np.isfinite(report.checks["f5"].lhs)
    assert report.passed


def test_steep_rate_adjoint_stays_flat():
    # the sweep coefficients multiply to about e^-1600 over [0, L]
    grid = make_grid(40.0, 16384)
    pair = solve_pair(constant_rate(grid, 20.0))
    bulk = grid.nodes <= _outflow_layer_start(pair, 20.0, 40.0, 24.0)
    np.testing.assert_allclose(pair.phi.values[bulk], 1.0, rtol=0.0, atol=1e-9)
    assert 0.0 < pair.phi.values[-1] <= 5.0 * grid.spacing * 20.0


def test_direct_solve_rejects_coarse_grid():
    with pytest.raises(ValueError, match="coarse.*lam_hi"):
        solve_direct(constant_rate(make_grid(12.0, 8), 1.0))


def test_adjoint_rejects_coarse_grid():
    # a = h/2 (lambda0 + B) >= 1 would turn the sweep coefficients (1 - a) / (1 + a) negative
    grid = make_grid(12.0, 16)
    rate = constant_rate(grid, 1.0)
    N = solve_direct(rate).N
    with pytest.raises(ValueError, match="grid too coarse"):
        solve_adjoint(rate, 5.0, N)


def test_residual_without_sign_change_fails_loudly(monkeypatch):
    monkeypatch.setattr(
        celldiv.direct, "_shoot", lambda B, h, lam: (1.0, np.ones(B.size), np.ones(1), 1.0)
    )
    with pytest.raises(RuntimeError, match="no sign change"):
        solve_direct(constant_rate(make_grid(12.0, 256), 1.0))


def test_walk_without_sign_change_quotes_the_bracket_ends(monkeypatch):
    # Every residual is positive: the walk down the bracket finds nothing,
    # and the error still quotes the residuals at lam_lo and lam_hi.
    lams = []

    def shoot(B, h, lam):
        lams.append(lam)
        return 1.0 + lam, np.ones(B.size), np.ones(1), 1.0

    monkeypatch.setattr(celldiv.direct, "_shoot", shoot)
    with pytest.raises(RuntimeError, match=r"residuals 1\.99 and 2\.01 at its ends"):
        solve_direct(constant_rate(make_grid(12.0, 256), 1.0))
    assert len(lams) == 2 + celldiv.direct._BRACKET_WALK
    assert lams[2:] == sorted(lams[2:], reverse=True)


def test_two_root_bracket_solves_to_its_upper_root():
    # Both bracket ends have one sign: the residual has roots near 0.37 and
    # 24.27, and the upper one is the Perron root.
    def rate(n):
        return piecewise_rate(make_grid(6.0, n), [0.0, 0.28, 0.83], [24.267, 2.005, 0.315])

    fine = rate(4096)
    pair = solve_direct(fine)
    assert pair.lambda0 == pytest.approx(24.26682, abs=1e-4)
    assert pair.N.values.min() >= 0.0
    assert check_invariants(pair, fine).passed
    assert solve_direct(rate(256)).lambda0 == pytest.approx(24.267, abs=1e-3)


def test_non_perron_root_fails_loudly(monkeypatch):
    def shoot(B, h, lam):
        v = np.ones(B.size)
        v[0] = lam - 1.0
        v[B.size // 2] = -0.5
        return v[0], np.ones(B.size), v, 1.0

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
        distances.append(trapezoid(np.abs(pair.N.values - series.values), grid))  # L1 distance
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
        _, got = _shot_profile(rate.values, grid.spacing, lam)
        assert np.max(np.abs(got - _block_march(rate.values, grid.spacing, lam))) <= 1e-12


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in ACCEPTANCE_RATES for n in (16, 17, 1024, 4096)] + [("constant-20", 16384)],
)
def test_scalar_tail_matches_vector_blocks(name, n, monkeypatch):
    # SCALAR_NODES = 1 leaves only the one-node blocks [1, 2) and [0, 1) to
    # the scalar tail; both marches must equal the all-vector oracle exactly.
    length = 40.0 if name == "constant-20" else 12.0 if n >= 1024 else 6.0
    grid = make_grid(length, n)
    rate = SHOOT_RATES[name](grid)
    B, h = rate.values, grid.spacing
    lams = [0.99 * rate.b_min, solve_direct(rate).lambda0, 1.01 * rate.b_max]
    if name != "constant-20":  # there the e^1600 windows overflow below the bracket
        lams.append(-2.0 * rate.b_max)  # fine grids peak past n/2, where only Q is read
    for lam in lams:
        res, v = _shot_profile(B, h, lam)
        with monkeypatch.context() as patch:
            patch.setattr(celldiv.direct, "SCALAR_NODES", 1)
            res_vector, v_vector = _shot_profile(B, h, lam)
        full = _full_march(B, h, lam)
        assert res == res_vector == full[0]
        assert np.array_equal(v, v_vector)
        assert np.array_equal(v, full)


@pytest.mark.parametrize("name, n", [(name, 4096) for name in ACCEPTANCE_RATES] + [("constant-20", 16384)])
def test_root_profile_matches_full_march(name, n, monkeypatch):
    # Record the profile solve_direct forms, before it clips and rescales.
    grid = make_grid(40.0 if name == "constant-20" else 12.0, n)
    rate = SHOOT_RATES[name](grid)
    formed = []

    def profile(*pieces):
        v = _profile(*pieces)
        formed.append(v.copy())
        return v

    monkeypatch.setattr(celldiv.direct, "_profile", profile)
    pair = solve_direct(rate)
    assert len(formed) == 1
    assert np.array_equal(formed[0], _full_march(rate.values, grid.spacing, pair.lambda0))


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
    # The root search must not step across the round-off plateaus of the residual
    pair = solve_direct(ACCEPTANCE_RATES[name](make_grid(12.0, n)))
    assert pair.iterations <= 8


@pytest.mark.parametrize("name", ACCEPTANCE_RATES)
@pytest.mark.parametrize("n", [1024, 4096, 16384])
@pytest.mark.parametrize("tol", [1e-2, 1e-3, 1e-4, 1e-5])
def test_loose_tolerance_keeps_the_perron_root(name, n, tol):
    # A loose bracket has a negative-residual end whose profile dips below
    # zero near x = 0; the solve keeps the other end and must not raise.
    grid = make_grid(12.0, n)
    rate = ACCEPTANCE_RATES[name](grid)
    pair = solve_direct(rate, tol=tol)
    assert pair.N.values.min() >= 0.0
    root = solve_direct(rate).lambda0
    h, eps = grid.spacing, np.finfo(float).eps

    def width(t):  # a stopping bracket's width: max(t h, 4 eps / h) plus a few ulps
        return max(t * h, 4.0 * eps / h) + 4.0 * eps * root

    # both solves stop on a bracket around the same discrete root
    assert abs(pair.lambda0 - root) <= width(tol) + width(1e-9)


def _fuzz_rates():
    """The 200 seeded piecewise rates of the fuzz tests, in draw order."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        pieces = int(rng.integers(1, 5))
        values = 10.0 ** rng.uniform(-2.0, 1.5, pieces)
        length = float(rng.choice([6.0, 12.0, 24.0]))
        n = int(rng.choice([256, 1024]))
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.0, length, pieces - 1))])
        yield piecewise_rate(make_grid(length, n), breaks, values)


def test_random_piecewise_rates_solve_or_fail_by_name():
    # Seeded fuzz of the solve's contract: a Perron pair inside the widened
    # rate bounds, or one of the two named failures. Seed 7 gives 152
    # solves, 33 brackets without a sign change and 15 coarse grids. Every
    # solved rate also gets its adjoint: a positive phi paired to 1 with N.
    solved = 0
    for rate in _fuzz_rates():
        try:
            pair = solve_direct(rate)
        except RuntimeError as err:
            assert str(err).startswith("shooting residual has no sign change"), err
        except ValueError as err:
            assert str(err).startswith("grid too coarse"), err
        else:
            assert np.isfinite(pair.lambda0)
            assert 0.99 * rate.b_min <= pair.lambda0 <= 1.01 * rate.b_max
            assert pair.N.values.min() >= 0.0
            assert trapezoid(pair.N.values, rate.grid) == pytest.approx(1.0, abs=1e-12)
            solved += 1
            phi = solve_adjoint(rate, pair.lambda0, pair.N)
            assert phi.values.min() > 0.0
            pairing = trapezoid(phi.values * pair.N.values, rate.grid)
            assert pairing == pytest.approx(1.0, abs=1e-12)
    assert solved == 152


def test_walk_error_names_its_step_on_fuzz_draw_48():
    # The residual changes sign near 0.059 and 0.129, both inside one step
    # of the walk, so the walk sees no sign change; the error says how wide
    # a step is.
    rate = next(itertools.islice(_fuzz_rates(), 48, None))
    with pytest.raises(RuntimeError, match=r"^shooting residual has no sign change .* walk step 0\.137 "):
        solve_direct(rate)


def test_adjoint_matches_the_dense_null_vector_on_fuzz_draws():
    # Every node, including those where N < 1e-30 max N, which an
    # N-weighted stop test never sees. The root search runs to its floor,
    # so the rows are singular to round-off and the comparison measures
    # the null vectors, not the root's stop width.
    compared = 0
    for rate in _fuzz_rates():
        if rate.grid.intervals != 256:
            continue
        try:
            pair = solve_direct(rate, tol=1e-14)
        except (RuntimeError, ValueError):
            continue
        phi = solve_adjoint(rate, pair.lambda0, pair.N).values
        ref = _dense_left_null_vector(rate, pair.lambda0, pair.N)
        assert np.max(np.abs(phi - ref) / ref) <= 1e-8
        compared += 1
    assert compared == 74


def test_adjoint_solves_fuzz_draw_134():
    # b_max / lambda0 = 7.5: lagged half-argument sweeps needed 323 passes here
    grid = make_grid(24.0, 1024)
    breaks, values = [0.0, 2.79226492, 18.01733152], [0.34033071, 0.03118736, 0.17283892]
    rate = piecewise_rate(grid, breaks, values)
    pair = solve_direct(rate)
    phi = solve_adjoint(rate, pair.lambda0, pair.N).values
    assert phi.min() > 0.0
    ref = _dense_left_null_vector(rate, pair.lambda0, pair.N)
    assert np.max(np.abs(phi - ref) / ref) <= 1e-8


@pytest.mark.parametrize("name", ACCEPTANCE_RATES)
@pytest.mark.parametrize("n", [256, 1024])
def test_adjoint_weights_annihilate_the_rows(name, n):
    # w is rebuilt from the node map phi_j = (w_j + w_{j+1}) / 2, w_{n+1} = 0.
    # At its floor the root search leaves the rows singular to round-off,
    # and w^T rows vanishes to round-off too.
    grid = make_grid(12.0, n)
    rate = ACCEPTANCE_RATES[name](grid)
    pair = solve_pair(rate, tol=1e-14)
    phi = pair.phi.values
    w = np.zeros(n + 2)
    for j in range(n, 0, -1):
        w[j] = 2.0 * phi[j] - w[j + 1]
    rows = _collocation_rows(rate.values, grid.spacing, pair.lambda0)
    scale = np.abs(rows).sum(axis=1).max() * np.abs(w).max()
    assert np.abs(rows.T @ w[1 : n + 1]).max() <= 1e-13 * scale
