import numpy as np
import pytest

from celldiv.grid import (
    GridFunction,
    WeightSpec,
    derivative,
    double_samples,
    half_samples,
    half_value,
    linear_recurrence,
    make_grid,
    norm,
    read_csv,
    seminorm,
    trapezoid,
    write_csv,
)


def test_make_grid_rejects_low_resolution():
    with pytest.raises(ValueError):
        make_grid(1.0, 4)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
def test_make_grid_rejects_bad_length(bad):
    with pytest.raises(ValueError):
        make_grid(bad, 16)


def test_make_grid_nodes():
    grid = make_grid(1.0, 8)
    assert grid.spacing == 0.125
    np.testing.assert_allclose(grid.nodes, np.arange(9) * 0.125)
    assert grid.nodes[-1] == 1.0


def test_make_grid_spacing_large():
    grid = make_grid(12.0, 4096)
    assert grid.spacing == 12.0 / 4096 == 0.0029296875


def test_grid_function_validates_shape_and_finiteness():
    grid = make_grid(1.0, 8)
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros(5))
    values = np.zeros(9)
    values[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(grid, values)


def test_grid_function_values_immutable():
    grid = make_grid(1.0, 8)
    f = GridFunction(grid, np.zeros(9))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


@pytest.mark.parametrize("n", [8, 9, 16, 33])
def test_half_value_exact_for_affine(n):
    grid = make_grid(2.0, n)
    f = GridFunction(grid, 3.0 * grid.nodes - 1.0)
    for j in range(n + 1):
        expected = 3.0 * (grid.nodes[j] / 2.0) - 1.0
        assert half_value(f, j) == pytest.approx(expected, abs=1e-14)


def test_half_value_quadratic_interpolation_error():
    grid = make_grid(1.0, 8)
    f = GridFunction(grid, grid.nodes ** 2)
    # odd index: midpoint average of the two flanking squares
    assert half_value(f, 1) == pytest.approx((0.0 ** 2 + 0.125 ** 2) / 2.0)
    assert half_value(f, 1) == pytest.approx(0.0078125)
    exact = (0.125 / 2.0) ** 2
    assert exact == pytest.approx(0.00390625)
    assert abs(half_value(f, 1) - exact) == pytest.approx(0.00390625)  # h^2 scale


def test_half_value_index_range():
    grid = make_grid(1.0, 8)
    f = GridFunction(grid, grid.nodes)
    with pytest.raises(IndexError):
        half_value(f, 9)
    with pytest.raises(IndexError):
        half_value(f, -1)


@pytest.mark.parametrize("n", [8, 9, 64, 101])
def test_half_samples_matches_scalar(n):
    grid = make_grid(3.0, n)
    f = GridFunction(grid, np.sin(grid.nodes))
    sampled = half_samples(f).values
    for j in range(n + 1):
        assert sampled[j] == pytest.approx(half_value(f, j), abs=1e-15)


@pytest.mark.parametrize("n", [8, 9, 64, 101])
def test_double_samples(n):
    grid = make_grid(3.0, n)
    f = GridFunction(grid, np.cos(grid.nodes))
    doubled = double_samples(f).values
    for j in range(n + 1):
        expected = f.values[2 * j] if 2 * j <= n else 0.0
        assert doubled[j] == expected


def test_norm_constant_and_zero():
    grid = make_grid(1.0, 64)
    one = GridFunction(grid, np.ones(65))
    zero = GridFunction(grid, np.zeros(65))
    assert norm(one) == pytest.approx(1.0)
    assert norm(one, order="L1") == pytest.approx(1.0)
    assert norm(zero) == 0.0
    assert norm(zero, WeightSpec.poly(2), "L1") == 0.0


def test_norm_linear_function():
    grid = make_grid(1.0, 256)
    f = GridFunction(grid, grid.nodes)
    # exact integral of x^2 over [0,1] is 1/3
    assert norm(f) == pytest.approx(1.0 / np.sqrt(3.0), abs=5e-6)


def test_norm_absolutely_homogeneous(rng):
    grid = make_grid(2.0, 128)
    f = GridFunction(grid, rng.standard_normal(129))
    for c in (-3.7, 0.0, 0.25):
        scaled = GridFunction(grid, c * f.values)
        for order in ("L1", "L2"):
            assert norm(scaled, order=order) == pytest.approx(abs(c) * norm(f, order=order))


def test_trapezoid_second_order_refinement():
    # smooth integrand: halving h cuts the error by about 4
    exact = np.e - 1.0
    errors = []
    for n in (64, 128):
        grid = make_grid(1.0, n)
        errors.append(abs(trapezoid(np.exp(grid.nodes), grid) - exact))
    ratio = errors[0] / errors[1]
    assert 3.2 <= ratio <= 4.8


def test_weight_kinds():
    grid = make_grid(2.0, 16)
    x = grid.nodes
    np.testing.assert_allclose(WeightSpec.unit().on(grid), np.ones_like(x))
    np.testing.assert_allclose(WeightSpec.poly(3).on(grid), x ** 3)
    data = GridFunction(grid, x + 1.0)
    np.testing.assert_allclose(WeightSpec.squared_data(data).on(grid), (x + 1.0) ** 2)
    with pytest.raises(ValueError):
        WeightSpec.poly(-1)
    with pytest.raises(ValueError):
        WeightSpec("poly", 1.5)
    with pytest.raises(ValueError):
        WeightSpec("squared-data")


def test_derivative_quadratic_exact_at_interior():
    grid = make_grid(2.0, 32)
    f = GridFunction(grid, 3.0 * grid.nodes ** 2 - grid.nodes)
    d = derivative(f).values
    expected = 6.0 * grid.nodes - 1.0
    np.testing.assert_allclose(d, expected, atol=1e-12)  # one-sided ends exact too


def test_seminorms():
    grid = make_grid(1.0, 512)
    f = GridFunction(grid, grid.nodes ** 2)
    assert seminorm(f, "H1") == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-4)
    assert seminorm(f, "H2") == pytest.approx(2.0, rel=1e-3)


def test_csv_round_trip(tmp_path):
    grid = make_grid(1.5, 12)
    f = GridFunction(grid, np.sin(grid.nodes))
    path = write_csv(f, tmp_path / "f.csv")
    g = read_csv(path)
    assert g.grid == f.grid
    np.testing.assert_array_equal(g.values, f.values)


def test_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["x,value"] + [f"{x},{x}" for x in (0.0, 0.1, 0.2, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8)]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="uniform"):
        read_csv(path)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,0\n")
    with pytest.raises(ValueError, match="header"):
        read_csv(path)


def test_csv_rejects_nonzero_origin(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["x,value"] + [f"{0.5 + 0.1 * i},{i}" for i in range(9)]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="start at 0"):
        read_csv(path)


@pytest.mark.parametrize("c", [0.0, 0.5, 0.99993])
@pytest.mark.parametrize("size", [1, 2, 3, 1000])
def test_linear_recurrence_matches_loop(c, size, rng):
    s = rng.standard_normal(size)
    x0 = -0.75
    expected = np.empty(size)
    prev = x0
    for k in range(size):
        prev = c * prev + s[k]
        expected[k] = prev
    got = linear_recurrence(c, s, x0)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
