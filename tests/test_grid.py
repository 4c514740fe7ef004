import itertools
import re

import numpy as np
import pytest

from celldiv.grid import (
    GridFunction,
    constant_recurrence,
    derivative,
    double_sample_values,
    half_sample_values,
    linear_recurrence,
    make_grid,
    norm,
    product_window,
    read_csv,
    sobolev_norm,
    trapezoid,
    write_csv,
)


def half_value(f, j):
    """Reference for :func:`half_sample_values`: the value of ``f`` at ``x_j / 2``,
    a node read for even ``j`` and linear interpolation between nodes
    ``(j-1)/2`` and ``(j+1)/2`` for odd ``j``."""
    n = f.grid.intervals
    j = int(j)
    if j < 0 or j > n:
        raise IndexError(f"node index {j} outside 0..{n}")
    v = f.values
    if j % 2 == 0:
        return float(v[j // 2])
    m = j // 2
    return float(0.5 * (v[m] + v[m + 1]))


def write_csv_loop(f, path):
    """Reference for :func:`write_csv`: one f-string per numpy scalar."""
    lines = ["x,value"]
    for x, v in zip(f.grid.nodes, f.values):
        lines.append(f"{float(x)!r},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


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
    sampled = half_sample_values(f.values)
    for j in range(n + 1):
        assert sampled[j] == pytest.approx(half_value(f, j), abs=1e-15)


@pytest.mark.parametrize("n", [8, 9, 64, 101])
def test_double_samples(n):
    grid = make_grid(3.0, n)
    f = GridFunction(grid, np.cos(grid.nodes))
    doubled = double_sample_values(f.values)
    for j in range(n + 1):
        expected = f.values[2 * j] if 2 * j <= n else 0.0
        assert doubled[j] == expected


def test_norm_constant_and_zero():
    grid = make_grid(1.0, 64)
    one = np.ones(65)
    zero = np.zeros(65)
    assert norm(one, grid) == pytest.approx(1.0)
    assert norm(zero, grid) == 0.0
    assert norm(zero, grid, grid.nodes ** 2) == 0.0
    # the weight multiplies the square: int x^2 over [0,1] is 1/3
    assert norm(one, grid, grid.nodes ** 2) == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-4)


def test_norm_linear_function():
    grid = make_grid(1.0, 256)
    # exact integral of x^2 over [0,1] is 1/3
    assert norm(grid.nodes, grid) == pytest.approx(1.0 / np.sqrt(3.0), abs=5e-6)


def test_norm_absolutely_homogeneous(rng):
    grid = make_grid(2.0, 128)
    f = rng.standard_normal(129)
    for c in (-3.7, 0.0, 0.25):
        assert norm(c * f, grid) == pytest.approx(abs(c) * norm(f, grid))


def test_trapezoid_second_order_refinement():
    # smooth integrand: halving h cuts the error by about 4
    exact = np.e - 1.0
    errors = []
    for n in (64, 128):
        grid = make_grid(1.0, n)
        errors.append(abs(trapezoid(np.exp(grid.nodes), grid) - exact))
    ratio = errors[0] / errors[1]
    assert 3.2 <= ratio <= 4.8


def test_derivative_quadratic_exact_at_interior():
    grid = make_grid(2.0, 32)
    d = derivative(3.0 * grid.nodes ** 2 - grid.nodes, grid.spacing)
    expected = 6.0 * grid.nodes - 1.0
    np.testing.assert_allclose(d, expected, atol=1e-12)  # one-sided ends exact too


def test_seminorms():
    grid = make_grid(1.0, 512)
    d1 = derivative(grid.nodes ** 2, grid.spacing)
    d2 = derivative(d1, grid.spacing)
    assert norm(d1, grid) == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-4)  # H1
    assert norm(d2, grid) == pytest.approx(2.0, rel=1e-3)  # H2
    # sqrt(L2^2 + H1^2 + H2^2) with L2^2 = int x^4 = 1/5 and H1^2 = 4/3
    assert sobolev_norm(grid.nodes ** 2, grid) == pytest.approx(np.sqrt(1 / 5 + 4 / 3 + 4), rel=1e-3)


def test_csv_round_trip(tmp_path):
    grid = make_grid(1.5, 12)
    f = GridFunction(grid, np.sin(grid.nodes))
    path = write_csv(f, tmp_path / "f.csv")
    g = read_csv(path)
    assert g.grid == f.grid
    np.testing.assert_array_equal(g.values, f.values)


def test_csv_round_trip_is_bit_exact_at_65536(tmp_path, rng):
    grid = make_grid(12.0, 65536)
    values = np.exp(-grid.nodes) * (1.0 + 1e-3 * rng.standard_normal(grid.nodes.size))
    values[1] = -0.0
    values[2] = 5e-324  # smallest subnormal
    f = GridFunction(grid, values)
    g = read_csv(write_csv(f, tmp_path / "f.csv"))
    assert g.grid == f.grid
    np.testing.assert_array_equal(g.grid.nodes, grid.nodes)
    assert g.values.tobytes() == f.values.tobytes()  # keeps the sign of -0.0


@pytest.mark.parametrize("n", [8, 1000])
def test_write_csv_matches_loop(tmp_path, rng, n):
    grid = make_grid(12.0, n)
    values = rng.standard_normal(n + 1) * np.logspace(-300, 300, n + 1)
    values[:4] = [0.0, -0.0, 1e-310, 1.0 / 3.0]
    f = GridFunction(grid, values)
    got = write_csv(f, tmp_path / "fast.csv").read_bytes()
    assert got == write_csv_loop(f, tmp_path / "loop.csv").read_bytes()


def test_csv_skips_blank_lines(tmp_path):
    rows = [f"{0.125 * i!r},{float(i)!r}" for i in range(9)]
    path = tmp_path / "blank.csv"
    path.write_text("\n  \nx,value\n" + "\n \t\n".join(rows) + "\n\n   ")
    g = read_csv(path)
    assert g.grid == make_grid(1.0, 8)
    np.testing.assert_array_equal(g.values, np.arange(9.0))


def _csv_with_row(tmp_path, k, row):
    """Valid 9-row table on [0, 1] with row ``k`` replaced by ``row``."""
    rows = [f"{0.125 * i!r},{float(i)!r}" for i in range(9)]
    rows[k] = row
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["x,value", *rows]) + "\n")
    return path


@pytest.mark.parametrize(
    ("k", "row"),
    [
        (3, "0.375"),  # one field
        (3, "0.375,3.0,1.0"),  # three fields
        (0, "0.0,0.0,0.0"),  # three fields in the first row
        (5, "0.625,abc"),  # non-numeric field
        (5, "0.625,"),  # empty field
    ],
)
def test_csv_rejects_malformed_row(tmp_path, k, row):
    path = _csv_with_row(tmp_path, k, row)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed row {re.escape(repr(row))}$"):
        read_csv(path)


@pytest.mark.parametrize(("k", "row"), [(4, "0.5,nan"), (6, "0.75,inf"), (2, "nan,2.0")])
def test_csv_rejects_non_finite_row(tmp_path, k, row):
    path = _csv_with_row(tmp_path, k, row)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: non-finite value in row {re.escape(repr(row))}$"):
        read_csv(path)


def test_csv_rejects_single_column_table(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n" + "".join(f"{0.125 * i}\n" for i in range(9)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed row '0.0'$"):
        read_csv(path)


@pytest.mark.parametrize("rows", [0, 1, 8])
def test_csv_rejects_too_few_rows(tmp_path, rows):
    path = tmp_path / "short.csv"
    path.write_text("x,value\n" + "".join(f"{0.125 * i},{i}\n" for i in range(rows)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: too few rows"):
        read_csv(path)


@pytest.mark.parametrize("row", ["0.25,3.0", "0.2,3.0"])  # repeated, then decreasing
def test_csv_rejects_non_increasing_nodes(tmp_path, row):
    path = _csv_with_row(tmp_path, 3, row)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: node abscissae must be strictly increasing"):
        read_csv(path)


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


# Per-step coefficients. The running products of the last two cross
# 1e-100 or 1e100 several times, so the closed form runs over many windows.
PER_STEP = {
    "per-step": lambda rng, size: rng.uniform(0.5, 1.5, size),
    "decaying": lambda rng, size: rng.uniform(0.4, 0.6, size),
    "growing": lambda rng, size: rng.uniform(1.5, 2.5, size),
}


def _row_sizes(c):
    """W - 1, W and W + 1 steps, W = floor(ln 1e100 / -ln c) being the row
    width of the constant-coefficient closed form, and a length over
    several rows with a partial last one (three rows where W is in the
    millions, more below)."""
    width = int(np.log(1e100) / -np.log(c))
    assert c ** -width <= 1e100 < c ** -(width + 1)
    return [width - 1, width, width + 1, (2 if width > 10**6 else 5) * width + 7]


@pytest.mark.parametrize(
    ("size", "c"),
    [(size, c) for size in (1, 2, 3, 1000) for c in (0.0, 0.5, 0.99993, "per-step")]
    # rows of 332 steps for 0.5, whose row-end carry 0.5**332 is about
    # 1e-100: chained in order, each row start adds 1e-100 of the one before
    + [(1024, 0.5), (65536, 0.5)]
    # the product of 1200 growing steps, about 1e355, overflows; sources
    # scaled by 1e-200 keep the loop finite (4096 such steps exceed any scaling)
    + [(4096, "decaying"), (1200, "growing")]
    # one row, exactly one, one and a step, and many rows
    + [(size, c) for c in (1e-8, 0.21, 0.9999) for size in _row_sizes(c)],
)
def test_linear_recurrence_matches_loop(c, size, rng):
    scale = 1e-200 if c == "growing" else 1.0
    s = scale * rng.standard_normal(size)
    coef = PER_STEP[c](rng, size) if c in PER_STEP else c
    solve = linear_recurrence(coef) if c in PER_STEP else constant_recurrence(c, size)
    # two sources through one solver: a call must leave the solver as it found it
    for s, x0 in [(s, -0.75 * scale), (scale * rng.standard_normal(size), 0.5 * scale)]:
        expected = np.empty(size)
        prev = x0
        for k in range(0, size, 65536):  # step by step over plain floats, in chunks
            chunk = []
            steps = coef[k : k + 65536].tolist() if c in PER_STEP else itertools.repeat(c)
            for a, b in zip(steps, s[k : k + 65536].tolist()):
                prev = a * prev + b
                chunk.append(prev)
            expected[k : k + len(chunk)] = chunk
        assert np.all(np.isfinite(expected))
        got = solve(s, x0)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("c", PER_STEP)
def test_linear_recurrence_stacks_columns(c, rng):
    # 1000 steps span three or more product windows on every coefficient draw
    coef = PER_STEP[c](rng, 1000)
    assert product_window(coef) <= 333
    scale = 1e-200 if c == "growing" else 1.0
    s = scale * rng.standard_normal((1000, 5))
    x0 = scale * rng.standard_normal(5)
    solve = linear_recurrence(coef)
    columns = np.column_stack([solve(s[:, k], x0[k]) for k in range(5)])
    assert np.array_equal(solve(s, x0), columns)
