"""Uniform grids on a truncated half-line and real functions sampled on them.

Everything downstream (eigen-solves, entropy diagnostics, the regularized
inverse marchers) works on node values over a uniform mesh of ``[0, L]``.
The half-line is truncated at ``L`` and functions are implicitly extended
by zero beyond it, which is harmless for the exponentially decaying
profiles this package deals with.

Two sampling rules recur throughout and are kept consistent on purpose:

* half arguments ``f(x_j / 2)`` are exact node reads for even ``j`` and
  linear interpolation between the two flanking nodes for odd ``j``;
* double arguments ``f(2 x_j)`` read node ``2 j`` when it exists and are
  zero beyond the truncation boundary.

Quadrature is the trapezoid rule, matching the piecewise-linear
interpolation order. Derivatives are centered differences with one-sided
second-order stencils at the two boundary nodes. Norms and derivatives
take plain node arrays. The adjoint's dyadic levels solve a first-order
linear recurrence with one coefficient per step, on stacked sources, the
implicit marchers of the toy and inverse problems one with a constant
coefficient. Both are plans: built once from their coefficients, they
solve any number of sources, chaining their windows or rows in order.
:func:`product_window` sizes the windows of the running products, the
rows of the constant-coefficient closed form and the windows of the
direct march's integrating factor.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Minimum resolution guard: coarser meshes cannot represent the
# half/double argument couplings meaningfully.
MIN_INTERVALS = 8


@dataclass(frozen=True)
class Grid:
    """Uniform mesh ``x_j = j h`` on ``[0, length]`` with ``h = length / intervals``."""

    length: float
    intervals: int
    spacing: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        length = float(self.length)
        if not np.isfinite(length) or length <= 0.0:
            raise ValueError(f"grid length must be finite and positive, got {self.length!r}")
        intervals = int(self.intervals)
        if intervals < MIN_INTERVALS:
            raise ValueError(f"grid needs at least {MIN_INTERVALS} intervals, got {intervals}")
        nodes = np.linspace(0.0, length, intervals + 1)
        nodes.flags.writeable = False
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(self, "spacing", length / intervals)
        object.__setattr__(self, "nodes", nodes)


def make_grid(length: float, intervals: int) -> Grid:
    """Build a uniform grid on ``[0, length]`` with ``intervals`` cells."""
    return Grid(length, intervals)


@dataclass(frozen=True)
class GridFunction:
    """Real function known by its values at the nodes of a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        expected = (self.grid.intervals + 1,)
        if values.shape != expected:
            raise ValueError(f"expected {expected[0]} node values, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("grid function values must all be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, values)


def trapezoid(values: np.ndarray, grid: Grid) -> float:
    """Trapezoid quadrature of nodal values over [0, L]."""
    v = np.asarray(values, dtype=float)
    return grid.spacing * (0.5 * v[0] + v[1:-1].sum() + 0.5 * v[-1])


def norm(values: np.ndarray, grid: Grid, weight: np.ndarray | None = None) -> float:
    """L2 norm of nodal values by trapezoid quadrature, optionally with nodal weight values."""
    square = values * values if weight is None else values * values * weight
    return float(np.sqrt(max(trapezoid(square, grid), 0.0)))


def derivative(values: np.ndarray, spacing: float) -> np.ndarray:
    """Discrete derivative of nodal values: centered inside, one-sided
    second order at the ends."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        raise ValueError("derivative needs at least three nodes")
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * spacing)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * spacing)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * spacing)
    return d


def sobolev_norm(values: np.ndarray, grid: Grid) -> float:
    """Full second-order Sobolev norm sqrt(L2^2 + H1^2 + H2^2) of nodal values;
    H1 and H2 are the L2 norms of the first and second discrete derivatives."""
    d1 = derivative(values, grid.spacing)
    d2 = derivative(d1, grid.spacing)
    return float(np.sqrt(norm(values, grid) ** 2 + norm(d1, grid) ** 2 + norm(d2, grid) ** 2))


def half_sample_values(values: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Half-argument samples ``out[j - lo] = f(x_j / 2)`` for ``lo <= j <= hi``,
    every node by default; they read nodes ``lo // 2`` to ``(hi + 1) // 2`` only."""
    v = np.asarray(values, dtype=float)
    hi = v.size - 1 if hi is None else hi
    out = np.empty(hi - lo + 1)
    even = lo + lo % 2  # first even and odd j from lo on
    odd = lo + 1 - lo % 2
    out[even - lo :: 2] = v[even // 2 : hi // 2 + 1]
    out[odd - lo :: 2] = 0.5 * (v[odd // 2 : (hi + 1) // 2] + v[odd // 2 + 1 : (hi + 1) // 2 + 1])
    return out


def double_sample_values(values: np.ndarray) -> np.ndarray:
    """All double-argument samples: ``out[j] = f(2 x_j)`` with zero beyond L."""
    v = np.asarray(values, dtype=float)
    n = v.size - 1
    out = np.zeros_like(v)
    out[: n // 2 + 1] = v[::2]
    return out


# The marchers solve their lowest nodes, up to this one at most, one at a
# time: the dyadic blocks there are too short for vector passes to pay.
SCALAR_NODES = 64
# Largest factor by which a running product of coefficients may leave 1:
# far inside the double range, so the scaled sources s_k / P_k stay finite.
PRODUCT_LIMIT = 1e100


def product_window(c: np.ndarray) -> int:
    """Longest run of the positive coefficients ``c`` whose running product
    stays within ``PRODUCT_LIMIT`` of 1, sized from the most extreme one;
    ``c.size`` when every coefficient is 1."""
    spread = max(-np.log(c.min()), np.log(c.max()))
    return max(1, int(np.log(PRODUCT_LIMIT) / spread)) if spread > 0.0 else c.size


def linear_recurrence(c: np.ndarray):
    """Solver ``(s, x0) -> x`` of ``x_k = c_k x_{k-1} + s_k``, ``x_{-1} = x0``,
    for one positive coefficient ``c_k`` per step (a constant one is
    :func:`constant_recurrence`'s), one step per coefficient.

    The running products ``P = cumprod(c)`` are formed here, once for
    every call of the solver, in windows of :func:`product_window` steps.
    A call takes the closed form ``x = P (x0 + cumsum(s / P))`` over each
    window in order, in a few vector passes; each window starts from the
    last value of the one before. A stacked source of shape ``(steps, k)``
    with a length-``k`` start value solves ``k`` recurrences at once, one
    per column, with the same arithmetic as ``k`` one-column calls.
    """
    c = np.asarray(c, dtype=float)
    window = product_window(c)
    products = np.empty_like(c)
    for k in range(0, c.size, window):
        np.multiply.accumulate(c[k : k + window], out=products[k : k + window])

    def solve(s: np.ndarray, x0: float = 0.0) -> np.ndarray:
        x = np.array(s, dtype=float)
        p = products.reshape((-1,) + (1,) * (x.ndim - 1))  # broadcast over stacked columns
        for k in range(0, len(x), window):
            seg = x[k : k + window]
            seg[0] += c[k] * (x[k - 1] if k else x0)
            seg /= p[k : k + window]
            np.add.accumulate(seg, out=seg)
            seg *= p[k : k + window]
        return x

    return solve


def constant_recurrence(c: float, size: int):
    """Solver ``(s, x0) -> x`` of ``x_k = c x_{k-1} + s_k``, ``x_{-1} = x0``,
    for one constant ``0 <= c < 1`` and up to ``size`` steps.

    The powers of ``c`` are formed here, once for every call of the
    solver. A call cuts its steps into rows of ``W`` steps, ``W`` from
    :func:`product_window`, so that ``c**-k`` stays below
    ``PRODUCT_LIMIT`` within a row. Every row is the closed form
    ``x_k = c**k (c x_prev + cumsum(s_j c**-j))`` from the last value
    ``x_prev`` of the row before; one accumulate serves all rows. The
    values before each row are then chained in order, one scalar step
    per row: ``start[r+1] = c**W start[r] + c**(W-1) t[r, -1]``, with
    ``t`` the row's scaled prefix sums.
    """
    width = product_window(np.array([c])) if c > 0.0 else 1  # c = 0: x_k = s_k
    width = min(width, max(size, 1))
    powers = c ** np.arange(width + 1.0)
    inverse = 1.0 / powers[:width]

    def solve(s: np.ndarray, x0: float = 0.0) -> np.ndarray:
        steps = len(s)
        if steps <= width:  # one row
            x = s * inverse[:steps]
            x[0] += c * x0
            np.add.accumulate(x, out=x)
            x *= powers[:steps]
            return x
        rows = -(-steps // width)
        t = np.zeros((rows, width))
        t.reshape(-1)[:steps] = s
        t *= inverse
        np.add.accumulate(t, axis=1, out=t)
        starts = [float(x0)]  # x before each row
        for end in (t[:-1, -1] * powers[width - 1]).tolist():
            starts.append(powers[width] * starts[-1] + end)
        t += c * np.array(starts)[:, None]
        t *= powers[:width]
        return t.reshape(-1)[:steps]

    return solve


CSV_HEADER = "x,value"
_BLANK_LINE = re.compile(r"\n[^\S\n]+(?=\n|\Z)")  # a line of whitespace only
_LOADTXT = {"delimiter": ",", "comments": None, "ndmin": 2}  # np.loadtxt: skips empty lines


def write_csv(f: GridFunction, path: str | Path) -> Path:
    """Write the two-column node table ``x,value`` with shortest round-trip floats."""
    path = Path(path)
    rows = [f"{x!r},{v!r}" for x, v in zip(f.grid.nodes.tolist(), f.values.tolist())]
    path.write_text("\n".join([CSV_HEADER, *rows, ""]))
    return path


def read_csv(path: str | Path) -> GridFunction:
    """Load a grid function, validating the uniform-grid contract: header
    ``x,value``, then at least ``MIN_INTERVALS + 1`` rows of two finite numbers
    whose abscissae start at 0 and are uniformly spaced; blank lines are skipped."""
    path = Path(path)
    head, _, body = path.read_text().lstrip().partition("\n")
    if head.strip() != CSV_HEADER:
        raise ValueError(f"{path}: expected header {CSV_HEADER!r}")
    body = _BLANK_LINE.sub("\n", "\n" + body)
    try:
        table = np.loadtxt(io.StringIO(body), **_LOADTXT) if body.strip() else np.empty((0, 2))
    except ValueError:
        table = None
    if table is None or table.shape[1] != 2:
        raise ValueError(f"{path}: malformed row {_malformed_row(body)!r}")
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        row = [ln for ln in body.splitlines() if ln.strip()][int(np.argmin(finite))]
        raise ValueError(f"{path}: non-finite value in row {row!r}")
    if len(table) < MIN_INTERVALS + 1:
        raise ValueError(f"{path}: too few rows for a valid grid")
    x, v = table[:, 0], table[:, 1]
    if abs(x[0]) > 1e-12 * max(1.0, abs(x[-1])):
        raise ValueError(f"{path}: grid must start at 0, got {x[0]}")
    steps = np.diff(x)
    if np.any(steps <= 0):
        raise ValueError(f"{path}: node abscissae must be strictly increasing")
    h = x[-1] / (len(x) - 1)
    if np.max(np.abs(steps - h)) > 1e-9 * max(h, 1e-300):
        raise ValueError(f"{path}: nodes do not form a uniform grid")
    grid = Grid(float(x[-1]), len(x) - 1)
    return GridFunction(grid, v)


def _malformed_row(body: str) -> str | None:
    """First non-blank row that is not two numbers, for the error message."""
    for ln in body.splitlines():  # error path only
        try:
            if ln.strip() and np.loadtxt([ln], **_LOADTXT).shape != (1, 2):
                return ln
        except ValueError:
            return ln
    return None
