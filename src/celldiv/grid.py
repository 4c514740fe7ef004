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
second-order stencils at the two boundary nodes. The implicit marchers of
the toy and inverse problems share one first-order linear recurrence.
"""

from __future__ import annotations

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
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must all be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, values)


@dataclass(frozen=True)
class WeightSpec:
    """Quadrature weight: one of ``unit``, ``poly`` (x^m) or ``squared-data``
    (the square of a supplied grid function)."""

    kind: str
    parameter: float = 0.0
    data: GridFunction | None = None

    _KINDS = ("unit", "poly", "squared-data")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "poly":
            m = self.parameter
            if m < 0 or m != int(m):
                raise ValueError("poly weight exponent must be a nonnegative integer")
        if self.kind == "squared-data" and self.data is None:
            raise ValueError("squared-data weight needs a grid function")

    @classmethod
    def unit(cls) -> "WeightSpec":
        return cls("unit")

    @classmethod
    def poly(cls, exponent: int) -> "WeightSpec":
        return cls("poly", float(exponent))

    @classmethod
    def squared_data(cls, data: GridFunction) -> "WeightSpec":
        return cls("squared-data", 0.0, data)

    def on(self, grid: Grid) -> np.ndarray:
        """Nodal weight values on ``grid``."""
        x = grid.nodes
        if self.kind == "unit":
            return np.ones_like(x)
        if self.kind == "poly":
            return x ** int(self.parameter)
        if self.data.grid is not grid and self.data.grid != grid:
            raise ValueError("squared-data weight lives on a different grid")
        return self.data.values ** 2


def trapezoid(values: np.ndarray, grid: Grid) -> float:
    """Trapezoid quadrature of nodal values over [0, L]."""
    v = np.asarray(values, dtype=float)
    return grid.spacing * (0.5 * v[0] + v[1:-1].sum() + 0.5 * v[-1])


def norm(f: GridFunction, weight: WeightSpec | None = None, order: str = "L2") -> float:
    """Weighted L1 or L2 norm by trapezoid quadrature."""
    w = np.ones_like(f.values) if weight is None else weight.on(f.grid)
    if order == "L1":
        return trapezoid(np.abs(f.values) * w, f.grid)
    if order == "L2":
        return float(np.sqrt(max(trapezoid(f.values ** 2 * w, f.grid), 0.0)))
    raise ValueError(f"unknown norm order {order!r}")


def derivative(f: GridFunction) -> GridFunction:
    """Discrete derivative: centered inside, one-sided second order at the ends."""
    return f.with_values(derivative_values(f.values, f.grid.spacing))


def derivative_values(values: np.ndarray, spacing: float) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        raise ValueError("derivative needs at least three nodes")
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * spacing)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * spacing)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * spacing)
    return d


def seminorm(f: GridFunction, order: str = "H1") -> float:
    """L2 norm of the first (H1) or second (H2) discrete derivative."""
    if order == "H1":
        return norm(derivative(f))
    if order == "H2":
        return norm(derivative(derivative(f)))
    raise ValueError(f"unknown seminorm order {order!r}")


def sobolev_norm(f: GridFunction) -> float:
    """Full second-order Sobolev norm: sqrt(L2^2 + H1^2 + H2^2)."""
    return float(np.sqrt(norm(f) ** 2 + seminorm(f, "H1") ** 2 + seminorm(f, "H2") ** 2))


def half_value(f: GridFunction, j: int) -> float:
    """Value of ``f`` at ``x_j / 2``: node read for even ``j``, linear
    interpolation between nodes ``(j-1)/2`` and ``(j+1)/2`` for odd ``j``."""
    n = f.grid.intervals
    j = int(j)
    if j < 0 or j > n:
        raise IndexError(f"node index {j} outside 0..{n}")
    v = f.values
    if j % 2 == 0:
        return float(v[j // 2])
    m = j // 2
    return float(0.5 * (v[m] + v[m + 1]))


def half_sample_values(values: np.ndarray) -> np.ndarray:
    """All half-argument samples at once: ``out[j] = f(x_j / 2)``."""
    v = np.asarray(values, dtype=float)
    n = v.size - 1
    out = np.empty_like(v)
    out[0::2] = v[: n // 2 + 1]
    odd = (n + 1) // 2  # number of odd indices in 0..n
    out[1::2] = 0.5 * (v[:odd] + v[1 : odd + 1])
    return out


def half_samples(f: GridFunction) -> GridFunction:
    """Grid function ``y -> f(y / 2)`` on the same grid."""
    return f.with_values(half_sample_values(f.values))


def double_sample_values(values: np.ndarray) -> np.ndarray:
    """All double-argument samples: ``out[j] = f(2 x_j)`` with zero beyond L."""
    v = np.asarray(values, dtype=float)
    n = v.size - 1
    out = np.zeros_like(v)
    out[: n // 2 + 1] = v[::2]
    return out


def double_samples(f: GridFunction) -> GridFunction:
    """Grid function ``x -> f(2 x)`` on the same grid, zero past the boundary."""
    return f.with_values(double_sample_values(f.values))


def linear_recurrence(c: float, s: np.ndarray, x0: float = 0.0) -> np.ndarray:
    """All of ``x_k = c x_{k-1} + s_k`` with ``x_{-1} = x0``, for ``0 <= c < 1``.

    Recursive doubling: after the pass at distance ``d`` every entry sums
    the last ``2 d`` sources, so ``log2(len(s))`` vector passes suffice, and
    fewer once ``c**d`` underflows to zero.
    """
    x = np.array(s, dtype=float)
    x[0] += c * x0
    d, p = 1, float(c)
    while p > 0.0 and d < x.size:
        x[d:] += p * x[:-d]
        d *= 2
        p *= p
    return x


CSV_HEADER = "x,value"


def write_csv(f: GridFunction, path: str | Path) -> Path:
    """Write the two-column node table ``x,value``."""
    path = Path(path)
    lines = [CSV_HEADER]
    for x, v in zip(f.grid.nodes, f.values):
        lines.append(f"{float(x)!r},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def read_csv(path: str | Path) -> GridFunction:
    """Load a grid function, validating the uniform-grid contract."""
    path = Path(path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ValueError(f"{path}: expected header {CSV_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed row {ln!r}")
        rows.append((float(parts[0]), float(parts[1])))
    if len(rows) < MIN_INTERVALS + 1:
        raise ValueError(f"{path}: too few rows for a valid grid")
    x = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
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
