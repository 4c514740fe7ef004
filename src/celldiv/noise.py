"""Calibrated additive noise for grid functions.

Noise is white across nodes and rescaled so the L2 distance between the
clean and perturbed functions equals the requested level exactly. That
makes noise-level sweeps sharp: the injected level is the achieved level,
not an upper bound. A seed fixes the noise direction, so a study draws
each seed once with :func:`unit_noise` and scales that draw to every
level.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grid import Grid, GridFunction, norm


class UnitNoise(NamedTuple):
    """One seed's white node noise ``z`` and its L2 norm on the grid."""

    z: np.ndarray
    z_norm: float


def unit_noise(grid: Grid, seed: int) -> UnitNoise:
    """Draw the unit-variance node noise of ``seed`` on ``grid``."""
    z = np.random.default_rng(seed).standard_normal(grid.intervals + 1)
    z_norm = norm(z, grid)
    if z_norm == 0.0:
        raise RuntimeError("degenerate noise draw")
    return UnitNoise(z, z_norm)


def perturbed(f: GridFunction, level: float, seed: int | UnitNoise) -> GridFunction:
    """Return ``f`` plus white noise scaled to exact L2 distance ``level``.

    ``seed`` is a seed or the :class:`UnitNoise` already drawn from one.
    """
    if level < 0:
        raise ValueError("noise level must be nonnegative")
    if level == 0.0:
        return f
    z, z_norm = seed if isinstance(seed, UnitNoise) else unit_noise(f.grid, seed)
    return f.with_values(f.values + (level / z_norm) * z)
