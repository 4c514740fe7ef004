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


def perturbed(f: GridFunction, level: float, noise: UnitNoise) -> GridFunction:
    """Return ``f`` plus the ``noise`` draw scaled to exact L2 distance ``level``."""
    if not 0.0 <= level < np.inf:
        raise ValueError("noise level must be nonnegative and finite")
    if level == 0.0:
        return f
    return f.with_values(f.values + (level / noise.z_norm) * noise.z)
