"""Calibrated additive noise for grid functions.

Noise is white across nodes and rescaled so the L2 distance between the
clean and perturbed functions equals the requested level exactly. That
makes noise-level sweeps sharp: the injected level is the achieved level,
not an upper bound.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction, trapezoid


def perturbed(f: GridFunction, level: float, seed: int) -> GridFunction:
    """Return ``f`` plus white noise scaled to exact L2 distance ``level``."""
    if level < 0:
        raise ValueError("noise level must be nonnegative")
    if level == 0.0:
        return f
    z = np.random.default_rng(seed).standard_normal(f.grid.intervals + 1)  # unit-variance nodes
    z_norm = np.sqrt(max(trapezoid(z * z, f.grid), 0.0))
    if z_norm == 0.0:
        raise RuntimeError("degenerate noise draw")
    return f.with_values(f.values + (level / z_norm) * z)
