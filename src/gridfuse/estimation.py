"""State extraction: MAP cell followed by a radius-bounded weighted mean."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import DegenerateFieldError, LikelihoodField


@dataclass(frozen=True)
class Estimate:
    timestamp: float
    position: tuple[float, float, float]
    map_cell: int
    map_mass: float
    wm_radius: float
    support_count: int


def map_estimate(field: LikelihoodField) -> int:
    """Argmax cell; ties resolved to the lowest linear index."""
    total = field.mass.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateFieldError("cannot take MAP of a massless field")
    return int(np.argmax(field.mass))


def _weighted_mean_and_support(field: LikelihoodField, center: int,
                               radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Centroid of the cells within ``radius`` of ``center`` and their mask."""
    spec = field.spec
    if not math.isinf(radius) and radius < spec.cell_size:
        raise ValueError("radius must be >= cell_size (or inf)")
    pos = spec.positions_3d()
    center_pos = pos[center]
    if math.isinf(radius):
        support = np.ones(spec.num_cells, dtype=bool)
    else:
        support = np.linalg.norm(pos - center_pos, axis=1) <= radius
    mass = field.mass[support]
    total = mass.sum()
    if total <= 0.0:
        return center_pos.copy(), support
    return (mass[:, None] * pos[support]).sum(axis=0) / total, support


def weighted_mean(field: LikelihoodField, center: int, radius: float) -> np.ndarray:
    """Mass-weighted centroid of cells within ``radius`` of the MAP position.

    Returns a 3-vector; 2D grids report the grid plane height as z.
    """
    return _weighted_mean_and_support(field, center, radius)[0]


def estimate(field: LikelihoodField, radius: float,
             timestamp: float = 0.0) -> Estimate:
    """Two-step estimate: MAP, then weighted mean over the MAP neighborhood."""
    map_cell = map_estimate(field)
    pos, support = _weighted_mean_and_support(field, map_cell, radius)
    total = field.mass.sum()
    return Estimate(
        timestamp=timestamp,
        position=tuple(float(v) for v in pos),
        map_cell=map_cell,
        map_mass=float(field.mass[map_cell] / total),
        wm_radius=radius,
        support_count=int(support.sum()),
    )
