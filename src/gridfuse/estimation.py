"""State extraction: MAP cell followed by a radius-bounded weighted mean."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import LikelihoodField


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
    mass = field.mass[support]  # includes the MAP center, so the total is > 0
    return (mass[:, None] * pos[support]).sum(axis=0) / mass.sum(), support


def weighted_mean(field: LikelihoodField, center: int, radius: float) -> np.ndarray:
    """Mass-weighted centroid of cells within ``radius`` of ``center``, the
    MAP cell (so the neighbourhood holds mass).

    Returns a 3-vector whose z is the grid plane height.
    """
    return _weighted_mean_and_support(field, center, radius)[0]


def estimate(field: LikelihoodField, radius: float,
             timestamp: float = 0.0) -> Estimate:
    """Two-step estimate: MAP, then weighted mean over the MAP neighborhood."""
    map_cell = map_estimate(field)
    pos, support = _weighted_mean_and_support(field, map_cell, radius)
    return Estimate(
        timestamp=timestamp,
        position=tuple(float(v) for v in pos),
        map_cell=map_cell,
        map_mass=float(field.mass[map_cell] / field.mass.sum()),
        wm_radius=radius,
        support_count=int(support.sum()),
    )
