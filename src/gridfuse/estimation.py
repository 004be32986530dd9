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


def check_radius(radius: float, cell_size: float) -> None:
    """A weighted-mean radius is inf or at least one cell (NaN is neither)."""
    if not (radius == math.inf or radius >= cell_size):
        raise ValueError("radius must be >= cell_size (or inf)")


def map_estimate(field: LikelihoodField) -> int:
    """Argmax cell; ties resolved to the lowest linear index."""
    return int(np.argmax(field.mass))


def _weighted_mean_and_support(field: LikelihoodField, center: int,
                               radius: float) -> tuple[np.ndarray, int]:
    """Centroid of the cells within ``radius`` of ``center`` and their count.

    Only the index window of half-width ``radius / cell_size + 1`` cells around
    the center (clipped at the border; the whole grid for an infinite radius)
    is tested, and its cells are taken in C order, as a full-grid mask would.
    """
    spec = field.spec
    check_radius(radius, spec.cell_size)
    half = max(spec.extent) if math.isinf(radius) else int(radius // spec.cell_size) + 1
    ci, cj = spec.index_to_coords(center)
    window = (slice(max(ci - half, 0), ci + half + 1),
              slice(max(cj - half, 0), cj + half + 1))
    x_all, y_all = spec.axes()
    x, y = x_all[window[0]], y_all[window[1]]
    dx, dy = x - x_all[ci], y - y_all[cj]
    support = np.sqrt(np.add.outer(dx * dx, dy * dy)) <= radius
    # includes the MAP center, so the total is > 0
    mass = field.mass.reshape(spec.extent)[window][support]
    xx, yy = np.meshgrid(x, y, indexing="ij")
    pos = np.stack([xx[support], yy[support],
                    np.full(mass.size, spec.plane_height)], axis=-1)
    return (mass[:, None] * pos).sum(axis=0) / mass.sum(), mass.size


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
    pos, support_count = _weighted_mean_and_support(field, map_cell, radius)
    return Estimate(
        timestamp=timestamp,
        position=tuple(float(v) for v in pos),
        map_cell=map_cell,
        map_mass=float(field.mass[map_cell] / field.mass.sum()),
        wm_radius=radius,
        support_count=support_count,
    )
