"""Discrete state space: equidistant position lattice plus per-cell probability mass."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Per-cell floor applied before renormalization so that a handful of extreme
# innovations cannot collapse the whole field to zero mass.
MASS_FLOOR = 1e-300

NORMALIZATION_TOL = 1e-9


class DegenerateFieldError(ValueError):
    """Raised when a likelihood field carries no usable mass (all zero / non-finite)."""


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned, equidistant lattice of position hypotheses.

    ``origin`` is the metric position of cell (0, ..., 0); ``extent`` the cell
    count per axis. 2D grids live in the x-y plane at ``plane_height``.
    """

    origin: tuple[float, ...]
    cell_size: float
    extent: tuple[int, ...]
    plane_height: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "extent", tuple(int(v) for v in self.extent))
        if self.cell_size <= 0:
            raise ValueError(f"cell_size must be > 0, got {self.cell_size}")
        if len(self.extent) not in (2, 3):
            raise ValueError("grid must be 2D or 3D")
        if len(self.origin) != len(self.extent):
            raise ValueError("origin and extent dimensionality differ")
        if any(e < 2 for e in self.extent):
            raise ValueError(f"every extent must be >= 2, got {self.extent}")
        if self.num_cells < 4:
            raise ValueError("grid must contain at least 4 cells")
        if not all(np.isfinite(self.origin)):
            raise ValueError("origin must be finite")

    @property
    def ndim(self) -> int:
        return len(self.extent)

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.extent))

    def index_to_coords(self, index):
        """Linear index -> per-axis integer coordinates (C order)."""
        return np.unravel_index(index, self.extent)

    def coords_to_index(self, coords):
        return np.ravel_multi_index(coords, self.extent)

    def index_to_position(self, index) -> np.ndarray:
        coords = np.stack(self.index_to_coords(index), axis=-1)
        return np.asarray(self.origin) + coords * self.cell_size

    def positions(self) -> np.ndarray:
        """(I, ndim) metric positions of all cells, C-order (read-only view)."""
        return _cached_positions(self)[:, :self.ndim]

    def positions_3d(self) -> np.ndarray:
        """(I, 3) positions; 2D grids are padded with the plane height."""
        return _cached_positions(self)


@lru_cache(maxsize=4)
def _cached_positions(spec: GridSpec) -> np.ndarray:
    axes = [spec.origin[d] + spec.cell_size * np.arange(spec.extent[d])
            for d in range(spec.ndim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    columns = [m.ravel() for m in mesh]
    if spec.ndim == 2:
        columns.append(np.full(spec.num_cells, spec.plane_height))
    pos = np.stack(columns, axis=-1)
    pos.setflags(write=False)
    return pos


@dataclass(frozen=True)
class LikelihoodField:
    """Non-negative mass per grid cell; normalized fields sum to 1."""

    spec: GridSpec
    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape != (self.spec.num_cells,):
            raise ValueError(
                f"mass length {mass.shape} does not match grid size {self.spec.num_cells}")
        if np.any(mass < 0):
            raise ValueError("mass entries must be non-negative")
        mass = mass.copy()
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @property
    def total(self) -> float:
        return float(self.mass.sum())


def init_uniform(spec: GridSpec) -> LikelihoodField:
    """Uniform field: every cell carries 1/I."""
    n = spec.num_cells
    return LikelihoodField(spec, np.full(n, 1.0 / n))


def normalize(field: LikelihoodField) -> LikelihoodField:
    total = field.mass.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateFieldError("field has no usable mass to normalize")
    return LikelihoodField(field.spec, field.mass / total)


def recenter(field: LikelihoodField, new_origin, floor: float = MASS_FLOOR) -> LikelihoodField:
    """Translate the field to a new lattice-aligned origin.

    Cells shifted in from outside the old grid receive ``floor`` mass; the
    result is renormalized.
    """
    spec = field.spec
    new_origin = tuple(float(v) for v in new_origin)
    if len(new_origin) != spec.ndim:
        raise ValueError("new_origin dimensionality mismatch")
    offset_f = (np.asarray(new_origin) - np.asarray(spec.origin)) / spec.cell_size
    offset = np.rint(offset_f).astype(int)
    if np.max(np.abs(offset_f - offset)) > 1e-6:
        raise ValueError(f"origin shift {new_origin} is not a whole-cell multiple")

    grid = field.mass.reshape(spec.extent)
    shifted = np.full_like(grid, floor)
    src = []
    dst = []
    for d in range(spec.ndim):
        o = offset[d]
        n = spec.extent[d]
        src.append(slice(max(o, 0), min(n, n + o)))
        dst.append(slice(max(-o, 0), min(n, n - o)))
    if all(s.start < s.stop for s in src):
        shifted[tuple(dst)] = grid[tuple(src)]
    new_spec = GridSpec(new_origin, spec.cell_size, spec.extent, spec.plane_height)
    return normalize(LikelihoodField(new_spec, shifted.ravel()))
