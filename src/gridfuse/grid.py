"""Discrete state space: equidistant position lattice plus per-cell probability mass."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Per-cell floor applied before renormalization so that a handful of extreme
# innovations cannot collapse the whole field to zero mass.
MASS_FLOOR = 1e-300


class DegenerateFieldError(ValueError):
    """Raised when a likelihood field carries no usable mass (all zero / non-finite)."""


def check_cell_size(cell_size: float) -> None:
    """A lattice spacing is finite and > 0 (NaN is neither)."""
    if not (np.isfinite(cell_size) and cell_size > 0):
        raise ValueError(f"cell_size must be finite and > 0, got {cell_size}")


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned, equidistant 2D lattice of position hypotheses.

    ``origin`` is the metric (x, y) position of cell (0, 0); ``extent`` the
    cell count per axis. The lattice lies in the x-y plane at ``plane_height``.
    """

    origin: tuple[float, float]
    cell_size: float
    extent: tuple[int, int]
    plane_height: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        if not all(isinstance(v, (int, np.integer))
                   or (isinstance(v, (float, np.floating)) and float(v).is_integer())
                   for v in self.extent):
            raise ValueError(f"extent entries must be integers, got {self.extent}")
        object.__setattr__(self, "extent", tuple(int(v) for v in self.extent))
        check_cell_size(self.cell_size)
        if len(self.origin) != 2 or len(self.extent) != 2:
            raise ValueError("grid must be 2D: origin and extent take two entries")
        if any(e < 2 for e in self.extent):
            raise ValueError(f"every extent must be >= 2, got {self.extent}")
        if not all(np.isfinite(self.origin)):
            raise ValueError("origin must be finite")
        if not np.isfinite(self.plane_height):
            raise ValueError(f"plane_height must be finite, got {self.plane_height}")

    @property
    def num_cells(self) -> int:
        return self.extent[0] * self.extent[1]

    def index_to_coords(self, index):
        """Linear index -> per-axis integer coordinates (C order)."""
        return np.unravel_index(index, self.extent)

    def coords_to_index(self, coords):
        return np.ravel_multi_index(coords, self.extent)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis coordinate vectors (x of each row, y of each column). The
        lattice is separable: cell (i, j) sits at (x[i], y[j])."""
        return tuple(self.origin[d] + self.cell_size * np.arange(self.extent[d])
                     for d in range(2))

    def positions(self) -> np.ndarray:
        """(I, 2) metric positions of all cells, C order."""
        xx, yy = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([xx.ravel(), yy.ravel()], axis=-1)


@dataclass(frozen=True)
class LikelihoodField:
    """Posterior mass per grid cell, normalized to sum 1 on construction: the
    one check that the mass matches the grid, is non-negative and has a
    finite, positive total (else ``DegenerateFieldError``)."""

    spec: GridSpec
    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape != (self.spec.num_cells,):
            raise ValueError(
                f"mass length {mass.shape} does not match grid size {self.spec.num_cells}")
        if np.any(mass < 0):
            raise ValueError("mass entries must be non-negative")
        mass = normalize(mass)
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)


def init_uniform(spec: GridSpec) -> LikelihoodField:
    """Uniform field: every cell carries 1/I."""
    return LikelihoodField(spec, np.ones(spec.num_cells))


def usable_total(mass: np.ndarray, what: str) -> float:
    """``mass.sum()`` when it is finite and > 0; any other total is
    degenerate, and ``DegenerateFieldError`` says ``what``."""
    total = mass.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise DegenerateFieldError(what)
    return total


def normalize(mass: np.ndarray) -> np.ndarray:
    """``mass / mass.sum()``; a zero or non-finite total is degenerate."""
    return mass / usable_total(mass, "field has no usable mass to normalize")


def recenter(field: LikelihoodField, shift) -> LikelihoodField:
    """Move the lattice by ``shift`` whole cells per axis, to the origin
    ``origin + shift * cell_size``. Cells shifted in from outside the old grid
    receive ``MASS_FLOOR`` mass; the result is renormalized.
    """
    spec = field.spec
    if not (np.shape(shift) == (2,)
            and all(isinstance(s, (int, np.integer)) for s in shift)):
        raise ValueError(f"shift must be two whole-cell counts, got {shift!r}")
    grid = field.mass.reshape(spec.extent)
    shifted = np.full_like(grid, MASS_FLOOR)
    src = [slice(max(s, 0), min(n, n + s)) for s, n in zip(shift, spec.extent)]
    dst = [slice(max(-s, 0), min(n, n - s)) for s, n in zip(shift, spec.extent)]
    if all(s.start < s.stop for s in src):
        shifted[tuple(dst)] = grid[tuple(src)]
    origin = tuple(o + s * spec.cell_size for o, s in zip(spec.origin, shift))
    new_spec = GridSpec(origin, spec.cell_size, spec.extent, spec.plane_height)
    return LikelihoodField(new_spec, shifted.ravel())
