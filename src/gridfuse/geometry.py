"""Geometric relations between reference points and grid cells, and innovations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec

SPEED_OF_LIGHT = 299792458.0  # m/s

# Marks cells where an angle relation is undefined (cell coincides with the
# reference point); likelihood sampling treats these cells as uninformative.
ANGLE_UNDEFINED = np.nan


@dataclass(frozen=True)
class ReferencePoint:
    """Satellite or terrestrial anchor with a known position in the local frame."""

    id: str
    position: tuple[float, float, float]

    def __post_init__(self):
        pos = tuple(float(v) for v in self.position)
        if len(pos) == 2:
            pos = (pos[0], pos[1], 0.0)
        if len(pos) != 3:
            raise ValueError("reference position must be 2D or 3D")
        if not all(np.isfinite(pos)):
            raise ValueError(f"reference {self.id} has non-finite coordinates")
        object.__setattr__(self, "position", pos)

    @property
    def xyz(self) -> np.ndarray:
        return np.asarray(self.position)


def wrap_angle(angle):
    """Wrap angles to (-pi, pi]."""
    wrapped = np.remainder(np.asarray(angle, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped <= -np.pi, wrapped + 2.0 * np.pi, wrapped)


def gamma_distance(ref: ReferencePoint, grid: GridSpec) -> np.ndarray:
    """Euclidean range from the reference to every cell (ToA / RTT relation).

    On 2D grids the out-of-plane difference ref_z - plane_height is kept, so
    satellite elevation enters even when the state is planar. The squared
    differences are taken per axis and broadcast over the lattice, which is
    the arithmetic of ``norm(positions - ref, axis=1)`` in the same order.
    """
    x, y = grid.axes()
    dx = x - ref.position[0]
    dy = y - ref.position[1]
    dz = grid.plane_height - ref.position[2]
    d2 = np.add.outer(dx * dx, dy * dy)
    d2 += dz * dz
    return np.sqrt(d2, out=d2).ravel()


def coincident(ref_a: ReferencePoint, ref_b: ReferencePoint) -> bool:
    """True when two references sit at one position (no TDoA relation)."""
    return bool(np.allclose(ref_a.xyz, ref_b.xyz))


def gamma_hyperbolic(ref_a: ReferencePoint, ref_b: ReferencePoint,
                     grid: GridSpec) -> np.ndarray:
    """Range difference |x_a - x_i| - |x_b - x_i| (TDoA relation)."""
    if coincident(ref_a, ref_b):
        raise ValueError(f"coincident references {ref_a.id}, {ref_b.id}")
    return gamma_distance(ref_a, grid) - gamma_distance(ref_b, grid)


def gamma_angle(ref: ReferencePoint, grid: GridSpec) -> np.ndarray:
    """Four-quadrant bearing from each cell to the reference, in [-pi, pi]
    as ``arctan2`` gives it (-pi where dy is -0.0, e.g. a reference at y = -0.0
    seen from cells at y = 0); ``innovations(..., wrap=True)`` wraps after
    differencing.

    Cells coinciding with the reference in the x-y plane get ANGLE_UNDEFINED.
    """
    x, y = grid.axes()
    dx = ref.position[0] - x
    dy = ref.position[1] - y
    gamma = np.arctan2(dy[None, :], dx[:, None]).ravel()
    undefined = np.logical_and.outer(dx == 0.0, dy == 0.0).ravel()
    if np.any(undefined):
        gamma = np.where(undefined, ANGLE_UNDEFINED, gamma)
    return gamma


def innovations(observation_value: float, gamma: np.ndarray,
                wrap: bool = False) -> np.ndarray:
    """Per-cell innovation y = Z - Gamma, optionally wrapped to (-pi, pi]
    (an undefined, NaN Gamma stays NaN)."""
    y = observation_value - np.asarray(gamma, dtype=float)
    return wrap_angle(y) if wrap else y
