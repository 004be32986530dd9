"""Geometric relations between reference points and grid cells."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec


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
    """Wrap angles to (-pi, pi], in one copy of the input (a 0-d array for a
    scalar)."""
    out = np.array(angle, dtype=float)
    out += np.pi
    np.remainder(out, 2.0 * np.pi, out=out)
    out -= np.pi
    np.add(out, 2.0 * np.pi, out=out, where=out <= -np.pi)
    return out


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
    """True when two references sit at one position, where the range
    difference is undefined (no TDoA relation). Positions compare exactly, so
    the test does not depend on the coordinates' scale."""
    return ref_a.position == ref_b.position


def gamma_hyperbolic(ref_a: ReferencePoint, ref_b: ReferencePoint,
                     grid: GridSpec) -> np.ndarray:
    """Range difference |x_a - x_i| - |x_b - x_i| (TDoA relation)."""
    if coincident(ref_a, ref_b):
        raise ValueError(f"coincident references {ref_a.id}, {ref_b.id}")
    d = gamma_distance(ref_a, grid)
    d -= gamma_distance(ref_b, grid)
    return d
