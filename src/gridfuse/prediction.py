"""Grid-based motion prediction via cell-to-cell transition likelihoods.

The transition likelihood between two cells depends only on their metric
displacement, so on an equidistant lattice the full source-to-target sum is a
2D convolution of the posterior with a truncated transition kernel. Gaussian
tails beyond 6 sigma are dropped from the kernel support.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.signal import oaconvolve

from .geometry import wrap_angle
from .grid import GridSpec, LikelihoodField, normalize

_TWO_PI = 2.0 * np.pi
_SQRT_2PI = np.sqrt(_TWO_PI)


@dataclass(frozen=True)
class MotionInput:
    """Odometry information for one prediction horizon.

    speed/heading may be None when that channel is unavailable: without
    heading the motion is isotropic at the given speed, without both the
    prediction falls back to a random walk of scale sigma_rw * dt.
    """

    speed: float | None
    heading: float | None
    sigma_speed: float = 0.5
    sigma_heading: float = 0.2
    dt: float = 1.0
    sigma_rw: float = 1.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.sigma_speed <= 0 or self.sigma_heading <= 0 or self.sigma_rw <= 0:
            raise ValueError("motion uncertainties must be > 0")
        if self.speed is not None and self.speed < 0:
            raise ValueError("speed must be >= 0")

    def with_dt(self, dt: float) -> "MotionInput":
        return replace(self, dt=dt)


class TransitionWorkspace:
    """Caches displacement geometry (distances and bearings) for one grid."""

    def __init__(self, spec: GridSpec):
        if spec.ndim != 2:
            raise ValueError("motion prediction operates on 2D grids")
        self.spec = spec

    @lru_cache(maxsize=64)
    def _offsets(self, radius_cells: int):
        r = radius_cells
        di, dj = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1),
                             indexing="ij")
        dx = di * self.spec.cell_size
        dy = dj * self.spec.cell_size
        dist = np.hypot(dx, dy)
        bearing = np.arctan2(dy, dx)
        return dist, bearing

    def radius_cells(self, motion: MotionInput) -> int:
        h = self.spec.cell_size
        if motion.speed is None:
            reach = 6.0 * motion.sigma_rw * motion.dt + 6.0 * h
        else:
            reach = (motion.speed * motion.dt
                     + 6.0 * motion.sigma_speed * motion.dt + 6.0 * h)
        max_r = max(self.spec.extent) - 1
        return int(min(np.ceil(reach / h), max_r))

    def velocity_kernel(self, motion: MotionInput) -> np.ndarray:
        """N(v*dt - d; 0, (sigma_v*dt)^2) over the truncated displacement window."""
        dist, _ = self._offsets(self.radius_cells(motion))
        sigma = motion.sigma_speed * motion.dt
        resid = motion.speed * motion.dt - dist
        return np.exp(-0.5 * (resid / sigma) ** 2) / (_SQRT_2PI * sigma)

    def heading_kernel(self, motion: MotionInput) -> np.ndarray:
        """Directional cone along the heading; the zero displacement gets the
        isotropic limit weight 1/(2 pi)."""
        r = self.radius_cells(motion)
        dist, bearing = self._offsets(r)
        sigma = motion.sigma_heading
        resid = wrap_angle(motion.heading - bearing)
        kern = np.exp(-0.5 * (resid / sigma) ** 2) / (_SQRT_2PI * sigma)
        kern[r, r] = 1.0 / _TWO_PI
        return kern

    def random_walk_kernel(self, motion: MotionInput) -> np.ndarray:
        dist, _ = self._offsets(self.radius_cells(motion))
        sigma = motion.sigma_rw * motion.dt
        return np.exp(-0.5 * (dist / sigma) ** 2) / (_TWO_PI * sigma ** 2)

    def transition_kernel(self, motion: MotionInput) -> np.ndarray:
        if motion.speed is None:
            return self.random_walk_kernel(motion)
        kern = self.velocity_kernel(motion)
        if motion.heading is not None:
            kern = kern * self.heading_kernel(motion)
        return kern


def _convolve_field(field: LikelihoodField, kernel: np.ndarray) -> np.ndarray:
    grid = field.mass.reshape(field.spec.extent)
    out = oaconvolve(grid, kernel, mode="same")
    return np.maximum(out, 0.0).ravel()


def predict(posterior: LikelihoodField, motion: MotionInput,
            ws: TransitionWorkspace) -> LikelihoodField:
    """Propagate the posterior through the motion model and normalize.

    Every source-to-target transition likelihood is weighted by the source
    cell's mass (a Chapman-Kolmogorov step).
    """
    pred = _convolve_field(posterior, ws.transition_kernel(motion))
    return normalize(LikelihoodField(posterior.spec, pred))
