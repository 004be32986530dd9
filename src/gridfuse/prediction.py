"""Grid-based motion prediction via cell-to-cell transition likelihoods.

The transition likelihood between two cells depends only on their metric
displacement, so on an equidistant lattice the full source-to-target sum is a
2D convolution of the posterior with a truncated transition kernel. Gaussian
tails beyond 6 sigma are dropped from the kernel support.

Convolution is associative, so several prediction steps in a row are one
convolution with the composition of their kernels. A ``Transition`` carries
such a composed kernel together with the summed metric reach of its steps,
which bounds its support.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import fftconvolve

from .geometry import wrap_angle
from .grid import GridSpec, LikelihoodField

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


@lru_cache(maxsize=64)
def _offsets(cell_size: float, radius_cells: int):
    """Read-only distances and bearings over the (2r+1)^2 displacement window.

    Cached by (cell size, radius) rather than per workspace, so the cache
    holds no workspace (and no grid) alive.
    """
    r = radius_cells
    di, dj = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1),
                         indexing="ij")
    dx = di * cell_size
    dy = dj * cell_size
    dist = np.hypot(dx, dy)
    bearing = np.arctan2(dy, dx)
    dist.setflags(write=False)
    bearing.setflags(write=False)
    return dist, bearing


@dataclass(frozen=True)
class Transition:
    """A transition kernel over the (2r+1)^2 displacement window around its
    centre, and the metric reach (summed over its steps) that sets r."""

    kernel: np.ndarray
    reach: float


class TransitionWorkspace:
    """Displacement geometry (distances and bearings) for one grid."""

    def __init__(self, spec: GridSpec):
        self.spec = spec

    @staticmethod
    def reach(motion: MotionInput) -> float:
        """Metric displacement beyond which the kernel is dropped: the mean
        travel plus 6 sigma, or 6 sigma of the random walk."""
        if motion.speed is None:
            return 6.0 * motion.sigma_rw * motion.dt
        return motion.speed * motion.dt + 6.0 * motion.sigma_speed * motion.dt

    def radius_cells(self, reach: float) -> int:
        """Kernel radius in cells for a reach in metres, with six cells of
        slack and at most the grid extent."""
        h = self.spec.cell_size
        max_r = max(self.spec.extent) - 1
        return int(min(np.ceil((reach + 6.0 * h) / h), max_r))

    def transition_kernel(self, motion: MotionInput) -> np.ndarray:
        """Transition likelihood over the truncated displacement window.

        Without speed, an isotropic 2D random walk N(d; 0, (sigma_rw*dt)^2).
        With speed, N(v*dt - d; 0, (sigma_v*dt)^2); with a heading as well,
        that times a directional cone along the heading whose zero
        displacement gets the isotropic limit weight 1/(2 pi).
        """
        r = self.radius_cells(self.reach(motion))
        dist, bearing = _offsets(self.spec.cell_size, r)
        if motion.speed is None:
            sigma = motion.sigma_rw * motion.dt
            return np.exp(-0.5 * (dist / sigma) ** 2) / (_TWO_PI * sigma ** 2)
        sigma = motion.sigma_speed * motion.dt
        resid = motion.speed * motion.dt - dist
        kern = np.exp(-0.5 * (resid / sigma) ** 2) / (_SQRT_2PI * sigma)
        if motion.heading is not None:
            sigma = motion.sigma_heading
            resid = wrap_angle(motion.heading - bearing)
            cone = np.exp(-0.5 * (resid / sigma) ** 2) / (_SQRT_2PI * sigma)
            cone[r, r] = 1.0 / _TWO_PI
            kern = kern * cone
        return kern

    def compose(self, first: Transition | None, motion: MotionInput) -> Transition:
        """``first`` followed by one step of ``motion`` (just that step when
        ``first`` is None).

        The kernels are convolved in full and the result is cropped to the
        radius of the summed reach, which counts the six cells of slack once
        instead of once per step. It is scaled to sum 1, since a prediction
        normalises anyway and a long chain of unscaled kernels would overflow
        or underflow; a kernel that underflowed to zero stays zero, so the
        prediction it reaches collapses.
        """
        kernel = self.transition_kernel(motion)
        reach = self.reach(motion)
        if first is not None:
            reach += first.reach
            kernel = fftconvolve(first.kernel, kernel, mode="full")
            c = (kernel.shape[0] - 1) // 2
            r = min(self.radius_cells(reach), c)
            kernel = np.maximum(kernel[c - r:c + r + 1, c - r:c + r + 1], 0.0)
        total = kernel.sum()
        return Transition(kernel / total if total > 0.0 else kernel, reach)


def predict(posterior: LikelihoodField, transition: Transition | MotionInput,
            ws: TransitionWorkspace) -> LikelihoodField:
    """Propagate the posterior through a transition (or one motion step) and
    normalize.

    Every source-to-target transition likelihood is weighted by the source
    cell's mass (a Chapman-Kolmogorov step), as one FFT convolution of the
    field with the kernel. FFT rounding leaves tiny negative values, which are
    clipped to 0.
    """
    if isinstance(transition, MotionInput):
        transition = ws.compose(None, transition)
    grid = posterior.mass.reshape(posterior.spec.extent)
    pred = fftconvolve(grid, transition.kernel, mode="same")
    return LikelihoodField(posterior.spec, np.maximum(pred, 0.0).ravel())
