"""Grid-based motion prediction with a Gaussian displacement model.

A prediction step displaces the position by a Cartesian Gaussian. Such steps
compose in closed form, their means and their covariances add (Bergman 1999;
Thrun, Burgard & Fox 2005, ch. 5), so a ``Transition`` is just these moments.
The transition likelihood between two cells depends only on their metric
displacement, so on an equidistant lattice applying a transition is one 2D
convolution of the posterior with a kernel over a truncated displacement
window. The kernel stands for the Gaussian averaged over a cell: it samples the
Gaussian at the cell centres with (h/2)^2 added to its covariance, a cell's own
variance h^2/12 plus a floor of h^2/6 that keeps a step shorter than a cell
from snapping to zero or one cell. Tails beyond 6 sigma are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, LikelihoodField

# Variance added to the kernel per axis, in cells^2 (1/12 + 1/6). With a floor
# of (0.3 cell)^2 instead of 1/6, a 0.19-cell step's kernel mean was 0.06 cell
# off; with 1/6 no tested step's is more than 0.02 cell off.
_KERNEL_VARIANCE = 0.25
_TRUNCATION = 6.0  # sigma, Mahalanobis
# Predict convolves only the box of the cells of at least this share of the
# peak cell. Smaller cells lie below the rounding of a full-grid FFT (about
# 1e-15 of the peak), so convolving them would add only noise.
_SUPPORT = 1e-16


def _check_dt_and_sigmas(dt: float, *sigmas: float) -> None:
    """Reject a step that is not finite and > 0 or an uncertainty that is not.
    Here and in ``Transition.odometry`` the range tests are negated, so that
    NaN (which fails every comparison) is rejected too."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not all(0 < s < math.inf for s in sigmas):
        raise ValueError(f"motion uncertainties must be finite and > 0, got {sigmas}")


@dataclass(frozen=True, eq=False)
class Transition:
    """A Gaussian displacement: its mean (2,) and covariance (2, 2), in metres.
    Moments that overflowed (inf or NaN) leave a zero kernel."""

    mean: np.ndarray
    cov: np.ndarray

    @classmethod
    def odometry(cls, speed: float, heading: float, dt: float,
                 sigma_speed: float, sigma_heading: float) -> Transition:
        """One odometry step: speed*dt along the heading with variance
        (sigma_speed*dt)^2 along it and (speed*dt*sigma_heading)^2 across it.
        Python floats overflow silently."""
        _check_dt_and_sigmas(dt, sigma_speed, sigma_heading)
        if not 0 <= speed < math.inf:
            raise ValueError(f"speed must be finite and >= 0, got {speed}")
        if not math.isfinite(heading):
            raise ValueError(f"heading must be finite, got {heading}")
        d = speed * dt
        c, s = math.cos(heading), math.sin(heading)
        along = sigma_speed * dt
        along *= along
        across = d * sigma_heading
        across *= across
        xy = c * s * (along - across)
        return cls(np.array([d * c, d * s]),
                   np.array([[c * c * along + s * s * across, xy],
                             [xy, s * s * along + c * c * across]]))

    @classmethod
    def random_walk(cls, dt: float, sigma_rw: float) -> Transition:
        """A zero-mean step of variance (sigma_rw*dt)^2 per axis."""
        _check_dt_and_sigmas(dt, sigma_rw)
        s = sigma_rw * dt
        return cls(np.zeros(2), np.diag([s * s, s * s]))

    def then(self, other: Transition) -> Transition:
        """This displacement followed by ``other``: the moments add."""
        with np.errstate(over="ignore", invalid="ignore"):
            return Transition(self.mean + other.mean, self.cov + other.cov)


class TransitionWorkspace:
    """Kernels over the displacement windows of one grid."""

    def __init__(self, spec: GridSpec):
        self.spec = spec

    def _offsets(self, reach: float) -> np.ndarray:
        """Metric offsets -r*h .. r*h of the window covering ``reach`` metres,
        with r at most the grid extent less one."""
        h = self.spec.cell_size
        r = math.ceil(min(reach / h, max(self.spec.extent) - 1))
        return h * np.arange(-r, r + 1)

    def transition_kernel(self, transition: Transition) -> np.ndarray:
        """exp(-q/2) over the window of radius |mean|_inf + 6 sigma_max, with q
        the Mahalanobis square under the covariance plus (h/2)^2 per axis, cut
        to 0 beyond 6 sigma. q = y^2/syy + (x - rho*y)^2/vx (vx: the variance
        of x given y, at least ``added``) is a sum of squares, so an overflow
        only makes it inf, weight 0."""
        added = _KERNEL_VARIANCE * self.spec.cell_size ** 2
        mx, my = transition.mean.tolist()
        (sxx, sxy), (_, syy) = transition.cov.tolist()
        sxx, syy = sxx + added, syy + added
        if not all(map(math.isfinite, (mx, my, sxx, sxy, syy))):
            return np.zeros((1, 1))
        rho = sxy / syy
        vx = max(sxx - rho * sxy, added)
        sigma_max = math.sqrt(0.5 * (sxx + syy) + math.hypot(0.5 * (sxx - syy), sxy))
        d = self._offsets(max(abs(mx), abs(my)) + _TRUNCATION * sigma_max)
        dx, dy = d[:, None] - mx, d - my
        with np.errstate(over="ignore"):
            q = dy * dy / syy + (dx - rho * dy) ** 2 / vx
        return np.where(q <= _TRUNCATION ** 2, np.exp(-0.5 * q), 0.0)


def _next_fast_len(n: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= n, for n >= 1: a length that numpy's
    real FFT splits into small radices. For each 3^b * 5^c below the best so
    far, the least power-of-2 multiple of it at or above n is a candidate."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve_full(grid: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The linear convolution of ``grid`` with ``kernel`` over its full extent
    n + k - 1 per axis, padded at the end to the FFT length: ``numpy.fft``
    real FFTs at the next 5-smooth length of the full extent, their product
    and the inverse FFT."""
    shape = [n + k - 1 for n, k in zip(grid.shape, kernel.shape)]
    fshape = [_next_fast_len(n) for n in shape]
    return np.fft.irfft2(np.fft.rfft2(grid, fshape) * np.fft.rfft2(kernel, fshape), fshape)


def _support_box(grid: np.ndarray) -> tuple[slice, slice]:
    """The smallest box that holds every cell of at least ``_SUPPORT`` times
    the peak cell."""
    above = grid >= _SUPPORT * grid.max()
    return tuple(slice(int(i[0]), int(i[-1]) + 1)
                 for i in (np.flatnonzero(above.any(axis=1)),
                           np.flatnonzero(above.any(axis=0))))


def predict(posterior: LikelihoodField, transition: Transition,
            ws: TransitionWorkspace) -> LikelihoodField:
    """Propagate the posterior through a transition and normalize.

    Every source-to-target transition likelihood is weighted by the source
    cell's mass (a Chapman-Kolmogorov step), as one FFT convolution of the
    field's support box with the kernel, added into the box grown by the
    kernel radius and clipped to the grid. A cell outside the box keeps its
    mass times the kernel's total, the total the convolution would give it.
    When the box is the whole grid, this is the window of ``_convolve_full``
    from the kernel radius that covers the grid, bit for bit. FFT rounding
    leaves tiny negative values, which are clipped to 0. A zero kernel
    collapses the field (``DegenerateFieldError``).
    """
    kernel = ws.transition_kernel(transition)
    grid = posterior.mass.reshape(posterior.spec.extent)
    box = _support_box(grid)
    r = (kernel.shape[0] - 1) // 2
    grown = tuple(slice(max(b.start - r, 0), min(b.stop + r, n))
                  for b, n in zip(box, grid.shape))
    full = _convolve_full(grid[box], kernel)
    pred = grid * kernel.sum()
    pred[box] = 0.0
    pred[grown] += full[tuple(slice(g.start - b.start + r, g.stop - b.start + r)
                              for g, b in zip(grown, box))]
    return LikelihoodField(posterior.spec, np.maximum(pred, 0.0, out=pred).ravel())
