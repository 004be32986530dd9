"""Scalar density models for likelihood sampling, plus EM calibration of mixtures.

Every density model is a frozen dataclass with two methods:

- ``pdf(y, out=None)`` evaluates the density at a scalar or array ``y`` and
  returns an array of ``y``'s shape (0-d for a scalar). With ``out`` given,
  the result is written into that float array, which may be ``y`` itself, and
  ``out`` is returned; the values are bit-identical to the allocating call,
  which runs the same operations in the same order on a new array;
- ``sample(rng, size=None)`` draws from it with the given generator and
  returns a float when ``size`` is None, else an array of that shape.

Every Gaussian density, alone or as a mixture component, is one ``exp`` with
its constants folded in: exp((y - mean)**2 * (-0.5 / var) - log(sqrt(2 pi) *
sqrt(var))), so no pass over the input divides. The constructors reject
parameters without a finite density: a non-finite mean or bound, a variance
(or ``std * std``) that is not finite and > 0 or whose -0.5 / var overflows,
and mixture weights that are not finite and >= 0.

A new model also needs one entry in the JSON tag table of ``fileio``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT_2PI = np.sqrt(2.0 * np.pi)

EM_MAX_ITER = 500
EM_TOL = 1e-6
EM_MAX_RESTARTS = 5
EM_VAR_FLOOR = 1e-12


class CalibrationFailureError(RuntimeError):
    """Raised when EM cannot produce a non-degenerate mixture fit."""


def _operands(y, out):
    """``y`` as a float array, and ``out`` or, when None, a new array like it."""
    y = np.asarray(y, dtype=float)
    return y, (np.empty_like(y) if out is None else out)


def _gauss_pdf(y, mean, var, out=None):
    """exp((y - mean)**2 * (-0.5 / var) - log(sqrt(2 pi) * sqrt(var))), one
    operation at a time in ``out``; both constants are Python floats computed
    once. A square that overflows gives -inf, so density 0."""
    y, out = _operands(y, out)
    scale = -0.5 / var
    log_norm = float(np.log(_SQRT_2PI * np.sqrt(var)))
    np.subtract(y, mean, out=out)
    np.square(out, out=out)
    np.multiply(out, scale, out=out)
    np.subtract(out, log_norm, out=out)
    return np.exp(out, out=out)


def _check_gaussian(mean, var) -> None:
    """Raise ValueError unless ``mean`` is finite and ``var`` is finite and
    > 0 with a finite -0.5 / var (a subnormal variance overflows it)."""
    if not math.isfinite(mean):
        raise ValueError(f"mean must be finite, got {mean}")
    if not (0 < var < math.inf and 0.5 / var < math.inf):
        raise ValueError(f"variance must be finite and > 0 with a finite "
                         f"reciprocal, got {var}")


@dataclass(frozen=True)
class GaussianModel:
    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise ValueError(f"std must be > 0, got {self.std}")
        _check_gaussian(self.mean, self.std * self.std)

    def pdf(self, y, out=None):
        return _gauss_pdf(y, self.mean, self.std ** 2, out)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.normal(self.mean, self.std, size=size)


@dataclass(frozen=True)
class UniformModel:
    """Flat density on [low, high]; used as an outlier component."""

    low: float
    high: float

    def __post_init__(self):
        # 1 / (high - low) is 0 for an infinite width, inf for a subnormal one.
        if not (math.isfinite(self.low) and self.high > self.low
                and 0 < 1.0 / (self.high - self.low) < math.inf):
            raise ValueError("require finite low < high with a finite, non-zero "
                             f"density, got [{self.low}, {self.high}]")

    def pdf(self, y, out=None):
        y, out = _operands(y, out)
        inside = (y >= self.low) & (y <= self.high)
        out.fill(0.0)
        np.copyto(out, 1.0 / (self.high - self.low), where=inside)
        return out

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(self.low, self.high, size=size)


@dataclass(frozen=True)
class GmmModel:
    """Gaussian mixture with weights, means and variances per component."""

    weights: tuple[float, ...]
    means: tuple[float, ...]
    variances: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        m = tuple(float(v) for v in self.means)
        s = tuple(float(v) for v in self.variances)
        if not (len(w) == len(m) == len(s)) or len(w) < 1:
            raise ValueError("component lists must be non-empty and equal length")
        if not all(0 <= v < math.inf for v in w):
            raise ValueError(f"weights must be finite and >= 0, got {w}")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(w)}")
        for mean, var in zip(m, s):
            _check_gaussian(mean, var)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", s)

    @classmethod
    def from_unnormalized(cls, weights, means, variances) -> "GmmModel":
        """Build a mixture from weights that do not sum exactly to 1
        (e.g. rounded published tables); weights are rescaled."""
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must have positive sum")
        return cls(tuple(w / total for w in weights), tuple(means),
                   tuple(variances))

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def component(self, c: int) -> GaussianModel:
        return GaussianModel(self.means[c], float(np.sqrt(self.variances[c])))

    def pdf(self, y, out=None):
        y, out = _operands(y, out)
        if np.may_share_memory(y, out):
            y = y.copy()
        term = np.empty_like(y)
        out.fill(0.0)
        for w, m, v in zip(self.weights, self.means, self.variances):
            _gauss_pdf(y, m, v, term)
            out += np.multiply(w, term, out=term)
        return out

    def sample(self, rng: np.random.Generator, size=None):
        n = 1 if size is None else int(np.prod(size))
        comp = rng.choice(self.n_components, size=n, p=self.weights)
        draws = rng.normal(np.asarray(self.means)[comp],
                           np.sqrt(np.asarray(self.variances)[comp]))
        if size is None:
            return float(draws[0])
        return draws.reshape(size)


@dataclass(frozen=True)
class MixtureLikelihoodModel:
    """Convex combination ratio*primary + (1-ratio)*secondary."""

    ratio: float
    primary: object
    secondary: object

    def __post_init__(self):
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError(f"mixture ratio must be in [0, 1], got {self.ratio}")
        for part in (self.primary, self.secondary):
            if not (hasattr(part, "pdf") and hasattr(part, "sample")):
                raise TypeError(f"mixture parts must be density models, got {part!r}")

    def pdf(self, y, out=None):
        phi = self.ratio
        first = self.primary.pdf(y)
        np.multiply(phi, first, out=first)
        # ``y`` is read for the last time here, so ``out`` may alias it.
        second = self.secondary.pdf(y, out)
        np.multiply(1.0 - phi, second, out=second)
        return np.add(first, second, out=second)

    def sample(self, rng: np.random.Generator, size=None):
        n = 1 if size is None else int(np.prod(size))
        take_primary = rng.random(n) < self.ratio
        out = np.empty(n)
        n_p = int(take_primary.sum())
        if n_p:
            out[take_primary] = np.asarray(self.primary.sample(rng, size=n_p)).ravel()
        if n - n_p:
            out[~take_primary] = np.asarray(self.secondary.sample(rng, size=n - n_p)).ravel()
        if size is None:
            return float(out[0])
        return out.reshape(size)


def density(model, y, out=None):
    """Evaluate the pdf of ``model`` at ``y`` (scalar or array), into ``out``
    when given (``out`` may be ``y``)."""
    return model.pdf(y, out)


def sample(model, rng: np.random.Generator, size=None):
    """Draw from ``model`` using the supplied generator."""
    return model.sample(rng, size)


def _kmeanspp_means(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ style seeding of component means on 1D residuals."""
    means = [x[rng.integers(len(x))]]
    for _ in range(1, k):
        d2 = np.min((x[:, None] - np.asarray(means)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total <= 0:
            means.append(x[rng.integers(len(x))])
            continue
        means.append(x[rng.choice(len(x), p=d2 / total)])
    return np.asarray(means)


def _em_once(x, k, rng):
    n = len(x)
    means = _kmeanspp_means(x, k, rng)
    variances = np.full(k, max(np.var(x), EM_VAR_FLOOR))
    weights = np.full(k, 1.0 / k)
    log_likelihoods = []
    prev_ll = -np.inf
    for _ in range(EM_MAX_ITER):
        # E step in log domain
        log_comp = (np.log(weights)[None, :]
                    - 0.5 * np.log(2.0 * np.pi * variances)[None, :]
                    - 0.5 * (x[:, None] - means[None, :]) ** 2 / variances[None, :])
        log_norm = np.logaddexp.reduce(log_comp, axis=1)
        ll = float(log_norm.sum())
        log_likelihoods.append(ll)
        resp = np.exp(log_comp - log_norm[:, None])
        # M step
        nk = resp.sum(axis=0)
        if np.any(nk < 1e-10):
            return None, log_likelihoods
        weights = nk / n
        means = (resp * x[:, None]).sum(axis=0) / nk
        variances = (resp * (x[:, None] - means[None, :]) ** 2).sum(axis=0) / nk
        if np.any(variances < EM_VAR_FLOOR):
            return None, log_likelihoods
        if ll - prev_ll < EM_TOL and np.isfinite(prev_ll):
            break
        prev_ll = ll
    weights = weights / weights.sum()
    model = GmmModel(tuple(weights), tuple(means), tuple(variances))
    return model, log_likelihoods


def fit_gmm(residuals, n_components: int, seed: int = 0) -> GmmModel:
    """EM fit of a Gaussian mixture to scalar residuals.

    Restarts with a fresh seed on degenerate clusters (collapsing variance or
    empty components); after ``EM_MAX_RESTARTS`` failures raises
    CalibrationFailureError.
    """
    if n_components < 1:
        raise ValueError(f"n_components must be >= 1, got {n_components}")
    x = np.asarray(residuals, dtype=float).ravel()
    if len(x) < 10 * n_components:
        raise ValueError(
            f"need at least {10 * n_components} residuals for C={n_components}, got {len(x)}")
    for restart in range(EM_MAX_RESTARTS):
        rng = np.random.default_rng(seed + restart)
        model, _ = _em_once(x, n_components, rng)
        if model is not None:
            return model
    raise CalibrationFailureError(
        f"EM failed after {EM_MAX_RESTARTS} restarts (degenerate clusters)")
