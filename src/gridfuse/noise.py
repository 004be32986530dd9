"""Scalar density models for likelihood sampling, plus EM calibration of mixtures.

Every density model is a frozen dataclass with two methods:

- ``pdf(y)`` evaluates the density at a scalar or array ``y``;
- ``sample(rng, size=None)`` draws from it with the given generator and
  returns a float when ``size`` is None, else an array of that shape.

A new model also needs one entry in the JSON tag table of ``fileio``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQRT_2PI = np.sqrt(2.0 * np.pi)


class CalibrationFailureError(RuntimeError):
    """Raised when EM cannot produce a non-degenerate mixture fit."""


def _gauss_pdf(y, mean, var):
    y = np.asarray(y, dtype=float)
    return np.exp(-0.5 * (y - mean) ** 2 / var) / (_SQRT_2PI * np.sqrt(var))


@dataclass(frozen=True)
class GaussianModel:
    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise ValueError(f"std must be > 0, got {self.std}")

    def pdf(self, y):
        return _gauss_pdf(y, self.mean, self.std ** 2)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.normal(self.mean, self.std, size=size)


@dataclass(frozen=True)
class UniformModel:
    """Flat density on [low, high]; used as an outlier component."""

    low: float
    high: float

    def __post_init__(self):
        if not self.high > self.low:
            raise ValueError("require high > low")

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        inside = (y >= self.low) & (y <= self.high)
        return np.where(inside, 1.0 / (self.high - self.low), 0.0)

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
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(w)}")
        if any(v <= 0 for v in s):
            raise ValueError("variances must be positive")
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

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for w, m, v in zip(self.weights, self.means, self.variances):
            out += w * _gauss_pdf(y, m, v)
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

    def pdf(self, y):
        phi = self.ratio
        return phi * self.primary.pdf(y) + (1.0 - phi) * self.secondary.pdf(y)

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


def density(model, y):
    """Evaluate the pdf of ``model`` at ``y`` (scalar or array)."""
    return model.pdf(y)


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


def _em_once(x, k, rng, max_iter, tol, var_floor):
    n = len(x)
    means = _kmeanspp_means(x, k, rng)
    variances = np.full(k, max(np.var(x), var_floor))
    weights = np.full(k, 1.0 / k)
    log_likelihoods = []
    prev_ll = -np.inf
    for _ in range(max_iter):
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
        if np.any(variances < var_floor):
            return None, log_likelihoods
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            break
        prev_ll = ll
    weights = weights / weights.sum()
    model = GmmModel(tuple(weights), tuple(means), tuple(variances))
    return model, log_likelihoods


def fit_gmm(residuals, n_components: int, seed: int = 0, max_iter: int = 500,
            tol: float = 1e-6, max_restarts: int = 5, var_floor: float = 1e-12,
            return_log_likelihoods: bool = False):
    """EM fit of a Gaussian mixture to scalar residuals.

    Restarts with a fresh seed on degenerate clusters (collapsing variance or
    empty components); after ``max_restarts`` failures raises
    CalibrationFailureError.
    """
    x = np.asarray(residuals, dtype=float).ravel()
    if len(x) < 10 * n_components:
        raise ValueError(
            f"need at least {10 * n_components} residuals for C={n_components}, got {len(x)}")
    for restart in range(max_restarts):
        rng = np.random.default_rng(seed + restart)
        model, lls = _em_once(x, n_components, rng, max_iter, tol, var_floor)
        if model is not None:
            return (model, lls) if return_log_likelihoods else model
    raise CalibrationFailureError(
        f"EM failed after {max_restarts} restarts (degenerate clusters)")
