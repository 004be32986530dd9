"""Density-model parameters that have no finite density, shared by the model,
filter-file and CLI tests."""

import math

from gridfuse.noise import GaussianModel, GmmModel, UniformModel

_GMM = {"weights": (0.5, 0.25, 0.25), "means": (0.0, 13.0, -13.0),
        "variances": (1.0, 20.0, 20.0)}

# id -> (class, keyword arguments)
NO_FINITE_DENSITY = {
    "gaussian_variance_underflows": (GaussianModel, {"mean": 0.0, "std": 1e-200}),
    "gaussian_variance_overflows": (GaussianModel, {"mean": 0.0, "std": 1e200}),
    "gaussian_nan_mean": (GaussianModel, {"mean": math.nan, "std": 0.3}),
    "gaussian_inf_mean": (GaussianModel, {"mean": math.inf, "std": 0.3}),
    "gmm_nan_weight": (GmmModel, {**_GMM, "weights": (math.nan, 0.5, 0.5)}),
    "gmm_negative_weight": (GmmModel, {**_GMM, "weights": (1.5, -0.25, -0.25)}),
    "gmm_nan_mean": (GmmModel, {**_GMM, "means": (0.0, math.nan, -13.0)}),
    "gmm_inf_variance": (GmmModel, {**_GMM, "variances": (1.0, math.inf, 20.0)}),
    "gmm_subnormal_variance": (GmmModel, {**_GMM, "variances": (1e-310, 20.0, 20.0)}),
    "uniform_inf_low": (UniformModel, {"low": -math.inf, "high": 5.0}),
    "uniform_width_overflows": (UniformModel, {"low": -1e308, "high": 1e308}),
}

_TAGS = {GaussianModel: "gaussian", GmmModel: "gmm", UniformModel: "uniform"}


def as_json(cls, kwargs) -> dict:
    """The model document that would describe ``cls(**kwargs)``."""
    return {"type": _TAGS[cls],
            **{k: list(v) if isinstance(v, tuple) else v for k, v in kwargs.items()}}
