"""gridfuse: non-parametric grid filter fusing GNSS single-difference
pseudoranges, terrestrial radio observations and odometry."""

from .engine import FilterConfig, FusionEngine
from .estimation import Estimate, estimate, map_estimate
from .geometry import ReferencePoint
from .grid import DegenerateFieldError, GridSpec, LikelihoodField, init_uniform, recenter
from .metrics import ErrorSeries, StatsSummary, ecdf, error_series, summarize
from .noise import (CalibrationFailureError, GaussianModel, GmmModel,
                    MixtureLikelihoodModel, UniformModel, fit_gmm, sample)
from .observations import (Angle, GnssPseudoranges, Observation, Odometry, Range,
                           RangeDifference, SatelliteObservation)
from .prediction import Transition, TransitionWorkspace, predict
from .simulator import (GroundTruth, Scenario, generate, make_dynamic_scenario,
                        make_static_scenario)
from .update import update_aoa, update_gnss_bssd, update_range, update_tdoa

__version__ = "0.1.0"

__all__ = [
    "Angle", "CalibrationFailureError", "DegenerateFieldError",
    "ErrorSeries", "Estimate", "FilterConfig", "FusionEngine", "GaussianModel",
    "GmmModel", "StatsSummary",
    "GnssPseudoranges", "GridSpec", "GroundTruth", "LikelihoodField", "ecdf",
    "error_series", "summarize",
    "MixtureLikelihoodModel", "Observation", "Odometry", "Range",
    "RangeDifference", "ReferencePoint", "SatelliteObservation", "Scenario",
    "Transition", "TransitionWorkspace", "UniformModel", "estimate",
    "fit_gmm", "generate", "init_uniform", "make_dynamic_scenario",
    "make_static_scenario", "map_estimate", "predict", "recenter",
    "sample", "update_aoa", "update_gnss_bssd", "update_range", "update_tdoa",
]
