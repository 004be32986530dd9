"""Accuracy metric (3D L2 error per epoch), descriptive statistics and ECDF."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .estimation import Estimate
from .simulator import GroundTruth

log = logging.getLogger(__name__)

SIGMA_LEVELS = (68.27, 95.45, 99.73)

# An estimate is scored against the reference sample nearest in time, if
# one lies within this many seconds of it.
TIME_TOLERANCE = 1e-3


@dataclass(frozen=True)
class ErrorSeries:
    values: np.ndarray  # per-epoch 3D L2 error, meters
    skipped: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if np.any(v < 0):
            raise ValueError("errors must be non-negative")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class StatsSummary:
    mean: float
    median: float
    variance: float
    quantiles: tuple[float, float, float]    # 68.27 / 95.45 / 99.73 %
    percentiles: tuple[float, float, float]  # 25 / 50 / 75 %
    count: int


def error_series(estimates: list[Estimate], truth: GroundTruth) -> ErrorSeries:
    """3D L2 error per estimate against the nearest-in-time reference sample."""
    values = []
    skipped = 0
    times = truth.times
    for est in estimates:
        idx = int(np.searchsorted(times, est.timestamp))
        best = None
        for j in (idx - 1, idx):
            if 0 <= j < len(times):
                dt = abs(times[j] - est.timestamp)
                if best is None or dt < best[0]:
                    best = (dt, j)
        if best is None or best[0] > TIME_TOLERANCE:
            skipped += 1
            continue
        ref = truth.positions[best[1]]
        values.append(float(np.linalg.norm(ref - np.asarray(est.position))))
    if skipped:
        log.warning("skipped %d estimates without a matching reference sample",
                    skipped)
    return ErrorSeries(np.asarray(values), skipped)


def nearest_rank(sorted_values: np.ndarray, percent: float) -> float:
    """Nearest-rank order statistic: smallest value covering ``percent`` of mass."""
    n = len(sorted_values)
    rank = int(np.ceil(percent / 100.0 * n))
    rank = min(max(rank, 1), n)
    return float(sorted_values[rank - 1])


def summarize(series: ErrorSeries) -> StatsSummary:
    v = series.values
    if len(v) == 0:
        raise ValueError("cannot summarize an empty error series")
    s = np.sort(v)
    variance = float(np.var(v, ddof=1)) if len(v) > 1 else 0.0
    return StatsSummary(
        mean=float(np.mean(v)),
        median=nearest_rank(s, 50.0),
        variance=variance,
        quantiles=tuple(nearest_rank(s, p) for p in SIGMA_LEVELS),
        percentiles=tuple(nearest_rank(s, p) for p in (25.0, 50.0, 75.0)),
        count=len(v),
    )


def ecdf(series: ErrorSeries) -> tuple[np.ndarray, np.ndarray]:
    """Step samples (x, F(x)) of the empirical CDF; right-continuous, ends at 1."""
    v = series.values
    if len(v) == 0:
        raise ValueError("cannot compute the ECDF of an empty series")
    x, counts = np.unique(v, return_counts=True)
    f = np.cumsum(counts) / len(v)
    return x, f
