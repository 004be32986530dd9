import statistics

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridfuse.estimation import Estimate
from gridfuse.metrics import (ErrorSeries, ecdf, error_series, nearest_rank,
                              summarize)
from gridfuse.simulator import GroundTruth


def make_estimate(t, pos):
    return Estimate(t, tuple(pos), 0, 1.0, 5.0, 1)


def test_error_is_3d_l2():
    truth = GroundTruth([1.0], [[1.0, 2.0, 0.0]])
    series = error_series([make_estimate(1.0, (1.0, 2.0, 2.0))], truth)
    assert series.values[0] == pytest.approx(2.0)
    series = error_series([make_estimate(1.0, (4.0, 6.0, 0.0))], truth)
    assert series.values[0] == pytest.approx(5.0)


def test_error_series_matches_nearest_time():
    truth = GroundTruth([1.0, 2.0, 3.0],
                        [[0, 0, 0], [10, 0, 0], [20, 0, 0]])
    series = error_series([make_estimate(2.0004, (10.0, 0.0, 0.0))], truth)
    assert series.values[0] == pytest.approx(0.0)
    assert series.skipped == 0


def test_error_series_scores_truth_given_out_of_order():
    """Truth rows at t = 2, 1, 3 score every estimate, as the sorted rows do."""
    truth = GroundTruth([2.0, 1.0, 3.0], [[10, 0, 0], [0, 0, 0], [20, 0, 0]])
    assert list(truth.times) == [1.0, 2.0, 3.0]
    estimates = [make_estimate(t, (10.0 * (t - 1), 0.0, 0.0)) for t in (1.0, 2.0, 3.0)]
    series = error_series(estimates, truth)
    assert series.skipped == 0
    assert list(series.values) == [0.0, 0.0, 0.0]


def test_error_series_skips_unmatched():
    truth = GroundTruth([1.0], [[0, 0, 0]])
    series = error_series([make_estimate(5.0, (0, 0, 0)),
                           make_estimate(1.0, (3, 4, 0))], truth)
    assert series.skipped == 1
    assert list(series.values) == [5.0]


def test_nearest_rank_textbook_example():
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert nearest_rank(v, 25.0) == 2.0
    assert nearest_rank(v, 50.0) == 3.0
    assert nearest_rank(v, 75.0) == 4.0
    assert nearest_rank(v, 100.0) == 5.0
    assert nearest_rank(v, 0.1) == 1.0


def test_nearest_rank_is_an_observed_value():
    rng = np.random.default_rng(0)
    v = np.sort(rng.random(37))
    for p in (10, 25, 50, 68.27, 75, 95.45, 99.73):
        assert nearest_rank(v, p) in v


def test_summarize_against_stdlib():
    rng = np.random.default_rng(1)
    vals = rng.gamma(2.0, 1.5, 501)
    s = summarize(ErrorSeries(vals))
    assert s.mean == pytest.approx(statistics.fmean(vals), rel=1e-12)
    assert s.variance == pytest.approx(statistics.variance(vals), rel=1e-9)
    assert s.median == nearest_rank(np.sort(vals), 50.0)
    assert s.count == 501
    assert s.quantiles[0] <= s.quantiles[1] <= s.quantiles[2]
    # sigma quantiles bracket the right fraction of samples
    assert np.mean(vals <= s.quantiles[0]) >= 0.6827
    assert np.mean(vals <= s.quantiles[1]) >= 0.9545


def test_summarize_single_value():
    s = summarize(ErrorSeries([2.5]))
    assert s.mean == 2.5 and s.median == 2.5 and s.variance == 0.0


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize(ErrorSeries([]))
    with pytest.raises(ValueError):
        ecdf(ErrorSeries([]))


def test_negative_errors_rejected():
    with pytest.raises(ValueError):
        ErrorSeries([1.0, -0.1])


def test_ecdf_step_values():
    x, f = ecdf(ErrorSeries([3.0, 1.0, 1.0, 2.0]))
    assert list(x) == [1.0, 2.0, 3.0]
    assert list(f) == [0.5, 0.75, 1.0]


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                max_size=50))
def test_ecdf_properties(vals):
    x, f = ecdf(ErrorSeries(vals))
    assert f[-1] == pytest.approx(1.0)
    assert np.all(np.diff(f) > 0)
    assert np.all(np.diff(x) > 0)
    # right-continuity: F(x_i) counts every sample <= x_i
    v = np.asarray(vals)
    for xi, fi in zip(x, f):
        assert fi == pytest.approx(np.mean(v <= xi))
