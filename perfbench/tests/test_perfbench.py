"""Tests of the benchmark itself: statistics, self time, generator, tracing.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json

import numpy as np
import pytest

import gridfuse.engine
import gridfuse.grid
import gridfuse.prediction
from gridfuse import simulator

import bench
import terrestrial
import tracing
from tracing import Span, Tracer, instrument, self_time_by_name, self_times


def test_nearest_rank_percentile():
    values = np.arange(100, 0, -1)  # 100 .. 1, unsorted on purpose
    assert bench.percentile(values, 99.0) == 99.0
    assert bench.percentile(values, 50.0) == 50.0
    assert bench.percentile([5.0, 1.0, 3.0], 50.0) == 3.0
    assert bench.percentile([7.0], 99.0) == 7.0


@pytest.mark.parametrize("percent, needed", [(99.0, 1000), (95.0, 200), (50.0, 20)])
def test_samples_needed_for_ten_beyond_the_tail(percent, needed):
    assert bench.samples_beyond(needed, percent) == 10
    assert bench.samples_beyond(needed - 1, percent) == 9
    first = next(n for n in range(1, 5000)
                 if bench.samples_beyond(n, percent) >= bench.MIN_TAIL_SAMPLES)
    assert first == needed


def test_self_time_of_nested_span_tree():
    spans = [
        Span(0, None, "engine.run", 0.0, 10.0, "r"),
        Span(1, 0, "engine.step", 1.0, 4.0, "r"),
        Span(2, 1, "prediction.predict", 2.0, 3.0, "r"),
        Span(3, 0, "engine.step", 5.0, 9.0, "r"),
        Span(4, 3, "update.combine", 5.5, 6.0, "r"),
        Span(5, 3, "estimation.estimate", 7.0, 8.5, "r"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 0.5, 5: 1.5})
    assert sum(own.values()) == pytest.approx(10.0)  # layers add up to the root
    assert self_time_by_name(spans) == pytest.approx({
        "engine.run": 3.0, "engine.step": 4.0, "prediction.predict": 1.0,
        "update.combine": 0.5, "estimation.estimate": 1.5})


def test_tracer_records_parent_links_and_counts():
    tracer = Tracer("t")
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert tracer.counters["outer_calls"] == 1 and tracer.counters["inner_calls"] == 1


def test_terrestrial_generator_is_seeded():
    events, truth = terrestrial.generate(30, seed=3)
    again, truth_again = terrestrial.generate(30, seed=3)
    other, _ = terrestrial.generate(30, seed=4)
    assert events == again
    assert np.array_equal(truth.positions, truth_again.positions)
    assert events != other
    kinds = {type(e.payload).__name__ for e in events}
    assert kinds == {"Range", "RangeDifference", "Angle", "Odometry"}
    assert len(truth.times) == 30
    assert all(a.timestamp <= b.timestamp for a, b in zip(events, events[1:]))


def _small_inputs():
    """A few events of every kind: BSSD with dropped pairs, range, TDoA, AoA."""
    dyn = bench._from_scenario(simulator.make_dynamic_scenario(
        n_gnss_epochs=4, cell_size=0.5, extent_m=20.0, seed=5))
    events, truth = terrestrial.generate(9, seed=5)
    ter = bench.Inputs(terrestrial.grid(), terrestrial.anchors(), events, truth)
    return dyn, ter


@pytest.mark.parametrize("which", [0, 1])
def test_traced_estimates_are_bit_identical(which, tmp_path):
    inputs = _small_inputs()[which]
    untraced = bench.run_pass(bench._new_engine(inputs), inputs.events,
                              tmp_path / "a.csv")
    tracer = Tracer("test")
    originals = (gridfuse.engine.predict, gridfuse.grid.normalize,
                 gridfuse.prediction.TransitionWorkspace.transition_kernel,
                 gridfuse.grid.LikelihoodField.__post_init__)
    with instrument(tracer):
        traced = bench.run_pass(bench._new_engine(inputs), inputs.events,
                                tmp_path / "b.csv", tracer=tracer)
    assert traced.estimates == untraced.estimates
    assert np.array_equal(traced.engine.field.mass, untraced.engine.field.mass)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (gridfuse.engine.predict, gridfuse.grid.normalize,
            gridfuse.prediction.TransitionWorkspace.transition_kernel,
            gridfuse.grid.LikelihoodField.__post_init__) == originals
    assert tracer.counters["estimation.estimate_calls"] == len(traced.estimates)


def test_trace_run_reports_every_layer(tmp_path, monkeypatch):
    dyn, _ = _small_inputs()
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    workload = bench.Workload("small", "test", lambda seed: dyn, max_mean_m=1e9)
    result = bench.trace(workload, 5, tmp_path)
    assert result["correct"]
    metrics = result["metrics"]
    declared = json.loads((bench.Path(bench.__file__).parent.parent
                           / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
    assert metrics["update.bssd_calls"]["value"] == 4
    assert metrics["update.bssd_pairs_dropped"]["value"] > 0
    assert metrics["trace.coverage_frac"]["value"] >= 0.95
    lines = (tmp_path / "trace-small-seed5.jsonl").read_text().splitlines()
    assert {json.loads(l)["name"] for l in lines} >= {"engine.run", "update.bssd"}


def test_output_check_flags_wrong_accuracy(tmp_path):
    dyn, _ = _small_inputs()
    first = bench.run_pass(bench._new_engine(dyn), dyn.events, tmp_path / "e.csv")
    strict = bench.Workload("strict", "test", lambda seed: dyn, max_mean_m=0.0)
    failures, _ = bench.check_outputs(strict, dyn, dyn.events, first, tmp_path / "e.csv")
    assert any("mean error" in f for f in failures)
    loose = bench.Workload("loose", "test", lambda seed: dyn, max_mean_m=1e9)
    failures, acc = bench.check_outputs(loose, dyn, dyn.events, first, tmp_path / "e.csv")
    assert failures == [] and acc["metrics.err_mean_m"] > 0.0
    median_only = bench.Workload("median", "test", lambda seed: dyn, max_median_m=0.0)
    failures, _ = bench.check_outputs(median_only, dyn, dyn.events, first, tmp_path / "e.csv")
    assert len(failures) == 1 and failures[0].startswith("median error")


def test_replay_pass_stops_at_deadline_with_a_prefix(tmp_path):
    dyn, _ = _small_inputs()
    full = bench.run_pass(bench._new_engine(dyn), dyn.events, tmp_path / "a.csv")
    cut = bench.run_pass(bench._new_engine(dyn), dyn.events, tmp_path / "b.csv",
                         deadline=0.0)
    assert full.complete and not cut.complete
    assert cut.events == 1 and cut.estimates == full.estimates[:len(cut.estimates)]
    assert len(full.step_s) == full.events == len(dyn.events)
    assert full.is_fix.sum() == len(full.estimates)


def test_patching_skips_missing_targets_and_restores():
    class Owner:
        present = staticmethod(lambda: 1)

    with tracing._patched([(Owner, "present", lambda fn: lambda: fn() + 1),
                           (Owner, "removed_by_a_refactor", lambda fn: fn)]):
        assert Owner.present() == 2
    assert Owner.present() == 1 and not hasattr(Owner, "removed_by_a_refactor")
