"""gridfuse benchmark: seeded workloads replayed through the public API.

Each run does what ``gridfuse filter`` does -- ``fileio.read_observations`` ->
``FusionEngine.run`` -> ``fileio.write_estimates`` -- on one workload, checks
the output, and prints the metrics by name with units. The last line of
standard output is one JSON object with the same metrics, for machine reading.

Load model: a batch replay in one single-threaded process. The whole event
stream goes to one ``FusionEngine``; the engine handles the next event only
after the previous one returned (a closed loop with one client). The seed is
a benchmark argument; the engine only sees the generated events.

The measured phase lasts ``--seconds``. The first pass always runs the whole
stream and is the one scored for accuracy; further passes replay the stream on
fresh engines until the time is up and must reproduce the first pass's
estimates exactly.

Accuracy (3D error against truth, first pass) is deterministic per seed but
varies across seeds by more than any timing bound allows: the dynamic filter
sometimes locks onto a mode 15-30 m off for up to a minute (seed 23: 53 s).
So accuracy is checked against fixed limits on every run, printed, and
reported per layer by the traced run; it is not an end-to-end metric. The
dynamic check is the acceptance median (1.2 m) only, because such a lock puts
the mean of a 120-s stream above the acceptance mean (2.5 m).

Machine speed on a shared host drifts by tens of percent within minutes. A
fixed numpy probe, independent of gridfuse, runs before each set-up and
between steps every half second. Every reported time is the measured wall
time multiplied by ``NOMINAL_PROBE_S`` over the median of the probes nearest
to when it was taken, i.e. expressed at the speed where the probe takes
``NOMINAL_PROBE_S``. The raw wall values are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from gridfuse import FilterConfig, FusionEngine, GridSpec, ReferencePoint, fileio, simulator
from gridfuse.metrics import error_series, nearest_rank, summarize
from gridfuse.observations import Observation, Odometry

import terrestrial
from tracing import Tracer, instrument, self_time_by_name, self_times

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 15
PROBE_INTERVAL_S = 0.5
PROBE_WINDOW = 5
PROBE_REPEATS = 4
NOMINAL_PROBE_S = 0.007
POSTERIOR_TOL = 1e-9
# The tail percentile needs >= MIN_TAIL_SAMPLES fixes beyond it. A 30-s run of
# the dynamic workload delivers about 500 fixes: enough for p95 (200), not for
# p99 (1000).
TAIL_PERCENT = 95.0
MIN_TAIL_SAMPLES = 10

DYNAMIC_EPOCHS = 240
TERRESTRIAL_FIXES = 500


@dataclass(frozen=True)
class Inputs:
    grid: GridSpec
    anchors: tuple[ReferencePoint, ...]
    events: list[Observation]
    truth: simulator.GroundTruth


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], Inputs]
    max_mean_m: float = math.inf
    max_median_m: float = math.inf


def _from_scenario(scenario) -> Inputs:
    events, truth = simulator.generate(scenario)
    return Inputs(scenario.grid, scenario.anchors, events, truth)


def _terrestrial(seed: int) -> Inputs:
    events, truth = terrestrial.generate(TERRESTRIAL_FIXES, seed)
    return Inputs(terrestrial.grid(), terrestrial.anchors(), events, truth)


WORKLOADS = {w.name: w for w in (
    Workload(
        "static",
        "acceptance static scenario, 500 epochs on 150x150 cells: BSSD-heavy GNSS "
        "fixes beside cheap range fixes, no recentering",
        lambda seed: _from_scenario(simulator.make_static_scenario(
            n_epochs=500, cell_size=0.2, seed=seed)),
        max_mean_m=0.8),
    Workload(
        "dynamic",
        f"acceptance dynamic scenario, first {DYNAMIC_EPOCHS} GNSS epochs on 200x200 "
        "cells: BSSD-dominated, drops NLOS pairs and recenters the grid",
        lambda seed: _from_scenario(simulator.make_dynamic_scenario(
            n_gnss_epochs=DYNAMIC_EPOCHS, seed=seed)),
        max_median_m=1.2),
    Workload(
        "terrestrial",
        f"indoor UWB only, {TERRESTRIAL_FIXES} range/TDoA/AoA fixes on 240x240 cells "
        "with 10 Hz odometry: no BSSD, cost in predict and estimate",
        _terrestrial,
        # Seeds 0-5 and 11-15 at this commit gave mean errors of 0.21-0.28 m,
        # seed 101 gave 0.405 m: its first 13 fixes (3 s), before range, TDoA
        # and AoA pin the position down, are 5-18 m off.
        max_mean_m=0.6),
)}


# ------------------------------------------------------------------ statistics

def samples_beyond(n: int, percent: float) -> int:
    """Samples strictly above the nearest-rank ``percent`` order statistic of n."""
    rank = min(max(int(math.ceil(percent / 100.0 * n)), 1), n)
    return n - rank


def percentile(values, percent: float) -> float:
    return nearest_rank(np.sort(np.asarray(values, dtype=float)), percent)


# ------------------------------------------------------------- machine speed

class SpeedProbe:
    """Fixed numpy work whose time tracks the host's current speed.

    Elementwise numpy over 40k points: on a 2-core shared Xeon host its time
    followed the gridfuse step time with a log-log slope of 1.0-1.1, where an
    FFT convolution and pure-Python work, which varied about twice as much as
    the steps did, gave slopes of 0.5-0.7 and over-corrected.
    """

    def __init__(self):
        self._points = np.random.default_rng(0).random((40_000, 3))
        self.at: list[float] = []
        self.samples: list[float] = []
        self.next_due = 0.0

    def run(self) -> float:
        t0 = perf_counter()
        for _ in range(PROBE_REPEATS):
            d = np.linalg.norm(self._points - self._points[17], axis=1)
            np.exp(-0.5 * d * d).sum()
        t1 = perf_counter()
        self.at.append(t0)
        self.samples.append(t1 - t0)
        self.next_due = t1 + PROBE_INTERVAL_S
        return t1 - t0

    def scale_at(self, times) -> np.ndarray:
        """Nominal-speed factor at each time: NOMINAL_PROBE_S over the median of
        the PROBE_WINDOW probes nearest in time."""
        at, samples = np.asarray(self.at), np.asarray(self.samples)
        k = min(PROBE_WINDOW, len(samples))
        medians = np.array([np.median(samples[i:i + k])
                            for i in range(len(samples) - k + 1)])
        lo = np.searchsorted(at, np.asarray(times, dtype=float)) - k // 2
        return NOMINAL_PROBE_S / medians[np.clip(lo, 0, len(medians) - 1)]


# ---------------------------------------------------------------------- passes

class _DeadlineReached(Exception):
    """Raised from the step wrapper to end a replay pass when time is up."""


@dataclass
class Pass:
    engine: FusionEngine
    estimates: list
    step_at: np.ndarray  # perf_counter at each step's start
    step_s: np.ndarray   # wall time of each step
    is_fix: np.ndarray   # step handled a positioning event (not odometry)
    wall_s: float        # engine.run + write_estimates, probe time excluded
    scenario_s: float    # stream time covered
    events: int          # events consumed: stepped or rejected
    complete: bool


def run_pass(engine: FusionEngine, events: list, out_csv: Path,
             probe: SpeedProbe | None = None, deadline: float | None = None,
             tracer: Tracer | None = None) -> Pass:
    """Replay ``events`` through ``engine.run`` and write the estimates.

    Fix latency is taken by a wrapper on the engine instance's ``step``, so the
    engine's own sorting, admission and gap handling stay in the measurement.
    """
    inner = engine.step if tracer is None else tracer.wrap("engine.step", engine.step)
    steps: list[tuple[float, float, bool]] = []
    probe_s = 0.0

    def step(obs):
        nonlocal probe_s
        t0 = perf_counter()
        est = inner(obs)
        t1 = perf_counter()
        steps.append((t0, t1 - t0, not isinstance(obs.payload, Odometry)))
        if probe is not None and t1 >= probe.next_due:
            probe_s += probe.run()
        if deadline is not None and perf_counter() >= deadline:
            raise _DeadlineReached
        return est

    engine.step = step
    span = (lambda name: nullcontext()) if tracer is None else tracer.span
    complete = True
    t0 = perf_counter()
    try:
        with span("engine.run"):
            estimates = engine.run(events)
    except _DeadlineReached:
        complete = False
        estimates = list(engine.estimates)
    with span("fileio.write_estimates"):
        fileio.write_estimates(estimates, out_csv)
    wall = perf_counter() - t0 - probe_s
    step_at, step_s, is_fix = (np.array(col) for col in zip(*steps)) if steps else (
        np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool))
    return Pass(engine, estimates, step_at, step_s, is_fix.astype(bool), wall,
                engine.last_timestamp or 0.0, len(steps) + len(engine.rejected),
                complete)


def _new_engine(inputs: Inputs) -> FusionEngine:
    return FusionEngine(inputs.grid, inputs.anchors, FilterConfig())


# ---------------------------------------------------------------------- checks

def check_outputs(workload: Workload, inputs: Inputs, events: list, first: Pass,
                  out_csv: Path) -> tuple[list[str], dict[str, float]]:
    """Output checks on the scored pass; returns (failures, accuracy metrics)."""
    failures = []
    if events != inputs.events:
        failures.append("observations CSV did not round-trip the generated events")
    positioning = sum(not isinstance(e.payload, Odometry) for e in events)
    rejected = sum(not isinstance(o.payload, Odometry) for o, _ in first.engine.rejected)
    if len(first.estimates) != positioning - rejected:
        failures.append(f"{len(first.estimates)} estimates for "
                        f"{positioning - rejected} admitted fixes")
    if not all(np.all(np.isfinite(e.position)) for e in first.estimates):
        failures.append("non-finite estimate position")
    total = float(first.engine.field.mass.sum())
    if abs(total - 1.0) > POSTERIOR_TOL:
        failures.append(f"final posterior sums to {total!r}")
    if fileio.read_estimates(out_csv) != first.estimates:
        failures.append("estimates CSV did not round-trip the estimates")
    series = error_series(first.estimates, inputs.truth)
    if series.skipped:
        return failures + [f"{series.skipped} estimates without a truth sample"], {}
    summary = summarize(series)
    if not summary.mean <= workload.max_mean_m:
        failures.append(f"mean error {summary.mean:.3f} m > {workload.max_mean_m} m")
    if not summary.median <= workload.max_median_m:
        failures.append(f"median error {summary.median:.3f} m > "
                        f"{workload.max_median_m} m")
    return failures, {"metrics.err_mean_m": summary.mean,
                      "metrics.err_p95_m": percentile(series.values, 95.0)}


def _failures_of(p: Pass) -> int:
    return len(p.engine.rejected) + p.engine.reinit_count


# ----------------------------------------------------------------- untraced run

END_TO_END_UNITS = {
    "setup_s": "s", "realtime_x": "x", "fix_p50_ms": "ms", "fix_p95_ms": "ms",
    "peak_mem_mb": "MB", "ok_frac": "frac",
}


def measure(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    inputs = workload.build(seed)
    obs_csv = workdir / "observations.csv"
    fileio.write_observations(inputs.events, obs_csv)

    probe = SpeedProbe()
    setup_at, setup_s = [], []
    for _ in range(SETUP_REPEATS):
        probe.run()
        t0 = perf_counter()
        events = fileio.read_observations(obs_csv)
        engine = _new_engine(inputs)
        setup_at.append(t0)
        setup_s.append(perf_counter() - t0)

    deadline = perf_counter() + seconds
    first_csv = workdir / "estimates.csv"
    passes = [run_pass(engine, events, first_csv, probe)]
    while perf_counter() < deadline:
        passes.append(run_pass(_new_engine(inputs), events,
                               workdir / "replay_estimates.csv", probe, deadline))
    first = passes[0]

    failures, acc = check_outputs(workload, inputs, events, first, first_csv)
    for i, p in enumerate(passes[1:], start=2):
        if p.estimates != first.estimates[:len(p.estimates)]:
            failures.append(f"replay pass {i} diverged from the first pass")

    attempted = sum(p.events for p in passes)
    failed = sum(_failures_of(p) for p in passes)
    step_at = np.concatenate([p.step_at for p in passes])
    step_s = np.concatenate([p.step_s for p in passes])
    is_fix = np.concatenate([p.is_fix for p in passes])
    step_scale = probe.scale_at(step_at)
    run_scale = float(np.median(probe.scale_at(probe.at)))
    wall = sum(p.wall_s for p in passes)
    scenario_s = sum(p.scenario_s for p in passes)
    # Time outside steps (sorting, admission, writing) takes the run's median scale.
    scaled_wall = (step_s * step_scale).sum() + (wall - step_s.sum()) * run_scale
    fix_s, fix_scaled = step_s[is_fix], (step_s * step_scale)[is_fix]
    raw = {
        "setup_s": statistics.median(setup_s),
        "realtime_x": scenario_s / wall,
        "fix_p50_ms": percentile(fix_s, 50.0) * 1e3,
        "fix_p95_ms": percentile(fix_s, TAIL_PERCENT) * 1e3,
    }
    metrics = {
        "setup_s": float(np.median(np.asarray(setup_s) * probe.scale_at(setup_at))),
        "realtime_x": scenario_s / scaled_wall,
        "fix_p50_ms": percentile(fix_scaled, 50.0) * 1e3,
        "fix_p95_ms": percentile(fix_scaled, TAIL_PERCENT) * 1e3,
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    print(f"workload {workload.name} seed {seed}: {workload.why}")
    print(f"passes {len(passes)} ({sum(p.complete for p in passes)} complete), "
          f"events {attempted}, failed {failed}, measured {wall:.2f} s wall")
    print(f"fixes {len(fix_s)}: {samples_beyond(len(fix_s), TAIL_PERCENT)} beyond "
          f"p{TAIL_PERCENT:g} (the tail needs >= {MIN_TAIL_SAMPLES})")
    print(f"speed probe: {len(probe.samples)} probes, median "
          f"{statistics.median(probe.samples) * 1e3:.2f} ms, scale "
          f"{step_scale.min():.3f}-{step_scale.max():.3f} over the steps")
    for name, value in metrics.items():
        note = f"  (raw wall {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<12} {value:12.6g} {END_TO_END_UNITS[name]}{note}")
    for name, value in acc.items():
        print(f"  {name:<26} {value:.6g} m (first pass, checked, not an end-to-end metric)")
    for f in failures:
        print(f"CHECK FAILED: {f}")
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()}}


# ------------------------------------------------------------------- traced run

# span name -> per-layer self-time metric
SPAN_METRICS = {
    "update.bssd": "update.bssd_s",
    "update.bssd_sample": "update.bssd_sample_s",
    "update.combine": "update.combine_s",
    "update.range": "update.range_s",
    "update.tdoa": "update.tdoa_s",
    "update.aoa": "update.aoa_s",
    "geometry.gamma_distance": "geometry.gamma_distance_s",
    "noise.density": "noise.density_s",
    "prediction.predict": "prediction.predict_s",
    "prediction.kernel": "prediction.kernel_s",
    "estimation.estimate": "estimation.estimate_s",
    "grid.recenter": "grid.recenter_s",
    "engine.step": "engine.step_self_s",
    "engine.run": "engine.run_self_s",
    "fileio.read_observations": "fileio.read_observations_s",
    "fileio.write_estimates": "fileio.write_estimates_s",
    "simulator.generate": "simulator.generate_s",
    "metrics.evaluate": "metrics.evaluate_s",
}
COUNTERS = (
    "update.bssd_calls", "update.bssd_pairs_used", "update.combine_calls",
    "update.combine_arrays", "update.range_calls", "update.tdoa_calls",
    "update.aoa_calls", "geometry.gamma_distance_calls", "noise.density_calls",
    "noise.density_cells", "prediction.predict_calls", "estimation.estimate_calls",
    "grid.recenter_calls", "grid.normalize_calls", "grid.field_builds",
)
PASS_ROOTS = ("engine.run", "fileio.write_estimates")
ACCURACY_METRICS = ("metrics.err_mean_m", "metrics.err_p95_m")


def layer_metrics(tracer: Tracer, traced: Pass, untraced: Pass,
                  bytes_read: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit) from the traced pass's spans."""
    c = tracer.counters
    by_name = self_time_by_name(tracer.spans)
    out = {metric: (by_name.get(span, 0.0), "s") for span, metric in SPAN_METRICS.items()}
    out.update({name: (float(c[name]), "count") for name in COUNTERS})
    attempted = c["update.bssd_pairs_attempted"]
    used = c["update.bssd_pairs_used"]
    radii = tracer.samples["prediction.kernel_radius"]
    out.update({
        "update.bssd_pairs_dropped": (float(attempted - used), "count"),
        "update.bssd_pair_use_ratio": (used / attempted if attempted else 0.0, "ratio"),
        "update.combine_mb": (c["update.combine_bytes"] / 1e6, "MB"),
        "prediction.kernel_radius_p50": (percentile(radii, 50.0) if radii else 0.0,
                                         "cells"),
        "prediction.conv_mops": (c["prediction.conv_madds"] / 1e6, "Mop"),
        "engine.events": (float(traced.events), "count"),
        "engine.fixes": (float(len(traced.estimates)), "count"),
        "engine.rejected": (float(len(traced.engine.rejected)), "count"),
        "engine.reinits": (float(traced.engine.reinit_count), "count"),
        "fileio.bytes_read": (float(bytes_read), "B"),
        "trace.overhead_frac": (1.0 - (traced.scenario_s / traced.wall_s)
                                / (untraced.scenario_s / untraced.wall_s), "frac"),
    })
    pass_ids = {s.id for s in tracer.spans if s.name in PASS_ROOTS}
    own = self_times(tracer.spans)
    in_pass = 0.0
    for s in tracer.spans:
        root = s
        while root.parent is not None:
            root = tracer.spans[root.parent]
        if root.id in pass_ids:
            in_pass += own[s.id]
    out["trace.coverage_frac"] = (in_pass / traced.wall_s, "frac")
    return out


def trace(workload: Workload, seed: int, workdir: Path) -> dict:
    tracer = Tracer(f"{workload.name}-seed{seed}")
    with tracer.span("simulator.generate"):
        inputs = workload.build(seed)
    obs_csv = workdir / "observations.csv"
    fileio.write_observations(inputs.events, obs_csv)

    untraced = run_pass(_new_engine(inputs), fileio.read_observations(obs_csv),
                        workdir / "untraced_estimates.csv")
    with instrument(tracer):
        with tracer.span("fileio.read_observations"):
            events = fileio.read_observations(obs_csv)
        engine = _new_engine(inputs)
        traced_csv = workdir / "estimates.csv"
        traced = run_pass(engine, events, traced_csv, tracer=tracer)
    with tracer.span("metrics.evaluate"):
        failures, acc = check_outputs(workload, inputs, events, traced, traced_csv)
    if traced.estimates != untraced.estimates:
        failures.append("traced estimates differ from the untraced run")

    layers = layer_metrics(tracer, traced, untraced, obs_csv.stat().st_size)
    layers.update({name: (acc.get(name, 0.0), "m") for name in ACCURACY_METRICS})
    stem = OUT_DIR / f"trace-{workload.name}-seed{seed}"
    tracer.write_jsonl(stem.with_suffix(".jsonl"))
    table = [f"per-layer summary: {workload.name} seed {seed}, traced pass "
             f"{traced.wall_s:.3f} s wall ({len(tracer.spans)} spans)"]
    table += [f"  {name:<32} {value:14.6g} {unit}" for name, (value, unit) in layers.items()]
    Path(f"{stem}-summary.txt").write_text("\n".join(table) + "\n")
    print("\n".join(table))
    print(f"spans written to {stem.with_suffix('.jsonl')}")
    for f in failures:
        print(f"CHECK FAILED: {f}")
    return {"correct": not failures, "attempted": traced.events,
            "failed": _failures_of(traced),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}}


# ------------------------------------------------------------------------ main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase (the first pass always completes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer run, the stream once untraced and once traced")
    args = parser.parse_args(argv)

    if args.workload == "all":
        launcher = Path(__file__).resolve().with_name("run.py")
        codes = [subprocess.run([sys.executable, str(launcher), "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        try:
            if args.trace:
                result = trace(workload, args.seed, Path(tmp))
            else:
                result = measure(workload, args.seed, args.seconds, Path(tmp))
        except Exception as exc:
            print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            raise
    print(json.dumps(result))
    return 0 if result["correct"] else 1
