"""In-memory span tracing around the calls into gridfuse's modules.

Nothing in the package is edited: ``instrument`` swaps public functions at the
module attributes their callers look them up through (for example
``gridfuse.engine.update_gnss_bssd``), records one span per call and restores
the originals on exit. Spans stay in memory and are written out as JSON lines
after the measured pass.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

import gridfuse.engine
import gridfuse.geometry
import gridfuse.grid
import gridfuse.prediction
import gridfuse.update


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: str


class Tracer:
    """Records nested spans (single thread) plus named counters and samples."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(span_id, parent, name, perf_counter(), 0.0, self.run_id)
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call; ``count(args, result)`` updates counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counters[name + "_calls"] += 1
            if count is not None:
                count(args, result)
            return result
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, cursor, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span_id, t in self_times(spans).items():
        totals[spans[span_id].name] += t
    return dict(totals)


@contextmanager
def _patched(targets):
    """Replace ``owner.attr`` by ``make(original)`` for each (owner, attr, make)
    target that exists, restoring the originals on exit. A target a refactor has
    removed is skipped, so its layer reads zero instead of breaking the run."""
    saved = [(owner, attr, getattr(owner, attr), make) for owner, attr, make in targets
             if hasattr(owner, attr)]
    try:
        for owner, attr, original, make in saved:
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original, _ in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def instrument(tracer: Tracer):
    """Route gridfuse's inter-module calls through ``tracer`` while active."""
    eng, upd, geo, grd, pred = (gridfuse.engine, gridfuse.update, gridfuse.geometry,
                                gridfuse.grid, gridfuse.prediction)
    c = tracer.counters

    def count_pairs(args, arrays):
        n = len(args[1].satellites)
        c["update.bssd_pairs_attempted"] += n * (n - 1)
        c["update.bssd_pairs_used"] += len(arrays)

    def count_combine(args, _):
        n_arrays = len(args[1])
        c["update.combine_arrays"] += n_arrays
        c["update.combine_bytes"] += n_arrays * args[0].spec.num_cells * 8

    def count_density(args, _):
        c["noise.density_cells"] += getattr(args[1], "size", 1)

    def count_kernel(args, kernel):
        ws = args[0]
        c["prediction.conv_madds"] += ws.spec.num_cells * kernel.size
        tracer.samples["prediction.kernel_radius"].append((kernel.shape[0] - 1) // 2)

    def span(name, count=None):
        return lambda fn: tracer.wrap(name, fn, count)

    def counted(name):
        def make(fn):
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                c[name] += 1
                return fn(*args, **kwargs)
            return counting
        return make

    targets = [
        (eng, "predict", span("prediction.predict")),
        (getattr(pred, "TransitionWorkspace", None), "transition_kernel",
         span("prediction.kernel", count_kernel)),
        (eng, "update_gnss_bssd", span("update.bssd")),
        (eng, "update_range", span("update.range")),
        (eng, "update_tdoa", span("update.tdoa")),
        (eng, "update_aoa", span("update.aoa")),
        (eng, "estimate", span("estimation.estimate")),
        (eng, "recenter", span("grid.recenter")),
        (upd, "bssd_pair_likelihoods", span("update.bssd_sample", count_pairs)),
        (upd, "combine", span("update.combine", count_combine)),
        (upd, "density", span("noise.density", count_density)),
        (upd, "gamma_distance", span("geometry.gamma_distance")),
        (geo, "gamma_distance", span("geometry.gamma_distance")),
        (grd, "normalize", counted("grid.normalize_calls")),
        (upd, "normalize", counted("grid.normalize_calls")),
        (pred, "normalize", counted("grid.normalize_calls")),
        (getattr(grd, "LikelihoodField", None), "__post_init__",
         counted("grid.field_builds")),
    ]
    with _patched(targets):
        yield tracer
