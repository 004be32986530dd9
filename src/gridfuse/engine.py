"""Multi-rate sequential fusion: time-ordered prediction / update / estimate loop."""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass

from .estimation import Estimate, check_radius, estimate
from .geometry import ReferencePoint, coincident
from .grid import DegenerateFieldError, GridSpec, LikelihoodField, init_uniform, recenter
from .noise import (DensityModel, GaussianModel, GmmModel, MixtureLikelihoodModel,
                    UniformModel)
from .observations import (Angle, GnssPseudoranges, Observation, Odometry, Range,
                           RangeDifference)
from .prediction import Transition, TransitionWorkspace, predict
from .update import (SUM, bssd_routes, check_mode, update_aoa, update_gnss_bssd,
                     update_range, update_tdoa)

log = logging.getLogger(__name__)

# Survey-calibrated defaults: BSSD residual mixture from static data (the
# published weights sum to 0.91 after rounding and are rescaled here), UWB
# ranging N(0.05, 0.31^2) with ~10% outliers (phi = 0.9).
DEFAULT_BSSD_GMM = GmmModel.from_unnormalized(
    weights=(0.42, 0.24, 0.24, 0.01),
    means=(0.25, 13.09, -12.61, -0.3),
    variances=(13.06, 20.37, 21.05, 142.89),
)
DEFAULT_UWB_MODEL = MixtureLikelihoodModel(
    ratio=0.9,
    primary=GaussianModel(0.05, 0.31),
    secondary=UniformModel(-30.0, 30.0),
)

# The grid recenters once the MAP cell comes within this fraction of the
# grid extent (at least one cell) of its border.
RECENTER_MARGIN = 0.1
# A gap between events longer than this, in seconds, logs a warning.
MAX_GAP = 10.0


@dataclass(frozen=True)
class FilterConfig:
    """The filter's settings, checked on construction; frozen, so a checked
    config stays valid (vary one with ``dataclasses.replace``). Only the
    radius's check against the grid's cell size waits for the engine."""

    combine_mode: str = SUM
    estimate_radius: float | None = None  # None -> 5 * cell_size
    sigma_speed: float = 0.5
    sigma_heading: float = 0.2
    sigma_rw: float = 1.0
    range_model: DensityModel = DEFAULT_UWB_MODEL
    tdoa_model: DensityModel = DEFAULT_UWB_MODEL
    aoa_model: DensityModel = GaussianModel(0.0, 0.1)
    bssd_gmm: GmmModel = DEFAULT_BSSD_GMM

    def __post_init__(self):
        check_mode(self.combine_mode)
        r = self.estimate_radius
        if not (r is None or r > 0):
            raise ValueError(f"estimate_radius must be > 0 or None, got {r}")
        for name in ("range_model", "tdoa_model", "aoa_model"):
            if not hasattr(getattr(self, name), "pdf"):
                raise ValueError(f"{name} must be a density model, got {getattr(self, name)!r}")
        bssd_routes(self.bssd_gmm)
        for name in ("sigma_speed", "sigma_heading", "sigma_rw"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


# Deterministic ordering for events sharing a timestamp.
_TIE_PRIORITY = {GnssPseudoranges: 0, Range: 1, RangeDifference: 1, Angle: 1,
                 Odometry: 2}


def _tie_key(obs: Observation):
    return (obs.timestamp, _TIE_PRIORITY[type(obs.payload)])


class FusionEngine:
    """Sequential consumer of a mixed GNSS / terrestrial / odometry event stream."""

    def __init__(self, spec: GridSpec, anchors: Iterable[ReferencePoint],
                 config: FilterConfig | None = None):
        self.config = config or FilterConfig()
        self.anchors: dict[str, ReferencePoint] = {}
        for a in anchors:
            if a.id in self.anchors:
                raise ValueError(f"repeated anchor id {a.id!r}")
            self.anchors[a.id] = a
        self.field: LikelihoodField = init_uniform(spec)
        r = self.config.estimate_radius
        self.estimate_radius = 5.0 * spec.cell_size if r is None else r
        check_radius(self.estimate_radius, spec.cell_size)
        self.workspace = TransitionWorkspace(spec)
        self.last_timestamp: float | None = None
        # The last admitted odometry, held until the next one.
        self.motion: Odometry | None = None
        # Prediction steps since the last update, composed into one transition.
        self.pending: Transition | None = None
        self.estimates: list[Estimate] = []
        self.rejected: list[tuple[Observation, str]] = []
        self.reinit_count = 0

    def admit(self, obs: Observation) -> str | None:
        """Entry check: the reason ``obs`` is rejected, or None. Reasons:
        OutOfSequence, NonFinite (any payload value, satellite positions
        included), UnknownAnchor (an id not among the anchors),
        CoincidentReferences (a TDoA whose two references are one id or one
        position), DuplicateSatellite (a GNSS epoch in which two satellites
        share an id) and NegativeSpeed."""
        if self.last_timestamp is not None and obs.timestamp < self.last_timestamp:
            return "OutOfSequence"
        p = obs.payload
        if isinstance(p, GnssPseudoranges):
            values = [v for s in p.satellites for v in (s.pseudorange, *s.position)]
            refs = []
        elif isinstance(p, Odometry):
            values, refs = [p.speed, p.heading], []
        elif isinstance(p, RangeDifference):
            values, refs = [p.value], [p.ref_a_id, p.ref_b_id]
        else:
            values, refs = [p.value], [p.anchor_id]
        if not all(map(math.isfinite, values)):
            return "NonFinite"
        if not all(r in self.anchors for r in refs):
            return "UnknownAnchor"
        if isinstance(p, RangeDifference) and coincident(*(self.anchors[r] for r in refs)):
            return "CoincidentReferences"
        if isinstance(p, GnssPseudoranges) and (
                len({s.sat_id for s in p.satellites}) < len(p.satellites)):
            return "DuplicateSatellite"
        if isinstance(p, Odometry) and p.speed < 0:
            return "NegativeSpeed"
        return None

    def _step(self, dt: float) -> Transition:
        """The zero-order-held odometry's step over ``dt``, or a random walk
        before any odometry arrived."""
        m, cfg = self.motion, self.config
        if m is None:
            return Transition.random_walk(dt, cfg.sigma_rw)
        return Transition.odometry(m.speed, m.heading, dt, cfg.sigma_speed,
                                   cfg.sigma_heading)

    def _apply_pending(self) -> None:
        """Predict the field through the pending transition, in one convolution."""
        if self.pending is not None:
            transition, self.pending = self.pending, None
            self._reinit_on_collapse(
                lambda: predict(self.field, transition, self.workspace))

    def _update(self, obs: Observation) -> LikelihoodField:
        cfg = self.config
        payload = obs.payload
        if isinstance(payload, Range):
            anchor = self.anchors[payload.anchor_id]
            return update_range(self.field, payload, anchor, cfg.range_model)
        if isinstance(payload, RangeDifference):
            ref_a = self.anchors[payload.ref_a_id]
            ref_b = self.anchors[payload.ref_b_id]
            return update_tdoa(self.field, payload, ref_a, ref_b, cfg.tdoa_model)
        if isinstance(payload, Angle):
            anchor = self.anchors[payload.anchor_id]
            return update_aoa(self.field, payload, anchor, cfg.aoa_model)
        if isinstance(payload, GnssPseudoranges):
            return update_gnss_bssd(self.field, payload, cfg.bssd_gmm, cfg.combine_mode)
        raise TypeError(f"unexpected payload {type(payload).__name__}")

    def _maybe_recenter(self, est: Estimate) -> None:
        spec = self.field.spec
        coords = tuple(map(int, spec.index_to_coords(est.map_cell)))
        margins = [max(1, math.floor(RECENTER_MARGIN * n)) for n in spec.extent]
        if all(m <= c < n - m for c, m, n in zip(coords, margins, spec.extent)):
            return
        shift = tuple(c - n // 2 for c, n in zip(coords, spec.extent))
        if any(shift):
            self.field = recenter(self.field, shift)
            log.info("recentered grid on MAP cell, new origin %s", self.field.spec.origin)

    def _reinit_on_collapse(self, stage) -> None:
        """Replace the field by ``stage()`` (a predict or an update); if the
        posterior collapses to no usable mass, restart from a uniform field."""
        try:
            self.field = stage()
        except DegenerateFieldError:
            log.warning("posterior collapse at t=%.3f; reinitializing uniform",
                        self.last_timestamp)
            self.field = init_uniform(self.field.spec)
            self.reinit_count += 1

    def step(self, obs: Observation) -> Estimate | None:
        """Admit and process one event; returns an estimate for positioning
        events. A rejected event is recorded in ``rejected`` with its reason
        and changes nothing else. Every step with dt > 0 adds its moments to
        the pending transition, which a positioning event applies before its
        update; after an odometry event the field lags until the next fix (or
        the end of ``run``). A step that reinitialised the field does not
        recenter on it."""
        reason = self.admit(obs)
        if reason is not None:
            self.rejected.append((obs, reason))
            log.warning("rejected event at t=%.3f: %s", obs.timestamp, reason)
            return None
        reinits = self.reinit_count
        dt = 0.0 if self.last_timestamp is None else obs.timestamp - self.last_timestamp
        if dt > MAX_GAP:
            log.warning("gap > %.1f s before t=%.3f; reinitialization recommended",
                        MAX_GAP, obs.timestamp)
        self.last_timestamp = obs.timestamp
        if dt > 0.0:
            step = self._step(dt)
            self.pending = step if self.pending is None else self.pending.then(step)

        if isinstance(obs.payload, Odometry):
            self.motion = obs.payload
            return None

        self._apply_pending()
        self._reinit_on_collapse(lambda: self._update(obs))
        est = estimate(self.field, self.estimate_radius, obs.timestamp)
        self.estimates.append(est)
        if self.reinit_count == reinits:
            self._maybe_recenter(est)
        return est

    def run(self, events: list[Observation]) -> list[Estimate]:
        """Step through a whole event stream in time order; returns the
        estimates. Any pending prediction is applied at the end, so ``field``
        is the posterior at ``last_timestamp``."""
        for obs in sorted(events, key=_tie_key):
            self.step(obs)
        self._apply_pending()
        return list(self.estimates)
