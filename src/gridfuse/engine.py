"""Multi-rate sequential fusion: time-ordered prediction / update / estimate loop."""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, field as dc_field

import numpy as np

from .estimation import Estimate, check_radius, estimate
from .geometry import ReferencePoint, coincident
from .grid import DegenerateFieldError, GridSpec, LikelihoodField, init_uniform, recenter
from .noise import GaussianModel, GmmModel, MixtureLikelihoodModel, UniformModel
from .observations import (Angle, GnssPseudoranges, Observation, Odometry, Range,
                           RangeDifference)
from .prediction import MotionInput, Transition, TransitionWorkspace, predict
from .update import (PRODUCT, SUM, BssdRouting, update_aoa, update_gnss_bssd,
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


@dataclass
class FilterConfig:
    combine_mode: str = SUM
    estimate_radius: float | None = None  # None -> 5 * cell_size
    sigma_speed: float = 0.5
    sigma_heading: float = 0.2
    sigma_rw: float = 1.0
    range_model: object = dc_field(default_factory=lambda: DEFAULT_UWB_MODEL)
    tdoa_model: object = dc_field(default_factory=lambda: DEFAULT_UWB_MODEL)
    aoa_model: object = dc_field(default_factory=lambda: GaussianModel(0.0, 0.1))
    bssd_routing: BssdRouting = dc_field(
        default_factory=lambda: BssdRouting.from_gmm(DEFAULT_BSSD_GMM))
    max_gap: float = 10.0
    recenter_enabled: bool = True


# Deterministic ordering for events sharing a timestamp.
_TIE_PRIORITY = {GnssPseudoranges: 0, Range: 1, RangeDifference: 1, Angle: 1,
                 Odometry: 2}


def _tie_key(obs: Observation):
    return (obs.timestamp, _TIE_PRIORITY[type(obs.payload)])


def _check_config(cfg: FilterConfig, radius: float, cell_size: float) -> None:
    """Reject a configuration the filter cannot run with, before any event."""
    if cfg.combine_mode not in (SUM, PRODUCT):
        raise ValueError(f"unknown combination mode {cfg.combine_mode!r}")
    for name in ("sigma_speed", "sigma_heading", "sigma_rw"):
        value = getattr(cfg, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if not cfg.max_gap > 0:
        raise ValueError(f"max_gap must be > 0, got {cfg.max_gap}")
    check_radius(radius, cell_size)


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
        _check_config(self.config, self.estimate_radius, spec.cell_size)
        self.workspace = TransitionWorkspace(spec)
        self.last_timestamp: float | None = None
        # The last admitted odometry, held until the next one.
        self.motion: Odometry | None = None
        # Prediction steps since the last update, composed into one kernel.
        self.pending: Transition | None = None
        self.estimates: list[Estimate] = []
        self.rejected: list[tuple[Observation, str]] = []
        self.reinit_count = 0

    @property
    def estimate_radius(self) -> float:
        r = self.config.estimate_radius
        return 5.0 * self.field.spec.cell_size if r is None else r

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

    def _step_motion(self, dt: float) -> MotionInput:
        """The zero-order-held odometry over ``dt``, or a random walk before
        any odometry arrived."""
        m, cfg = self.motion, self.config
        speed, heading = (None, None) if m is None else (m.speed, m.heading)
        return MotionInput(speed, heading, cfg.sigma_speed, cfg.sigma_heading, dt,
                           cfg.sigma_rw)

    def _apply_pending(self) -> None:
        """Predict the field through the pending kernel, in one convolution."""
        if self.pending is not None:
            transition, self.pending = self.pending, None
            self._reinit_on_collapse(
                lambda: predict(self.field, transition, self.workspace))

    def _update(self, obs: Observation) -> LikelihoodField:
        cfg = self.config
        payload = obs.payload
        if isinstance(payload, Range):
            anchor = self.anchors[payload.anchor_id]
            return update_range(self.field, payload, anchor,
                                cfg.range_model, cfg.combine_mode)
        if isinstance(payload, RangeDifference):
            ref_a = self.anchors[payload.ref_a_id]
            ref_b = self.anchors[payload.ref_b_id]
            return update_tdoa(self.field, payload, ref_a, ref_b,
                               cfg.tdoa_model, cfg.combine_mode)
        if isinstance(payload, Angle):
            anchor = self.anchors[payload.anchor_id]
            return update_aoa(self.field, payload, anchor,
                              cfg.aoa_model, cfg.combine_mode)
        if isinstance(payload, GnssPseudoranges):
            return update_gnss_bssd(self.field, payload,
                                    cfg.bssd_routing, cfg.combine_mode)
        raise TypeError(f"unexpected payload {type(payload).__name__}")

    def _maybe_recenter(self, est: Estimate) -> None:
        spec = self.field.spec
        coords = np.asarray(spec.index_to_coords(est.map_cell))
        extent = np.asarray(spec.extent)
        margin = np.maximum(1, np.floor(RECENTER_MARGIN * extent))
        near_border = np.any(coords < margin) | np.any(coords >= extent - margin)
        if not near_border:
            return
        center = extent // 2
        shift = coords - center
        if not np.any(shift):
            return
        new_origin = np.asarray(spec.origin) + shift * spec.cell_size
        self.field = recenter(self.field, tuple(new_origin))
        log.info("recentered grid on MAP cell, new origin %s", tuple(new_origin))

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
        and changes nothing else. Every step with dt > 0 composes its motion
        into the pending kernel, which a positioning event applies before its
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
        if dt > self.config.max_gap:
            log.warning("gap > %.1f s before t=%.3f; reinitialization recommended",
                        self.config.max_gap, obs.timestamp)
        self.last_timestamp = obs.timestamp
        if dt > 0.0:
            self.pending = self.workspace.compose(self.pending, self._step_motion(dt))

        if isinstance(obs.payload, Odometry):
            self.motion = obs.payload
            return None

        self._apply_pending()
        self._reinit_on_collapse(lambda: self._update(obs))
        est = estimate(self.field, self.estimate_radius, obs.timestamp)
        self.estimates.append(est)
        if self.config.recenter_enabled and self.reinit_count == reinits:
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
