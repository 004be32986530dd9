"""Multi-rate sequential fusion: time-ordered prediction / update / estimate loop."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field

import numpy as np

from .estimation import Estimate, estimate
from .geometry import ReferencePoint
from .grid import DegenerateFieldError, GridSpec, LikelihoodField, init_uniform, recenter
from .noise import GaussianModel, GmmModel, MixtureLikelihoodModel, UniformModel
from .observations import (Angle, GnssPseudoranges, Observation, Odometry, Range,
                           RangeDifference)
from .prediction import MotionInput, TransitionWorkspace, predict
from .update import (SUM, BssdRouting, update_aoa, update_gnss_bssd, update_range,
                     update_tdoa)

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


@dataclass(frozen=True)
class AdmitResult:
    accepted: bool
    reason: str | None = None
    reinit_recommended: bool = False


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
    recenter_margin: float = 0.1  # fraction of grid extent
    recenter_enabled: bool = True


# Deterministic ordering for events sharing a timestamp.
_TIE_PRIORITY = {GnssPseudoranges: 0, Range: 1, RangeDifference: 1, Angle: 1,
                 Odometry: 2}


def _tie_key(obs: Observation):
    return (obs.timestamp, _TIE_PRIORITY[type(obs.payload)])


class FusionEngine:
    """Sequential consumer of a mixed GNSS / terrestrial / odometry event stream."""

    def __init__(self, spec: GridSpec, anchors: dict[str, ReferencePoint] | list,
                 config: FilterConfig | None = None):
        self.config = config or FilterConfig()
        if isinstance(anchors, dict):
            self.anchors = dict(anchors)
        else:
            self.anchors = {a.id: a for a in anchors}
        self.field: LikelihoodField = init_uniform(spec)
        self.workspace = TransitionWorkspace(spec)
        self.last_timestamp: float | None = None
        self.motion: MotionInput | None = None
        self.estimates: list[Estimate] = []
        self.rejected: list[tuple[Observation, str]] = []
        self.reinit_count = 0

    @property
    def estimate_radius(self) -> float:
        r = self.config.estimate_radius
        return 5.0 * self.field.spec.cell_size if r is None else r

    def admit(self, obs: Observation) -> AdmitResult:
        """Timing consistency check; out-of-sequence events are dropped."""
        if self.last_timestamp is not None and obs.timestamp < self.last_timestamp:
            return AdmitResult(False, "OutOfSequence")
        if (self.last_timestamp is not None
                and obs.timestamp - self.last_timestamp > self.config.max_gap):
            return AdmitResult(True, reinit_recommended=True)
        return AdmitResult(True)

    def _predict(self, dt: float) -> None:
        cfg = self.config
        if self.motion is None:
            motion = MotionInput(None, None, cfg.sigma_speed, cfg.sigma_heading,
                                 dt, cfg.sigma_rw)
        else:
            motion = self.motion.with_dt(dt)
        self.field = predict(self.field, motion, self.workspace)

    def _update(self, obs: Observation) -> None:
        cfg = self.config
        payload = obs.payload
        if isinstance(payload, Range):
            anchor = self._anchor(payload.anchor_id)
            self.field = update_range(self.field, payload, anchor,
                                      cfg.range_model, cfg.combine_mode)
        elif isinstance(payload, RangeDifference):
            ref_a = self._anchor(payload.ref_a_id)
            ref_b = self._anchor(payload.ref_b_id)
            self.field = update_tdoa(self.field, payload, ref_a, ref_b,
                                     cfg.tdoa_model, cfg.combine_mode)
        elif isinstance(payload, Angle):
            anchor = self._anchor(payload.anchor_id)
            self.field = update_aoa(self.field, payload, anchor,
                                    cfg.aoa_model, cfg.combine_mode)
        elif isinstance(payload, GnssPseudoranges):
            self.field = update_gnss_bssd(self.field, payload,
                                          cfg.bssd_routing, cfg.combine_mode)
        else:
            raise TypeError(f"unexpected payload {type(payload).__name__}")

    def _anchor(self, anchor_id: str) -> ReferencePoint:
        try:
            return self.anchors[anchor_id]
        except KeyError:
            raise KeyError(f"unknown anchor id {anchor_id!r}") from None

    def _maybe_recenter(self, est: Estimate) -> None:
        spec = self.field.spec
        coords = np.asarray(spec.index_to_coords(est.map_cell))
        extent = np.asarray(spec.extent)
        margin = np.maximum(1, np.floor(self.config.recenter_margin * extent))
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

    def step(self, obs: Observation) -> Estimate | None:
        """Process one admitted event; returns an estimate for positioning events."""
        dt = 0.0 if self.last_timestamp is None else obs.timestamp - self.last_timestamp
        if dt > 0.0:
            self._predict(dt)
        self.last_timestamp = obs.timestamp

        if isinstance(obs.payload, Odometry):
            cfg = self.config
            self.motion = MotionInput(obs.payload.speed, obs.payload.heading,
                                      cfg.sigma_speed, cfg.sigma_heading,
                                      1.0, cfg.sigma_rw)
            return None

        try:
            self._update(obs)
        except DegenerateFieldError:
            log.warning("likelihood collapse at t=%.3f; reinitializing uniform",
                        obs.timestamp)
            self.field = init_uniform(self.field.spec)
            self.reinit_count += 1

        est = estimate(self.field, self.estimate_radius, obs.timestamp)
        self.estimates.append(est)
        if self.config.recenter_enabled:
            self._maybe_recenter(est)
        return est

    def run(self, events: list[Observation]) -> list[Estimate]:
        """Sort, admit and process a whole event stream; returns the estimates."""
        for obs in sorted(events, key=_tie_key):
            result = self.admit(obs)
            if not result.accepted:
                self.rejected.append((obs, result.reason))
                log.warning("rejected event at t=%.3f: %s", obs.timestamp,
                            result.reason)
                continue
            if result.reinit_recommended:
                log.warning("gap > %.1f s before t=%.3f; reinitialization recommended",
                            self.config.max_gap, obs.timestamp)
            self.step(obs)
        return list(self.estimates)
