"""Scenario generation: synthetic anchors, satellites, trajectories and noisy
observations matching the calibrated sensor error models."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .geometry import ReferencePoint, wrap_angle
from .grid import GridSpec, check_cell_size
from .observations import (LOS, NLOS, GnssPseudoranges, Observation, Odometry,
                           Range, SatelliteObservation)

GNSS_ALTITUDE = 20.2e6  # m, MEO shell used for the synthetic sky plot


# Rules for scenario fields: the message and the test, written so that NaN
# fails it.
_FINITE = ("finite", math.isfinite)
_NON_NEGATIVE = ("finite and >= 0", lambda v: 0 <= v < math.inf)
_POSITIVE = ("finite and > 0", lambda v: 0 < v < math.inf)
_UNIT_INTERVAL = ("in [0, 1]", lambda v: 0 <= v <= 1)
_COUNT = ("an integer >= 0", lambda v: isinstance(v, (int, np.integer))
          and not isinstance(v, bool) and v >= 0)
_NON_EMPTY = ("a non-empty sequence", lambda v: len(v) > 0)
_SCHEDULE = ("a non-empty sequence of booleans",
             lambda v: len(v) > 0 and all(isinstance(x, (bool, np.bool_)) for x in v))


def _point(n: int):
    return (f"{n} finite coordinates",
            lambda v: len(v) == n and all(map(math.isfinite, v)))


def _check_fields(obj, rule, *names) -> None:
    """Each named field of ``obj`` passes ``rule``, else a ValueError names
    the field and the rule; a value of the wrong type fails too."""
    text, test = rule
    for name in names:
        value = getattr(obj, name)
        try:
            ok = test(value)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"{name} must be {text}, got {value!r}")


@dataclass(frozen=True)
class UwbNoiseConfig:
    mean: float = 0.05
    std: float = 0.31
    outlier_rate: float = 0.1
    outlier_low: float = -30.0
    outlier_high: float = 30.0
    anchors_per_epoch: int = 4

    def __post_init__(self):
        _check_fields(self, _FINITE, "mean", "outlier_low", "outlier_high")
        _check_fields(self, _NON_NEGATIVE, "std")
        _check_fields(self, _UNIT_INTERVAL, "outlier_rate")
        _check_fields(self, _COUNT, "anchors_per_epoch")
        if not self.outlier_low < self.outlier_high:
            raise ValueError(f"outlier_low must be < outlier_high, got "
                             f"{self.outlier_low!r} and {self.outlier_high!r}")


@dataclass(frozen=True)
class GnssNoiseConfig:
    sigma_pseudorange: float = 7.8
    nlos_bias_mean: float = 13.0

    def __post_init__(self):
        _check_fields(self, _NON_NEGATIVE, "sigma_pseudorange", "nlos_bias_mean")


@dataclass(frozen=True)
class OdometryNoiseConfig:
    sigma_speed: float = 0.1
    sigma_heading: float = 0.05

    def __post_init__(self):
        _check_fields(self, _NON_NEGATIVE, "sigma_speed", "sigma_heading")


@dataclass(frozen=True)
class SatelliteSpec:
    """Fixed satellite direction plus a cyclic LOS/NLOS schedule per GNSS epoch."""

    id: str
    position: tuple[float, float, float]
    visibility: tuple[bool, ...] = (True,)  # True = LOS

    def __post_init__(self):
        _check_fields(self, _point(3), "position")
        _check_fields(self, _SCHEDULE, "visibility")

    def los_at(self, epoch: int) -> bool:
        return self.visibility[epoch % len(self.visibility)]


@dataclass(frozen=True)
class Trajectory:
    """Static pose or a closed circular course at constant speed."""

    kind: str  # "static" | "circuit"
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 25.0
    speed: float = 5.0
    height: float = 0.0

    def __post_init__(self):
        if self.kind not in ("static", "circuit"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        _check_fields(self, _point(3), "position")
        _check_fields(self, _point(2), "center")
        _check_fields(self, _FINITE, "height")
        _check_fields(self, _NON_NEGATIVE, "speed")
        if self.kind == "circuit":
            _check_fields(self, _POSITIVE, "radius")

    def pose(self, t: float) -> tuple[np.ndarray, float, float]:
        """Returns (position_3d, speed, heading) at time t."""
        if self.kind == "static" or self.speed == 0.0:
            pos = (np.asarray(self.position) if self.kind == "static"
                   else np.array([self.center[0] + self.radius, self.center[1],
                                  self.height]))
            return pos, 0.0, 0.0
        omega = self.speed / self.radius
        phase = omega * t
        pos = np.array([
            self.center[0] + self.radius * math.cos(phase),
            self.center[1] + self.radius * math.sin(phase),
            self.height,
        ])
        heading = float(wrap_angle(phase + math.pi / 2.0))
        return pos, self.speed, heading


@dataclass(frozen=True)
class Scenario:
    grid: GridSpec
    anchors: tuple[ReferencePoint, ...]
    satellites: tuple[SatelliteSpec, ...]
    trajectory: Trajectory
    duration: float
    gnss_rate: float = 1.0
    uwb_rate: float = 1.0
    odometry_rate: float = 5.0
    uwb_noise: UwbNoiseConfig = dc_field(default_factory=UwbNoiseConfig)
    gnss_noise: GnssNoiseConfig = dc_field(default_factory=GnssNoiseConfig)
    odometry_noise: OdometryNoiseConfig = dc_field(default_factory=OdometryNoiseConfig)
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, _POSITIVE, "duration", "gnss_rate", "uwb_rate", "odometry_rate")
        _check_fields(self, _COUNT, "seed")
        _check_fields(self, _NON_EMPTY, "anchors")
        object.__setattr__(self, "anchors", tuple(self.anchors))
        ids = [a.id for a in self.anchors]
        for i, id_ in enumerate(ids):
            if id_ in ids[:i]:
                raise ValueError(f"anchors must be uniquely named, got id {id_!r} twice")
        object.__setattr__(self, "satellites", tuple(self.satellites))

    @property
    def n_gnss_epochs(self) -> int:
        return int(math.floor(self.duration * self.gnss_rate))

    @property
    def n_uwb_epochs(self) -> int:
        return int(math.floor(self.duration * self.uwb_rate))


@dataclass(frozen=True)
class GroundTruth:
    """Reference positions aligned with the emitted positioning timestamps."""

    times: np.ndarray
    positions: np.ndarray  # (N, 3)

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "positions",
                           np.asarray(self.positions, dtype=float))


def default_constellation(center_xy=(0.0, 0.0), n: int = 8,
                          nlos_ids: tuple[str, ...] = ()) -> tuple[SatelliteSpec, ...]:
    """Synthetic sky plot: n fixed directions on the MEO shell, elevations 15-75 deg."""
    sats = []
    for k in range(n):
        az = 2.0 * math.pi * k / n
        el = math.radians(15.0 + 60.0 * (k % 4) / 3.0)
        pos = (
            center_xy[0] + GNSS_ALTITUDE * math.cos(el) * math.sin(az),
            center_xy[1] + GNSS_ALTITUDE * math.cos(el) * math.cos(az),
            GNSS_ALTITUDE * math.sin(el),
        )
        sat_id = f"G{k + 1:02d}"
        vis = (False,) if sat_id in nlos_ids else (True,)
        sats.append(SatelliteSpec(sat_id, pos, vis))
    return tuple(sats)


def anchor_ring(center_xy=(0.0, 0.0), n: int = 11, radius: float = 15.0,
                height: float = 2.5) -> tuple[ReferencePoint, ...]:
    anchors = []
    for k in range(n):
        az = 2.0 * math.pi * k / n
        anchors.append(ReferencePoint(
            f"A{k + 1:02d}",
            (center_xy[0] + radius * math.cos(az),
             center_xy[1] + radius * math.sin(az),
             height + 0.5 * (k % 3))))
    return tuple(anchors)


def _uwb_range(true_range: float, cfg: UwbNoiseConfig,
               rng: np.random.Generator) -> float:
    if rng.random() < cfg.outlier_rate:
        return true_range + rng.uniform(cfg.outlier_low, cfg.outlier_high)
    return true_range + rng.normal(cfg.mean, cfg.std)


def _pseudorange(true_range: float, los: bool, cfg: GnssNoiseConfig,
                 rng: np.random.Generator) -> float:
    rho = true_range + rng.normal(0.0, cfg.sigma_pseudorange)
    if not los:
        rho += rng.exponential(cfg.nlos_bias_mean)
    return rho


def generate(scenario: Scenario) -> tuple[list[Observation], GroundTruth]:
    """Deterministic (seeded) event stream plus aligned ground truth."""
    rng = np.random.default_rng(scenario.seed)
    events: list[Observation] = []
    truth_times: list[float] = []
    truth_positions: list[np.ndarray] = []

    def record_truth(t: float, pos: np.ndarray) -> None:
        truth_times.append(t)
        truth_positions.append(pos)

    # GNSS epochs
    for k in range(scenario.n_gnss_epochs):
        t = (k + 1) / scenario.gnss_rate
        pos, _, _ = scenario.trajectory.pose(t)
        sats = []
        for sat in scenario.satellites:
            los = sat.los_at(k)
            true_range = float(np.linalg.norm(np.asarray(sat.position) - pos))
            rho = _pseudorange(true_range, los, scenario.gnss_noise, rng)
            sats.append(SatelliteObservation(sat.id, sat.position, rho,
                                             LOS if los else NLOS))
        events.append(Observation(t, GnssPseudoranges(tuple(sats))))
        record_truth(t, pos)

    # UWB epochs, phase-shifted to interleave with GNSS; anchors are polled
    # round-robin so coverage cycles through the whole deployment
    anchor_pos = np.asarray([a.position for a in scenario.anchors])
    n_anchors = len(scenario.anchors)
    n_sel = min(scenario.uwb_noise.anchors_per_epoch, n_anchors)
    for k in range(scenario.n_uwb_epochs):
        t = (k + 0.5) / scenario.uwb_rate
        pos, _, _ = scenario.trajectory.pose(t)
        dists = np.linalg.norm(anchor_pos - pos, axis=1)
        for i in range(n_sel):
            idx = (k * n_sel + i) % n_anchors
            z = _uwb_range(float(dists[idx]), scenario.uwb_noise, rng)
            events.append(Observation(t, Range(scenario.anchors[idx].id, z)))
            record_truth(t, pos)

    # Odometry stream
    n_odo = int(math.floor(scenario.duration * scenario.odometry_rate))
    for k in range(n_odo):
        t = (k + 0.25) / scenario.odometry_rate
        _, v, heading = scenario.trajectory.pose(t)
        v_meas = max(0.0, v + rng.normal(0.0, scenario.odometry_noise.sigma_speed))
        h_meas = float(wrap_angle(
            heading + rng.normal(0.0, scenario.odometry_noise.sigma_heading)))
        events.append(Observation(t, Odometry(v_meas, h_meas)))

    events.sort(key=lambda e: e.timestamp)
    order = np.argsort(truth_times, kind="stable")
    truth = GroundTruth(np.asarray(truth_times)[order],
                        np.asarray(truth_positions)[order])
    return events, truth


def make_static_scenario(n_epochs: int = 500, cell_size: float = 0.2,
                         extent_m: float = 30.0, seed: int = 0,
                         position=(1.3, -0.7, 0.0), n_anchors: int = 11,
                         nlos_sat_ids: tuple[str, ...] = (),
                         **overrides) -> Scenario:
    """Fixed pose; n_epochs counts GNSS + UWB measurement epochs combined."""
    check_cell_size(cell_size)
    half = extent_m / 2.0
    n_cells = int(round(extent_m / cell_size))
    grid = GridSpec((-half, -half), cell_size, (n_cells, n_cells))
    duration = float(math.ceil(n_epochs / 2.0))
    return Scenario(
        grid=grid,
        anchors=anchor_ring(n=n_anchors, radius=0.8 * half),
        satellites=default_constellation(nlos_ids=nlos_sat_ids),
        trajectory=Trajectory("static", position=tuple(position)),
        duration=duration,
        gnss_rate=1.0,
        uwb_rate=1.0,
        seed=seed,
        **overrides,
    )


def make_dynamic_scenario(n_gnss_epochs: int = 706, cell_size: float = 0.2,
                          extent_m: float = 40.0, speed: float = 5.0,
                          course_radius: float = 25.0, seed: int = 0,
                          gnss_uwb_ratio: float = 1411.0 / 655.0,
                          nlos_sat_ids: tuple[str, ...] = ("G02", "G05", "G07"),
                          **overrides) -> Scenario:
    """Closed circular course; GNSS:UWB epoch ratio defaults to the surveyed 1411:655.

    Defaults model the harsher driving environment: sparse UWB coverage (one
    polled anchor per epoch), noisier odometry and a partially shadowed sky.
    """
    check_cell_size(cell_size)
    overrides.setdefault("uwb_noise", UwbNoiseConfig(anchors_per_epoch=1))
    overrides.setdefault("odometry_noise",
                         OdometryNoiseConfig(sigma_speed=0.5, sigma_heading=0.2))
    half = extent_m / 2.0
    n_cells = int(round(extent_m / cell_size))
    # grid starts centered on the course start; the filter recenters as it moves
    grid = GridSpec((course_radius - half, -half), cell_size, (n_cells, n_cells))
    gnss_rate = 2.0
    duration = n_gnss_epochs / gnss_rate
    uwb_rate = gnss_rate / gnss_uwb_ratio
    return Scenario(
        grid=grid,
        anchors=anchor_ring(n=11, radius=course_radius + 8.0),
        satellites=default_constellation(nlos_ids=nlos_sat_ids),
        trajectory=Trajectory("circuit", center=(0.0, 0.0), radius=course_radius,
                              speed=speed),
        duration=duration,
        gnss_rate=gnss_rate,
        uwb_rate=uwb_rate,
        seed=seed,
        **overrides,
    )
