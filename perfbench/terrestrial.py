"""Seeded indoor UWB-only event stream: range, TDoA and AoA fixes plus odometry.

The gridfuse simulator emits no TDoA or AoA, so this generator draws them
itself from a ``simulator.Trajectory`` and a ``simulator.anchor_ring``. Every
noise draw goes through ``noise.sample`` of the ``FilterConfig`` default models,
so the simulated errors match what the filter assumes.
"""

from __future__ import annotations

import math

import numpy as np

from gridfuse import FilterConfig, GaussianModel, GridSpec, sample
from gridfuse.geometry import wrap_angle
from gridfuse.observations import Angle, Observation, Odometry, Range, RangeDifference
from gridfuse.simulator import GroundTruth, Trajectory, anchor_ring

CELL_SIZE = 0.1
EXTENT = (240, 240)
FIX_RATE = 4.0       # Hz; the fix type rotates range -> TDoA -> AoA
ODOMETRY_RATE = 10.0  # Hz
N_ANCHORS = 8
ANCHOR_RADIUS = 10.0
COURSE_RADIUS = 6.0
SPEED = 1.5
TDOA_PARTNER_STEP = 3  # TDoA pairs anchor k with anchor k + 3 (mod 8)


def grid() -> GridSpec:
    half = CELL_SIZE * EXTENT[0] / 2.0
    return GridSpec((-half, -half), CELL_SIZE, EXTENT)


def anchors():
    return anchor_ring(n=N_ANCHORS, radius=ANCHOR_RADIUS)


def trajectory() -> Trajectory:
    return Trajectory("circuit", radius=COURSE_RADIUS, speed=SPEED)


def generate(n_fixes: int, seed: int) -> tuple[list[Observation], GroundTruth]:
    """``n_fixes`` positioning events at FIX_RATE plus odometry over the same span.

    Fix times (k + 0.5) / 4 and odometry times (k + 0.5) / 10 never coincide.
    """
    cfg = FilterConfig()
    speed_noise = GaussianModel(0.0, cfg.sigma_speed)
    heading_noise = GaussianModel(0.0, cfg.sigma_heading)
    rng = np.random.default_rng(seed)
    refs = anchors()
    ref_xyz = np.asarray([a.position for a in refs])
    course = trajectory()

    events: list[Observation] = []
    truth_times, truth_positions = [], []
    for k in range(n_fixes):
        t = (k + 0.5) / FIX_RATE
        pos, _, _ = course.pose(t)
        a = k % N_ANCHORS
        dist = np.linalg.norm(ref_xyz - pos, axis=1)
        kind = k % 3
        if kind == 0:
            z = dist[a] + sample(cfg.range_model, rng)
            payload = Range(refs[a].id, float(z))
        elif kind == 1:
            b = (a + TDOA_PARTNER_STEP) % N_ANCHORS
            z = dist[a] - dist[b] + sample(cfg.tdoa_model, rng)
            payload = RangeDifference(refs[a].id, refs[b].id, float(z))
        else:
            bearing = math.atan2(ref_xyz[a, 1] - pos[1], ref_xyz[a, 0] - pos[0])
            z = wrap_angle(bearing + sample(cfg.aoa_model, rng))
            payload = Angle(refs[a].id, float(z))
        events.append(Observation(t, payload))
        truth_times.append(t)
        truth_positions.append(pos)

    t_end = n_fixes / FIX_RATE
    for k in range(int(math.floor(t_end * ODOMETRY_RATE))):
        t = (k + 0.5) / ODOMETRY_RATE
        _, v, heading = course.pose(t)
        v_meas = max(0.0, v + sample(speed_noise, rng))
        h_meas = float(wrap_angle(heading + sample(heading_noise, rng)))
        events.append(Observation(t, Odometry(v_meas, h_meas)))

    events.sort(key=lambda e: e.timestamp)
    return events, GroundTruth(np.asarray(truth_times), np.asarray(truth_positions))
