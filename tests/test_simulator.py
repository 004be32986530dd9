import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from gridfuse.observations import (LOS, NLOS, GnssPseudoranges, Odometry, Range)
from gridfuse.simulator import (GnssNoiseConfig, OdometryNoiseConfig, SatelliteSpec,
                                Scenario, Trajectory, UwbNoiseConfig, anchor_ring,
                                default_constellation, generate,
                                make_dynamic_scenario, make_static_scenario)


def events_of_type(events, cls):
    return [e for e in events if isinstance(e.payload, cls)]


def test_seeded_generation_reproducible():
    sc = make_static_scenario(n_epochs=60, seed=13)
    ev1, tr1 = generate(sc)
    ev2, tr2 = generate(sc)
    assert ev1 == ev2
    assert np.array_equal(tr1.times, tr2.times)
    assert np.array_equal(tr1.positions, tr2.positions)
    ev3, _ = generate(make_static_scenario(n_epochs=60, seed=14))
    assert ev3 != ev1


def test_uwb_residual_moments():
    sc = make_static_scenario(
        n_epochs=2000, seed=0,
        uwb_noise=UwbNoiseConfig(outlier_rate=0.0, anchors_per_epoch=4))
    events, truth = generate(sc)
    anchors = {a.id: np.asarray(a.position) for a in sc.anchors}
    pos, _, _ = sc.trajectory.pose(0.0)
    resid = [e.payload.value - np.linalg.norm(anchors[e.payload.anchor_id] - pos)
             for e in events_of_type(events, Range)]
    resid = np.asarray(resid)
    assert np.mean(resid) == pytest.approx(0.05, abs=0.02)
    assert np.std(resid) == pytest.approx(0.31, abs=0.02)


def test_uwb_outlier_rate():
    sc = make_static_scenario(
        n_epochs=4000, seed=1,
        uwb_noise=UwbNoiseConfig(outlier_rate=0.1, anchors_per_epoch=4))
    events, _ = generate(sc)
    anchors = {a.id: np.asarray(a.position) for a in sc.anchors}
    pos, _, _ = sc.trajectory.pose(0.0)
    resid = np.asarray([
        e.payload.value - np.linalg.norm(anchors[e.payload.anchor_id] - pos)
        for e in events_of_type(events, Range)])
    frac = np.mean(np.abs(resid) > 2.0)
    # a uniform(-30, 30) outlier lands beyond 2 m about 93% of the time
    assert frac == pytest.approx(0.1 * (56.0 / 60.0), abs=0.02)


def bssd_residuals(n_epochs, seed, sat_a=0, sat_b=1):
    sc = make_static_scenario(n_epochs=n_epochs, seed=seed)
    events, _ = generate(sc)
    pos, _, _ = sc.trajectory.pose(0.0)
    sats = {s.id: np.asarray(s.position) for s in sc.satellites}
    out = []
    for e in events_of_type(events, GnssPseudoranges):
        obs = {s.sat_id: s.pseudorange for s in e.payload.satellites}
        ids = sorted(obs)
        a, b = ids[sat_a], ids[sat_b]
        true_sd = (np.linalg.norm(sats[a] - pos) - np.linalg.norm(sats[b] - pos))
        out.append((obs[a] - obs[b]) - true_sd)
    return np.asarray(out)


def test_bssd_single_difference_statistics():
    resid = np.concatenate([bssd_residuals(4000, s) for s in range(3)])
    sigma_sd = math.sqrt(2.0) * 7.8
    assert np.mean(resid) == pytest.approx(0.0, abs=0.4)
    assert np.std(resid) == pytest.approx(sigma_sd, rel=0.03)
    assert abs(stats.skew(resid)) < 0.06


def test_bssd_residuals_pass_normality_ks():
    resid = bssd_residuals(6000, 7)
    sigma_sd = math.sqrt(2.0) * 7.8
    _, p = stats.kstest(resid, "norm", args=(0.0, sigma_sd))
    assert p > 0.01


def test_nlos_satellites_flagged_and_biased():
    sc = make_static_scenario(n_epochs=3000, seed=2, nlos_sat_ids=("G01",))
    events, _ = generate(sc)
    pos, _, _ = sc.trajectory.pose(0.0)
    sats = {s.id: np.asarray(s.position) for s in sc.satellites}
    res = {True: [], False: []}
    for e in events_of_type(events, GnssPseudoranges):
        for s in e.payload.satellites:
            assert s.visibility == (NLOS if s.sat_id == "G01" else LOS)
            true_range = np.linalg.norm(sats[s.sat_id] - pos)
            res[s.sat_id == "G01"].append(s.pseudorange - true_range)
    # NLOS pseudoranges carry a strictly positive excess-delay bias
    assert np.mean(res[True]) - np.mean(res[False]) == pytest.approx(13.0, abs=1.0)


def test_round_robin_covers_all_anchors():
    sc = make_static_scenario(n_epochs=100, seed=3)
    events, _ = generate(sc)
    polled = {e.payload.anchor_id for e in events_of_type(events, Range)}
    assert polled == {a.id for a in sc.anchors}


def test_epoch_counting_and_truth_alignment():
    sc = make_static_scenario(n_epochs=120, seed=4)
    events, truth = generate(sc)
    n_gnss = len(events_of_type(events, GnssPseudoranges))
    n_uwb = len(events_of_type(events, Range))
    assert n_gnss == sc.n_gnss_epochs
    assert n_uwb == sc.n_uwb_epochs * sc.uwb_noise.anchors_per_epoch
    assert len(truth.times) == n_gnss + n_uwb
    assert np.all(np.diff(truth.times) >= 0)
    ts = [e.timestamp for e in events]
    assert ts == sorted(ts)


def test_dynamic_epoch_ratio_close_to_survey():
    sc = make_dynamic_scenario(n_gnss_epochs=706, seed=0)
    ratio = sc.n_gnss_epochs / sc.n_uwb_epochs
    assert abs(ratio - 1411.0 / 655.0) / (1411.0 / 655.0) < 0.01


def test_zero_speed_circuit_degenerates_to_static():
    traj = Trajectory("circuit", center=(2.0, 3.0), radius=10.0, speed=0.0)
    p0, v0, h0 = traj.pose(0.0)
    p9, v9, h9 = traj.pose(9.0)
    assert np.allclose(p0, p9) and v0 == v9 == 0.0 and h0 == h9


def test_circuit_kinematics():
    traj = Trajectory("circuit", center=(0.0, 0.0), radius=10.0, speed=5.0)
    p, v, h = traj.pose(0.0)
    assert np.allclose(p, [10.0, 0.0, 0.0]) and v == 5.0
    assert h == pytest.approx(math.pi / 2.0)
    # quarter lap later the pose has rotated 90 degrees
    t_quarter = (math.pi / 2.0) / (traj.speed / traj.radius)
    p2, _, h2 = traj.pose(t_quarter)
    assert np.allclose(p2, [0.0, 10.0, 0.0], atol=1e-9)
    assert h2 == pytest.approx(math.pi, abs=1e-9)
    # speed consistency: finite-difference of position matches the speed
    eps = 1e-4
    pa, _, _ = traj.pose(7.0)
    pb, _, _ = traj.pose(7.0 + eps)
    assert np.linalg.norm(pb - pa) / eps == pytest.approx(5.0, rel=1e-4)


def test_odometry_stream_tracks_trajectory():
    sc = make_dynamic_scenario(n_gnss_epochs=100, seed=5)
    events, _ = generate(sc)
    odos = events_of_type(events, Odometry)
    assert odos
    speeds = np.asarray([e.payload.speed for e in odos])
    assert np.mean(speeds) == pytest.approx(sc.trajectory.speed, abs=0.2)
    assert np.all(speeds >= 0.0)


def test_constellation_and_ring_layout():
    sats = default_constellation(n=8, nlos_ids=("G03",))
    assert len(sats) == 8 and len({s.id for s in sats}) == 8
    assert all((s.id == "G03") == (s.visibility == (False,)) for s in sats)
    for s in sats:
        assert s.position[2] > 5e6  # meaningfully elevated
    ring = anchor_ring(n=11, radius=12.0)
    assert len(ring) == 11
    radii = [math.hypot(a.position[0], a.position[1]) for a in ring]
    assert np.allclose(radii, 12.0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Trajectory("spiral")
    with pytest.raises(ValueError):
        make_static_scenario(n_epochs=0)


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("name", ["duration", "gnss_rate", "uwb_rate", "odometry_rate"])
def test_scenario_rejects_a_value_not_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        replace(make_static_scenario(n_epochs=2), **{name: value})


NAN, INF = math.nan, math.inf
SMALL_STATIC = make_static_scenario(n_epochs=2)
# (class, valid keyword arguments, field, bad values): every scenario section
# rejects each bad value of each field with a ValueError naming the field.
FIELD_CASES = [
    (Trajectory, dict(kind="static"), "position",
     [(NAN, 0.0, 0.0), (0.0, INF, 0.0), (0.0, 0.0), "abc", None]),
    (Trajectory, dict(kind="circuit"), "center", [(NAN, 0.0), (0.0, 0.0, 0.0)]),
    (Trajectory, dict(kind="circuit"), "height", [NAN, INF]),
    (Trajectory, dict(kind="circuit"), "radius", [0.0, -1.0, INF, NAN]),
    (Trajectory, dict(kind="static"), "speed", [-1.0, INF, NAN, "5"]),
    (GnssNoiseConfig, {}, "sigma_pseudorange", [-1.0, INF, NAN]),
    (GnssNoiseConfig, {}, "nlos_bias_mean", [-1.0, INF, NAN]),
    (OdometryNoiseConfig, {}, "sigma_speed", [-0.1, INF, NAN]),
    (OdometryNoiseConfig, {}, "sigma_heading", [-0.1, INF, NAN]),
    (UwbNoiseConfig, {}, "mean", [INF, -INF, NAN]),
    (UwbNoiseConfig, {}, "std", [-0.1, INF, NAN]),
    (UwbNoiseConfig, {}, "outlier_rate", [-0.1, 1.5, 2, NAN]),
    (UwbNoiseConfig, {}, "outlier_low", [-INF, NAN, 30.0, 31.0]),
    (UwbNoiseConfig, {}, "outlier_high", [INF, NAN, -30.0]),
    (UwbNoiseConfig, {}, "anchors_per_epoch", [2.5, 4.0, -1, True, "4"]),
    (SatelliteSpec, dict(id="G01", position=(1.0, 2.0, 3.0)), "position",
     [(NAN, 2.0, 3.0), (1.0, 2.0, INF), (1.0, 2.0)]),
    (SatelliteSpec, dict(id="G01", position=(1.0, 2.0, 3.0)), "visibility",
     [(), ("false",), (0, 1), (True, None)]),
    (Scenario, vars(SMALL_STATIC), "anchors",
     [(), SMALL_STATIC.anchors[:1] * 2]),
]


@pytest.mark.parametrize("cls, kwargs, name, value", [
    pytest.param(cls, kwargs, name, value, id=f"{cls.__name__}.{name}-{value!r}")
    for cls, kwargs, name, values in FIELD_CASES for value in values])
def test_scenario_section_rejects_a_bad_field(cls, kwargs, name, value):
    cls(**kwargs)  # valid as given
    with pytest.raises(ValueError, match="must be") as err:
        cls(**{**kwargs, name: value})
    assert name in str(err.value)


def test_scenario_names_a_repeated_anchor_id():
    anchors = SMALL_STATIC.anchors + SMALL_STATIC.anchors[1:2]
    with pytest.raises(ValueError, match="^anchors must be uniquely named, got id 'A02' twice$"):
        replace(SMALL_STATIC, anchors=anchors)


@pytest.mark.parametrize("seed", [1.5, -1, "1", None, True])
def test_scenario_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
        replace(make_static_scenario(n_epochs=2), seed=seed)


def test_scenario_sections_accept_their_edge_values():
    """Values in use stay valid: no outliers, a parked circuit, zero noise,
    numpy integers and booleans."""
    UwbNoiseConfig(outlier_rate=0.0, anchors_per_epoch=0)
    UwbNoiseConfig(outlier_rate=1.0, anchors_per_epoch=np.int64(2))
    Trajectory("circuit", speed=0.0)
    GnssNoiseConfig(0.0, 0.0)
    OdometryNoiseConfig(0.0, 0.0)
    SatelliteSpec("G01", (1.0, 2.0, 3.0), (np.bool_(False), True))
    replace(make_static_scenario(n_epochs=2), seed=np.int64(7))
