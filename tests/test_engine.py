import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridfuse.engine import FilterConfig, FusionEngine, _tie_key
from gridfuse.geometry import ReferencePoint
from gridfuse.grid import GridSpec, init_uniform
from gridfuse.noise import GaussianModel
from gridfuse.observations import (LOS, Angle, GnssPseudoranges, Observation,
                                   Odometry, Range, RangeDifference,
                                   SatelliteObservation)
from gridfuse.prediction import MotionInput, TransitionWorkspace, predict
from gridfuse.update import bssd_pair_likelihoods, combine, update_range

SPEC = GridSpec((-10.0, -10.0), 1.0, (21, 21))
ANCHORS = [
    ReferencePoint("A1", (-9.0, -9.0, 2.0)),
    ReferencePoint("A2", (9.0, -9.0, 2.0)),
    ReferencePoint("A3", (0.0, 9.0, 2.0)),
    ReferencePoint("A4", (-9.0, -9.0, 2.0)),  # co-located with A1
]
TRUTH = np.array([1.0, 2.0, 0.0])


def range_obs(t, anchor):
    z = float(np.linalg.norm(np.asarray(anchor.position) - TRUTH))
    return Observation(t, Range(anchor.id, z))


def gnss_obs(t):
    sat_pos = [(2e7, 0, 1.2e7), (-1.3e7, 1e7, 1.5e7), (0, -1.8e7, 1e7)]
    sats = tuple(
        SatelliteObservation(f"G{k}", p,
                             float(np.linalg.norm(np.asarray(p) - TRUTH)), LOS)
        for k, p in enumerate(sat_pos))
    return Observation(t, GnssPseudoranges(sats))


def test_out_of_sequence_rejected():
    eng = FusionEngine(SPEC, ANCHORS)
    eng.step(range_obs(5.0, ANCHORS[0]))
    late = range_obs(4.0, ANCHORS[1])
    assert eng.admit(late) == "OutOfSequence"
    assert eng.admit(range_obs(5.0, ANCHORS[1])) is None  # equal time is fine
    assert eng.step(late) is None
    assert eng.rejected == [(late, "OutOfSequence")]
    assert eng.last_timestamp == 5.0 and len(eng.estimates) == 1


def test_gap_flags_reinit_recommended(caplog):
    eng = FusionEngine(SPEC, ANCHORS, FilterConfig(max_gap=10.0))
    eng.step(range_obs(0.0, ANCHORS[0]))
    eng.step(range_obs(5.0, ANCHORS[1]))
    assert "reinitialization recommended" not in caplog.text
    eng.step(range_obs(15.5, ANCHORS[2]))
    assert "gap > 10.0 s before t=15.500; reinitialization recommended" in caplog.text
    assert not eng.rejected and len(eng.estimates) == 3


def test_repeated_anchor_id_raises():
    moved = ReferencePoint("A1", (5.0, 5.0, 2.0))
    with pytest.raises(ValueError, match="'A1'"):
        FusionEngine(SPEC, [*ANCHORS, moved])


# Configurations the filter cannot run with, each rejected at construction.
BAD_CONFIGS = {
    "combine_mode": dict(combine_mode="prod"),
    "sigma_speed_nan": dict(sigma_speed=math.nan),
    "sigma_speed_zero": dict(sigma_speed=0.0),
    "sigma_heading_inf": dict(sigma_heading=math.inf),
    "sigma_heading_negative": dict(sigma_heading=-0.2),
    "sigma_rw_nan": dict(sigma_rw=math.nan),
    "max_gap_nan": dict(max_gap=math.nan),
    "max_gap_zero": dict(max_gap=0.0),
    "radius_nan": dict(estimate_radius=math.nan),
    "radius_below_cell": dict(estimate_radius=0.5 * SPEC.cell_size),
    "radius_negative_inf": dict(estimate_radius=-math.inf),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_invalid_config_raises_at_construction(name):
    with pytest.raises(ValueError):
        FusionEngine(SPEC, ANCHORS, FilterConfig(**BAD_CONFIGS[name]))


@pytest.mark.parametrize("radius", [None, math.inf, SPEC.cell_size])
def test_valid_estimate_radius_accepted(radius):
    FusionEngine(SPEC, ANCHORS, FilterConfig(estimate_radius=radius))


def test_run_logs_rejections_for_unsorted_duplicates(caplog):
    # run() sorts, so only manual stepping can go backwards
    eng = FusionEngine(SPEC, ANCHORS)
    eng.step(range_obs(2.0, ANCHORS[0]))
    events = [range_obs(1.0, ANCHORS[1])]
    eng.run(events)
    assert len(eng.rejected) == 1
    assert eng.rejected[0][1] == "OutOfSequence"


def test_odometry_only_stream_emits_no_estimates():
    eng = FusionEngine(SPEC, ANCHORS)
    events = [Observation(t, Odometry(1.0, 0.0)) for t in (0.2, 0.4, 0.6)]
    assert eng.run(events) == []
    assert eng.motion is not None and eng.motion.speed == 1.0


def test_positioning_event_counting():
    eng = FusionEngine(SPEC, ANCHORS, FilterConfig(recenter_enabled=False))
    events = ([gnss_obs(float(k + 1)) for k in range(4)]
              + [range_obs(k + 0.5, ANCHORS[k % 3]) for k in range(6)]
              + [Observation(k + 0.25, Odometry(0.0, 0.0)) for k in range(6)])
    ests = eng.run(events)
    assert len(ests) == 10
    assert [e.timestamp for e in ests] == sorted(e.timestamp for e in ests)


def test_same_timestamp_batch_matches_joint_product_update():
    """Zero time between events: sequential product updates == one joint update."""
    cfg = FilterConfig(combine_mode="product", recenter_enabled=False,
                       range_model=GaussianModel(0.0, 1.0))
    eng = FusionEngine(SPEC, ANCHORS, cfg)
    t = 1.0
    for a in ANCHORS:
        eng.step(range_obs(t, a))

    from gridfuse.update import likelihood_range
    arrays = [likelihood_range(SPEC, range_obs(t, a).payload, a,
                               GaussianModel(0.0, 1.0)) for a in ANCHORS]
    joint = combine(init_uniform(SPEC), arrays, mode="product")
    assert np.max(np.abs(eng.field.mass - joint.mass)) < 1e-9


def test_tie_break_order_gnss_before_terrestrial_before_odometry():
    events = [Observation(1.0, Odometry(0.0, 0.0)),
              range_obs(1.0, ANCHORS[0]),
              gnss_obs(1.0)]
    ordered = sorted(events, key=_tie_key)
    assert isinstance(ordered[0].payload, GnssPseudoranges)
    assert isinstance(ordered[1].payload, Range)
    assert isinstance(ordered[2].payload, Odometry)


def test_run_is_deterministic_and_order_insensitive():
    events = ([gnss_obs(float(k + 1)) for k in range(3)]
              + [range_obs(k + 0.5, ANCHORS[k % 3]) for k in range(4)]
              + [Observation(k + 0.25, Odometry(0.5, 0.1)) for k in range(4)])
    rng = np.random.default_rng(0)
    shuffled = list(events)
    rng.shuffle(shuffled)
    e1 = FusionEngine(SPEC, ANCHORS).run(events)
    e2 = FusionEngine(SPEC, ANCHORS).run(shuffled)
    assert len(e1) == len(e2)
    for a, b in zip(e1, e2):
        assert a == b


def _with_satellite(obs, **change):
    """The GNSS event ``obs`` with its first satellite's fields replaced."""
    first, *rest = obs.payload.satellites
    return Observation(obs.timestamp,
                       GnssPseudoranges((replace(first, **change), *rest)))


# Invalid events: a maker taking the timestamp, and the reason admit gives.
BAD_EVENTS = {
    "range_nan": (lambda t: Observation(t, Range("A1", math.nan)), "NonFinite"),
    "angle_inf": (lambda t: Observation(t, Angle("A2", math.inf)), "NonFinite"),
    "tdoa_nan": (lambda t: Observation(t, RangeDifference("A1", "A2", math.nan)),
                 "NonFinite"),
    "pseudorange_nan": (lambda t: _with_satellite(gnss_obs(t), pseudorange=math.nan),
                        "NonFinite"),
    "satellite_position_inf": (
        lambda t: _with_satellite(gnss_obs(t), position=(math.inf, 0.0, 2e7)),
        "NonFinite"),
    "speed_nan": (lambda t: Observation(t, Odometry(math.nan, 0.0)), "NonFinite"),
    "heading_inf": (lambda t: Observation(t, Odometry(1.0, -math.inf)), "NonFinite"),
    "range_unknown_anchor": (lambda t: Observation(t, Range("A99", 3.0)),
                             "UnknownAnchor"),
    "tdoa_unknown_anchor": (lambda t: Observation(t, RangeDifference("A1", "A99", 1.0)),
                            "UnknownAnchor"),
    "angle_unknown_anchor": (lambda t: Observation(t, Angle("B1", 0.3)),
                             "UnknownAnchor"),
    "negative_speed": (lambda t: Observation(t, Odometry(-1.0, 0.0)), "NegativeSpeed"),
    "tdoa_same_reference": (lambda t: Observation(t, RangeDifference("A2", "A2", 0.0)),
                            "CoincidentReferences"),
    "satellite_duplicate_id": (lambda t: _with_satellite(gnss_obs(t), sat_id="G1"),
                               "DuplicateSatellite"),
    "tdoa_colocated_references": (
        lambda t: Observation(t, RangeDifference("A1", "A4", 0.0)),
        "CoincidentReferences"),
}


def clean_stream():
    """Noiseless GNSS, range, TDoA, AoA and odometry events around TRUTH."""
    def dist(a):
        return float(np.linalg.norm(np.asarray(a.position) - TRUTH))

    events = []
    for k in range(6):
        t = 0.5 * (k + 1)
        a, b = ANCHORS[k % 3], ANCHORS[(k + 1) % 3]
        bearing = math.atan2(a.position[1] - TRUTH[1], a.position[0] - TRUTH[0])
        events += [gnss_obs(t), range_obs(t + 0.1, a),
                   Observation(t + 0.2, RangeDifference(a.id, b.id, dist(a) - dist(b))),
                   Observation(t + 0.25, Odometry(0.2, 0.1)),
                   Observation(t + 0.3, Angle(a.id, bearing))]
    return events


@pytest.mark.parametrize("kind", sorted(BAD_EVENTS))
def test_run_rejects_invalid_event_with_reason(kind):
    make, reason = BAD_EVENTS[kind]
    bad = make(1.0)
    eng = FusionEngine(SPEC, ANCHORS)
    assert eng.admit(bad) == reason
    ests = eng.run([range_obs(0.5, ANCHORS[0]), bad, range_obs(1.5, ANCHORS[1])])
    assert len(ests) == 2 and len(eng.rejected) == 1
    assert eng.rejected[0][0] is bad and eng.rejected[0][1] == reason


@pytest.fixture(scope="module")
def clean_run():
    events = clean_stream()
    eng = FusionEngine(SPEC, ANCHORS)
    return events, eng.run(events), eng.field.mass


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(BAD_EVENTS)),
                          st.floats(min_value=0.0, max_value=4.0)),
                min_size=1, max_size=8),
       st.randoms(use_true_random=False),
       st.booleans())
def test_invalid_events_leave_no_trace(clean_run, inserts, rnd, by_step):
    """Invalid events anywhere in a valid stream are rejected with their
    reason, and the estimates and final posterior stay bit-identical to the
    clean stream's, whether ``run`` takes the stream or it is stepped in
    ``run``'s order and closed by ``run([])``."""
    clean, clean_estimates, clean_mass = clean_run
    bad = [(BAD_EVENTS[kind][0](t), BAD_EVENTS[kind][1]) for kind, t in inserts]
    events = list(clean)
    for obs, _ in bad:
        events.insert(rnd.randrange(len(events) + 1), obs)
    eng = FusionEngine(SPEC, ANCHORS)
    if by_step:
        for obs in sorted(events, key=_tie_key):
            eng.step(obs)
        ests = eng.run([])
    else:
        ests = eng.run(events)
    assert {id(o): r for o, r in eng.rejected} == {id(o): r for o, r in bad}
    assert ests == clean_estimates
    assert np.array_equal(eng.field.mass, clean_mass)


def test_prediction_collapse_reinitializes():
    """A motion kernel that underflows everywhere restarts the posterior
    uniform, and the event's own update still applies."""
    eng = FusionEngine(SPEC, ANCHORS, FilterConfig(recenter_enabled=False))
    rng = range_obs(0.5, ANCHORS[0])
    ests = eng.run([Observation(0.1, Odometry(100.0, 0.0)), rng])
    assert eng.reinit_count == 1 and len(ests) == 1
    expected = update_range(init_uniform(SPEC), rng.payload, ANCHORS[0],
                            eng.config.range_model)
    assert np.array_equal(eng.field.mass, expected.mass)


def test_collapse_applying_pending_kernel_reinitializes():
    """Odometry far too fast for the grid underflows the composed kernel. The
    fix that applies it restarts from a uniform field, counted, and still
    updates; a stream that ends in such odometry ends uniform."""
    eng = FusionEngine(SPEC, ANCHORS, FilterConfig(recenter_enabled=False))
    fix = range_obs(0.5, ANCHORS[0])
    eng.run([range_obs(0.1, ANCHORS[1]), Observation(0.2, Odometry(1000.0, 0.0)),
             Observation(0.3, Odometry(1000.0, 0.0)), fix])
    assert eng.reinit_count == 1 and eng.pending is None
    expected = update_range(init_uniform(SPEC), fix.payload, ANCHORS[0],
                            eng.config.range_model)
    assert np.array_equal(eng.field.mass, expected.mass)

    eng.run([Observation(0.6, Odometry(1000.0, 0.0))])
    assert eng.reinit_count == 2
    assert np.array_equal(eng.field.mass, init_uniform(SPEC).mass)


def test_run_ending_in_odometry_predicts_to_last_timestamp():
    """``run`` applies the kernel still pending after the last fix, so the
    field is the step-by-step prediction to the last event's time."""
    cfg = FilterConfig(range_model=GaussianModel(0.0, 0.3), recenter_enabled=False)
    fixes = [range_obs(0.1 * (k + 1), ANCHORS[k % 3]) for k in range(6)]
    odometry = [Observation(0.7, Odometry(2.0, 0.5)),
                Observation(0.9, Odometry(1.0, -0.4))]
    at_last_fix = FusionEngine(SPEC, ANCHORS, cfg)
    at_last_fix.run(fixes)
    eng = FusionEngine(SPEC, ANCHORS, cfg)
    assert eng.run(fixes + odometry) == at_last_fix.estimates
    assert eng.last_timestamp == 0.9 and eng.pending is None

    ws = TransitionWorkspace(SPEC)
    random_walk = MotionInput(None, None, cfg.sigma_speed, cfg.sigma_heading, 0.1,
                              cfg.sigma_rw)
    moving = MotionInput(2.0, 0.5, cfg.sigma_speed, cfg.sigma_heading, 0.2, cfg.sigma_rw)
    expected = predict(predict(at_last_fix.field, random_walk, ws), moving, ws).mass
    assert not np.allclose(eng.field.mass, at_last_fix.field.mass)
    assert np.max(np.abs(eng.field.mass - expected)) <= 1e-12 * expected.max()


def test_step_rejects_unknown_anchor():
    eng = FusionEngine(SPEC, ANCHORS)
    unknown = Observation(0.0, Range("A99", 3.0))
    assert eng.step(unknown) is None
    assert eng.rejected == [(unknown, "UnknownAnchor")]
    assert eng.last_timestamp is None and not eng.estimates


def test_likelihood_collapse_reinitializes():
    cfg = FilterConfig(combine_mode="product", recenter_enabled=False,
                       range_model=GaussianModel(0.0, 1e-3))
    eng = FusionEngine(SPEC, ANCHORS, cfg)
    # measured range 1000 sigma away from every cell: product collapses to zero
    est = eng.step(Observation(0.0, Range("A1", 1000.0)))
    assert eng.reinit_count == 1
    assert np.allclose(eng.field.mass, 1.0 / SPEC.num_cells)
    assert est is not None


def test_reinit_step_does_not_recenter():
    """A collapsed update leaves a flat field whose argmax is cell 0, a grid
    corner; the grid must not walk toward it."""
    cfg = FilterConfig(combine_mode="product", range_model=GaussianModel(0.0, 1e-3))
    eng = FusionEngine(SPEC, ANCHORS, cfg)
    ests = eng.run([Observation(0.0, Range("A1", 1000.0))])
    assert eng.reinit_count == 1 and len(ests) == 1
    assert eng.field.spec.origin == SPEC.origin


def test_converges_near_truth_with_noiseless_ranges():
    eng = FusionEngine(SPEC, ANCHORS,
                       FilterConfig(range_model=GaussianModel(0.0, 0.3),
                                    recenter_enabled=False))
    ests = eng.run([range_obs(0.1 * (k + 1), ANCHORS[k % 3]) for k in range(12)])
    final = np.asarray(ests[-1].position)
    assert np.linalg.norm(final - TRUTH) <= SPEC.cell_size


def test_recenter_keeps_map_in_world_frame():
    spec = GridSpec((0.0, 0.0), 1.0, (15, 15))
    anchors = [ReferencePoint("B1", (0.0, 0.0, 2.0)),
               ReferencePoint("B2", (14.0, 0.0, 2.0)),
               ReferencePoint("B3", (7.0, 14.0, 2.0))]
    truth = np.array([14.0, 12.0, 0.0])  # on the grid border
    eng = FusionEngine(spec, anchors,
                       FilterConfig(range_model=GaussianModel(0.0, 0.3)))

    def obs(t, a):
        return Observation(t, Range(a.id, float(np.linalg.norm(
            np.asarray(a.position) - truth))))

    ests = eng.run([obs(0.1 * (k + 1), anchors[k % 3]) for k in range(9)])
    assert eng.field.spec.origin != spec.origin  # a recenter happened
    final = np.asarray(ests[-1].position)
    assert np.linalg.norm(final - truth) <= 1.5 * spec.cell_size


def test_zero_order_hold_motion_drives_prediction():
    eng = FusionEngine(SPEC, ANCHORS,
                       FilterConfig(range_model=GaussianModel(0.0, 0.2),
                                    recenter_enabled=False))
    for k in range(9):
        eng.step(range_obs(0.1 * (k + 1), ANCHORS[k % 3]))
    before = np.asarray(eng.estimates[-1].position)
    # heading east at 3 m/s, then a long silent interval; run applies the
    # pending 2-s prediction at the end of the stream
    eng.step(Observation(1.0, Odometry(3.0, 0.0)))
    eng.run([Observation(3.0, Odometry(3.0, 0.0))])
    drifted = int(np.argmax(eng.field.mass))
    pos = eng.field.spec.positions()[drifted]
    assert pos[0] - before[0] > 4.0  # moved roughly 6 m east
    assert abs(pos[1] - before[1]) <= 2.0
