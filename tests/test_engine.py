import itertools
import math
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridfuse.engine import DEFAULT_BSSD_GMM, MAX_GAP, FilterConfig, FusionEngine, _tie_key
from gridfuse.geometry import ReferencePoint
from gridfuse.grid import GridSpec, init_uniform
from gridfuse.noise import GaussianModel, GmmModel
from gridfuse.observations import (LOS, NLOS, Angle, GnssPseudoranges, Observation,
                                   Odometry, Range, RangeDifference,
                                   SatelliteObservation)
from gridfuse.prediction import Transition, TransitionWorkspace, predict
from gridfuse.simulator import generate, make_dynamic_scenario
from gridfuse.update import PRODUCT, SUM, update_range

from fusion_reference import reference_combine

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
    eng = FusionEngine(SPEC, ANCHORS)
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
    "radius_nan": dict(estimate_radius=math.nan),
    "radius_below_cell": dict(estimate_radius=0.5 * SPEC.cell_size),
    "radius_negative_inf": dict(estimate_radius=-math.inf),
    "range_model_int": dict(range_model=3),
    "tdoa_model_none": dict(tdoa_model=None),
    "aoa_model_str": dict(aoa_model="gauss"),
    "bssd_gmm_gaussian": dict(bssd_gmm=GaussianModel(0.25, 3.6)),
    "bssd_gmm_two_components": dict(bssd_gmm=GmmModel((0.5, 0.5), (0.25, 13.09),
                                                       (13.06, 20.37))),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_invalid_config_raises_at_construction(name):
    with pytest.raises(ValueError):
        FusionEngine(SPEC, ANCHORS, FilterConfig(**BAD_CONFIGS[name]))


@pytest.mark.parametrize("name", sorted(set(BAD_CONFIGS) - {"radius_below_cell"}))
def test_invalid_config_raises_without_an_engine(name):
    """Every check but the radius's against the cell size needs no grid."""
    with pytest.raises(ValueError):
        FilterConfig(**BAD_CONFIGS[name])


def test_config_is_frozen():
    """A checked config cannot be made invalid after construction."""
    cfg = FilterConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.sigma_speed = -1.0
    assert cfg == FilterConfig()


def test_bssd_gmm_component_order_does_not_change_estimates():
    """The filter routes BSSD pairs by what each mixture component models, so
    all 24 orders of the survey mixture's components give the same bits on a
    short dynamic stream, whose epochs hold LOS and NLOS satellites."""
    scenario = make_dynamic_scenario(n_gnss_epochs=8, cell_size=0.5, seed=101)
    events, _ = generate(scenario)
    visibilities = {s.visibility for e in events
                    if isinstance(e.payload, GnssPseudoranges) for s in e.payload.satellites}
    assert visibilities == {LOS, NLOS}
    d = DEFAULT_BSSD_GMM
    runs = []
    for order in itertools.permutations(range(d.n_components)):
        gmm = GmmModel(*(tuple(v[c] for c in order)
                         for v in (d.weights, d.means, d.variances)))
        engine = FusionEngine(scenario.grid, scenario.anchors, FilterConfig(bssd_gmm=gmm))
        runs.append((engine.run(events), engine.field.mass))
    for estimates, mass in runs[1:]:
        assert estimates == runs[0][0]
        assert np.array_equal(mass, runs[0][1])


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
    eng = FusionEngine(SPEC, ANCHORS)
    events = ([gnss_obs(float(k + 1)) for k in range(4)]
              + [range_obs(k + 0.5, ANCHORS[k % 3]) for k in range(6)]
              + [Observation(k + 0.25, Odometry(0.0, 0.0)) for k in range(6)])
    ests = eng.run(events)
    assert len(ests) == 10
    assert [e.timestamp for e in ests] == sorted(e.timestamp for e in ests)


def test_same_timestamp_batch_matches_joint_product_update():
    """Zero time between events: sequential product updates == one joint update."""
    cfg = FilterConfig(combine_mode="product", range_model=GaussianModel(0.0, 1.0))
    eng = FusionEngine(SPEC, ANCHORS, cfg)
    t = 1.0
    for a in ANCHORS:
        eng.step(range_obs(t, a))

    from gridfuse.update import likelihood_range
    arrays = [likelihood_range(SPEC, range_obs(t, a).payload, a,
                               GaussianModel(0.0, 1.0)) for a in ANCHORS]
    joint = reference_combine(init_uniform(SPEC), arrays, PRODUCT)
    assert np.max(np.abs(eng.field.mass - joint.mass)) < 1e-9


def test_terrestrial_stream_is_the_same_in_both_modes():
    """``combine_mode`` only picks how a GNSS epoch combines its pairs: a
    range, TDoA, AoA and odometry stream gives the same bits in both modes."""
    rng = np.random.default_rng(5)

    def dist(a):
        return float(np.linalg.norm(np.asarray(a.position) - TRUTH))

    events = []
    for k in range(20):
        t = 0.25 * (k + 1)
        a, b = ANCHORS[k % 3], ANCHORS[(k + 1) % 3]
        bearing = math.atan2(a.position[1] - TRUTH[1], a.position[0] - TRUTH[0])
        events += [Observation(t, Range(a.id, dist(a) + rng.normal(0.0, 0.3))),
                   Observation(t + 0.05, RangeDifference(
                       a.id, b.id, dist(a) - dist(b) + rng.normal(0.0, 0.3))),
                   Observation(t + 0.1, Odometry(0.3, rng.uniform(-math.pi, math.pi))),
                   Observation(t + 0.15, Angle(a.id, bearing + rng.normal(0.0, 0.1)))]
    runs = {}
    for mode in (SUM, PRODUCT):
        eng = FusionEngine(SPEC, ANCHORS, FilterConfig(combine_mode=mode))
        runs[mode] = eng.run(events), eng.field.mass
    assert runs[SUM][0] == runs[PRODUCT][0]
    assert np.array_equal(runs[SUM][1], runs[PRODUCT][1])


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


@pytest.mark.parametrize("pos_a, pos_b", [
    ((3.0e5, 5.4e6, 2.0), (3.0e5, 5.4e6 + 30.0, 2.0)),
    ((50.0, 0.0, 2.0), (50.0004, 0.0, 2.0)),
], ids=["projected_frame_30m", "sub_millimetre_at_50m"])
def test_tdoa_between_distinct_positions_admitted(pos_a, pos_b):
    """Only references at one position have no range difference, whatever
    the scale of the coordinates."""
    refs = [ReferencePoint("P1", pos_a), ReferencePoint("P2", pos_b)]
    grid = GridSpec((pos_a[0] - 10.0, pos_a[1] - 10.0), 1.0, (21, 41))
    eng = FusionEngine(grid, refs)
    obs = Observation(1.0, RangeDifference("P1", "P2", 0.0))
    assert eng.admit(obs) is None
    assert eng.step(obs) is not None and not eng.rejected


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
    """A motion kernel with no cell within 6 sigma of its mean restarts the
    posterior uniform, and the event's own update still applies."""
    eng = FusionEngine(SPEC, ANCHORS)
    rng = range_obs(0.5, ANCHORS[0])
    ests = eng.run([Observation(0.1, Odometry(100.0, 0.0)), rng])
    assert eng.reinit_count == 1 and len(ests) == 1
    expected = update_range(init_uniform(SPEC), rng.payload, ANCHORS[0],
                            eng.config.range_model)
    assert np.array_equal(eng.field.mass, expected.mass)


def test_collapse_applying_pending_kernel_reinitializes():
    """Odometry far too fast for the grid leaves the pending transition no
    kernel: at 1000 m/s its mean lies beyond 6 sigma of every cell, at 1e200 m/s
    its moments overflow. The fix that applies it restarts from a uniform
    field, counted and without a warning, and still updates; a stream that
    ends in such odometry ends uniform."""
    for speed, heading in ((1000.0, 0.0), (1e200, 0.3)):
        eng = FusionEngine(SPEC, ANCHORS)
        fix = range_obs(0.5, ANCHORS[0])
        eng.run([range_obs(0.1, ANCHORS[1]), Observation(0.2, Odometry(speed, heading)),
                 Observation(0.3, Odometry(speed, heading)), fix])
        assert eng.reinit_count == 1 and eng.pending is None
        expected = update_range(init_uniform(SPEC), fix.payload, ANCHORS[0],
                                eng.config.range_model)
        assert np.array_equal(eng.field.mass, expected.mass)

        eng.run([Observation(0.6, Odometry(speed, heading))])
        assert eng.reinit_count == 2
        assert np.array_equal(eng.field.mass, init_uniform(SPEC).mass)


def _far_satellites(obs, n):
    """The GNSS event ``obs`` with its first ``n`` satellites moved to
    x = 1e200 m and beyond, whose squared distances overflow."""
    sats = tuple(replace(s, position=(1e200 * (k + 1), 0.0, 2e7)) if k < n else s
                 for k, s in enumerate(obs.payload.satellites))
    return Observation(obs.timestamp, GnssPseudoranges(sats))


# Admitted events with huge finite values: a maker taking the timestamp, and
# the reinit count in sum and in product mode. An overflowing square is
# +inf, whose density is 0; in sum mode the other satellites' pairs keep
# their mass, and two infinite distances give NaN, which collapses.
HUGE_EVENTS = {
    "range_huge": (lambda t: Observation(t, Range("A1", 1e300)), (1, 1)),
    "range_huge_negative": (lambda t: Observation(t, Range("A2", -1e300)), (1, 1)),
    "tdoa_huge": (lambda t: Observation(t, RangeDifference("A1", "A2", 1e300)), (1, 1)),
    "pseudorange_huge": (lambda t: _with_satellite(gnss_obs(t), pseudorange=1e300),
                         (0, 1)),
    # A satellite whose distances overflow is left out of the epoch's pairs.
    "satellite_far": (lambda t: _far_satellites(gnss_obs(t), 1), (0, 0)),
    "two_satellites_far": (lambda t: _far_satellites(gnss_obs(t), 2), (0, 0)),
}


@pytest.mark.parametrize("mode", [SUM, PRODUCT])
@pytest.mark.parametrize("kind", sorted(HUGE_EVENTS))
def test_huge_finite_values_collapse_without_warning(kind, mode):
    """Each event either keeps a usable posterior or collapses and
    reinitialises, counted; none raises a numpy warning, and the field stays
    finite and normalised."""
    make, reinits = HUGE_EVENTS[kind]
    eng = FusionEngine(SPEC, ANCHORS, FilterConfig(combine_mode=mode))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ests = eng.run([range_obs(0.5, ANCHORS[0]), make(1.0)])
    assert len(ests) == 2 and not eng.rejected
    assert eng.reinit_count == reinits[mode == PRODUCT]
    assert np.all(np.isfinite(eng.field.mass))
    assert abs(eng.field.mass.sum() - 1.0) < 1e-12


def test_run_ending_in_odometry_predicts_to_last_timestamp():
    """``run`` applies the transition still pending after the last fix, so the
    field is one prediction through the composed steps to the last event's
    time."""
    cfg = FilterConfig(range_model=GaussianModel(0.0, 0.3))
    fixes = [range_obs(0.1 * (k + 1), ANCHORS[k % 3]) for k in range(6)]
    odometry = [Observation(0.7, Odometry(2.0, 0.5)),
                Observation(0.9, Odometry(1.0, -0.4))]
    at_last_fix = FusionEngine(SPEC, ANCHORS, cfg)
    at_last_fix.run(fixes)
    eng = FusionEngine(SPEC, ANCHORS, cfg)
    assert eng.run(fixes + odometry) == at_last_fix.estimates
    assert eng.last_timestamp == 0.9 and eng.pending is None

    random_walk = Transition.random_walk(0.1, cfg.sigma_rw)
    moving = Transition.odometry(2.0, 0.5, 0.2, cfg.sigma_speed, cfg.sigma_heading)
    pending = random_walk.then(moving)
    expected = predict(at_last_fix.field, pending, TransitionWorkspace(SPEC)).mass
    assert not np.allclose(eng.field.mass, at_last_fix.field.mass)
    assert np.max(np.abs(eng.field.mass - expected)) <= 1e-12 * expected.max()


def test_step_rejects_unknown_anchor():
    eng = FusionEngine(SPEC, ANCHORS)
    unknown = Observation(0.0, Range("A99", 3.0))
    assert eng.step(unknown) is None
    assert eng.rejected == [(unknown, "UnknownAnchor")]
    assert eng.last_timestamp is None and not eng.estimates


def test_likelihood_collapse_reinitializes():
    cfg = FilterConfig(combine_mode="product", range_model=GaussianModel(0.0, 1e-3))
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
                       FilterConfig(range_model=GaussianModel(0.0, 0.3)))
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
                       FilterConfig(range_model=GaussianModel(0.0, 0.2)))
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


# A 21 x 17-cell grid for arbitrary streams; the anchors sit near its corners
# and borders, so short ranges pull the MAP cell to a border and recentre.
FUZZ_SPEC = GridSpec((-10.0, -8.0), 1.0, (21, 17))


# Makers of one event at time t from a drawn value, by kind; the invalid ones
# come from BAD_EVENTS.
FUZZ_EVENTS = {
    "range": (st.floats(0.0, 40.0), lambda t, v, a: Range(a, v)),
    "range_to_border": (st.floats(0.0, 2.0), lambda t, v, a: Range(a, v)),
    "range_collapse": (st.just(1e6), lambda t, v, a: Range(a, v)),
    "tdoa": (st.floats(-20.0, 20.0), lambda t, v, a: RangeDifference("A2", "A3", v)),
    "aoa": (st.floats(-math.pi, math.pi), lambda t, v, a: Angle(a, v)),
    "odometry": (st.floats(0.0, 5.0), lambda t, v, a: Odometry(v, 0.7)),
    "odometry_huge": (st.just(1e300), lambda t, v, a: Odometry(v, 0.3)),
    "gnss": (st.none(), lambda t, v, a: gnss_obs(t).payload),
    "gnss_empty": (st.none(), lambda t, v, a: GnssPseudoranges(())),
    "gnss_all_nlos": (st.none(), lambda t, v, a: GnssPseudoranges(tuple(
        replace(s, visibility=NLOS) for s in gnss_obs(t).payload.satellites))),
    **{f"bad_{kind}": (st.none(), lambda t, v, a, make=make: make(t).payload)
       for kind, (make, _) in BAD_EVENTS.items()},
}


@st.composite
def event_streams(draw):
    """Events in arrival order: time steps of zero, short, beyond ``MAX_GAP``
    or backwards, and events repeated as they arrive."""
    t, events = 0.0, []
    for _ in range(draw(st.integers(1, 25))):
        t += draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0),
                            st.floats(MAX_GAP + 0.01, 3 * MAX_GAP), st.floats(-5.0, -0.01)))
        values, make = FUZZ_EVENTS[draw(st.sampled_from(sorted(FUZZ_EVENTS)))]
        anchor = draw(st.sampled_from(["A1", "A2", "A3"]))
        obs = Observation(t, make(t, draw(values), anchor))
        events += [obs] * draw(st.integers(1, 2))
    return events


@pytest.mark.parametrize("mode", [SUM, PRODUCT])
@settings(max_examples=60, deadline=None)
@given(events=event_streams())
def test_arbitrary_event_stream_keeps_a_normalised_field(mode, events):
    """Whatever the stream, ``step`` does not raise, the field stays finite,
    non-negative and normalised after every step, and each positioning event
    is either rejected or gives an estimate."""
    eng = FusionEngine(FUZZ_SPEC, ANCHORS, FilterConfig(combine_mode=mode))
    for obs in events:
        rejected = len(eng.rejected)
        est = eng.step(obs)
        mass = eng.field.mass
        assert np.all(np.isfinite(mass)) and np.all(mass >= 0.0)
        assert abs(mass.sum() - 1.0) <= 1e-12
        if len(eng.rejected) > rejected:
            assert eng.rejected[-1][0] is obs and est is None
        else:
            assert (est is None) == isinstance(obs.payload, Odometry)
