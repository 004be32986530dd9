"""End-to-end acceptance suite.

Each test exercises one release criterion and prints a single PASS/FAIL line;
the assertions carry the same condition so pytest reports match the printout.
"""

import functools
import math

import numpy as np
import pytest

from gridfuse.cli import EXIT_OK, main
from gridfuse.engine import FilterConfig, FusionEngine
from gridfuse.estimation import map_estimate
from gridfuse.fileio import read_gmm, write_residuals
from gridfuse.geometry import ReferencePoint
from gridfuse.grid import GridSpec, LikelihoodField, init_uniform
from gridfuse.metrics import error_series, summarize
from gridfuse.noise import GaussianModel, GmmModel, sample
from gridfuse.observations import (LOS, Angle, GnssPseudoranges, Observation,
                                   Odometry, Range, RangeDifference,
                                   SatelliteObservation)
from gridfuse.prediction import Transition, TransitionWorkspace, predict
from gridfuse.simulator import (generate, make_dynamic_scenario,
                                make_static_scenario)
from gridfuse.update import (PRODUCT, likelihood_range, update_aoa,
                             update_gnss_bssd, update_range, update_tdoa)

from fusion_reference import reference_combine

PAPER_GMM = GmmModel.from_unnormalized(
    weights=(0.42, 0.24, 0.24, 0.01),
    means=(0.25, 13.09, -12.61, -0.3),
    variances=(13.06, 20.37, 21.05, 142.89),
)


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number:02d}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def run_scenario(scenario):
    events, truth = generate(scenario)
    engine = FusionEngine(scenario.grid, scenario.anchors)
    estimates = engine.run(events)
    return summarize(error_series(estimates, truth))


@functools.lru_cache(maxsize=1)
def static_summary():
    return run_scenario(make_static_scenario(n_epochs=500, cell_size=0.2, seed=0))


def test_01_normalization_thousand_steps():
    """Every posterior over 1,000 mixed randomized steps sums to 1 +- 1e-9."""
    rng = np.random.default_rng(0)
    spec = GridSpec((-15.0, -15.0), 1.0, (30, 30))
    anchors = [ReferencePoint(f"A{i}", (rng.uniform(-14, 14),
                                        rng.uniform(-14, 14), 2.0))
               for i in range(6)]
    sats = [(2e7, 0, 1.2e7), (-1.3e7, 1e7, 1.5e7), (0, -1.8e7, 1e7),
            (1e7, 1.6e7, 0.9e7)]
    gmm = GmmModel((0.5, 0.25, 0.25), (0.0, 13.0, -13.0), (121.0, 20.25, 20.25))
    ws = TransitionWorkspace(spec)
    field = init_uniform(spec)
    worst = 0.0
    for step in range(1000):
        kind = rng.integers(5)
        if kind == 0:
            a = anchors[rng.integers(len(anchors))]
            obs = Range(a.id, rng.uniform(1.0, 40.0))
            field = update_range(field, obs, a, GaussianModel(0.0, 2.0))
        elif kind == 1:
            i, j = rng.choice(len(anchors), 2, replace=False)
            obs = RangeDifference(anchors[i].id, anchors[j].id,
                                  rng.uniform(-20.0, 20.0))
            field = update_tdoa(field, obs, anchors[i], anchors[j],
                                GaussianModel(0.0, 2.0))
        elif kind == 2:
            a = anchors[rng.integers(len(anchors))]
            field = update_aoa(field, Angle(a.id, rng.uniform(-np.pi, np.pi)),
                               a, GaussianModel(0.0, 0.3))
        elif kind == 3:
            obs = GnssPseudoranges(tuple(
                SatelliteObservation(f"G{k}", p,
                                     float(np.linalg.norm(p))
                                     + rng.normal(0, 7.8), LOS)
                for k, p in enumerate(sats)))
            field = update_gnss_bssd(field, obs, gmm)
        else:
            motion = Transition.odometry(rng.uniform(0.1, 3.0),
                                         rng.uniform(-np.pi, np.pi), 1.0, 0.5, 0.2)
            field = predict(field, motion, ws)
        worst = max(worst, abs(float(field.mass.sum()) - 1.0))
    report(1, "normalization over 1000 mixed steps", worst < 1e-9,
           f"worst |sum-1| = {worst:.2e}")


def test_02_oracle_equivalence_hundred_updates():
    """Vectorized single-observation posteriors match a naive per-cell loop."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        extent = (int(rng.integers(5, 21)), int(rng.integers(5, 21)))
        spec = GridSpec(tuple(rng.uniform(-10, 10, 2)),
                        float(rng.uniform(0.3, 1.5)), extent)
        prior = LikelihoodField(spec, rng.random(spec.num_cells) + 0.01)
        a = ReferencePoint("a", tuple(rng.uniform(-20, 20, 3)))
        b = ReferencePoint("b", tuple(rng.uniform(-20, 20, 3)))
        sigma = float(rng.uniform(0.3, 3.0))
        kind = rng.integers(3)

        def naive_like(gamma_fn, z, wrap=False):
            vals = []
            for i in range(spec.num_cells):
                y = z - gamma_fn(i)
                if wrap:
                    while y <= -math.pi:
                        y += 2 * math.pi
                    while y > math.pi:
                        y -= 2 * math.pi
                vals.append(math.exp(-0.5 * (y / sigma) ** 2)
                            / (sigma * math.sqrt(2 * math.pi)))
            return np.asarray(vals)

        def cell_xyz(i):
            x, y = spec.positions()[i]
            return np.array([x, y, spec.plane_height])

        # anchor measurements are drawn near an attainable value so the
        # likelihood keeps representable mass even for small sigma
        probe = cell_xyz(int(rng.integers(spec.num_cells)))
        if kind == 0:
            z = float(np.linalg.norm(np.asarray(a.position) - probe)
                      + rng.uniform(-sigma, sigma))
            post = update_range(prior, Range("a", z), a, GaussianModel(0.0, sigma))
            like = naive_like(lambda i: np.linalg.norm(np.asarray(a.position)
                                                       - cell_xyz(i)), z)
        elif kind == 1:
            z = float(np.linalg.norm(np.asarray(a.position) - probe)
                      - np.linalg.norm(np.asarray(b.position) - probe)
                      + rng.uniform(-sigma, sigma))
            post = update_tdoa(prior, RangeDifference("a", "b", z), a, b,
                               GaussianModel(0.0, sigma))
            like = naive_like(
                lambda i: (np.linalg.norm(np.asarray(a.position) - cell_xyz(i))
                           - np.linalg.norm(np.asarray(b.position) - cell_xyz(i))), z)
        else:
            z = float(rng.uniform(-np.pi, np.pi))
            post = update_aoa(prior, Angle("a", z), a, GaussianModel(0.0, sigma))
            like = naive_like(
                lambda i: math.atan2(a.position[1] - cell_xyz(i)[1],
                                     a.position[0] - cell_xyz(i)[0]), z, wrap=True)
        expected = like / like.sum() * prior.mass
        expected = expected / expected.sum()
        rel = np.max(np.abs(post.mass - expected) / np.maximum(expected, 1e-30))
        worst = max(worst, float(rel))
    report(2, "oracle equivalence over 100 random updates", worst < 1e-12,
           f"worst relative deviation = {worst:.2e}")


def test_03_noiseless_convergence():
    spec = GridSpec((-5.0, -5.0), 0.2, (50, 50))
    truth = np.array([1.4, -0.8, 0.0])
    anchors = [ReferencePoint(f"A{i}", p) for i, p in enumerate(
        [(-4.0, -4.0, 2.0), (4.0, -4.0, 2.5), (0.0, 4.0, 3.0)])]
    arrays = [likelihood_range(spec, Range(a.id, float(
        np.linalg.norm(np.asarray(a.position) - truth))), a,
        GaussianModel(0.0, 0.1)) for a in anchors]
    post = reference_combine(init_uniform(spec), arrays)
    map_pos = spec.positions()[map_estimate(post)]
    range_err_cells = np.linalg.norm(map_pos - truth[:2]) / spec.cell_size

    sats = [(2e7, 0, 1.2e7), (-1.3e7, 1e7, 1.5e7), (0, -1.8e7, 1e7),
            (1e7, 1.6e7, 0.9e7)]
    epoch = GnssPseudoranges(tuple(
        SatelliteObservation(f"G{k}", p,
                             float(np.linalg.norm(np.asarray(p) - truth)), LOS)
        for k, p in enumerate(sats)))
    gmm = GmmModel((0.5, 0.25, 0.25), (0.0, 13.0, -13.0), (0.0025, 20.25, 20.25))
    field = init_uniform(spec)
    for _ in range(3):
        field = update_gnss_bssd(field, epoch, gmm)
    bssd_pos = spec.positions()[map_estimate(field)]
    bssd_err_cells = np.linalg.norm(bssd_pos - truth[:2]) / spec.cell_size

    ok = range_err_cells <= 1.0 + 1e-9 and bssd_err_cells <= 2.0 + 1e-9
    report(3, "noiseless convergence (ranges within 1 cell, BSSD within 2)", ok,
           f"range {range_err_cells:.2f} cells, BSSD {bssd_err_cells:.2f} cells")


def test_04_static_simulation_analog():
    s = static_summary()
    report(4, "static analog mean 3D error <= 0.8 m", s.mean <= 0.8,
           f"mean = {s.mean:.3f} m over {s.count} epochs")


def test_05_dynamic_simulation_analog():
    scenario = make_dynamic_scenario(n_gnss_epochs=706, seed=0)
    ratio = scenario.n_gnss_epochs / scenario.n_uwb_epochs
    ratio_ok = abs(ratio - 1411.0 / 655.0) / (1411.0 / 655.0) < 0.01
    d = run_scenario(scenario)
    s = static_summary()
    ok = (d.mean <= 2.5 and d.median <= 1.2 and d.median > s.median and ratio_ok)
    report(5, "dynamic analog error bounds and static < dynamic ordering", ok,
           f"mean = {d.mean:.3f} m, median = {d.median:.3f} m "
           f"(static median {s.median:.3f} m), epoch ratio {ratio:.3f}")


def test_06_bssd_error_propagation():
    """Differencing LOS pseudoranges yields residual std sqrt(2)*7.8 m."""
    sc = make_static_scenario(n_epochs=7200, seed=0)
    events, _ = generate(sc)
    pos, _, _ = sc.trajectory.pose(0.0)
    sat_pos = {s.id: np.asarray(s.position) for s in sc.satellites}
    residuals = []
    for e in events:
        if not isinstance(e.payload, GnssPseudoranges):
            continue
        sats = e.payload.satellites
        for i in range(len(sats)):
            for j in range(i + 1, len(sats)):
                a, b = sats[i], sats[j]
                true_sd = (np.linalg.norm(sat_pos[a.sat_id] - pos)
                           - np.linalg.norm(sat_pos[b.sat_id] - pos))
                residuals.append((a.pseudorange - b.pseudorange) - true_sd)
        if len(residuals) >= 10**5:
            break
    residuals = np.asarray(residuals[:10**5])
    std = float(np.std(residuals))
    ok = abs(std - math.sqrt(2.0) * 7.8) <= 0.15
    report(6, "BSSD residual std = 11.03 +- 0.15 over 1e5 pairs", ok,
           f"std = {std:.3f} m, n = {len(residuals)}")


def test_07_gmm_calibration_recovery(tmp_path):
    """calibrate recovers the three dominant survey mixture components."""
    rng = np.random.default_rng(0)
    resid_path = tmp_path / "residuals.csv"
    write_residuals(sample(PAPER_GMM, rng, size=10**5), resid_path)
    out_path = tmp_path / "fitted.json"
    code = main(["calibrate", "--residuals", str(resid_path),
                 "--components", "3", "--out", str(out_path), "--seed", "0"])
    assert code == EXIT_OK
    fitted = read_gmm(out_path)
    dominant = list(zip(PAPER_GMM.weights[:3], PAPER_GMM.means[:3]))
    worst_w = worst_m = 0.0
    for w_true, m_true in dominant:
        c = int(np.argmin(np.abs(np.asarray(fitted.means) - m_true)))
        worst_m = max(worst_m, abs(fitted.means[c] - m_true))
        worst_w = max(worst_w, abs(fitted.weights[c] - w_true))
    ok = worst_w <= 0.05 and worst_m <= 1.0
    report(7, "GMM recovery: weights +-0.05, dominant means +-1.0 m", ok,
           f"worst weight dev {worst_w:.3f}, worst mean dev {worst_m:.3f} m")


def test_08_prediction_properties():
    spec = GridSpec((0.0, 0.0), 1.0, (21, 21))
    ws = TransitionWorkspace(spec)
    center = spec.coords_to_index((10, 10))
    mass = np.zeros(spec.num_cells)
    mass[center] = 1.0
    point = LikelihoodField(spec, mass)

    def odometry(speed, heading):
        return Transition.odometry(speed, heading, 1.0, 0.5, 0.2)

    still = predict(point, odometry(0.0, 0.3), ws)
    identity_ok = int(np.argmax(still.mass)) == center

    east = predict(point, odometry(3.0, 0.0), ws).mass.reshape(spec.extent)
    north = predict(point, odometry(3.0, math.pi / 2.0), ws).mass.reshape(spec.extent)
    rotation_ok = bool(np.allclose(north, np.rot90(east), atol=1e-12))

    two = np.zeros(spec.num_cells)
    two[spec.coords_to_index((4, 4))] = 0.5
    two[spec.coords_to_index((16, 16))] = 0.5
    spread = predict(LikelihoodField(spec, two),
                     Transition.random_walk(1.0, 0.8),
                     ws).mass.reshape(spec.extent)
    bimodal_ok = (spread[4, 4] > 5.0 * spread[10, 10]
                  and spread[16, 16] > 5.0 * spread[10, 10])

    ok = identity_ok and rotation_ok and bimodal_ok
    report(8, "prediction invariants (identity, rotation, bimodality)", ok,
           f"identity={identity_ok} rotation={rotation_ok} bimodal={bimodal_ok}")


def test_09_multirate_bookkeeping():
    spec = GridSpec((-10.0, -10.0), 1.0, (21, 21))
    anchors = [ReferencePoint(f"A{i}", p) for i, p in enumerate(
        [(-9.0, -9.0, 2.0), (9.0, -9.0, 2.0), (0.0, 9.0, 2.0)])]
    truth = np.array([1.0, 2.0, 0.0])
    model = GaussianModel(0.0, 1.0)
    cfg = FilterConfig(combine_mode="product", range_model=model)

    # synchronous batch: three ranges sharing one timestamp, product mode
    engine = FusionEngine(spec, anchors, cfg)
    obs = [Observation(1.0, Range(a.id, float(
        np.linalg.norm(np.asarray(a.position) - truth)))) for a in anchors]
    for o in obs:
        engine.step(o)
    joint = reference_combine(init_uniform(spec),
                              [likelihood_range(spec, o.payload, a, model)
                               for o, a in zip(obs, anchors)], PRODUCT)
    batch_dev = float(np.max(np.abs(engine.field.mass - joint.mass)))
    batch_ok = batch_dev < 1e-9

    # monotonic timestamps on a mixed, shuffled stream
    events = ([Observation(0.5 * (k + 1), Range(anchors[k % 3].id, 8.0))
               for k in range(8)]
              + [Observation(0.4 * (k + 1), Odometry(1.0, 0.0)) for k in range(6)])
    rng = np.random.default_rng(0)
    rng.shuffle(events)
    engine2 = FusionEngine(spec, anchors)
    ests = engine2.run(events)
    times = [e.timestamp for e in ests]
    monotonic_ok = times == sorted(times) and not engine2.rejected

    # out-of-sequence events are rejected when stepped past
    engine3 = FusionEngine(spec, anchors)
    engine3.step(Observation(5.0, Range("A0", 8.0)))
    reject_ok = engine3.admit(Observation(4.0, Range("A1", 8.0))) == "OutOfSequence"

    ok = batch_ok and monotonic_ok and reject_ok
    report(9, "multi-rate bookkeeping (batch equivalence, ordering, rejection)",
           ok, f"batch deviation {batch_dev:.2e}, monotonic={monotonic_ok}, "
               f"rejection={reject_ok}")


def test_10_demo_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["demo", "--out", str(out1), "--seed", "42"]) == EXIT_OK
    assert main(["demo", "--out", str(out2), "--seed", "42"]) == EXIT_OK
    names = sorted(p.name for p in out1.iterdir())
    same = (names == sorted(p.name for p in out2.iterdir())
            and all((out1 / n).read_bytes() == (out2 / n).read_bytes()
                    for n in names))
    report(10, "demo --seed 42 twice produces byte-identical outputs", same,
           f"{len(names)} files compared")
