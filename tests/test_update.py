import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest

from gridfuse.engine import DEFAULT_BSSD_GMM, FilterConfig, FusionEngine
from gridfuse.geometry import ReferencePoint, gamma_distance, wrap_angle
from gridfuse.grid import (MASS_FLOOR, DegenerateFieldError, GridSpec, LikelihoodField,
                           init_uniform)
from gridfuse.noise import GaussianModel, GmmModel, MixtureLikelihoodModel, UniformModel
from gridfuse.observations import (LOS, NLOS, Angle, GnssPseudoranges, Observation,
                                   Range, RangeDifference, SatelliteObservation)
from gridfuse.update import (PRODUCT, SUM, _innovation_pdf, bssd_pair_likelihoods,
                             bssd_routes, likelihood_aoa, likelihood_range,
                             likelihood_tdoa, update_aoa, update_gnss_bssd, update_range,
                             update_tdoa)

from fusion_reference import reference_combine

UWB_MODEL = MixtureLikelihoodModel(0.9, GaussianModel(0.05, 0.31),
                                   UniformModel(-30.0, 30.0))


def naive_gauss(y, mu, sigma):
    return math.exp(-0.5 * ((y - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


def naive_range_posterior(prior, anchor_xyz, z, mu, sigma, phi, out_lo, out_hi):
    """Independent per-cell transcription of the range update (sum mode)."""
    spec = prior.spec
    like = []
    for px, py in spec.positions():
        d = math.sqrt((anchor_xyz[0] - px) ** 2 + (anchor_xyz[1] - py) ** 2
                      + (anchor_xyz[2] - spec.plane_height) ** 2)
        y = z - d
        outlier = 1.0 / (out_hi - out_lo) if out_lo <= y <= out_hi else 0.0
        like.append(phi * naive_gauss(y, mu, sigma) + (1 - phi) * outlier)
    like = [v / sum(like) for v in like]
    post = [l * p for l, p in zip(like, prior.mass)]
    total = sum(post)
    return [max(v / total, 0.0) for v in post]


def test_noiseless_range_map_at_truth():
    spec = GridSpec((0, 0), 0.5, (20, 20))
    truth = np.array([4.5, 6.0, 0.0])
    anchors = [ReferencePoint(f"a{i}", p) for i, p in enumerate(
        [(0, 0, 2), (9, 0, 2), (5, 9, 2)])]
    field = init_uniform(spec)
    model = GaussianModel(0.0, 0.1)
    for a in anchors:
        z = float(np.linalg.norm(a.xyz - truth))
        field = update_range(field, Range(a.id, z), a, model)
    map_pos = spec.positions()[int(np.argmax(field.mass))]
    assert np.linalg.norm(map_pos - truth[:2]) <= spec.cell_size * math.sqrt(2)


def test_range_outlier_dominated_keeps_prior_argmax():
    spec = GridSpec((0, 0), 1.0, (10, 10))
    rng = np.random.default_rng(0)
    prior = LikelihoodField(spec, rng.random(100) + 0.1)
    anchor = ReferencePoint("a", (5.0, 5.0, 0.0))
    # Z is dozens of sigma away from every possible range but still within the
    # uniform outlier band: the likelihood is flat, so the prior shape survives
    obs = Range("a", 25.0)
    post = update_range(prior, obs, anchor, UWB_MODEL)
    assert int(np.argmax(post.mass)) == int(np.argmax(prior.mass))


def test_range_oracle_equivalence():
    spec = GridSpec((0, 0), 1.0, (12, 12))
    rng = np.random.default_rng(1)
    prior = LikelihoodField(spec, rng.random(spec.num_cells) + 0.01)
    anchor = ReferencePoint("a", (3.3, 8.1, 1.5))
    post = update_range(prior, Range("a", 6.4), anchor, UWB_MODEL)
    expected = naive_range_posterior(prior, anchor.position, 6.4, 0.05, 0.31,
                                     0.9, -30.0, 30.0)
    assert np.allclose(post.mass, expected, rtol=1e-12)


def test_tdoa_bisector_ridge():
    spec = GridSpec((0, 0), 1.0, (11, 11))
    a = ReferencePoint("a", (0.0, 5.0, 0.0))
    b = ReferencePoint("b", (10.0, 5.0, 0.0))
    post = update_tdoa(init_uniform(spec), RangeDifference("a", "b", 0.0), a, b,
                       GaussianModel(0.0, 0.5))
    ridge = post.mass.reshape(11, 11)[5, :]
    off = post.mass.reshape(11, 11)[1, :]
    assert ridge.min() > off.max()


def test_tdoa_swap_and_negate_identical():
    spec = GridSpec((0, 0), 1.0, (9, 9))
    a = ReferencePoint("a", (1.0, 2.0, 0.0))
    b = ReferencePoint("b", (7.0, 6.0, 0.0))
    rng = np.random.default_rng(2)
    prior = LikelihoodField(spec, rng.random(81) + 0.01)
    m = GaussianModel(0.0, 0.7)
    p1 = update_tdoa(prior, RangeDifference("a", "b", 2.5), a, b, m)
    p2 = update_tdoa(prior, RangeDifference("b", "a", -2.5), b, a, m)
    assert np.allclose(p1.mass, p2.mass, atol=1e-15)


def test_tdoa_beyond_baseline_maximizes_near_min_residual():
    spec = GridSpec((0, 0), 1.0, (9, 9))
    a = ReferencePoint("a", (2.0, 4.0, 0.0))
    b = ReferencePoint("b", (6.0, 4.0, 0.0))
    z = 10.0  # exceeds the 4 m baseline: degenerate hyperbola
    post = update_tdoa(init_uniform(spec), RangeDifference("a", "b", z), a, b,
                       GaussianModel(0.0, 0.5))
    from gridfuse.geometry import gamma_hyperbolic
    resid = np.abs(z - gamma_hyperbolic(a, b, spec))
    assert int(np.argmax(post.mass)) == int(np.argmin(resid))


def test_aoa_ray_and_wrap_invariance():
    spec = GridSpec((0, 0), 1.0, (11, 11))
    anchor = ReferencePoint("a", (0.0, 0.0, 0.0))
    model = GaussianModel(0.0, 0.1)
    # bearing from cells toward the anchor: cells due east of it see pi
    post = update_aoa(init_uniform(spec), Angle("a", math.pi), anchor, model)
    row = post.mass.reshape(11, 11)
    assert row[:, 0].sum() > 10 * row[:, 5].sum()
    p2 = update_aoa(init_uniform(spec), Angle("a", math.pi + 2 * math.pi),
                    anchor, model)
    assert np.allclose(post.mass, p2.mass, atol=1e-15)


def test_aoa_oracle_equivalence():
    spec = GridSpec((0, 0), 1.0, (10, 10))
    anchor = ReferencePoint("a", (4.6, 4.2, 0.0))
    sigma = 0.1
    z = 1.2
    post = update_aoa(init_uniform(spec), Angle("a", z), anchor, GaussianModel(0.0, sigma))
    like = []
    for px, py in spec.positions():
        gamma = math.atan2(anchor.position[1] - py, anchor.position[0] - px)
        y = z - gamma
        while y <= -math.pi:
            y += 2 * math.pi
        while y > math.pi:
            y -= 2 * math.pi
        like.append(naive_gauss(y, 0.0, sigma))
    expected = np.asarray(like) / sum(like) * 0.01
    expected /= expected.sum()
    assert np.allclose(post.mass, expected, rtol=1e-12)


@pytest.mark.parametrize("anchor_y", [0.5, -0.0])
def test_aoa_likelihood_matches_two_wrap_arithmetic(anchor_y):
    """The innovation formed in one rotation gives, per cell, the likelihood
    of an earlier arithmetic, which wrapped the bearings and then the finite
    innovations again. The anchor sits over a cell; at y = -0.0, arctan2 gives
    -pi on the cells east of it."""
    spec = GridSpec((-3.0, -2.0), 0.5, (13, 11))
    anchor = ReferencePoint("a", (0.0, anchor_y, 2.0))
    model = GaussianModel(0.0, 0.1)
    x, y = spec.axes()
    dx, dy = anchor.position[0] - x, anchor.position[1] - y
    bearing = wrap_angle(np.arctan2(dy[None, :], dx[:, None])).ravel()
    under = np.logical_and.outer(dx == 0.0, dy == 0.0).ravel()
    assert under.sum() == 1
    bearing[under] = np.nan
    for z in np.linspace(-math.pi, math.pi, 13):
        resid = z - bearing
        valid = np.isfinite(resid)
        resid = np.where(valid, wrap_angle(np.where(valid, resid, 0.0)), resid)
        expected = np.empty_like(resid)
        expected[valid] = model.pdf(resid[valid])
        expected[~valid] = expected[valid].mean()
        got = likelihood_aoa(spec, Angle("a", float(z)), anchor, model)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def _sat(sid, pos, rho, vis=LOS):
    return SatelliteObservation(sid, pos, rho, vis)


def _noiseless_epoch(truth, positions, vis=None):
    sats = []
    for k, p in enumerate(positions):
        rho = float(np.linalg.norm(np.asarray(p) - truth))
        v = LOS if vis is None else vis[k]
        sats.append(_sat(f"G{k}", tuple(p), rho, v))
    return GnssPseudoranges(tuple(sats))


SAT_POSITIONS = [(2e7, 0, 1.2e7), (-1.3e7, 1e7, 1.5e7), (0, -1.8e7, 1e7),
                 (1e7, 1.6e7, 0.9e7)]


# A BSSD residual mixture whose components route to LOS/LOS N(0.25, 3.6^2),
# NLOS minuend N(13.09, 4.5^2) and NLOS subtrahend N(-12.61, 4.6^2).
PAIR_GMM = GmmModel((0.5, 0.25, 0.25), (0.25, 13.09, -12.61),
                    (3.6 ** 2, 4.5 ** 2, 4.6 ** 2))


def tight_gmm(sigma=0.05):
    return GmmModel((0.5, 0.25, 0.25), (0.0, 13.0, -13.0), (sigma ** 2, 20.25, 20.25))


def naive_bssd_posterior(prior, sats, gmm):
    """Independent per-cell transcription of the BSSD update (sum mode):
    every ordered pair of distinct satellites whose visibilities the mixture
    routes contributes one Gaussian density per cell."""
    routes = bssd_routes(gmm)
    spec = prior.spec
    like = [0.0] * spec.num_cells
    for i, (px, py) in enumerate(spec.positions()):

        def dist(s):
            sx, sy, sz = s.position
            return math.sqrt((px - sx) ** 2 + (py - sy) ** 2
                             + (spec.plane_height - sz) ** 2)

        for a in sats:
            for b in sats:
                model = routes.get((a.visibility, b.visibility))
                if a is b or model is None:
                    continue
                y = (a.pseudorange - b.pseudorange) - (dist(a) - dist(b))
                like[i] += naive_gauss(y, model.mean, model.std)
    like = [v / sum(like) for v in like]
    post = [l * p for l, p in zip(like, prior.mass)]
    return np.asarray(post) / sum(post)


def test_bssd_oracle_equivalence_mixed_visibility():
    rng = np.random.default_rng(23)
    spec = GridSpec(tuple(rng.uniform(-40, 40, 2)), 0.7, (13, 11), plane_height=1.5)
    prior = LikelihoodField(spec, rng.random(spec.num_cells))
    truth = np.array([*spec.positions()[60], spec.plane_height])
    vis = [LOS, NLOS, LOS, NLOS, LOS, LOS]
    sats = []
    for k, v in enumerate(vis):
        az, el = rng.uniform(0, 2 * math.pi), rng.uniform(0.2, 1.4)
        p = 2.6e7 * np.array([math.cos(el) * math.cos(az),
                              math.cos(el) * math.sin(az), math.sin(el)])
        rho = float(np.linalg.norm(p - truth)) + rng.normal(0, 3.0) + (13.0 if v == NLOS else 0.0)
        sats.append(_sat(f"G{k}", tuple(p), rho, v))
    post = update_gnss_bssd(prior, GnssPseudoranges(tuple(sats)), PAIR_GMM)
    expected = naive_bssd_posterior(prior, sats, PAIR_GMM)
    assert np.max(np.abs(post.mass - expected) / expected) <= 1e-12


def test_bssd_noiseless_ridge_through_truth():
    spec = GridSpec((-10, -10), 1.0, (21, 21))
    truth = np.array([3.0, -2.0, 0.0])
    epoch = _noiseless_epoch(truth, SAT_POSITIONS[:2])
    post = update_gnss_bssd(init_uniform(spec), epoch, tight_gmm())
    map_pos = spec.positions()[int(np.argmax(post.mass))]
    # single pair gives a ridge; the true cell must lie on it
    truth_idx = spec.coords_to_index((13, 8))
    assert post.mass[truth_idx] >= 0.5 * post.mass.max()


def test_bssd_pair_antisymmetry():
    spec = GridSpec((-5, -5), 1.0, (11, 11))
    truth = np.array([1.0, 1.0, 0.0])
    epoch = _noiseless_epoch(truth, SAT_POSITIONS[:2])
    from gridfuse.geometry import gamma_distance
    a, b = epoch.satellites
    da = gamma_distance(ReferencePoint(a.sat_id, a.position), spec)
    db = gamma_distance(ReferencePoint(b.sat_id, b.position), spec)
    y_ab = (a.pseudorange - b.pseudorange) - (da - db)
    y_ba = (b.pseudorange - a.pseudorange) - (db - da)
    assert np.allclose(y_ab, -y_ba, atol=1e-9)


def test_bssd_more_satellites_shrink_posterior():
    spec = GridSpec((-10, -10), 0.5, (41, 41))
    truth = np.zeros(3)
    rng = np.random.default_rng(8)
    gmm = tight_gmm(sigma=math.sqrt(2.0) * 7.8)

    def posterior_spread(n_sats):
        traces = []
        for _ in range(100):
            sats = []
            for k, p in enumerate(SAT_POSITIONS[:n_sats]):
                rho = float(np.linalg.norm(np.asarray(p) - truth)) + rng.normal(0, 7.8)
                sats.append(_sat(f"G{k}", p, rho))
            post = update_gnss_bssd(init_uniform(spec),
                                    GnssPseudoranges(tuple(sats)), gmm,
                                    mode="product")
            pos = spec.positions()
            mean = (post.mass[:, None] * pos).sum(axis=0)
            cov_tr = float((post.mass * ((pos - mean) ** 2).sum(axis=1)).sum())
            traces.append(cov_tr)
        return float(np.mean(traces))

    assert posterior_spread(4) < posterior_spread(2)


def test_bssd_visibility_routing():
    spec = GridSpec((-5, -5), 1.0, (11, 11))
    truth = np.zeros(3)
    # pair (NLOS, LOS) must use the positive-mean model, swapped the negative
    epoch = _noiseless_epoch(truth, SAT_POSITIONS[:2], vis=[NLOS, LOS])
    gmm = tight_gmm()
    routes = bssd_routes(gmm)
    sel_ab = routes[(NLOS, LOS)]
    sel_ba = routes[(LOS, NLOS)]
    assert sel_ab.mean > 0 and sel_ba.mean < 0
    assert (NLOS, NLOS) not in routes
    # both-NLOS epoch contributes nothing
    both = _noiseless_epoch(truth, SAT_POSITIONS[:2], vis=[NLOS, NLOS])
    prior = init_uniform(spec)
    post = update_gnss_bssd(prior, both, gmm)
    assert post is prior


def _reordered(gmm, order):
    return GmmModel(*(tuple(v[c] for c in order)
                      for v in (gmm.weights, gmm.means, gmm.variances)))


def test_bssd_routes_pick_components_by_what_they_model():
    """LOS/LOS pairs take the heaviest component; of the others, an NLOS
    minuend takes the largest mean and an NLOS subtrahend the smallest. The
    survey default routes components 0, 1 and 2 in any component order; ties
    go to the lower index; fewer than three components, or a single
    Gaussian, cannot be routed."""
    d = DEFAULT_BSSD_GMM
    expected = {(LOS, LOS): d.component(0), (NLOS, LOS): d.component(1),
                (LOS, NLOS): d.component(2)}
    for order in itertools.permutations(range(d.n_components)):
        assert bssd_routes(_reordered(d, order)) == expected, order
    tied = GmmModel((0.1, 0.3, 0.3, 0.15, 0.15), (-9.0, 0.0, 0.0, 9.0, 9.0),
                    (1.0, 2.0, 3.0, 4.0, 5.0))
    assert bssd_routes(tied) == {(LOS, LOS): tied.component(1),
                                 (NLOS, LOS): tied.component(3),
                                 (LOS, NLOS): tied.component(0)}
    for gmm in (GmmModel((1.0,), (0.25,), (13.06,)),
                GmmModel((0.5, 0.5), (0.25, 13.09), (13.06, 20.37)),
                GaussianModel(0.25, 3.6)):
        with pytest.raises(ValueError, match="at least 3 components"):
            bssd_routes(gmm)


def reference_bssd_update(prior, obs, gmm, mode=SUM):
    """The BSSD update as one ``model.pdf`` array per usable ordered pair, in
    the update's pair order ((a, b), then (b, a), for a before b), then the
    reference fold: the allocating form that ``update_gnss_bssd`` folds into
    one accumulator. Returns the posterior and the pair count."""
    dist = {s.sat_id: gamma_distance(ReferencePoint(s.sat_id, s.position), prior.spec)
            for s in obs.satellites}
    routes = bssd_routes(gmm)
    arrays = []
    for i, first in enumerate(obs.satellites):
        for second in obs.satellites[i + 1:]:
            for a, b in ((first, second), (second, first)):
                model = routes.get((a.visibility, b.visibility))
                if model is None:
                    continue
                y = (a.pseudorange - b.pseudorange) - (dist[a.sat_id] - dist[b.sat_id])
                arrays.append(model.pdf(y))
    return reference_combine(prior, arrays, mode), len(arrays)


@pytest.mark.parametrize("mode", [SUM, PRODUCT])
def test_combine_matches_written_out_fold(mode):
    """Range, TDoA and AoA fuse their likelihood in the array that sampled
    it, with the bits of the written-out fold under either rule: one
    likelihood sums and multiplies to itself. The AoA anchor sits over a
    cell."""
    rng = np.random.default_rng(6)
    spec = GridSpec((0, 0), 1.0, (9, 7))
    prior = LikelihoodField(spec, rng.random(spec.num_cells) + 0.01)
    a = ReferencePoint("a", (2.0, 3.0, 1.5))
    b = ReferencePoint("b", (7.5, 1.2, 2.0))
    m = UWB_MODEL
    cases = [
        (update_range(prior, Range("a", 3.7), a, m),
         likelihood_range(spec, Range("a", 3.7), a, m)),
        (update_tdoa(prior, RangeDifference("a", "b", -1.3), a, b, m),
         likelihood_tdoa(spec, RangeDifference("a", "b", -1.3), a, b, m)),
        (update_aoa(prior, Angle("a", 0.4), a, GaussianModel(0.0, 0.3)),
         likelihood_aoa(spec, Angle("a", 0.4), a, GaussianModel(0.0, 0.3))),
    ]
    for post, like in cases:
        assert np.array_equal(post.mass, reference_combine(prior, [like], mode).mass)


def test_innovation_pdf_distance_example():
    """pdf(Z - Gamma) is computed in Gamma's own array."""
    gamma = np.array([8.0, 10.0, 13.0])
    model = GaussianModel(0.0, 1.0)
    out = _innovation_pdf(10.0, gamma, model)
    assert out is gamma
    assert np.array_equal(out, model.pdf(np.array([2.0, 0.0, -3.0])))


@pytest.mark.parametrize("mode", ["prod", None])
def test_update_unknown_mode_raises(mode):
    spec = GridSpec((0, 0), 1.0, (5, 5))
    epoch = GnssPseudoranges((_sat("G0", SAT_POSITIONS[0], 2e7),))
    with pytest.raises(ValueError, match="unknown combination mode"):
        update_gnss_bssd(init_uniform(spec), epoch, tight_gmm(), mode)


def _random_epoch(rng, spec, vis, nlos_bias=13.0, radii=None):
    truth = np.array([*spec.positions()[spec.num_cells // 3], spec.plane_height])
    sats = []
    for k, v in enumerate(vis):
        az, el = rng.uniform(0, 2 * math.pi), rng.uniform(0.2, 1.4)
        radius = 2.6e7 if radii is None else radii[k]
        p = radius * np.array([math.cos(el) * math.cos(az),
                               math.cos(el) * math.sin(az), math.sin(el)])
        rho = (float(np.linalg.norm(p - truth)) + rng.normal(0, 3.0)
               + (nlos_bias if v == NLOS else 0.0))
        sats.append(_sat(f"G{k}", tuple(p), rho, v))
    return GnssPseudoranges(tuple(sats))


def test_bssd_skips_nlos_pairs_in_mixed_epoch(caplog):
    spec = GridSpec((-5, -5), 1.0, (11, 11))
    truth = np.zeros(3)
    epoch_mixed = _noiseless_epoch(truth, SAT_POSITIONS[:3],
                                   vis=[LOS, NLOS, NLOS])
    gmm = tight_gmm(sigma=1.0)
    with caplog.at_level(logging.DEBUG, logger="gridfuse.update"):
        post = update_gnss_bssd(init_uniform(spec), epoch_mixed, gmm)
    assert "4 BSSD pair(s) used, 2 dropped" in caplog.text
    # pairs (1,2), (2,1) are both NLOS and dropped
    used = bssd_pair_likelihoods(spec, epoch_mixed, bssd_routes(gmm),
                                 np.zeros(spec.num_cells), np.add)
    assert used == [("G0", "G1"), ("G1", "G0"), ("G0", "G2"), ("G2", "G0")]
    manual, n_pairs = reference_bssd_update(init_uniform(spec), epoch_mixed, gmm)
    assert n_pairs == 4
    assert np.array_equal(post.mass, manual.mass)


@pytest.mark.parametrize("mode", [SUM, PRODUCT])
@pytest.mark.parametrize("vis", [
    [LOS, NLOS, LOS, NLOS, LOS, LOS],
    [NLOS, LOS, LOS, NLOS, NLOS, LOS, LOS, LOS],
    [LOS] * 8,
], ids=["6_sats", "8_sats", "8_los"])
def test_bssd_update_matches_per_pair_reference(vis, mode):
    """Folding pairs into one accumulator gives the bits of per-pair arrays
    fused by the reference fold, in both pair rules."""
    rng = np.random.default_rng(len(vis) + vis.count(NLOS))
    spec = GridSpec(tuple(rng.uniform(-40, 40, 2)), 0.7, (23, 19), plane_height=1.5)
    prior = LikelihoodField(spec, rng.random(spec.num_cells) + 0.01)
    epoch = _random_epoch(rng, spec, vis)
    expected, _ = reference_bssd_update(prior, epoch, PAIR_GMM, mode)
    assert np.array_equal(update_gnss_bssd(prior, epoch, PAIR_GMM, mode).mass,
                          expected.mass)


@pytest.mark.parametrize("vis", [(LOS, LOS), (NLOS, LOS), (LOS, NLOS)],
                         ids=["los_los", "nlos_los", "los_nlos"])
def test_bssd_pair_directions_share_one_innovation(vis):
    """Both directions of a pair read one innovation, yet each density has the
    bits of ``model.pdf`` of that direction's written innovation
    (rho_a - rho_b) - (d_a - d_b). The satellites' ranges lie many binades
    apart, so the differences round and the order of operations shows."""
    rng = np.random.default_rng(31)
    spec = GridSpec(tuple(rng.uniform(-40, 40, 2)), 0.7, (23, 19), plane_height=1.5)
    epoch = _random_epoch(rng, spec, list(vis), radii=(7.0e5, 2.6e7))
    routes = bssd_routes(PAIR_GMM)
    folded = []

    def record(acc, like, out):
        folded.append(like.copy())
        return out

    used = bssd_pair_likelihoods(spec, epoch, routes, np.zeros(spec.num_cells), record)
    first, second = epoch.satellites
    directions = [(first, second), (second, first)]
    assert used == [(a.sat_id, b.sat_id) for a, b in directions]
    for like, (a, b) in zip(folded, directions, strict=True):
        da, db = (gamma_distance(ReferencePoint(s.sat_id, s.position), spec)
                  for s in (a, b))
        y = (a.pseudorange - b.pseudorange) - (da - db)
        assert np.array_equal(like, routes[(a.visibility, b.visibility)].pdf(y))


def test_product_epoch_matches_prior_first_product():
    """A product epoch weighs the prior by its normalised pair product. On
    mixed LOS/NLOS epochs that is the prior-first product prior * p1 * p2 ...,
    floored and normalised, to within 1e-12 relative on every cell above 1e-12
    of the peak; an epoch whose product underflows collapses in both."""
    rng = np.random.default_rng(17)
    spec = GridSpec((-20.0, -15.0), 0.7, (23, 19), plane_height=1.5)
    routes = bssd_routes(PAIR_GMM)
    collapsed = []
    for k in range(12):
        prior = LikelihoodField(spec, rng.random(spec.num_cells) + 1e-3)
        vis = [LOS if v else NLOS for v in rng.random(7) < 0.6]
        epoch = _random_epoch(rng, spec, vis, nlos_bias=600.0 if k % 4 == 3 else 13.0)
        dist = {s.sat_id: gamma_distance(ReferencePoint(s.sat_id, s.position), spec)
                for s in epoch.satellites}
        oracle = prior.mass.copy()
        for a in epoch.satellites:
            for b in epoch.satellites:
                model = routes.get((a.visibility, b.visibility))
                if a.sat_id != b.sat_id and model is not None:
                    y = (a.pseudorange - b.pseudorange) - (dist[a.sat_id] - dist[b.sat_id])
                    oracle *= model.pdf(y)
        oracle_collapsed = not oracle.sum() > 0
        try:
            post = update_gnss_bssd(prior, epoch, PAIR_GMM, PRODUCT).mass
        except DegenerateFieldError:
            post = None
        assert (post is None) == oracle_collapsed, k
        if post is None:
            collapsed.append(k)
            continue
        oracle = np.maximum(oracle, MASS_FLOOR)
        oracle /= oracle.sum()
        big = oracle >= 1e-12 * oracle.max()
        assert np.max(np.abs(post[big] - oracle[big]) / oracle[big]) <= 1e-12, k
    assert collapsed == [3, 7, 11]


def test_bssd_samples_every_pair_through_module_density(monkeypatch):
    """Each used pair is one call of ``update.density``, the attribute a
    tracer wraps: its input is the pair's shared innovation, its output one
    scratch buffer distinct from it."""
    import gridfuse.update
    inputs, outputs = [], []

    def counting(model, y, out=None):
        inputs.append(y)
        outputs.append(out)
        return model.pdf(y, out)

    monkeypatch.setattr(gridfuse.update, "density", counting)
    spec = GridSpec((-5, -5), 1.0, (11, 11))
    epoch = _noiseless_epoch(np.zeros(3), SAT_POSITIONS[:4], vis=[LOS, NLOS, LOS, NLOS])
    update_gnss_bssd(init_uniform(spec), epoch, tight_gmm(sigma=1.0))
    assert len(inputs) == 10  # 12 ordered pairs, 2 of them both NLOS
    assert all(y is inputs[0] for y in inputs)
    assert all(out is outputs[0] for out in outputs)
    assert outputs[0] is not inputs[0]


@pytest.mark.parametrize("mode", [SUM, PRODUCT])
def test_bssd_update_peak_memory(mode):
    """One 8-satellite epoch holds the distances, the accumulator and a few
    grid arrays at once, not one array per pair."""
    rng = np.random.default_rng(8)
    spec = GridSpec((-100.0, -100.0), 1.0, (200, 200))
    prior = LikelihoodField(spec, rng.random(spec.num_cells) + 0.01)
    epoch = _random_epoch(rng, spec, [LOS, LOS, NLOS, LOS, LOS, NLOS, LOS, LOS])
    gmm = GmmModel((0.5, 0.25, 0.25), (0.25, 13.09, -12.61), (13.0, 20.4, 21.0))
    tracemalloc.start()
    try:
        update_gnss_bssd(prior, epoch, gmm, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid_bytes = spec.num_cells * 8
    assert peak <= (len(epoch.satellites) + 4) * grid_bytes


@pytest.mark.parametrize("mode", [SUM, PRODUCT])
def test_range_update_peak_memory(mode):
    """The engine's range update samples and fuses in one grid array, whatever
    its combine mode: with the mixture model's scratch and the posterior's
    normalised copy it peaks well below the three arrays that a separate
    fusion buffer would add up to."""
    spec = GridSpec((-15.0, -15.0), 0.2, (150, 150))
    prior = LikelihoodField(spec, np.random.default_rng(3).random(spec.num_cells) + 0.01)
    anchor = ReferencePoint("a", (2.0, -4.0, 2.5))
    engine = FusionEngine(spec, [anchor],
                          FilterConfig(range_model=UWB_MODEL, combine_mode=mode))
    engine.field = prior
    obs = Observation(0.0, Range("a", 9.0))
    tracemalloc.start()
    try:
        engine._update(obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * spec.num_cells * 8


def test_bssd_single_satellite_no_update():
    spec = GridSpec((-5, -5), 1.0, (11, 11))
    prior = init_uniform(spec)
    epoch = GnssPseudoranges((_sat("G0", SAT_POSITIONS[0], 2e7),))
    assert update_gnss_bssd(prior, epoch, tight_gmm()) is prior


def test_combine_duplicate_observation_product_sharper():
    """A second NLOS satellite that repeats the first one's position and
    pseudorange repeats its pairs with the LOS satellite (the NLOS-NLOS pairs
    are dropped): the sum rule is unmoved by the duplicates, the product rule
    counts them twice."""
    spec = GridSpec((-10, -10), 1.0, (21, 21))
    truth = np.array([2.0, -3.0, 0.0])
    gmm = tight_gmm(sigma=3.0)
    single = _noiseless_epoch(truth, SAT_POSITIONS[:2], vis=[NLOS, LOS])
    twice = _noiseless_epoch(truth, [SAT_POSITIONS[0], *SAT_POSITIONS[:2]],
                             vis=[NLOS, NLOS, LOS])
    prior = init_uniform(spec)
    s = update_gnss_bssd(prior, twice, gmm, SUM)
    assert np.allclose(s.mass, update_gnss_bssd(prior, single, gmm, SUM).mass,
                       atol=1e-12)
    p = update_gnss_bssd(prior, twice, gmm, PRODUCT)

    def entropy(m):
        m = m[m > 0]
        return -(m * np.log(m)).sum()

    assert entropy(p.mass) < entropy(s.mass)


def test_combine_empty_returns_prior():
    """An epoch without a usable pair leaves the prior itself, in both rules."""
    prior = init_uniform(GridSpec((0, 0), 1.0, (5, 5)))
    both_nlos = _noiseless_epoch(np.zeros(3), SAT_POSITIONS[:2], vis=[NLOS, NLOS])
    for mode in (SUM, PRODUCT):
        assert update_gnss_bssd(prior, both_nlos, tight_gmm(), mode) is prior


def test_combine_all_zero_product_degenerate():
    """A likelihood that is zero on every cell leaves no posterior mass."""
    prior = init_uniform(GridSpec((0, 0), 1.0, (5, 5)))
    anchor = ReferencePoint("a", (2.0, 2.0, 0.0))
    with pytest.raises(DegenerateFieldError):
        update_range(prior, Range("a", 50.0), anchor, UniformModel(-1.0, 1.0))


def test_posterior_normalization():
    spec = GridSpec((0, 0), 1.0, (15, 15))
    anchor = ReferencePoint("a", (7.0, 7.0, 1.0))
    post = update_range(init_uniform(spec), Range("a", 5.0), anchor, UWB_MODEL)
    assert abs(post.mass.sum() - 1.0) < 1e-9
