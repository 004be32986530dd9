import math

import numpy as np
import pytest

from gridfuse.geometry import ReferencePoint, wrap_angle
from gridfuse.grid import DegenerateFieldError, GridSpec, LikelihoodField, init_uniform
from gridfuse.noise import GaussianModel, GmmModel, MixtureLikelihoodModel, UniformModel
from gridfuse.observations import (LOS, NLOS, Angle, GnssPseudoranges, Range,
                                   RangeDifference, SatelliteObservation)
from gridfuse.update import (BssdRouting, combine, update_aoa, update_gnss_bssd,
                             update_range, update_tdoa)

UWB_MODEL = MixtureLikelihoodModel(0.9, GaussianModel(0.05, 0.31),
                                   UniformModel(-30.0, 30.0))


def naive_gauss(y, mu, sigma):
    return math.exp(-0.5 * ((y - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


def naive_range_posterior(prior, anchor_xyz, z, mu, sigma, phi, out_lo, out_hi):
    """Independent per-cell transcription of the range update (sum mode)."""
    spec = prior.spec
    like = []
    for i in range(spec.num_cells):
        px, py = spec.index_to_position(i)
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
    map_pos = spec.index_to_position(int(np.argmax(field.mass)))
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
    for i in range(100):
        px, py = spec.index_to_position(i)
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
    """Wrapping the innovation once gives, per cell, the likelihood of the
    former arithmetic, which wrapped the bearings and then the finite
    innovations again. The anchor sits over a cell; at y = -0.0, arctan2 gives
    -pi on the cells east of it."""
    from gridfuse.update import likelihood_aoa
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


def tight_routing(sigma=0.05):
    g = GaussianModel(0.0, sigma)
    return BssdRouting(g, GaussianModel(13.0, 4.5), GaussianModel(-13.0, 4.5))


def naive_bssd_posterior(prior, sats, routing):
    """Independent per-cell transcription of the BSSD update (sum mode):
    every ordered pair of distinct satellites whose visibility routing gives
    a model contributes one Gaussian density per cell."""
    spec = prior.spec
    like = [0.0] * spec.num_cells
    for i in range(spec.num_cells):
        px, py = spec.index_to_position(i)

        def dist(s):
            sx, sy, sz = s.position
            return math.sqrt((px - sx) ** 2 + (py - sy) ** 2
                             + (spec.plane_height - sz) ** 2)

        for a in sats:
            for b in sats:
                model = routing.select(a.visibility, b.visibility)
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
    truth = np.array([*spec.index_to_position(60), spec.plane_height])
    routing = BssdRouting(GaussianModel(0.25, 3.6), GaussianModel(13.09, 4.5),
                          GaussianModel(-12.61, 4.6))
    vis = [LOS, NLOS, LOS, NLOS, LOS, LOS]
    sats = []
    for k, v in enumerate(vis):
        az, el = rng.uniform(0, 2 * math.pi), rng.uniform(0.2, 1.4)
        p = 2.6e7 * np.array([math.cos(el) * math.cos(az),
                              math.cos(el) * math.sin(az), math.sin(el)])
        rho = float(np.linalg.norm(p - truth)) + rng.normal(0, 3.0) + (13.0 if v == NLOS else 0.0)
        sats.append(_sat(f"G{k}", tuple(p), rho, v))
    post = update_gnss_bssd(prior, GnssPseudoranges(tuple(sats)), routing)
    expected = naive_bssd_posterior(prior, sats, routing)
    assert np.max(np.abs(post.mass - expected) / expected) <= 1e-12


def test_bssd_noiseless_ridge_through_truth():
    spec = GridSpec((-10, -10), 1.0, (21, 21))
    truth = np.array([3.0, -2.0, 0.0])
    epoch = _noiseless_epoch(truth, SAT_POSITIONS[:2])
    post = update_gnss_bssd(init_uniform(spec), epoch, tight_routing())
    map_pos = spec.index_to_position(int(np.argmax(post.mass)))
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
    sigma_sd = math.sqrt(2.0) * 7.8
    routing = BssdRouting(GaussianModel(0.0, sigma_sd),
                          GaussianModel(13.0, 4.5), GaussianModel(-13.0, 4.5))

    def posterior_spread(n_sats):
        traces = []
        for _ in range(100):
            sats = []
            for k, p in enumerate(SAT_POSITIONS[:n_sats]):
                rho = float(np.linalg.norm(np.asarray(p) - truth)) + rng.normal(0, 7.8)
                sats.append(_sat(f"G{k}", p, rho))
            post = update_gnss_bssd(init_uniform(spec),
                                    GnssPseudoranges(tuple(sats)), routing,
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
    routing = tight_routing()
    sel_ab = routing.select(NLOS, LOS)
    sel_ba = routing.select(LOS, NLOS)
    assert sel_ab.mean > 0 and sel_ba.mean < 0
    assert routing.select(NLOS, NLOS) is None
    # both-NLOS epoch contributes nothing
    both = _noiseless_epoch(truth, SAT_POSITIONS[:2], vis=[NLOS, NLOS])
    prior = init_uniform(spec)
    post = update_gnss_bssd(prior, both, routing)
    assert post is prior


def test_bssd_skips_nlos_pairs_in_mixed_epoch():
    spec = GridSpec((-5, -5), 1.0, (11, 11))
    truth = np.zeros(3)
    epoch_mixed = _noiseless_epoch(truth, SAT_POSITIONS[:3],
                                   vis=[LOS, NLOS, NLOS])
    routing = tight_routing(sigma=1.0)
    post = update_gnss_bssd(init_uniform(spec), epoch_mixed, routing)
    # recompute by hand without the (NLOS, NLOS) pairs: must match exactly
    from gridfuse.update import bssd_pair_likelihoods
    arrays = bssd_pair_likelihoods(spec, epoch_mixed, routing)
    assert len(arrays) == 4  # pairs (0,1),(0,2),(1,0),(2,0); (1,2),(2,1) dropped
    manual = combine(init_uniform(spec), arrays)
    assert np.allclose(post.mass, manual.mass)


def test_bssd_single_satellite_no_update():
    spec = GridSpec((-5, -5), 1.0, (11, 11))
    prior = init_uniform(spec)
    epoch = GnssPseudoranges((_sat("G0", SAT_POSITIONS[0], 2e7),))
    assert update_gnss_bssd(prior, epoch, tight_routing()) is prior


def test_combine_single_observation_modes_agree():
    spec = GridSpec((0, 0), 1.0, (10, 10))
    rng = np.random.default_rng(4)
    like = rng.random(100) + 0.01
    prior = init_uniform(spec)
    s = combine(prior, [like], mode="sum")
    p = combine(prior, [like], mode="product")
    assert np.allclose(s.mass, p.mass, atol=1e-12)


def test_combine_duplicate_observation_product_sharper():
    spec = GridSpec((0, 0), 1.0, (10, 10))
    rng = np.random.default_rng(5)
    like = rng.random(100) + 0.01
    prior = init_uniform(spec)
    s = combine(prior, [like, like], mode="sum")
    single = combine(prior, [like], mode="sum")
    assert np.allclose(s.mass, single.mass, atol=1e-12)
    p = combine(prior, [like, like], mode="product")

    def entropy(m):
        m = m[m > 0]
        return -(m * np.log(m)).sum()

    assert entropy(p.mass) < entropy(s.mass)


def test_combine_empty_returns_prior():
    prior = init_uniform(GridSpec((0, 0), 1.0, (5, 5)))
    assert combine(prior, []) is prior


def test_combine_all_zero_product_degenerate():
    prior = init_uniform(GridSpec((0, 0), 1.0, (5, 5)))
    with pytest.raises(DegenerateFieldError):
        combine(prior, [np.zeros(25)], mode="product")


def test_posterior_normalization():
    spec = GridSpec((0, 0), 1.0, (15, 15))
    anchor = ReferencePoint("a", (7.0, 7.0, 1.0))
    post = update_range(init_uniform(spec), Range("a", 5.0), anchor, UWB_MODEL)
    assert abs(post.mass.sum() - 1.0) < 1e-9
