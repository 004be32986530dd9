import gc
import math
import weakref

import numpy as np
import pytest

from gridfuse.grid import GridSpec, LikelihoodField, init_uniform
from gridfuse.prediction import MotionInput, TransitionWorkspace, predict

SPEC = GridSpec((0.0, 0.0), 1.0, (21, 21))
WS = TransitionWorkspace(SPEC)


def point_mass(spec, coords):
    mass = np.zeros(spec.num_cells)
    mass[spec.coords_to_index(coords)] = 1.0
    return LikelihoodField(spec, mass)


def test_known_motion_translates_mode():
    field = point_mass(SPEC, (10, 10))
    motion = MotionInput(speed=3.0, heading=0.0, sigma_speed=0.3,
                         sigma_heading=0.1, dt=1.0)
    out = predict(field, motion, WS)
    assert tuple(np.asarray(SPEC.index_to_coords(int(np.argmax(out.mass))))) == (13, 10)


def test_speed_only_forms_ring():
    field = point_mass(SPEC, (10, 10))
    motion = MotionInput(speed=4.0, heading=None, sigma_speed=0.2, dt=1.0)
    out = predict(field, motion, WS)
    grid = out.mass.reshape(SPEC.extent)
    # all four cells at distance 4 carry (equal) near-max mass
    ring = [grid[14, 10], grid[6, 10], grid[10, 14], grid[10, 6]]
    assert np.allclose(ring, max(ring), rtol=1e-9)
    assert min(ring) > 10.0 * grid[10, 10]
    assert min(ring) > 10.0 * grid[12, 10]


def test_zero_speed_keeps_mode():
    field = point_mass(SPEC, (10, 10))
    # speed 0 concentrates the translation likelihood at zero displacement
    motion = MotionInput(speed=1e-9, heading=0.7, sigma_speed=0.2,
                         sigma_heading=0.3, dt=1.0)
    out = predict(field, motion, WS)
    assert int(np.argmax(out.mass)) == SPEC.coords_to_index((10, 10))


def test_heading_wrap_invariance():
    field = point_mass(SPEC, (10, 10))
    m1 = MotionInput(2.0, 1.1, dt=1.0)
    m2 = MotionInput(2.0, 1.1 - 2.0 * math.pi, dt=1.0)
    out1 = predict(field, m1, WS)
    out2 = predict(field, m2, WS)
    assert np.allclose(out1.mass, out2.mass, atol=1e-12)


def test_rotation_covariance():
    """Rotating the heading by 90 degrees rotates the predicted field."""
    field = point_mass(SPEC, (10, 10))
    east = predict(field, MotionInput(3.0, 0.0, dt=1.0), WS).mass.reshape(SPEC.extent)
    north = predict(field, MotionInput(3.0, math.pi / 2.0, dt=1.0),
                    WS).mass.reshape(SPEC.extent)
    # +x axis maps onto +y: east[i, j] == north[ rotated ]
    rotated = np.rot90(east)  # maps the +x lobe onto +y
    assert np.allclose(north, rotated, atol=1e-12)


def test_random_walk_isotropic_and_centered():
    field = point_mass(SPEC, (10, 10))
    motion = MotionInput(None, None, sigma_rw=1.5, dt=1.0)
    out = predict(field, motion, WS).mass.reshape(SPEC.extent)
    assert np.unravel_index(np.argmax(out), SPEC.extent) == (10, 10)
    assert np.allclose(out, out.T, atol=1e-12)
    assert np.allclose(out, out[::-1, :], atol=1e-12)


def test_bimodal_posterior_stays_bimodal():
    mass = np.zeros(SPEC.num_cells)
    mass[SPEC.coords_to_index((4, 4))] = 0.5
    mass[SPEC.coords_to_index((16, 16))] = 0.5
    field = LikelihoodField(SPEC, mass)
    out = predict(field, MotionInput(None, None, sigma_rw=0.8, dt=1.0),
                  WS).mass.reshape(SPEC.extent)
    assert out[4, 4] > 5.0 * out[10, 10]
    assert out[16, 16] > 5.0 * out[10, 10]
    assert np.isclose(out[4, 4], out[16, 16], rtol=1e-9)


def test_prediction_normalized_and_nonnegative():
    rng = np.random.default_rng(0)
    field = LikelihoodField(SPEC, rng.random(SPEC.num_cells))
    for motion in [MotionInput(2.0, 0.3, dt=0.5), MotionInput(1.0, None, dt=2.0),
                   MotionInput(None, None, dt=1.0)]:
        out = predict(field, motion, WS)
        assert abs(out.mass.sum() - 1.0) < 1e-9
        assert np.all(out.mass >= 0.0)


def test_prediction_spreads_mass():
    """A prediction step never sharpens the field (entropy does not drop)."""
    rng = np.random.default_rng(1)
    field = LikelihoodField(SPEC, rng.random(SPEC.num_cells) ** 4)

    def entropy(m):
        m = m[m > 0]
        return float(-(m * np.log(m)).sum())

    out = predict(field, MotionInput(None, None, sigma_rw=1.0, dt=1.0), WS)
    assert entropy(out.mass) >= entropy(field.mass)


def test_kernel_truncation_radius_scales_with_motion():
    slow = WS.radius_cells(WS.reach(MotionInput(1.0, 0.0, sigma_speed=0.1, dt=1.0)))
    fast = WS.radius_cells(WS.reach(MotionInput(8.0, 0.0, sigma_speed=0.1, dt=1.0)))
    assert fast > slow
    assert fast <= max(SPEC.extent) - 1


def test_motion_input_validation():
    with pytest.raises(ValueError):
        MotionInput(1.0, 0.0, dt=0.0)
    with pytest.raises(ValueError):
        MotionInput(-1.0, 0.0, dt=1.0)
    with pytest.raises(ValueError):
        MotionInput(1.0, 0.0, sigma_speed=0.0, dt=1.0)


@pytest.mark.parametrize("field, value, message", [
    ("dt", math.nan, "dt"),
    ("sigma_speed", math.nan, "uncertainties"),
    ("sigma_heading", math.nan, "uncertainties"),
    ("sigma_rw", math.nan, "uncertainties"),
    ("speed", math.nan, "speed"),
    ("heading", math.nan, "heading"),
    ("dt", math.inf, "dt"),
    ("sigma_rw", math.inf, "uncertainties"),
    ("speed", math.inf, "speed"),
    ("heading", -math.inf, "heading"),
], ids=lambda v: repr(v) if isinstance(v, float) else v)
def test_motion_input_rejects_non_finite(field, value, message):
    kwargs = {"speed": 1.0, "heading": 0.0, field: value}
    with pytest.raises(ValueError, match=message):
        MotionInput(**kwargs)


def test_workspace_requires_2d():
    with pytest.raises(ValueError):
        TransitionWorkspace(GridSpec((0, 0, 0), 1.0, (4, 4, 4)))


def test_chapman_kolmogorov_matches_dense_oracle():
    """Convolution result equals the explicit source-to-target double sum."""
    spec = GridSpec((0.0, 0.0), 1.0, (9, 9))
    ws = TransitionWorkspace(spec)
    rng = np.random.default_rng(2)
    field = LikelihoodField(spec, rng.random(spec.num_cells))
    motion = MotionInput(1.5, 0.4, sigma_speed=0.4, sigma_heading=0.3, dt=1.0)

    sigma_v = motion.sigma_speed * motion.dt
    pred = np.zeros(spec.num_cells)
    pos = spec.positions()
    r = ws.radius_cells(ws.reach(motion))
    for i in range(spec.num_cells):
        for j in range(spec.num_cells):
            delta = pos[i] - pos[j]
            ci = np.asarray(spec.index_to_coords(i))
            cj = np.asarray(spec.index_to_coords(j))
            if np.max(np.abs(ci - cj)) > r:
                continue  # outside the truncated kernel support
            d = math.hypot(*delta)
            k_v = math.exp(-0.5 * ((motion.speed * motion.dt - d) / sigma_v) ** 2) \
                / (math.sqrt(2 * math.pi) * sigma_v)
            if d == 0.0:
                k_h = 1.0 / (2.0 * math.pi)
            else:
                a = motion.heading - math.atan2(delta[1], delta[0])
                while a <= -math.pi:
                    a += 2 * math.pi
                while a > math.pi:
                    a -= 2 * math.pi
                k_h = math.exp(-0.5 * (a / motion.sigma_heading) ** 2) \
                    / (math.sqrt(2 * math.pi) * motion.sigma_heading)
            pred[i] += k_v * k_h * field.mass[j]
    pred /= pred.sum()

    out = predict(field, motion, ws)
    assert np.allclose(out.mass, pred, rtol=0.0, atol=1e-12)


def test_composed_prediction_matches_sequential():
    """One convolution with the composed, cropped kernel equals predicting
    step by step, on a blob that stays inside the grid: the crop to the
    summed reach drops nothing measurable."""
    spec = GridSpec((0.0, 0.0), 0.2, (120, 120))
    ws = TransitionWorkspace(spec)
    x, y = spec.axes()
    blob = np.exp(-0.5 * np.add.outer((x - 11.0) ** 2, (y - 12.5) ** 2) / 0.6 ** 2)
    field = LikelihoodField(spec, blob.ravel())
    # Mostly one heading, so the composed mass travels far from the centre
    # and a crop much tighter than the summed reach would cut into it.
    motions = [MotionInput(2.0, 0.3, dt=0.2),
               MotionInput(None, None, sigma_rw=1.0, dt=0.1),
               MotionInput(3.0, 0.5, sigma_speed=0.3, sigma_heading=0.4, dt=0.4),
               MotionInput(2.5, None, dt=0.15)]
    sequential, pending = field, None
    for motion in motions:
        sequential = predict(sequential, motion, ws)
        pending = ws.compose(pending, motion)
    composed = predict(field, pending, ws)

    radius = (pending.kernel.shape[0] - 1) // 2
    assert pending.reach == pytest.approx(sum(ws.reach(m) for m in motions))
    assert radius == ws.radius_cells(pending.reach)
    assert radius < sum(ws.radius_cells(ws.reach(m)) for m in motions)
    peak = sequential.mass.max()
    assert np.max(np.abs(composed.mass - sequential.mass)) <= 1e-12 * peak


def test_dropped_workspace_is_collected():
    """The displacement cache must not keep workspaces (or their grids) alive."""
    ws = TransitionWorkspace(GridSpec((0.0, 0.0), 0.5, (30, 30)))
    ws.transition_kernel(MotionInput(2.0, 0.3))
    ws.transition_kernel(MotionInput(None, None))
    ref = weakref.ref(ws)
    del ws
    gc.collect()
    assert ref() is None
