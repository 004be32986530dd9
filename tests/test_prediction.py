import gc
import json
import math
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridfuse.grid import (MASS_FLOOR, DegenerateFieldError, GridSpec, LikelihoodField,
                           init_uniform)
from gridfuse.prediction import (Transition, TransitionWorkspace, _convolve_full,
                                 _next_fast_len, _support_box, predict)

SPEC = GridSpec((0.0, 0.0), 1.0, (21, 21))
WS = TransitionWorkspace(SPEC)
# The engine's default motion uncertainties.
ODOMETRY = dict(speed=1.0, heading=0.0, dt=1.0, sigma_speed=0.5, sigma_heading=0.2)
RANDOM_WALK = dict(dt=1.0, sigma_rw=1.0)


def odometry(speed, heading, **kwargs):
    return Transition.odometry(**{**ODOMETRY, "speed": speed, "heading": heading,
                                  **kwargs})


def random_walk(**kwargs):
    return Transition.random_walk(**{**RANDOM_WALK, **kwargs})


def fftconvolve_same(grid, kernel):
    """The whole-grid reference: the window of ``_convolve_full`` from
    (k - 1) // 2 that covers the grid. These are the operations of
    ``scipy.signal.fftconvolve(grid, kernel, mode="same")`` on numpy's
    transforms."""
    full = _convolve_full(grid, kernel)
    return full[tuple(slice((k - 1) // 2, (k - 1) // 2 + n)
                      for n, k in zip(grid.shape, kernel.shape))]


def point_mass(spec, coords):
    mass = np.zeros(spec.num_cells)
    mass[spec.coords_to_index(coords)] = 1.0
    return LikelihoodField(spec, mass)


def test_known_motion_translates_mode():
    field = point_mass(SPEC, (10, 10))
    motion = Transition.odometry(speed=3.0, heading=0.0, dt=1.0, sigma_speed=0.3,
                                 sigma_heading=0.1)
    out = predict(field, motion, WS)
    assert tuple(np.asarray(SPEC.index_to_coords(int(np.argmax(out.mass))))) == (13, 10)


def test_zero_speed_keeps_mode():
    field = point_mass(SPEC, (10, 10))
    # speed 0 concentrates the translation likelihood at zero displacement
    motion = Transition.odometry(speed=1e-9, heading=0.7, dt=1.0, sigma_speed=0.2,
                                 sigma_heading=0.3)
    out = predict(field, motion, WS)
    assert int(np.argmax(out.mass)) == SPEC.coords_to_index((10, 10))


def test_heading_wrap_invariance():
    field = point_mass(SPEC, (10, 10))
    m1 = odometry(2.0, 1.1, dt=1.0)
    m2 = odometry(2.0, 1.1 - 2.0 * math.pi, dt=1.0)
    out1 = predict(field, m1, WS)
    out2 = predict(field, m2, WS)
    assert np.allclose(out1.mass, out2.mass, atol=1e-12)


def test_rotation_covariance():
    """Rotating the heading by 90 degrees rotates the predicted field."""
    field = point_mass(SPEC, (10, 10))
    east = predict(field, odometry(3.0, 0.0, dt=1.0), WS).mass.reshape(SPEC.extent)
    north = predict(field, odometry(3.0, math.pi / 2.0, dt=1.0),
                    WS).mass.reshape(SPEC.extent)
    # +x axis maps onto +y: east[i, j] == north[ rotated ]
    rotated = np.rot90(east)  # maps the +x lobe onto +y
    assert np.allclose(north, rotated, atol=1e-12)


def test_random_walk_isotropic_and_centered():
    field = point_mass(SPEC, (10, 10))
    motion = Transition.random_walk(dt=1.0, sigma_rw=1.5)
    out = predict(field, motion, WS).mass.reshape(SPEC.extent)
    assert np.unravel_index(np.argmax(out), SPEC.extent) == (10, 10)
    assert np.allclose(out, out.T, atol=1e-12)
    assert np.allclose(out, out[::-1, :], atol=1e-12)


def test_bimodal_posterior_stays_bimodal():
    mass = np.zeros(SPEC.num_cells)
    mass[SPEC.coords_to_index((4, 4))] = 0.5
    mass[SPEC.coords_to_index((16, 16))] = 0.5
    field = LikelihoodField(SPEC, mass)
    out = predict(field, Transition.random_walk(dt=1.0, sigma_rw=0.8),
                  WS).mass.reshape(SPEC.extent)
    assert out[4, 4] > 5.0 * out[10, 10]
    assert out[16, 16] > 5.0 * out[10, 10]
    assert np.isclose(out[4, 4], out[16, 16], rtol=1e-9)


def test_prediction_normalized_and_nonnegative():
    rng = np.random.default_rng(0)
    field = LikelihoodField(SPEC, rng.random(SPEC.num_cells))
    for motion in [odometry(2.0, 0.3, dt=0.5), random_walk(dt=1.0)]:
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

    out = predict(field, Transition.random_walk(dt=1.0, sigma_rw=1.0), WS)
    assert entropy(out.mass) >= entropy(field.mass)


def test_kernel_truncation_radius_scales_with_motion():
    """The window reaches |mean|_inf + 6 sigma_max: it grows with the travel
    and stops at the grid extent less one."""
    def radius(speed):
        step = odometry(speed, 0.0, dt=1.0, sigma_speed=0.1)
        return (WS.transition_kernel(step).shape[0] - 1) // 2

    slow, fast = radius(1.0), radius(8.0)
    assert slow < fast <= max(SPEC.extent) - 1
    assert radius(30.0) == max(SPEC.extent) - 1


def test_motion_input_validation():
    with pytest.raises(ValueError):
        odometry(1.0, 0.0, dt=0.0)
    with pytest.raises(ValueError):
        random_walk(dt=0.0)
    with pytest.raises(ValueError):
        odometry(-1.0, 0.0, dt=1.0)
    with pytest.raises(ValueError):
        odometry(1.0, 0.0, dt=1.0, sigma_speed=0.0)


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
    """Each constructor rejects a non-finite value of each of its arguments."""
    constructors = [(Transition.odometry, ODOMETRY), (Transition.random_walk, RANDOM_WALK)]
    for make, kwargs in constructors:
        if field in kwargs:
            with pytest.raises(ValueError, match=message):
                make(**{**kwargs, field: value})


def dense_prediction(field, transition):
    """The explicit source-to-target double sum of ``predict``, normalised."""
    spec = field.spec
    cov = transition.cov + 0.25 * spec.cell_size ** 2 * np.eye(2)
    inv = np.linalg.inv(cov)
    sigma_max = math.sqrt(np.linalg.eigvalsh(cov)[-1])
    r = math.ceil((np.abs(transition.mean).max() + 6.0 * sigma_max) / spec.cell_size)
    assert r < max(spec.extent) - 1  # the window, not the grid, bounds the kernel
    pred = np.zeros(spec.num_cells)
    pos = spec.positions()
    coords = np.stack(spec.index_to_coords(np.arange(spec.num_cells)), axis=-1)
    for i in range(spec.num_cells):
        for j in range(spec.num_cells):
            if np.max(np.abs(coords[i] - coords[j])) > r:
                continue  # outside the truncated kernel window
            e = pos[i] - pos[j] - transition.mean
            q = e @ inv @ e
            if q <= 36.0:
                pred[i] += math.exp(-0.5 * q) * field.mass[j]
    return pred / pred.sum()


CK_TRANSITION = odometry(1.5, 0.4, dt=1.0, sigma_speed=0.4, sigma_heading=0.3).then(
    random_walk(dt=0.5, sigma_rw=0.3))


def test_chapman_kolmogorov_matches_dense_oracle():
    """Convolution result equals the explicit source-to-target double sum of
    the Gaussian kernel: covariance plus (h/2)^2 per axis, cut beyond 6 sigma
    and outside the window of radius |mean|_inf + 6 sigma_max."""
    spec = GridSpec((0.0, 0.0), 1.0, (9, 9))
    ws = TransitionWorkspace(spec)
    rng = np.random.default_rng(2)
    field = LikelihoodField(spec, rng.random(spec.num_cells))
    out = predict(field, CK_TRANSITION, ws)
    assert np.allclose(out.mass, dense_prediction(field, CK_TRANSITION), rtol=0.0, atol=1e-12)


def blobs(spec, *corners):
    """A 2 x 2-cell blob of mass 1 to 4 at each corner coordinate, on a
    background of 1e-20, below the support threshold."""
    grid = np.full(spec.extent, 1e-20)
    for i, j in corners:
        grid[i:i + 2, j:j + 2] = [[1.0, 2.0], [3.0, 4.0]]
    return LikelihoodField(spec, grid.ravel())


@pytest.mark.parametrize("extent, corners", [
    ((14, 12), [(0, 10)]),
    ((16, 18), [(2, 1), (12, 14)]),
], ids=["corner_box_clipped_by_the_border", "two_blobs_with_held_corners"])
def test_support_box_matches_dense_oracle(extent, corners):
    """Predicting only the support box, grown by the kernel radius and clipped
    to the grid, matches the dense double sum: a blob in a corner, and two
    blobs far apart whose box leaves the other corners of the grid held."""
    spec = GridSpec((0.0, 0.0), 1.0, extent)
    ws = TransitionWorkspace(spec)
    field = blobs(spec, *corners)
    box = _support_box(field.mass.reshape(extent))
    assert box != (slice(0, extent[0]), slice(0, extent[1]))
    out = predict(field, CK_TRANSITION, ws)
    assert np.allclose(out.mass, dense_prediction(field, CK_TRANSITION), rtol=0.0, atol=1e-12)


@st.composite
def transitions(draw):
    if draw(st.booleans()):
        return Transition.random_walk(dt=draw(st.floats(0.05, 2.0)),
                                      sigma_rw=draw(st.floats(0.05, 1.5)))
    return Transition.odometry(speed=draw(st.floats(0.0, 4.0)),
                               heading=draw(st.floats(-math.pi, math.pi)),
                               dt=draw(st.floats(0.05, 1.0)),
                               sigma_speed=draw(st.floats(0.05, 1.0)),
                               sigma_heading=draw(st.floats(0.02, 0.5)))


BLOB_SPEC = GridSpec((0.0, 0.0), 0.5, (64, 48))
BLOB_WS = TransitionWorkspace(BLOB_SPEC)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, BLOB_SPEC.extent[0] - 1.0), st.floats(0.0, BLOB_SPEC.extent[1] - 1.0),
       st.floats(1.0, 6.0), transitions())
def test_support_box_matches_the_whole_grid_convolution(cx, cy, sigma, transition):
    """A Gaussian blob anywhere on the grid, borders included: predicting its
    support box matches convolving the whole grid within 1e-14 of the step's
    peak before the grid clips it (FFT rounding scales with that peak, not
    with what is left on the grid when mass moves off it), and the result
    sums to 1."""
    i, j = np.ogrid[:BLOB_SPEC.extent[0], :BLOB_SPEC.extent[1]]
    blob = np.exp(-0.5 * ((i - cx) ** 2 + (j - cy) ** 2) / sigma ** 2)
    field = LikelihoodField(BLOB_SPEC, blob.ravel())
    grid = field.mass.reshape(BLOB_SPEC.extent)
    kernel = BLOB_WS.transition_kernel(transition)
    whole = np.maximum(fftconvolve_same(grid, kernel), 0.0).ravel()
    out = predict(field, transition, BLOB_WS)
    peak = _convolve_full(grid, kernel).max()
    assert np.max(np.abs(out.mass * whole.sum() - whole)) <= 1e-14 * peak
    assert abs(out.mass.sum() - 1.0) <= 1e-12


H = 0.2


@pytest.mark.parametrize("heading", [0.0, 0.7, math.pi / 2.0, -2.5])
@pytest.mark.parametrize("speed, dt, n", [
    (0.0, 0.2, 5),     # the polar kernel: mean +0.631 m along the heading
    (1.5, 0.025, 1),   # 3.75 cm; the polar kernel: 0
    (1.5, 1.0, 1),     # 1.5 m; the polar kernel: 1.632 m
    (5.0, 0.5, 1),
], ids=["5x0.2s@0", "0.025s@1.5", "1s@1.5", "0.5s@5"])
def test_kernel_moments_match_analytic(speed, dt, n, heading):
    """The normalised kernel's mean is within 0.05 cell of the summed step
    means, and its per-axis standard deviation within 0.05 cell of the summed
    covariance plus the floor h^2/6 and the cell's own variance h^2/12
    (worst case measured: 0.02 cell for the mean, 0.037 cell for the spread)."""
    ws = TransitionWorkspace(GridSpec((0.0, 0.0), H, (80, 80)))
    step = odometry(speed, heading, dt=dt)
    transition = step
    for _ in range(n - 1):
        transition = transition.then(step)
    mean = n * step.mean
    var = n * np.diag(step.cov) + H * H / 6.0 + H * H / 12.0

    kernel = ws.transition_kernel(transition)
    kernel = kernel / kernel.sum()
    r = (kernel.shape[0] - 1) // 2
    offsets = H * np.arange(-r, r + 1)
    marginals = kernel.sum(axis=1), kernel.sum(axis=0)
    k_mean = np.array([m @ offsets for m in marginals])
    k_std = np.sqrt([m @ (offsets - c) ** 2 for m, c in zip(marginals, k_mean)])
    assert np.max(np.abs(k_mean - mean)) <= 0.05 * H
    assert np.max(np.abs(k_std - np.sqrt(var))) <= 0.05 * H


def test_composed_prediction_matches_sequential():
    """Steps compose in closed form: ``then`` sums the means and covariances
    exactly, and one prediction through the composed transition moves a blob's
    mean as far as predicting step by step does."""
    spec = GridSpec((0.0, 0.0), 0.2, (120, 120))
    ws = TransitionWorkspace(spec)
    x, y = spec.axes()
    blob = np.exp(-0.5 * np.add.outer((x - 11.0) ** 2, (y - 12.5) ** 2) / 0.6 ** 2)
    field = LikelihoodField(spec, blob.ravel())
    steps = [odometry(2.0, 0.3, dt=0.2),
             random_walk(dt=0.1, sigma_rw=1.0),
             odometry(3.0, 0.5, dt=0.4, sigma_speed=0.3, sigma_heading=0.4),
             odometry(2.5, -1.0, dt=0.15)]
    composed = steps[0]
    for step in steps[1:]:
        composed = composed.then(step)
    assert np.array_equal(composed.mean, ((steps[0].mean + steps[1].mean)
                                          + steps[2].mean) + steps[3].mean)
    assert np.array_equal(composed.cov, ((steps[0].cov + steps[1].cov)
                                         + steps[2].cov) + steps[3].cov)

    sequential = field
    for step in steps:
        sequential = predict(sequential, step, ws)
    once = predict(field, composed, ws)

    def centroid(f):
        return f.mass @ spec.positions()

    moved = centroid(field) + composed.mean
    assert np.max(np.abs(centroid(once) - moved)) <= 0.05 * spec.cell_size
    assert np.max(np.abs(centroid(sequential) - moved)) <= 0.05 * spec.cell_size


def test_transition_moments_that_overflow_give_a_zero_kernel():
    """A speed whose moments overflow, or a mean beyond 6 sigma of every cell
    of the window, builds a zero kernel without a warning, and predicting
    through it collapses: a uniform field, and a point mass on a floor of
    ``MASS_FLOOR``, whose support box is one cell, so every other cell is held."""
    mass = np.full(SPEC.num_cells, MASS_FLOOR)
    mass[SPEC.coords_to_index((3, 17))] = 1.0
    concentrated = LikelihoodField(SPEC, mass)
    for speed in (1e200, 1e155, 1000.0):
        step = odometry(speed, 0.3, dt=0.1)
        assert not np.any(WS.transition_kernel(step))
        assert not np.any(WS.transition_kernel(step.then(step)))
        for field in (init_uniform(SPEC), concentrated):
            with pytest.raises(DegenerateFieldError):
                predict(field, step, WS)


@pytest.mark.parametrize("extent, k", [
    ((30, 30), 7), ((31, 17), 9), ((16, 25), 5), ((12, 9), 23), ((5, 6), 13),
], ids=["even", "odd_even", "even_odd", "kernel_wider_than_grid", "small"])
def test_convolution_has_the_bits_of_fftconvolve_same(extent, k):
    """``predict`` on a whole-grid support box has the bits of
    ``fftconvolve_same``, and that agrees with scipy.signal's fftconvolve in
    "same" mode within 1e-14 of the peak: scipy's transforms round the same
    operations differently (at most 4.6e-16 of the peak on these cases)."""
    from scipy.signal import fftconvolve
    rng = np.random.default_rng(k)
    grid = rng.random(extent)
    kernel = rng.random((k, k))
    same = fftconvolve_same(grid, kernel)
    assert np.max(np.abs(same - fftconvolve(grid, kernel, mode="same"))) <= 1e-14 * same.max()
    field = LikelihoodField(GridSpec((0.0, 0.0), 0.5, extent), grid.ravel())
    assert _support_box(grid) == (slice(0, extent[0]), slice(0, extent[1]))
    ws = TransitionWorkspace(field.spec)
    step = odometry(1.3, 0.4)
    pred = predict(field, step, ws)
    expected = fftconvolve_same(field.mass.reshape(extent), ws.transition_kernel(step))
    expected = LikelihoodField(field.spec, np.maximum(expected, 0.0).ravel())
    assert np.array_equal(pred.mass, expected.mass)


def test_next_fast_len_matches_scipy():
    """The FFT length is scipy's next fast length for real transforms, the
    smallest 5-smooth number at or above n."""
    from scipy.fft import next_fast_len
    n = range(1, 3000)
    assert [_next_fast_len(i) for i in n] == [next_fast_len(i, True) for i in n]


def test_one_by_one_zero_kernel_collapses():
    spec = GridSpec((0.0, 0.0), 0.5, (7, 8))
    assert not np.any(fftconvolve_same(init_uniform(spec).mass.reshape(spec.extent),
                                       np.zeros((1, 1))))
    with pytest.raises(DegenerateFieldError):
        predict(init_uniform(spec), Transition(np.full(2, np.inf), np.eye(2)),
                TransitionWorkspace(spec))


def test_runtime_runs_without_scipy(tmp_path):
    """The package needs numpy only: with scipy blocked from import, the demo
    and a filter run on its output both exit 0, and no scipy module loads."""
    code = textwrap.dedent("""
        import json, sys
        sys.modules["scipy"] = None  # any import of scipy now fails
        import gridfuse
        from gridfuse.cli import main
        out = sys.argv[1]
        demo = main(["demo", "--out", out + "/demo", "--seed", "42"])
        filtered = main(["filter", "--config", out + "/demo/filter.json",
                         "--observations", out + "/demo/static_observations.csv",
                         "--out", out + "/filter"])
        loaded = [m for m, mod in sys.modules.items()
                  if m.startswith("scipy") and mod is not None]
        print(json.dumps([demo, filtered, loaded]))
    """)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [0, 0, []]
    assert (tmp_path / "filter" / "estimates.csv").stat().st_size > 0


def test_dropped_workspace_is_collected():
    """Building kernels must not keep workspaces (or their grids) alive."""
    ws = TransitionWorkspace(GridSpec((0.0, 0.0), 0.5, (30, 30)))
    ws.transition_kernel(odometry(2.0, 0.3))
    ws.transition_kernel(random_walk())
    ref = weakref.ref(ws)
    del ws
    gc.collect()
    assert ref() is None
