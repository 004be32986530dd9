import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridfuse.geometry import (ReferencePoint, gamma_distance, gamma_hyperbolic,
                               wrap_angle)
from gridfuse.grid import GridSpec

SPEC = GridSpec((0.0, 0.0), 1.0, (8, 8))


def test_distance_zero_at_reference_cell():
    ref = ReferencePoint("r", (3.0, 4.0, 0.0))
    g = gamma_distance(ref, SPEC)
    assert g[SPEC.coords_to_index((3, 4))] == 0.0


def test_distance_3_4_5():
    ref = ReferencePoint("r", (3.0, 4.0, 0.0))
    g = gamma_distance(ref, SPEC)
    assert g[SPEC.coords_to_index((0, 0))] == pytest.approx(5.0)


def test_distance_matches_scalar_loop():
    rng = np.random.default_rng(7)
    ref = ReferencePoint("r", tuple(rng.uniform(-20, 20, 3)))
    g = gamma_distance(ref, SPEC)
    for i, (x, y) in enumerate(SPEC.positions()):
        expected = math.sqrt((ref.position[0] - x) ** 2
                             + (ref.position[1] - y) ** 2
                             + (ref.position[2] - SPEC.plane_height) ** 2)
        assert g[i] == pytest.approx(expected, rel=1e-12)


def test_distance_equals_norm_of_stacked_positions():
    """The per-axis computation is bit-identical to the (I, 3) norm."""
    rng = np.random.default_rng(19)
    for _ in range(40):
        spec = GridSpec(tuple(rng.uniform(-500, 500, 2)), rng.uniform(0.05, 2.0),
                        tuple(rng.integers(2, 40, 2)),
                        plane_height=rng.choice([0.0, rng.uniform(-3, 3)]))
        pos = np.column_stack([spec.positions(),
                               np.full(spec.num_cells, spec.plane_height)])
        for scale in (10.0, 1e3, 2e7):
            ref = ReferencePoint("r", tuple(rng.uniform(-scale, scale, 3)))
            assert np.array_equal(gamma_distance(ref, spec),
                                  np.linalg.norm(pos - ref.xyz, axis=1))


def test_distance_uses_plane_height_on_2d_grid():
    spec = GridSpec((0.0, 0.0), 1.0, (4, 4), plane_height=2.0)
    ref = ReferencePoint("r", (0.0, 0.0, 5.0))
    assert gamma_distance(ref, spec)[0] == pytest.approx(3.0)


def test_hyperbolic_bisector_zero():
    a = ReferencePoint("a", (0.0, 2.0, 0.0))
    b = ReferencePoint("b", (6.0, 2.0, 0.0))
    g = gamma_hyperbolic(a, b, SPEC)
    assert g[SPEC.coords_to_index((3, 0))] == pytest.approx(0.0)
    assert g[SPEC.coords_to_index((3, 7))] == pytest.approx(0.0)


def test_hyperbolic_antisymmetry_and_bound():
    rng = np.random.default_rng(3)
    a = ReferencePoint("a", tuple(rng.uniform(-10, 10, 3)))
    b = ReferencePoint("b", tuple(rng.uniform(-10, 10, 3)))
    g_ab = gamma_hyperbolic(a, b, SPEC)
    g_ba = gamma_hyperbolic(b, a, SPEC)
    assert np.allclose(g_ab, -g_ba)
    baseline = np.linalg.norm(a.xyz - b.xyz)
    assert np.all(np.abs(g_ab) <= baseline + 1e-12)


def test_hyperbolic_coincident_refs_raise():
    a = ReferencePoint("a", (1.0, 1.0, 0.0))
    b = ReferencePoint("b", (1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        gamma_hyperbolic(a, b, SPEC)


def test_innovation_angle_wrap_example():
    # Z = -3.1 vs Gamma = +3.1 wraps to ~+0.083, not -6.2
    y = wrap_angle(-3.1 - np.array([3.1]))
    expected = -6.2 + 2.0 * math.pi
    assert y[0] == pytest.approx(expected, abs=1e-12)


def test_translation_invariance():
    rng = np.random.default_rng(5)
    offset = rng.uniform(-50, 50, 2)
    ref = ReferencePoint("r", (4.2, -1.3, 9.0))
    ref_shift = ReferencePoint("r", (4.2 + offset[0], -1.3 + offset[1], 9.0))
    spec_shift = GridSpec(tuple(np.asarray(SPEC.origin) + offset), SPEC.cell_size,
                          SPEC.extent)
    assert np.allclose(gamma_distance(ref, SPEC),
                       gamma_distance(ref_shift, spec_shift), atol=1e-9)
    b = ReferencePoint("b", (0.0, 6.0, 2.0))
    b_shift = ReferencePoint("b", (offset[0], 6.0 + offset[1], 2.0))
    assert np.allclose(gamma_hyperbolic(ref, b, SPEC),
                       gamma_hyperbolic(ref_shift, b_shift, spec_shift), atol=1e-9)


@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_wrap_angle_range(x):
    w = float(wrap_angle(x))
    assert -math.pi < w <= math.pi
    assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-9)
    assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-9)


WRAP_EDGES = [math.pi, -math.pi, 0.0, -0.0, math.nan, 3.0 * math.pi, -3.0 * math.pi,
              1e9, np.nextafter(math.pi, 4.0), np.nextafter(math.pi, 0.0),
              np.nextafter(-math.pi, -4.0), np.nextafter(-math.pi, 0.0)]


def test_wrap_angle_in_place_is_bit_identical():
    """The in-place wrap gives the bits of the out-of-place formula, on
    arrays and on scalars (as 0-d arrays), and leaves its input alone."""
    def formula(angle):
        wrapped = np.remainder(np.asarray(angle, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
        return np.where(wrapped <= -np.pi, wrapped + 2.0 * np.pi, wrapped)

    values = np.array(WRAP_EDGES)
    kept = values.copy()
    wrapped = wrap_angle(values)
    assert np.array_equal(wrapped.view(np.int64), formula(values).view(np.int64))
    assert np.array_equal(values.view(np.int64), kept.view(np.int64))
    for v in WRAP_EDGES:
        w = wrap_angle(float(v))
        assert isinstance(w, np.ndarray) and w.shape == ()
        assert w.view(np.int64) == formula(float(v)).view(np.int64)


def test_reference_point_validation():
    with pytest.raises(ValueError):
        ReferencePoint("bad", (float("nan"), 0.0, 0.0))
