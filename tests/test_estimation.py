import math

import numpy as np
import pytest

from gridfuse.estimation import Estimate, estimate, map_estimate
from gridfuse.grid import DegenerateFieldError, GridSpec, LikelihoodField, init_uniform


def test_map_argmax_and_tie_break():
    spec = GridSpec((0, 0), 1.0, (3, 3))
    field = LikelihoodField(spec, [0.1, 0.3, 0.1, 0.3, 0.1, 0.0, 0.0, 0.1, 0.0])
    assert map_estimate(field) == 1  # lowest linear index among the 0.3 tie


def test_map_degenerate_raises():
    spec = GridSpec((0, 0), 1.0, (2, 2))
    with pytest.raises(DegenerateFieldError):
        map_estimate(LikelihoodField(spec, np.zeros(4)))


def test_weighted_mean_hand_example():
    spec = GridSpec((0, 0), 1.0, (3, 3))
    mass = np.zeros(9)
    mass[spec.coords_to_index((1, 1))] = 0.6
    mass[spec.coords_to_index((2, 1))] = 0.4
    field = LikelihoodField(spec, mass)
    wm = estimate(field, radius=2.0).position
    assert np.allclose(wm, [1.4, 1.0, 0.0])


def test_weighted_mean_radius_excludes_far_mass():
    spec = GridSpec((0, 0), 1.0, (9, 9))
    mass = np.zeros(81)
    mass[spec.coords_to_index((4, 4))] = 0.7
    mass[spec.coords_to_index((8, 8))] = 0.3  # ~5.66 m away from the mode
    field = LikelihoodField(spec, mass)
    wm = estimate(field, radius=2.0).position
    assert np.allclose(wm, [4.0, 4.0, 0.0])


def test_weighted_mean_infinite_radius_is_global_centroid():
    spec = GridSpec((0, 0), 0.5, (10, 10))
    rng = np.random.default_rng(0)
    field = LikelihoodField(spec, rng.random(100))
    wm = estimate(field, radius=np.inf).position
    expected = (field.mass[:, None] * spec.positions()).sum(axis=0)
    assert np.allclose(wm, [*expected, 0.0], atol=1e-12)


def test_huge_finite_radius_gives_the_infinite_radius_estimate():
    """A radius beyond the grid is clipped to it, so 1e308 windows the grid as
    inf does and gives the same estimate bit for bit."""
    spec = GridSpec((0, 0), 0.5, (10, 12))
    field = LikelihoodField(spec, np.random.default_rng(3).random(120))
    huge, inf = estimate(field, radius=1e308), estimate(field, radius=math.inf)
    assert (huge.position, huge.map_cell, huge.map_mass, huge.support_count) == (
        inf.position, inf.map_cell, inf.map_mass, inf.support_count)
    assert huge.support_count == 120


def test_weighted_mean_small_radius_raises():
    spec = GridSpec((0, 0), 1.0, (4, 4))
    with pytest.raises(ValueError):
        estimate(init_uniform(spec), radius=0.5)


def test_estimate_scale_invariance():
    spec = GridSpec((0, 0), 1.0, (8, 8))
    rng = np.random.default_rng(1)
    mass = rng.random(64)
    e1 = estimate(LikelihoodField(spec, mass), radius=3.0, timestamp=7.0)
    e2 = estimate(LikelihoodField(spec, 123.4 * mass), radius=3.0, timestamp=7.0)
    assert np.allclose(e1.position, e2.position, atol=1e-12)
    assert e1.map_cell == e2.map_cell
    assert e1.map_mass == pytest.approx(e2.map_mass, rel=1e-12)
    assert e1.timestamp == 7.0 and e1.support_count == e2.support_count


def test_estimate_reports_plane_height():
    spec = GridSpec((0, 0), 1.0, (5, 5), plane_height=1.8)
    est = estimate(init_uniform(spec), radius=2.0)
    assert est.position[2] == pytest.approx(1.8)


def test_estimate_uniform_support_count():
    spec = GridSpec((0, 0), 1.0, (11, 11))
    est = estimate(init_uniform(spec), radius=np.inf)
    assert est.support_count == 121
    assert est.map_mass == pytest.approx(1.0 / 121.0)


def test_subcell_refinement_beats_map():
    """The weighted mean recovers sub-cell offsets the MAP cell cannot."""
    spec = GridSpec((0, 0), 1.0, (15, 15))
    pos = np.column_stack([spec.positions(), np.zeros(spec.num_cells)])
    rng = np.random.default_rng(2)
    wins = 0
    for _ in range(100):
        truth = np.array([rng.uniform(4, 10), rng.uniform(4, 10), 0.0])
        d2 = ((pos - truth) ** 2).sum(axis=1)
        field = LikelihoodField(spec, np.exp(-0.5 * d2 / 1.5 ** 2))
        cell = map_estimate(field)
        map_err = np.linalg.norm(pos[cell] - truth)
        wm_err = np.linalg.norm(estimate(field, radius=5.0).position - truth)
        if wm_err <= map_err:
            wins += 1
    assert wins >= 80


def full_grid_estimate(field, radius, timestamp=0.0):
    """Reference: the radius test applied to every cell of the grid."""
    spec = field.spec
    pos = np.column_stack([spec.positions(), np.full(spec.num_cells, spec.plane_height)])
    center = map_estimate(field)
    if math.isinf(radius):
        support = np.ones(spec.num_cells, dtype=bool)
    else:
        support = np.linalg.norm(pos - pos[center], axis=1) <= radius
    mass = field.mass[support]
    wm = (mass[:, None] * pos[support]).sum(axis=0) / mass.sum()
    return Estimate(timestamp, tuple(float(v) for v in wm), center,
                    float(field.mass[center] / field.mass.sum()), radius,
                    int(support.sum()))


@pytest.mark.parametrize("peak", [(0, 0), (23, 16), (0, 9), (12, 16), (11, 7), (2, 14)],
                         ids=["corner", "far_corner", "edge", "far_edge", "interior",
                              "near_edge"])
# 3 * 0.3 // 0.3 == 2.0, yet cells three apart lie within that radius
@pytest.mark.parametrize("radius", [2.7, 1.0, 3 * 0.3, math.inf])
def test_estimate_window_matches_full_grid(peak, radius):
    spec = GridSpec((-3.1, 7.45), 0.3, (24, 17), plane_height=1.2)
    rng = np.random.default_rng(4)
    mass = rng.random(spec.num_cells)
    mass[spec.coords_to_index(peak)] = 2.0
    field = LikelihoodField(spec, mass)
    assert map_estimate(field) == spec.coords_to_index(peak)
    assert estimate(field, radius, 3.0) == full_grid_estimate(field, radius, 3.0)
