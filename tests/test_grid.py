import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridfuse.grid import (DegenerateFieldError, GridSpec, LikelihoodField,
                           init_uniform, recenter)


def test_init_uniform_10x10():
    field = init_uniform(GridSpec((0, 0), 1.0, (10, 10)))
    assert np.allclose(field.mass, 0.01)


def test_init_uniform_2x2():
    field = init_uniform(GridSpec((0, 0), 1.0, (2, 2)))
    assert np.allclose(field.mass, 0.25)


def test_init_uniform_normalized():
    field = init_uniform(GridSpec((0, 0), 0.5, (50, 40)))
    assert abs(field.mass.sum() - 1.0) < 1e-12
    assert np.all(field.mass == 1.0 / 2000)  # exactly 1/I, as the engine resets to


@pytest.mark.parametrize("kwargs", [
    dict(origin=(0, 0), cell_size=0.0, extent=(5, 5)),
    dict(origin=(0, 0), cell_size=-1.0, extent=(5, 5)),
    dict(origin=(0, 0), cell_size=1.0, extent=(1, 5)),
    dict(origin=(0, 0, 0), cell_size=1.0, extent=(5, 5)),
    dict(origin=(0,), cell_size=1.0, extent=(5,)),
    dict(origin=(0, 0, 0), cell_size=1.0, extent=(4, 4, 4)),
    dict(origin=(0, 0), cell_size=float("nan"), extent=(5, 5)),
    dict(origin=(0, 0), cell_size=float("inf"), extent=(5, 5)),
    dict(origin=(0, 0), cell_size=1.0, extent=(5, 5), plane_height=float("nan")),
    dict(origin=(0, 0), cell_size=1.0, extent=(5, 5), plane_height=float("inf")),
    dict(origin=(0, 0), cell_size=1.0, extent=(20.9, 30)),
    dict(origin=(0, 0), cell_size=1.0, extent=(20, "30")),
    dict(origin=(0, 0), cell_size=1.0, extent=(np.float64(5.5), 5)),
    dict(origin=(0, 0), cell_size=1.0, extent=(float("nan"), 5)),
    dict(origin=(0, 0), cell_size=1.0, extent=(float("inf"), 5)),
])
def test_invalid_specs(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


def test_integral_extent_entries_accepted():
    spec = GridSpec((0, 0), 1.0, (np.int64(20), 30.0))
    assert spec.extent == (20, 30) and all(type(e) is int for e in spec.extent)


def test_normalize_examples():
    """The constructor divides by the total and keeps a read-only copy."""
    spec = GridSpec((0, 0), 1.0, (2, 2))
    f = LikelihoodField(spec, [2, 2, 0, 0])
    assert np.allclose(f.mass, [0.5, 0.5, 0, 0])
    raw = np.array([0.0, 3.0, 1.0, 0.0])
    f = LikelihoodField(spec, raw)
    assert np.allclose(f.mass, [0, 0.75, 0.25, 0])
    assert raw[1] == 3.0 and not f.mass.flags.writeable


def test_normalize_all_zero_raises():
    spec = GridSpec((0, 0), 1.0, (2, 2))
    with pytest.raises(DegenerateFieldError):
        LikelihoodField(spec, np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_field_non_finite_mass_raises(bad):
    spec = GridSpec((0, 0), 1.0, (2, 2))
    with pytest.raises(DegenerateFieldError):
        LikelihoodField(spec, [0.5, bad, 0.25, 0.25])


@pytest.mark.parametrize("mass", [[0.5, -0.1, 0.3, 0.3], [0.5, 0.5, 0.0]])
def test_field_rejects_negative_or_misshaped_mass(mass):
    spec = GridSpec((0, 0), 1.0, (2, 2))
    with pytest.raises(ValueError):
        LikelihoodField(spec, mass)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=16, max_size=16)
       .filter(lambda xs: sum(xs) > 0))
def test_normalize_preserves_argmax_ties(masses):
    spec = GridSpec((0, 0), 1.0, (4, 4))
    normed = LikelihoodField(spec, masses)
    assert abs(normed.mass.sum() - 1.0) < 1e-9
    # scaling by 1/total keeps every original maximum maximal (division can
    # merge almost-equal values, so the tie set may only grow)
    top = max(masses)
    tie_set = {i for i, m in enumerate(masses) if m == top}
    normed_top = normed.mass.max()
    normed_ties = {i for i, m in enumerate(normed.mass) if m == normed_top}
    assert tie_set <= normed_ties


def test_index_round_trip():
    spec = GridSpec((2.0, -3.0), 0.5, (4, 5))
    for i in range(spec.num_cells):
        coords = spec.index_to_coords(i)
        assert spec.coords_to_index(coords) == i
    assert np.array_equal(spec.positions()[7], [2.0 + 0.5 * 1, -3.0 + 0.5 * 2])


def test_positions_layout():
    spec = GridSpec((1.0, 2.0), 0.5, (3, 4))
    pos = spec.positions()
    assert pos.shape == (12, 2)
    assert np.allclose(pos[0], [1.0, 2.0])
    # C order: last axis fastest
    assert np.allclose(pos[1], [1.0, 2.5])
    assert np.allclose(pos[4], [1.5, 2.0])


def test_positions_come_from_the_axes():
    spec = GridSpec((1.0, 2.0), 0.5, (3, 4), plane_height=1.5)
    x, y = spec.axes()
    assert np.array_equal(x, [1.0, 1.5, 2.0]) and np.array_equal(y, [2.0, 2.5, 3.0, 3.5])
    pos = spec.positions()
    for i in range(spec.num_cells):
        r, c = spec.index_to_coords(i)
        assert np.array_equal(pos[i], [x[r], y[c]])


def test_recenter_identity():
    spec = GridSpec((0, 0), 1.0, (8, 8))
    field = LikelihoodField(spec, np.random.default_rng(0).random(64))
    shifted = recenter(field, (0, 0))
    assert np.allclose(shifted.mass, field.mass, atol=1e-12)


def test_recenter_point_mass_translation():
    spec = GridSpec((0, 0), 1.0, (10, 10))
    mass = np.zeros(100)
    mass[spec.coords_to_index((5, 5))] = 1.0
    field = LikelihoodField(spec, mass)
    out = recenter(field, (2, 0))
    # world position of the mass is unchanged; its cell coords shift by -2 in x
    assert int(np.argmax(out.mass)) == out.spec.coords_to_index((3, 5))
    assert np.allclose(out.spec.positions()[int(np.argmax(out.mass))], [5.0, 5.0])


def test_recenter_uniform_stays_uniform():
    spec = GridSpec((0, 0), 1.0, (6, 6))
    out = recenter(init_uniform(spec), (1, -1))
    # interior cells keep uniform mass; shifted-in border cells only hold floor
    assert np.allclose(out.mass.sum(), 1.0)
    interior = out.mass[out.mass > 1e-6]
    assert np.allclose(interior, interior[0])


def test_recenter_rejects_fractional_offset():
    spec = GridSpec((0, 0), 1.0, (6, 6))
    with pytest.raises(ValueError):
        recenter(init_uniform(spec), (0.5, 0.0))


@pytest.mark.parametrize(
    "shift", [(1,), (1, 2, 3), 2, np.array([1.0, 0.0]), (1, None), "ab"],
    ids=["one_entry", "three_entries", "scalar", "float_array", "none_entry", "string"])
def test_recenter_rejects_a_shift_that_is_not_two_whole_cell_counts(shift):
    field = init_uniform(GridSpec((0, 0), 1.0, (6, 6)))
    with pytest.raises(ValueError, match="shift must be two whole-cell counts"):
        recenter(field, shift)


def test_recenter_origin_moves_by_shift_times_cell_size():
    """Python and numpy integers give one origin, ``o + s * cell_size`` in
    IEEE arithmetic, on a cell size with no exact binary form."""
    spec = GridSpec((-15.0, 3.7), 0.2, (20, 20))
    field = init_uniform(spec)
    expected = (-15.0 + 7 * 0.2, 3.7 + -3 * 0.2)
    assert recenter(field, (7, -3)).spec.origin == expected
    assert recenter(field, np.array([7, -3])).spec.origin == expected


def test_recenter_round_trip_conservation():
    spec = GridSpec((0, 0), 1.0, (10, 10))
    rng = np.random.default_rng(1)
    mass = np.zeros((10, 10))
    mass[3:7, 3:7] = rng.random((4, 4))  # zero boundary mass
    field = LikelihoodField(spec, mass.ravel())
    back = recenter(recenter(field, (2, 1)), (-2, -1))
    assert np.max(np.abs(back.mass - field.mass)) < 1e-12
