import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridfuse.grid import (DegenerateFieldError, GridSpec, LikelihoodField,
                           init_uniform, normalize, recenter)


def test_init_uniform_10x10():
    field = init_uniform(GridSpec((0, 0), 1.0, (10, 10)))
    assert np.allclose(field.mass, 0.01)


def test_init_uniform_2x2():
    field = init_uniform(GridSpec((0, 0), 1.0, (2, 2)))
    assert np.allclose(field.mass, 0.25)


def test_init_uniform_normalized():
    field = init_uniform(GridSpec((0, 0), 0.5, (50, 40)))
    assert abs(field.mass.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("kwargs", [
    dict(origin=(0, 0), cell_size=0.0, extent=(5, 5)),
    dict(origin=(0, 0), cell_size=-1.0, extent=(5, 5)),
    dict(origin=(0, 0), cell_size=1.0, extent=(1, 5)),
    dict(origin=(0, 0, 0), cell_size=1.0, extent=(5, 5)),
    dict(origin=(0,), cell_size=1.0, extent=(5,)),
])
def test_invalid_specs(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


def test_normalize_examples():
    spec = GridSpec((0, 0), 1.0, (2, 2))
    f = normalize(LikelihoodField(spec, [2, 2, 0, 0]))
    assert np.allclose(f.mass, [0.5, 0.5, 0, 0])
    f = normalize(LikelihoodField(spec, [0, 3, 1, 0]))
    assert np.allclose(f.mass, [0, 0.75, 0.25, 0])


def test_normalize_all_zero_raises():
    spec = GridSpec((0, 0), 1.0, (2, 2))
    with pytest.raises(DegenerateFieldError):
        normalize(LikelihoodField(spec, np.zeros(4)))


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=16, max_size=16)
       .filter(lambda xs: sum(xs) > 0))
def test_normalize_preserves_argmax_ties(masses):
    spec = GridSpec((0, 0), 1.0, (4, 4))
    field = LikelihoodField(spec, masses)
    normed = normalize(field)
    assert abs(normed.mass.sum() - 1.0) < 1e-9
    # scaling by 1/total keeps every original maximum maximal (division can
    # merge almost-equal values, so the tie set may only grow)
    top = max(masses)
    tie_set = {i for i, m in enumerate(masses) if m == top}
    normed_top = normed.mass.max()
    normed_ties = {i for i, m in enumerate(normed.mass) if m == normed_top}
    assert tie_set <= normed_ties


def test_index_round_trip():
    spec = GridSpec((2.0, -3.0, 1.0), 0.5, (4, 5, 3))
    for i in range(spec.num_cells):
        coords = spec.index_to_coords(i)
        assert spec.coords_to_index(coords) == i
    pos = spec.index_to_position(7)
    assert pos.shape == (3,)


def test_positions_layout():
    spec = GridSpec((1.0, 2.0), 0.5, (3, 4))
    pos = spec.positions()
    assert pos.shape == (12, 2)
    assert np.allclose(pos[0], [1.0, 2.0])
    # C order: last axis fastest
    assert np.allclose(pos[1], [1.0, 2.5])
    assert np.allclose(pos[4], [1.5, 2.0])


def test_positions_share_one_read_only_cache():
    spec = GridSpec((1.0, 2.0), 0.5, (3, 4), plane_height=1.5)
    pos3 = spec.positions_3d()
    assert pos3.shape == (12, 3)
    assert np.all(pos3[:, 2] == 1.5)
    assert np.array_equal(spec.positions(), pos3[:, :2])
    assert spec.positions_3d() is pos3
    assert not pos3.flags.writeable and not spec.positions().flags.writeable
    spec3 = GridSpec((0.0, 0.0, 0.0), 1.0, (2, 2, 3))
    assert np.array_equal(spec3.positions(), spec3.positions_3d())


def test_recenter_identity():
    spec = GridSpec((0, 0), 1.0, (8, 8))
    field = normalize(LikelihoodField(spec, np.random.default_rng(0).random(64)))
    shifted = recenter(field, (0.0, 0.0))
    assert np.allclose(shifted.mass, field.mass, atol=1e-12)


def test_recenter_point_mass_translation():
    spec = GridSpec((0, 0), 1.0, (10, 10))
    mass = np.zeros(100)
    mass[spec.coords_to_index((5, 5))] = 1.0
    field = LikelihoodField(spec, mass)
    out = recenter(field, (2.0, 0.0))
    # world position of the mass is unchanged; its cell coords shift by -2 in x
    assert int(np.argmax(out.mass)) == out.spec.coords_to_index((3, 5))
    assert np.allclose(out.spec.index_to_position(int(np.argmax(out.mass))), [5.0, 5.0])


def test_recenter_uniform_stays_uniform():
    spec = GridSpec((0, 0), 1.0, (6, 6))
    out = recenter(init_uniform(spec), (1.0, -1.0))
    # interior cells keep uniform mass; shifted-in border cells only hold floor
    assert np.allclose(out.mass.sum(), 1.0)
    interior = out.mass[out.mass > 1e-6]
    assert np.allclose(interior, interior[0])


def test_recenter_rejects_fractional_offset():
    spec = GridSpec((0, 0), 1.0, (6, 6))
    with pytest.raises(ValueError):
        recenter(init_uniform(spec), (0.5, 0.0))


def test_recenter_round_trip_conservation():
    spec = GridSpec((0, 0), 1.0, (10, 10))
    rng = np.random.default_rng(1)
    mass = np.zeros((10, 10))
    mass[3:7, 3:7] = rng.random((4, 4))  # zero boundary mass
    field = normalize(LikelihoodField(spec, mass.ravel()))
    back = recenter(recenter(field, (2.0, 1.0)), (0.0, 0.0))
    assert np.max(np.abs(back.mass - field.mass)) < 1e-12
