"""The per-voxel Morse passes against the reference implementations in
`morse_oracle`, bit for bit: values, dtype and shape of every column."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import morse_oracle as oracle
from tvex import morse
from tvex.field import ScalarField3D

from conftest import random_field

COLUMNS = ("labels", "maxima", "pairs", "saddles", "saddle_ids")

# axes from one voxel thick upwards; few distinct values force ties in
# the voxel order, and a single value gives a constant field
shapes = st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7))
float_fields = arrays(
    np.float64, shapes, elements=st.floats(0.0, 1.0, allow_nan=False, width=32)
)
integer_fields = arrays(np.float64, shapes, elements=st.integers(0, 3).map(float))
constant_fields = st.builds(
    np.full, shapes, st.floats(-2.0, 2.0, allow_nan=False, width=32)
)
fields = st.one_of(float_fields, integer_fields, constant_fields)


def as_field(a: np.ndarray) -> ScalarField3D:
    nz, ny, nx = a.shape
    return ScalarField3D(
        dims=(nx, ny, nz), origin=np.zeros(3), spacing=np.ones(3), values=a.ravel()
    )


def assert_same_columns(got, want, names=COLUMNS):
    for name in names:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.shape == w.shape, name
        assert np.array_equal(g, w), name


def check(f: ScalarField3D) -> None:
    want = oracle.compute_saddles(f, oracle.compute_segmentation(f))
    got = morse.compute_saddles(f, morse.compute_segmentation(f))
    assert_same_columns(got, want)
    order = morse.vertex_order(f)
    assert_same_columns(
        morse.compute_saddles(f, morse.compute_segmentation(f, order), order), want
    )


class TestPerVoxelPasses:
    @given(fields)
    @settings(max_examples=150, deadline=None)
    def test_match_oracle(self, a):
        check(as_field(a))

    def test_match_oracle_on_larger_random_fields(self, rng):
        for _ in range(10):
            dims = tuple(int(d) for d in rng.integers(8, 17, 3))
            check(random_field(rng, dims))

    @given(fields, st.floats(0.0, 1.5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_morse_step_matches_simplified_oracle(self, a, theta):
        f = as_field(a)
        raw = oracle.compute_saddles(f, oracle.compute_segmentation(f))
        want = morse.simplify(raw, theta)
        assert_same_columns(morse.morse_step(f, theta), want, COLUMNS + ("pers",))

