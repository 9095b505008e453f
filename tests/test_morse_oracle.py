"""The per-voxel Morse passes against the reference implementations in
`morse_oracle`, bit for bit: values, dtype and shape of every column,
and the voxel order and per-pair reduction they rest on. The oracle
names each maximum by its voxel id, `morse` by its row; the columns are
converted between the two where they meet."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import morse_oracle as oracle
from tvex import morse
from tvex.field import ScalarField3D

from conftest import random_field, raw_segmentation, voxel_ids

COLUMNS = ("labels", "maxima", "pairs", "saddles")

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

# values for the voxel order: each family puts one case of the float32
# code (or of the stable argsort that other values take) to the test
DENORMAL = float(np.float32(1e-45))
value_lists = st.one_of(
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=300),
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]), min_size=1, max_size=300),
    st.lists(st.integers(-4, 4).map(lambda i: i * DENORMAL), min_size=1, max_size=300),
    st.lists(st.floats(-1e3, 1e3, width=32), min_size=1, max_size=300),
    # float64 values, most not float32-exact, and some beyond its range
    st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=300),
    st.lists(st.sampled_from([0.1, -0.1, 0.5, 1e-300, -1e-300]), min_size=1, max_size=300),
    st.builds(lambda v, n: [v] * n, st.floats(-2.0, 2.0), st.integers(1, 300)),
)


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


def as_rows(seg):
    """The oracle's segmentation with each maximum named by its row, the
    labels in the dtype of the voxel ranks, as `morse` keeps them."""
    rank, _ = oracle.vertex_order(seg.field)
    return dataclasses.replace(
        seg,
        labels=np.searchsorted(seg.maxima, seg.labels).astype(rank.dtype),
        pairs=np.searchsorted(seg.maxima, seg.pairs),
    )


def check(f: ScalarField3D) -> None:
    want = oracle.compute_saddles(f, oracle.compute_segmentation(f))
    got = raw_segmentation(f)
    assert got.labels.dtype == morse.vertex_order(f)[0].dtype
    assert_same_columns(voxel_ids(got), want)


def line_field(values) -> ScalarField3D:
    return as_field(np.array(values, dtype=np.float64).reshape(1, 1, -1))


def assert_same_arrays(got: tuple, want: tuple) -> None:
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def assert_same_order(values) -> None:
    f = line_field(values)
    assert_same_arrays(morse.vertex_order(f), oracle.vertex_order(f))


class TestVertexOrder:
    @given(value_lists)
    @settings(max_examples=200, deadline=None)
    def test_matches_stable_argsort(self, values):
        assert_same_order(values)

    def test_single_voxel(self):
        rank, voxel = morse.vertex_order(line_field([-0.0]))
        assert rank.tolist() == [0] and rank.dtype == np.int32
        assert voxel.tolist() == [0] and voxel.dtype == np.int64

    def test_signed_zeros_tie_and_keep_id_order(self):
        rank, _ = morse.vertex_order(line_field([0.0, -0.0, -DENORMAL, DENORMAL, -0.0]))
        assert rank.tolist() == [1, 2, 0, 4, 3]

    def test_larger_random_fields(self, rng):
        for values in (rng.normal(size=5000), rng.normal(size=5000).astype(np.float32)):
            assert_same_order(values)


class TestBestPerPair:
    """Both paths of `_best_per_pair`: packed keys when key and rank
    bits fit 63, the argsort path when they do not."""

    @given(
        st.integers(1, 40),
        st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 2**20)), max_size=200),
        st.sampled_from([np.int32, np.int64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, shift, edges, dtype):
        # keys of 21 + shift bits and ranks of 21: packed up to shift 21
        keys = np.array([k for k, _ in edges], dtype=np.int64) << shift
        ranks = np.array([r for _, r in edges], dtype=dtype)
        assert_same_arrays(morse._best_per_pair(keys, ranks), oracle._best_per_pair(keys, ranks))

    @pytest.mark.parametrize("key_scale", [1, 2**42])
    def test_each_path(self, rng, key_scale):
        keys = rng.integers(0, 50, 1000).astype(np.int64) * key_scale
        ranks = rng.permutation(2**21)[:1000].astype(np.int32)
        assert_same_arrays(morse._best_per_pair(keys, ranks), oracle._best_per_pair(keys, ranks))


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
        want = morse.simplify(as_rows(raw), theta, oracle.vertex_order(f)[0])
        assert_same_columns(morse.morse_step(f, theta), want, COLUMNS + ("pers",))

