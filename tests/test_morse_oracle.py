"""The per-voxel Morse passes against the reference implementations in
`morse_oracle`, bit for bit: values, dtype and shape of every column,
and the voxel order and per-pair reduction they rest on, and the
persistence pairing against the Kruskal sweep over every region pair.
The oracle names each maximum by its voxel id, `morse` by its row; the
columns are converted between the two where they meet."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import morse_oracle as oracle
from iterative_simplify import iterative_simplify
from tvex import morse
from tvex.exgraph import build_extremum_graph
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
    """The oracle's ranks, dtype included, and its voxel of each rank in
    the dtype of the ranks."""
    f = line_field(values)
    (rank, voxel), (want_rank, want_voxel) = morse.vertex_order(f), oracle.vertex_order(f)
    assert_same_arrays((rank, voxel), (want_rank, want_voxel.astype(want_rank.dtype)))


class TestVertexOrder:
    @given(value_lists)
    @settings(max_examples=200, deadline=None)
    def test_matches_stable_argsort(self, values):
        assert_same_order(values)

    def test_single_voxel(self):
        rank, voxel = morse.vertex_order(line_field([-0.0]))
        assert rank.tolist() == [0] and rank.dtype == np.int32
        assert voxel.tolist() == [0] and voxel.dtype == np.int32

    def test_signed_zeros_tie_and_keep_id_order(self):
        rank, _ = morse.vertex_order(line_field([0.0, -0.0, -DENORMAL, DENORMAL, -0.0]))
        assert rank.tolist() == [1, 2, 0, 4, 3]

    def test_larger_random_fields(self, rng):
        for values in (rng.normal(size=5000), rng.normal(size=5000).astype(np.float32)):
            assert_same_order(values)


def keep_last(keys, ranks, rank_bits):
    """`morse._keep_last` on each key packed above its rank, unpacked."""
    packed = keys << rank_bits
    packed |= ranks
    last = morse._keep_last(packed, rank_bits)
    return last >> rank_bits, (last & ((1 << rank_bits) - 1)).astype(ranks.dtype)


def as_int64(arrays: tuple) -> tuple:
    return tuple(a.astype(np.int64) for a in arrays)


class TestBestPerPair:
    """Both per-pair reductions against the oracle's: `_keep_last` on
    keys packed above their ranks, and `_best_per_pair`, which packs
    them in the word it is given, or, given none, keeps them as two
    int64 rows for keys too wide to pack."""

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
        want = oracle._best_per_pair(keys, ranks)
        assert_same_arrays(morse._best_per_pair(keys, ranks), as_int64(want))
        if shift <= 21:
            assert_same_arrays(keep_last(keys, ranks, 21), want)

    @pytest.mark.parametrize("key_scale", [1, 2**42])
    def test_each_path(self, rng, key_scale):
        keys = rng.integers(0, 50, 1000).astype(np.int64) * key_scale
        ranks = rng.permutation(2**21)[:1000].astype(np.int32)
        want = oracle._best_per_pair(keys, ranks)
        assert_same_arrays(morse._best_per_pair(keys, ranks), as_int64(want))
        if key_scale == 1:
            assert_same_arrays(keep_last(keys, ranks, 21), want)
            # keys of 6 bits above ranks of 21 fit either word
            for word in (np.int32, np.int64):
                got = morse._best_per_pair(keys.copy(), ranks, 21, word)
                assert all(g.dtype == word and np.array_equal(g, w) for g, w in zip(got, want))


# (word, key bits, value bits) of each pair layout; the last is too wide for any word
LAYOUTS = {"int32": (np.int32, 19, 12), "int64": (np.int64, 40, 21), "two rows": (None, 62, 40)}


class TestPairLayout:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_pack_reduce_unpack(self, rng, layout):
        """`_pack`, then `_sorted` or `_keep_last`, then `_unpack`, give back
        the pairs in `np.lexsort` order and the oracle's best value per key,
        in the word, or as int64 with none."""
        word, key_bits, bits = LAYOUTS[layout]
        assert morse._word(key_bits + bits) is word
        some = rng.integers(0, 2**key_bits - 1, 30)
        keys = rng.choice(np.concatenate((some, some + 1)), 3000)  # neighbours tell bits apart
        keys[:2] = 0, 2**key_bits - 1
        values = rng.integers(0, 2**bits, 3000)
        values[:2] = 2**bits - 1, 0
        order = np.lexsort((values, keys))
        got = morse._unpack(morse._sorted(morse._pack(keys.copy(), values, bits, word)), bits)
        assert_same_arrays(got, tuple(a[order].astype(word or np.int64) for a in (keys, values)))
        packed = morse._pack(keys.copy(), values, bits, word)
        got = morse._unpack(morse._keep_last(packed, bits), bits)
        want = oracle._best_per_pair(keys, values)
        assert_same_arrays(got, tuple(a.astype(word or np.int64) for a in want))


def chain_field(levels: int) -> ScalarField3D:
    """A line of 2**levels maxima, one every other voxel. The minimum
    between maxima j and j + 1 is their saddle, and it is lower the more
    times 2 divides j + 1: neighbours merge in pairs, then pairs of
    pairs, so the spanning forest takes one Borůvka round per level."""
    k = 2**levels
    values = np.empty(2 * k - 1)
    values[0::2] = 10.0 + np.arange(k) % 3  # ties between maxima as well
    j = np.arange(1, k)
    values[1::2] = -np.log2(j & -j)  # minus the times 2 divides j
    return line_field(values)


def assert_same_pairing(f: ScalarField3D):
    seg = raw_segmentation(f)
    rank = morse.vertex_order(f)[0]
    pers, partner, order = morse._pairing(seg, rank)
    assert_same_arrays((pers, partner), oracle.pairing(seg, rank))
    rows = np.arange(len(seg.saddles))
    assert np.array_equal(order, np.lexsort((rows, rank[seg.saddles])))
    return seg


class TestPairing:
    """`_pairing`, which visits only the spanning forest's edges, against
    the Kruskal sweep over every region pair, bit for bit."""

    @given(st.one_of(
        float_fields,
        arrays(np.float64, shapes, elements=st.floats(0.0, 1.0, allow_nan=False)),
        integer_fields,
        constant_fields,
    ))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, a):
        assert_same_pairing(as_field(a))

    def test_larger_random_fields(self, rng):
        for i in range(6):
            f = random_field(rng, (12, 11, 10))
            if i % 2:
                f.values = f.values.astype(np.float32).astype(np.float64)
            assert_same_pairing(f)

    def test_saddles_sharing_a_voxel(self, rng):
        f = as_field(rng.integers(0, 3, (9, 9, 9)).astype(np.float64))
        seg = assert_same_pairing(f)
        assert len(np.unique(seg.saddles)) < len(seg.saddles)

    @pytest.mark.parametrize("values", [[0.0, 1.0, 2.0, 3.0], [5.0] * 27])
    def test_single_maximum(self, values):
        """A ramp and a constant field: one maximum, no region pairs."""
        seg = assert_same_pairing(line_field(values))
        assert len(seg.maxima) == 1 and len(seg.saddles) == 0

    def test_chain_takes_several_rounds(self, monkeypatch):
        f = chain_field(5)
        seg = raw_segmentation(f)
        ends = seg.pairs[morse._pairing(seg, morse.vertex_order(f)[0])[2]]
        rounds = []  # one pointer jump per round
        jump = morse._jump
        monkeypatch.setattr(morse, "_jump", lambda ptr: rounds.append(1) or jump(ptr))
        assert len(morse._spanning_forest(ends, len(seg.maxima))) == 31
        assert len(rounds) == 5
        assert_same_pairing(f)


def lattice_field(rng, dims) -> ScalarField3D:
    """Noise in [0, 1) with 10 added at every voxel of even coordinates:
    each of those is a maximum, and every other voxel is next to one, so
    the field has exactly the product of ceil(dim / 2) maxima."""
    nx, ny, nz = dims
    a = rng.uniform(0.0, 1.0, (nz, ny, nx))
    a[::2, ::2, ::2] += 10.0
    return as_field(a)


# the words a packed key may take under each choice, as `_WORDS` lists them
WORDS = {"int32": morse._WORDS, "int64": ((63, np.int64),), "argsort": ()}
WORD_CHOICE = {"int32": lambda bits: np.int32 if bits <= 31 else np.int64,
               "int64": lambda bits: np.int64, "argsort": lambda bits: None}
SEGMENTATION_DTYPES = {"labels": np.int32, "maxima": np.int64, "pers": np.float64,
                       "pairs": np.int64, "saddles": np.int64}
GRAPH_DTYPES = {"vertex": np.int64, "value": np.float64, "pers": np.float64,
                "eta": np.float64, "coords": np.float64, "arcs": np.int64}


class TestPerVoxelPasses:
    @given(fields)
    @settings(max_examples=150, deadline=None)
    def test_match_oracle(self, a):
        check(as_field(a))

    def test_match_oracle_on_larger_random_fields(self, rng):
        for _ in range(10):
            dims = tuple(int(d) for d in rng.integers(8, 17, 3))
            check(random_field(rng, dims))

    def test_keys_too_wide_to_pack(self, rng, monkeypatch):
        """With no bits to pack a key and a value into, `compute_saddles`
        and `simplify` reduce by the argsort path, to the same columns."""
        cases = []
        for edge in (6, 11):
            f = random_field(rng, (edge, edge + 1, edge + 2))
            f.values = np.round(f.values, 2)  # saddles sharing a voxel
            cases.append((f, morse.morse_step(f, 0.05)))
        monkeypatch.setattr(morse, "_WORDS", ())
        for f, want in cases:
            check(f)
            assert_same_columns(morse.morse_step(f, 0.05), want, COLUMNS + ("pers",))

    def test_word_limits(self):
        assert [morse._word(bits) for bits in (0, 31, 32, 63, 64)] == [
            np.int32, np.int32, np.int64, np.int64, None]

    @pytest.mark.parametrize("word", WORDS)
    def test_each_word(self, rng, monkeypatch, word):
        """Under each word the packed keys may take, and with none, the
        saddles, the pairing and its order, and `morse_step` match the
        oracles bit for bit, and the column dtypes stay as they are. The
        lattice fields need exactly 31 and 32 bits for the saddle keys."""
        cases = []
        for edge in (6, 11):
            f = random_field(rng, (edge, edge + 1, edge + 2))
            f.values = np.round(f.values, 2)  # saddles sharing a voxel
            cases.append((f, 0.05, None))
        cases += [(lattice_field(rng, (15, 16, 17)), 0.0, 31),
                  (lattice_field(rng, (16, 16, 17)), 0.0, 32)]
        wants = [iterative_simplify(oracle.compute_saddles(f, oracle.compute_segmentation(f)),
                                    theta) for f, theta, _ in cases]
        monkeypatch.setattr(morse, "_WORDS", WORDS[word])
        chosen, word_of = [], morse._word
        monkeypatch.setattr(morse, "_word", lambda bits: chosen.append(
            (bits, word_of(bits))) or word_of(bits))
        for (f, theta, saddle_bits), want in zip(cases, wants):
            check(f)
            assert_same_pairing(f)
            chosen.clear()
            got = morse.morse_step(f, theta)
            # compute_saddles asks first, then _pairing and simplify
            assert saddle_bits is None or chosen[0][0] == saddle_bits
            assert all(w == WORD_CHOICE[word](bits) for bits, w in chosen)
            assert_same_columns(voxel_ids(got), want, COLUMNS + ("pers",))
            assert {name: getattr(got, name).dtype for name in SEGMENTATION_DTYPES} \
                == SEGMENTATION_DTYPES
            graph = build_extremum_graph(f, theta)
            assert {name: getattr(graph, name).dtype for name in GRAPH_DTYPES} == GRAPH_DTYPES

    @given(fields, st.floats(0.0, 1.5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_morse_step_matches_simplified_oracle(self, a, theta):
        f = as_field(a)
        raw = oracle.compute_saddles(f, oracle.compute_segmentation(f))
        want = morse.simplify(as_rows(raw), theta, oracle.vertex_order(f)[0])
        assert_same_columns(morse.morse_step(f, theta), want, COLUMNS + ("pers",))

