"""Column linking and the template writers of `tvex.io` (tveg.json, its
steps and pairs, events, the region and neighbourhood answers and the
segmentation sidecar) against the reference implementations in
`linking_oracle`, bit for bit."""

import os
import re
import tempfile
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import linking_oracle as oracle
from tvex import io as tvio, morse, temporal
from tvex.exgraph import build_extremum_graph
from tvex.field import ScalarField3D, generate_gauss8
from tvex.pipeline import compute_tveg
from tvex.query import Selection
from tvex.temporal import (
    FilterMeta,
    ScoreTuple,
    ScoreWeights,
    Tveg,
    compute_scores,
    remove_z_configurations,
)

from conftest import assert_same_text, linked, maxima_graph, random_field

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tvex")

# few distinct values force ties in every component and in the scores;
# an all-equal column gives an all-zero component
small_ints = st.integers(0, 3).map(float)
unit_floats = st.floats(0.0, 1.0, allow_nan=False, width=32)
attribute = st.one_of(small_ints, unit_floats)


@st.composite
def maxima_sets(draw, t, sizes=st.integers(1, 9), pool=None):
    """A maxima-only graph of `sizes` maxima; coordinates are drawn from
    `pool`, or from a small drawn pool, so several maxima may share a
    position."""
    n = draw(sizes)
    if pool is None:
        pool = draw(arrays(np.float64, (draw(st.integers(1, 4)), 3), elements=attribute))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    cols = [draw(arrays(np.float64, n, elements=attribute)) for _ in range(3)]
    return maxima_graph(t, pool[rows], *cols)


@st.composite
def shared_pool_pairs(draw):
    """Two maxima sets of 1 to 9 whose points come from one pool of 1 to 3
    points: coincident points across the steps, and all points equal
    (a distance peak of 0) when the pool has one."""
    pool = draw(arrays(np.float64, (draw(st.integers(1, 3)), 3), elements=attribute))
    return draw(maxima_sets(1, pool=pool)), draw(maxima_sets(2, pool=pool))


@st.composite
def lattice_pairs(draw):
    """Maxima of 2 to 40 on the integer lattice 0..4: on a box of 4 lattice
    steps every point lies on a boundary of the Z-order cells (1024 per
    axis), points repeat within and across the steps, and attributes of
    few distinct values tie scores within and across blocks."""
    pool = np.stack(np.meshgrid(*[np.arange(5.0)] * 3), axis=-1).reshape(-1, 3)
    sizes = st.integers(2, 40)
    return draw(maxima_sets(1, sizes, pool)), draw(maxima_sets(2, sizes, pool))


@st.composite
def score_weights(draw):
    """Weights with any of them zero, summing to 1 within rounding."""
    parts = draw(st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(any))
    total = sum(parts)
    return ScoreWeights(*(p / total for p in parts))


def score_bits(arcs):
    """The arcs with each score's exact bits (hex tells -0.0 from 0.0)."""
    return [(a.m0, a.m1, a.s.hex()) for a in arcs]


def scorer_paths(n1):
    """Module constants under which `compute_scores` takes each of its paths
    on a pair of n1 targets: its own; every target a candidate in blocks of
    1 to 3 rows; and the distance prune from any count of targets, never
    falling back, in blocks of 1 to 3 rows, with 2 or 16 seeds and the gaps
    of 1 or 3 blocks taken at once."""
    yield {"_ENTRIES": temporal._ENTRIES}
    for rows in (1, 2, 3):
        yield {"_ENTRIES": rows * n1}
    for rows, seeds, group in product((1, 2, 3), (2, 16), (1, 3)):
        yield {"_ENTRIES": group * n1, "_PRUNE_MIN": 0, "_DENSE_SHARE": 1.0,
               "_PRUNE_ROWS": rows, "_SEEDS": seeds}


def assert_matches_oracle(g0, g1, w, paths=None):
    """`compute_scores` gives the oracle's arcs, bit for bit, on every path
    of `scorer_paths` (or of `paths`)."""
    want = score_bits(oracle.compute_scores(g0, g1, w))
    for consts in paths or scorer_paths(g1.n_max):
        with mock.patch.multiple(temporal, **consts):
            got = compute_scores(g0, g1, w)
        assert score_bits(got) == want, consts
        assert all(type(a.m0) is int and type(a.s) is float for a in got)


def block_case(rng, n0, n1):
    """Maxima at steps 1 and 2 whose ties and coincident points span row
    blocks: every third value of each column is rounded to one decimal,
    the last rows of g0 repeat its first points, and every other maximum
    of g1 sits on a maximum of g0."""
    g0, g1 = (
        maxima_graph(t, rng.uniform(-1, 1, (n, 3)), *rng.uniform(0, 1, (3, n)))
        for t, n in ((1, n0), (2, n1))
    )
    for g in (g0, g1):
        for col in (g.coords, g.value, g.pers, g.eta):
            col[::3] = np.round(col[::3], 1)
    g0.coords[-5:] = g0.coords[:5]
    g1.coords[::2] = g0.coords[: len(g1.coords[::2])]
    return g0, g1


def all_equal_case(rng, n0, n1):
    """Every column constant on both sides: all four peaks are 0."""
    return (
        maxima_graph(t, np.full((n, 3), 0.5), *np.full((3, n), 0.25))
        for t, n in ((1, n0), (2, n1))
    )


def coherent_pair(rng, n, jitter=0.02):
    """n maxima on a jittered 3D grid at step 1, each moved by at most
    `jitter` at step 2. As on a noisy series, one maximum's attributes set
    the peaks and the others' lie close together (near 1, changing a
    little), so the distance term decides each maximum's best two."""
    side = int(np.ceil(n ** (1 / 3)))
    grid = np.stack(np.meshgrid(*[np.linspace(-1, 1, side)] * 3), axis=-1).reshape(-1, 3)[:n]
    x0 = grid + rng.uniform(-0.1, 0.1, grid.shape)
    cols0 = 1 + rng.uniform(0, 0.1, (3, n))
    cols0[:, 0] = 5.0
    return (maxima_graph(1, x0, *cols0),
            maxima_graph(2, x0 + rng.uniform(-jitter, jitter, x0.shape),
                         *(cols0 + rng.uniform(0, 0.01, (3, n)))))


WEIGHTS = [ScoreWeights(), ScoreWeights(0.1, 0.1, 0.7, 0.1), ScoreWeights(0, 0, 1, 0),
           ScoreWeights(0.5, 0.25, 0, 0.25)]


def prune_spy():
    """A wrapper of `temporal._pruned_blocks` that records what it returns
    as lists (None, or each block's rows and candidates)."""
    calls, real = [], temporal._pruned_blocks

    def spy(*args):
        blocks = real(*args)
        if blocks is not None:
            blocks = [(np.array(r), np.array(c)) for r, c in blocks]
        calls.append(blocks and [(r.tolist(), c.tolist()) for r, c in blocks])
        return blocks and iter(blocks)

    return calls, mock.patch.object(temporal, "_pruned_blocks", spy)


class TestScoring:
    @given(maxima_sets(1), maxima_sets(2), score_weights())
    @settings(max_examples=150, deadline=None)
    def test_compute_scores(self, g0, g1, w):
        assert_matches_oracle(g0, g1, w)

    @given(maxima_sets(1, st.just(1)), maxima_sets(2, st.just(1)), score_weights())
    @settings(max_examples=50, deadline=None)
    def test_one_row_one_target(self, g0, g1, w):
        assert_matches_oracle(g0, g1, w)

    @given(shared_pool_pairs(), score_weights())
    @settings(max_examples=100, deadline=None)
    def test_coincident_points(self, pair, w):
        assert_matches_oracle(*pair, w)

    @given(lattice_pairs(), score_weights())
    @settings(max_examples=60, deadline=None)
    def test_lattice_points(self, pair, w):
        """Ties across cells and blocks, points on cell boundaries."""
        assert_matches_oracle(*pair, w)

    @pytest.mark.parametrize("case", [block_case, all_equal_case])
    @pytest.mark.parametrize("n0", [255, 256, 257, 513])
    def test_across_row_blocks(self, n0, case):
        rng = np.random.default_rng(n0)
        for n1 in (1, 2, n0 + 37):
            g0, g1 = case(rng, n0, n1)
            for w in (ScoreWeights(), ScoreWeights(0, 0, 1, 0), ScoreWeights(0.5, 0.25, 0, 0.25)):
                got = compute_scores(g0, g1, w)
                assert score_bits(got) == score_bits(oracle.compute_scores(g0, g1, w))
                if case is all_equal_case:
                    assert all(a.s == 0.0 for a in got)

    def test_single_maximum_each_side(self):
        g0 = maxima_graph(1, [[0.0, 0.0, 0.0]], [1.0], [0.5], [1.0])
        g1 = maxima_graph(2, [[0.0, 0.0, 0.0]], [1.0], [0.5], [1.0])
        got = compute_scores(g0, g1, ScoreWeights())
        assert got == oracle.compute_scores(g0, g1, ScoreWeights())
        assert got == [ScoreTuple(int(g0.maxima[0]), int(g1.maxima[0]), 0.0)]

    def test_bench_sized_pair(self, rng):
        g0, g1 = (
            maxima_graph(t, rng.uniform(-1, 1, (n, 3)), *rng.uniform(0, 1, (3, n)))
            for t, n in ((1, 300), (2, 280))
        )
        w = ScoreWeights()
        got = compute_scores(g0, g1, w)
        assert got == oracle.compute_scores(g0, g1, w)
        assert remove_z_configurations(got) == oracle.remove_z_configurations(got)


def buffers(nr, nc):
    return np.empty((3, nr, nc))


def brute_peak(A, B):
    """The greatest squared distance, each axis difference times itself
    and the axes added in x, y, z order, over all pairs of points of
    attribute rows A and B."""
    return max(sum((d * d for d in (a[2:5] - b[2:5]).tolist()), 0.0)
               for a in A.T for b in B.T)


def attribute_rows(points):
    A = np.zeros((6, len(points)))
    A[2:5] = np.asarray(points, dtype=np.float64).T
    return A


# coordinates of any sign and size whose squares and their sums stay finite
coordinates = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0, -1.0]),
                        st.floats(-1e100, 1e100, allow_nan=False))


class TestDistancePeak:
    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)), elements=coordinates),
           arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)), elements=coordinates),
           st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_every_pair(self, a, b, rows):
        A, B = attribute_rows(a), attribute_rows(b)
        lo, hi = B[2:5].min(axis=1), B[2:5].max(axis=1)
        assert temporal._peak_dist2(A, B, lo, hi, rows, buffers) == brute_peak(A, B)

    def test_farthest_pair_off_the_top_bound(self):
        """The targets' bounding box has an empty corner: the row of the
        greatest bound (5.12, to that corner) reaches only 2.92; the
        farthest pair (5.0) is another row's, which the scan must visit."""
        A = attribute_rows([[-0.6, -0.6, 0.0], [2.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        B = attribute_rows([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        lo, hi = B[2:5].min(axis=1), B[2:5].max(axis=1)
        assert temporal._peak_dist2(A, B, lo, hi, 1, buffers) == brute_peak(A, B) == 5.0
        g0 = maxima_graph(1, A[2:5].T, [1.0, 2.0, 3.0], [1.0, 1.0, 2.0], [0.5, 0.0, 1.0])
        g1 = maxima_graph(2, B[2:5].T, [1.0, 3.0, 2.0], [2.0, 1.0, 1.0], [0.0, 0.5, 1.0])
        for w in WEIGHTS:
            assert_matches_oracle(g0, g1, w)


class TestDistancePrune:
    @pytest.mark.parametrize("w", WEIGHTS, ids=str)
    def test_coherent_pair(self, rng, w):
        """On a coherent pair the forced prune drops targets, and every
        path matches the oracle; with L2 = 0 nothing can be pruned, so the
        blocks take every target."""
        g0, g1 = coherent_pair(rng, 200)
        calls, spy = prune_spy()
        with spy:
            assert_matches_oracle(g0, g1, w)
        if w.L2 == 0:
            assert not calls
        else:
            blocks = [b for c in calls for b in c]
            assert any(len(cols) < g1.n_max for _, cols in blocks)
            assert all(cols == sorted(cols) for _, cols in blocks)

    def test_row_whose_reach_spans_the_grid(self, rng):
        """One maximum of g0 has a persistence far from every target's, so
        its second-best score puts every target within reach: its block
        takes every target, the others fewer."""
        g0, g1 = coherent_pair(rng, 150)
        g0.pers[7] = 50.0
        calls, spy = prune_spy()
        consts = {"_PRUNE_MIN": 0, "_DENSE_SHARE": 1.0, "_ENTRIES": 2 * g1.n_max}
        with spy:
            assert_matches_oracle(g0, g1, ScoreWeights(), [consts])
        (blocks,) = calls
        (cols,) = [cols for rows, cols in blocks if 7 in rows]
        assert cols == list(range(g1.n_max))
        assert any(len(cols) < g1.n_max for _, cols in blocks)

    @pytest.mark.parametrize("coherent", [True, False])
    def test_fallback_rule(self, rng, coherent):
        """From `_PRUNE_MIN` targets on the prune is tried: a coherent pair
        keeps it; on a pair with no coherence the blocks' reach covers
        most targets and the dense blocks score the pair. Below
        `_PRUNE_MIN` it is not tried."""
        if coherent:
            g0, g1 = coherent_pair(rng, 400)
        else:
            g0, g1 = (maxima_graph(t, rng.uniform(-1, 1, (400, 3)), *rng.uniform(0, 1, (3, 400)))
                      for t in (1, 2))
        w = ScoreWeights()
        want = score_bits(oracle.compute_scores(g0, g1, w))
        calls, spy = prune_spy()
        with spy, mock.patch.object(temporal, "_PRUNE_MIN", 400):
            assert score_bits(compute_scores(g0, g1, w)) == want
        with spy, mock.patch.object(temporal, "_PRUNE_MIN", 401):
            assert score_bits(compute_scores(g0, g1, w)) == want
        assert len(calls) == 1
        assert (calls[0] is None) is not coherent

    @pytest.mark.parametrize("w", WEIGHTS[:2], ids=str)
    def test_noisy_field_pair(self, w):
        """Two steps of a noisy Gauss8 24^3 series at theta 0 (some 550
        maxima a step), with the prune from any count of targets."""
        series = generate_gauss8((24, 24, 24), 2)
        rng = np.random.default_rng(24)
        graphs = []
        for f in series.fields:
            noisy = f.values + rng.normal(0.0, 0.05, f.num_voxels)
            f.values = noisy.astype(np.float32).astype(np.float64)
            graphs.append(build_extremum_graph(f, 0.0))
        calls, spy = prune_spy()
        with spy:
            assert_matches_oracle(*graphs, w, [{"_PRUNE_MIN": 0}])
        assert calls and calls[0] is not None


arc_lists = st.lists(
    st.builds(
        ScoreTuple,
        m0=st.integers(0, 5),
        m1=st.integers(10, 15),
        s=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), unit_floats),
    ),
    max_size=30,
)


class TestZRemoval:
    @given(arc_lists)
    # three offenders tie at s = 0.5: the greater source id goes first,
    # then the greater target id
    @example([ScoreTuple(0, 10, 0.5), ScoreTuple(1, 11, 0.25), ScoreTuple(1, 10, 0.5),
              ScoreTuple(0, 11, 0.5)])
    @settings(max_examples=300, deadline=None)
    def test_matches_rescan(self, arcs):
        assert remove_z_configurations(arcs) == oracle.remove_z_configurations(arcs)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(10, 14)), unique=True))
    @settings(max_examples=100, deadline=None)
    def test_all_scores_tied(self, pairs):
        arcs = [ScoreTuple(m0, m1, 0.5) for m0, m1 in pairs]
        assert remove_z_configurations(arcs) == oracle.remove_z_configurations(arcs)


def as_field(a: np.ndarray, t: int) -> ScalarField3D:
    nz, ny, nx = a.shape
    return ScalarField3D(
        dims=(nx, ny, nz),
        origin=np.full(3, -1.0),
        spacing=np.full(3, 0.5),
        values=a.ravel(),
        time_index=t,
    )


# any finite float, including -0.0, subnormals and the extremes
any_float = st.floats(allow_nan=False, allow_infinity=False)


# values whose texts differ although they are close or equal as numbers:
# both zeros, the least subnormals, and neighbours one ulp apart
repeated_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
    0.1, np.nextafter(0.1, 1.0), -2.5, np.nextafter(-2.5, 0.0), 1e300,
])


class TestStepWriter:
    @given(
        st.lists(
            st.tuples(
                arrays(np.float64, st.tuples(st.integers(0, 5), st.just(3)), elements=any_float),
                st.integers(0, 2**40),
            ),
            min_size=1,
            max_size=3,
        ),
        any_float,
        score_weights(),
        st.builds(FilterMeta, any_float, any_float, any_float),
    )
    @settings(max_examples=100, deadline=None)
    def test_graphs_without_saddles(self, steps, theta, w, meta):
        """Maxima-only steps, empty ones and single-node ones among them;
        theta, the weights and the filter statistics drawn, so that their
        texts need all 17 digits or are -0."""
        graphs = []
        for t, (cols, vertex) in enumerate(steps, start=1):
            g = maxima_graph(t, cols, *cols.T)
            g.vertex = vertex + np.arange(len(cols), dtype=np.int64)
            graphs.append(g)
        unlinked = [([], meta)] * (len(graphs) - 1)
        tveg = Tveg(graphs, unlinked, w, theta=theta)
        self.assert_same_text(tveg)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 4), st.integers(1, 4), st.integers(2, 4)),
            elements=attribute,
        ),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_linked_graphs(self, a, frac):
        """Steps with saddles, linked arcs, filter statistics and events."""
        fields = [as_field(a, 1), as_field(a[::-1].copy(), 2), as_field(a.T.copy(), 3)]
        theta = frac * float(np.ptp(a))
        tveg = linked([build_extremum_graph(f, theta) for f in fields], theta=theta)
        self.assert_same_text(tveg)

    @given(st.integers(1, 600), st.data())
    @settings(max_examples=40, deadline=None)
    def test_repeated_values_across_node_blocks(self, k, data):
        """eta and positions drawn from a small pool repeat within a block,
        as grid positions and the saddles' eta of 0 do, in blocks that end
        anywhere among the maxima and the saddles."""
        eta_x = data.draw(arrays(np.float64, (k, 4), elements=repeated_floats))
        value, pers = data.draw(arrays(np.float64, (2, k), elements=any_float))
        g = maxima_graph(3, eta_x[:, 1:], value, pers, eta_x[:, 0])
        g.n_max = data.draw(st.integers(0, k))
        tveg = Tveg([g], [], ScoreWeights(), theta=0.0)
        self.assert_same_text(tveg, (1, 3, 255, 256, 257))

    @staticmethod
    def assert_same_text(tveg, node_rows=(1, 3, 256)):
        """Both writers give the same text, with the node table rendered
        in blocks of each of `node_rows` rows."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "tveg.json")
            for rows in node_rows:
                with mock.patch.object(tvio, "_NODE_ROWS", rows):
                    tvio.export_tveg_json(tveg, path)
                    assert_same_text(Path(path).read_text(), oracle.tveg_json(tveg))
                    for g in tveg.graphs:
                        tvio.export_extremum_graph_json(g, path)
                        assert_same_text(Path(path).read_text(), oracle.extremum_graph_json(g))

    def test_series_export_matches_dict_writer(self, small_series):
        theta = 0.05 * small_series.global_range()
        self.assert_same_text(compute_tveg(small_series, theta, ScoreWeights()))

    def test_steps_across_node_blocks(self, rng):
        """Noisy 20^3 steps at theta 0 have hundreds of maxima and
        thousands of nodes, so blocks of about 256 rows end among the
        maxima and among the saddles."""
        fields = [as_field(rng.uniform(0.0, 1.0, (20, 20, 20)), t) for t in (1, 2)]
        tveg = linked([build_extremum_graph(f, 0.0) for f in fields])
        assert all(257 < g.n_max < len(g.value) for g in tveg.graphs)
        self.assert_same_text(tveg, (255, 256, 257))


node_ids = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**63 - 1))
event_records = st.lists(
    st.fixed_dictionaries({
        "node": node_ids,
        "time": st.integers(0, 2**31 - 1),
        "participants": st.lists(node_ids, min_size=2, max_size=5),
    }),
    max_size=4,
)
node_times = st.lists(st.tuples(node_ids, st.integers(0, 2**31 - 1)), max_size=6)


class TestEventsWriter:
    @given(st.builds(temporal.EventSets, event_records, event_records, node_times, node_times))
    @settings(max_examples=200, deadline=None)
    def test_matches_canonical_json(self, ev):
        """Any kind may be empty; merges and splits have 2 to 5
        participants; node ids reach beyond 32 bits."""
        assert tvio.events_json(ev) + "\n" == oracle.canonical_json(vars(ev))

    def test_linked_steps(self, rng):
        fields = [as_field(rng.uniform(0.0, 1.0, (8, 8, 8)), t) for t in (1, 2, 3)]
        ev = linked([build_extremum_graph(f, 0.0) for f in fields]).events
        assert ev.merges and ev.splits and ev.deletions and ev.generations
        assert tvio.events_json(ev) + "\n" == oracle.canonical_json(oracle.events_to_dict(ev))


# repeated scores, neighbours one ulp apart, subnormals and -0.0, or any float
scores = st.one_of(repeated_floats, any_float)


class TestQueryWriters:
    @given(
        st.builds(
            Selection,
            st.lists(node_ids, max_size=6),
            st.lists(node_ids, max_size=6),
            st.lists(st.tuples(node_ids, node_ids), max_size=6),
            st.lists(st.builds(ScoreTuple, node_ids, node_ids, scores), max_size=8),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_selection(self, sel):
        """Any list may be empty; node ids reach beyond 32 bits."""
        want = oracle.canonical_json(oracle.selection_dict(sel))
        assert tvio.selection_json(sel) == want

    @given(st.dictionaries(st.integers(-2**31, 2**31 - 1), st.lists(node_ids, max_size=5),
                           max_size=8))
    @example({9: [1], 10: [2, 3], -1: [], 0: [4], -20: [5]})
    @settings(max_examples=200, deadline=None)
    def test_neighborhood(self, nb):
        """Negative and multi-digit steps: keys sort as strings, so "-1"
        comes before "-20" and "10" before "9"."""
        want = oracle.canonical_json(oracle.neighborhood_dict(nb))
        assert tvio.neighborhood_json(nb) == want

    @given(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
           st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_segmentation_sidecar(self, dims, seed, frac, grid):
        """Steps of `random_field`, simplified at any theta up to their
        range, on its unit grid or on one of 17-digit spacings."""
        f = random_field(np.random.default_rng(seed), dims, time_index=1)
        if grid:
            f.origin, f.spacing = np.full(3, -1.0), 2.0 / (np.array(dims) + 6.0)
        seg = morse.morse_step(f, frac * float(np.ptp(f.values)))
        with tempfile.TemporaryDirectory() as tmp:
            _, sidecar = tvio.export_segmentation(seg, os.path.join(tmp, "seg"))
            assert_same_text(Path(sidecar).read_text(),
                             oracle.canonical_json(oracle.sidecar_dict(seg)))


def test_src_has_no_generic_writer():
    """The recursive canonical writer lives only in the oracle: every text
    `tvex` writes comes from a template."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            text = Path(SRC, name).read_text()
            assert not re.search(r"_canon|canonical_json|def _text\(", text), name


def test_src_has_one_step_writer():
    """The dict step writer lives only in the oracle."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            text = Path(SRC, name).read_text()
            assert not re.search(r"_step_dict|tveg_to_dict", text), name


def test_src_has_one_tracks_and_events_writer():
    """The dict tracks writer lives only in the oracle, and no event set
    is written from its attributes: `io.tracks_json` and `io.events_json`
    are the only routes to those texts."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            text = Path(SRC, name).read_text()
            assert not re.search(r"tracks_to_dict|vars\((ev|tvquery)", text), name
