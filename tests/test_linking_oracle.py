"""Column linking and the column tveg.json writer against the reference
implementations in `linking_oracle`, bit for bit."""

import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import linking_oracle as oracle
from tvex import io as tvio, temporal
from tvex.exgraph import build_extremum_graph
from tvex.field import ScalarField3D
from tvex.pipeline import compute_tveg
from tvex.temporal import (
    FilterMeta,
    ScoreTuple,
    ScoreWeights,
    Tveg,
    compute_scores,
    remove_z_configurations,
)

from conftest import assert_same_text, linked, maxima_graph

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tvex")

# few distinct values force ties in every component and in the scores;
# an all-equal column gives an all-zero component
small_ints = st.integers(0, 3).map(float)
unit_floats = st.floats(0.0, 1.0, allow_nan=False, width=32)
attribute = st.one_of(small_ints, unit_floats)


@st.composite
def maxima_sets(draw, t):
    """A maxima-only graph of 1 to 9 maxima; coordinates are drawn from
    a small pool, so several maxima may share a position."""
    n = draw(st.integers(1, 9))
    pool = draw(arrays(np.float64, (draw(st.integers(1, 4)), 3), elements=attribute))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    cols = [draw(arrays(np.float64, n, elements=attribute)) for _ in range(3)]
    return maxima_graph(t, pool[rows], *cols)


@st.composite
def score_weights(draw):
    """Weights with any of them zero, summing to 1 within rounding."""
    parts = draw(st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(any))
    total = sum(parts)
    return ScoreWeights(*(p / total for p in parts))


def score_bits(arcs):
    """The arcs with each score's exact bits (hex tells -0.0 from 0.0)."""
    return [(a.m0, a.m1, a.s.hex()) for a in arcs]


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


class TestScoring:
    @given(maxima_sets(1), maxima_sets(2), score_weights())
    @settings(max_examples=150, deadline=None)
    def test_compute_scores(self, g0, g1, w):
        want = score_bits(oracle.compute_scores(g0, g1, w))
        for rows in (1, 2, 3, 256):  # blocks of 1 to 3 rows split every drawn g0
            with mock.patch.object(temporal, "_ROWS", rows):
                got = compute_scores(g0, g1, w)
            assert score_bits(got) == want
            assert all(type(a.m0) is int and type(a.s) is float for a in got)

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
    )
    @settings(max_examples=100, deadline=None)
    def test_graphs_without_saddles(self, steps, theta):
        """Maxima-only steps, empty ones and single-node ones among them."""
        graphs = []
        for t, (cols, vertex) in enumerate(steps, start=1):
            g = maxima_graph(t, cols, *cols.T)
            g.vertex = vertex + np.arange(len(cols), dtype=np.int64)
            graphs.append(g)
        unlinked = [([], FilterMeta(0.0, 0.0, 0.0))] * (len(graphs) - 1)
        tveg = Tveg(graphs, unlinked, ScoreWeights(), theta=theta)
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
        assert tvio.events_json(ev) + "\n" == tvio.canonical_json(vars(ev))

    def test_linked_steps(self, rng):
        fields = [as_field(rng.uniform(0.0, 1.0, (8, 8, 8)), t) for t in (1, 2, 3)]
        ev = linked([build_extremum_graph(f, 0.0) for f in fields]).events
        assert ev.merges and ev.splits and ev.deletions and ev.generations
        assert tvio.events_json(ev) + "\n" == oracle.canonical_json(oracle.events_to_dict(ev))


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
