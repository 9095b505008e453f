"""Query layer over a computed time-varying extremum graph."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tvex.exgraph import ExtremumGraph, make_node_id
from tvex.field import generate_gauss8
from tvex.pipeline import compute_tveg
from tvex.query import (
    events_in_window,
    _deviations,
    least_deviation,
    select_in_region,
    track_neighborhood,
    tracks_longer_than,
)
from tvex.temporal import FilterMeta, ScoreWeights, Tveg
from tvex.tracks import Track, extract_tracks

import tracks_oracle


@pytest.fixture(scope="module")
def tvg():
    from conftest import two_blob_series

    series = two_blob_series(steps=4)
    theta = 0.05 * series.global_range()
    return compute_tveg(series, theta, ScoreWeights())


@pytest.fixture(scope="module")
def tracks(tvg):
    return extract_tracks(tvg, mode="simple-paths")


class TestQuerySpec:
    """A query's window and box are checked by the functions that read
    them."""

    def test_rejects_inverted_window(self, tvg):
        box = ((-9, -9, -9), (9, 9, 9))
        with pytest.raises(ValueError, match="window start must be <= end"):
            events_in_window(tvg, (3, 2))
        with pytest.raises(ValueError, match="window start must be <= end"):
            select_in_region(tvg, box, (3, 2))
        assert select_in_region(tvg, box, (2, 2)).maxima

    def test_rejects_inverted_box(self, tvg):
        with pytest.raises(ValueError, match="box min must be <= max per axis"):
            select_in_region(tvg, ((1, 0, 0), (0, 1, 1)), (1, 4))
        assert select_in_region(tvg, ((0, 0, 0), (0, 0, 0)), (1, 4)).maxima == []


class TestLengthThreshold:
    def test_filters_by_length(self, tracks):
        k = 3
        got = tracks_longer_than(tracks, k)
        assert got == [tr for tr in tracks if tr.length >= k]

    def test_threshold_one_keeps_all(self, tracks):
        assert tracks_longer_than(tracks, 1) == tracks

    def test_rejects_bad_k(self, tracks):
        with pytest.raises(ValueError):
            tracks_longer_than(tracks, 0)


class TestLeastDeviation:
    def test_orders_by_mean_step(self, tvg, tracks):
        got = least_deviation(tracks, tvg, len(tracks))
        devs = [tracks_oracle.deviation(tr, tvg) for tr in got]
        assert devs == sorted(devs)

    def test_returns_n(self, tvg, tracks):
        assert len(least_deviation(tracks, tvg, 1)) == 1

    def test_rejects_bad_n(self, tvg, tracks):
        with pytest.raises(ValueError):
            least_deviation(tracks, tvg, 0)

    def test_tie_breaks_by_first_node_id(self, tvg):
        a = Track(nodes=[(1, 5)])
        b = Track(nodes=[(1, 3)])
        got = least_deviation([a, b], tvg, 2)
        assert got == [b, a]


# signed zeros, one-ulp neighbours, a subnormal, squares that overflow,
# and values drawn again and again (coincident points)
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), 0.1, -0.7, 5e-324, 1e300]),
    st.floats(-1e6, 1e6),
)


@st.composite
def deviation_cases(draw):
    """A tveg of one to four steps (maxima, then saddles) starting at
    step -2 to 3, and tracks of 0 to 14 nodes in any order, with up to
    two nodes that are not maxima of the tveg put anywhere."""
    t0, steps = draw(st.integers(-2, 3)), draw(st.integers(1, 4))
    graphs = []
    for t in range(t0, t0 + steps):
        n_max, k = draw(st.integers(1, 5)), draw(st.integers(0, 2))
        k += n_max
        coords = draw(arrays(np.float64, (k, 3), elements=COORDS))
        graphs.append(ExtremumGraph(t, n_max, np.arange(k), np.zeros(k), np.zeros(k),
                                    np.zeros(k), coords))
    tvg = Tveg(graphs, [([], FilterMeta(0.0, 0.0, 0.0))] * (steps - 1), ScoreWeights())

    def maximum():
        g = draw(st.sampled_from(graphs))
        return g.t, make_node_id(g.t, draw(st.integers(0, g.n_max - 1)))

    tracks = [Track(nodes=[maximum() for _ in range(draw(st.integers(0, 14)))])
              for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 2)) if tracks else 0):
        tr = draw(st.sampled_from(tracks))
        g = draw(st.sampled_from(graphs))
        t = draw(st.sampled_from([t0 - 1, t0 + steps, t0 + steps + 7]))
        bad = draw(st.sampled_from([
            (g.t, make_node_id(g.t, g.n_max + draw(st.integers(0, 2)))),  # a saddle or past the rows
            (t, make_node_id(t, 0)),  # a step the tveg does not hold
            (g.t, make_node_id(g.t + 1, 0)),  # the id of another step
            (g.t, 2**63 + draw(st.integers(0, 3))),  # an id beyond int64
        ]))
        tr.nodes.insert(draw(st.integers(0, len(tr.nodes))), bad)
    return tvg, tracks


class TestLeastDeviationMatchesReference:
    """The column pass gives the per-track deviations of
    `tests/tracks_oracle.py` bit for bit, and so its ranking."""

    @given(deviation_cases(), st.integers(1, 10))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered")  # squares of 1e300
    def test_bit_for_bit(self, case, n):
        tvg, tracks = case
        try:
            want = [tracks_oracle.deviation(tr, tvg) for tr in tracks]
        except ValueError as exc:
            for run in (lambda: _deviations(tracks, tvg), lambda: least_deviation(tracks, tvg, n)):
                with pytest.raises(ValueError) as got:
                    run()
                assert str(got.value) == str(exc)
            return
        assert [d.hex() for d in _deviations(tracks, tvg)] == [d.hex() for d in want]
        ranked = least_deviation(tracks, tvg, n)
        assert list(map(id, ranked)) == list(map(id, tracks_oracle.least_deviation(tracks, tvg, n)))

    def test_single_node_tracks_are_not_looked_up(self, tvg):
        unknown = Track(nodes=[(99, make_node_id(99, 0))])
        empty = Track(nodes=[])
        first = tvg.graphs[0]
        pair = Track(nodes=[(first.t, int(m)) for m in first.maxima[:2]])  # two blobs apart
        assert least_deviation([pair, unknown, empty], tvg, 3) == [empty, unknown, pair]

    @pytest.mark.parametrize("t, beyond", [(2**31 - 1, 2**31), (-2**31, -2**31 - 1)])
    def test_steps_beyond_32_bits_are_refused(self, t, beyond):
        """Node ids t << 32 | row fit int64 for steps in [-2**31, 2**31): a
        graph one step beyond is refused, one at the bound is looked up in
        columns, and a node beyond int64 does not hide an earlier bad node."""
        coords = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [0.1, 0.2, 0.3]])

        def graph(t):
            return ExtremumGraph(t, 2, np.arange(3), np.zeros(3), np.zeros(3), np.zeros(3), coords)

        refused = rf"^step times must lie in \[-2\*\*31, 2\*\*31\), got {beyond}\.\.{beyond}$"
        with pytest.raises(ValueError, match=refused):
            Tveg([graph(beyond)], [], ScoreWeights())
        tvg = Tveg([graph(t)], [], ScoreWeights())
        a, b, saddle = (make_node_id(t, row) for row in range(3))
        tracks = [Track(nodes=[(t, a), (t, b), (t, a)]), Track(nodes=[(t, b), (t, b)])]
        assert _deviations(tracks, tvg) == [5.0, 0.0]
        assert least_deviation(tracks, tvg, 2) == tracks[::-1]
        outside = (beyond, make_node_id(beyond, 0))  # beyond int64
        for nodes, named in [([(t, a), outside, (t, saddle)], f"no graph at time {beyond}"),
                             ([(t, a), (t, saddle), outside], f"no maximum {saddle} at time {t}")]:
            with pytest.raises(ValueError, match=f"^{named}$"):
                least_deviation(tracks + [Track(nodes=nodes)], tvg, 1)

    def test_first_bad_node_in_track_order(self, tvg):
        g = tvg.graphs[0]
        good = (g.t, int(g.maxima[0]))
        saddle = (g.t, int(g.saddles[0]))
        outside = (99, make_node_id(99, 0))
        tracks = [Track(nodes=[good, outside]), Track(nodes=[saddle, good])]
        with pytest.raises(ValueError, match="^no graph at time 99$"):
            least_deviation(tracks, tvg, 1)
        with pytest.raises(ValueError, match=f"^no maximum {saddle[1]} at time {g.t}$"):
            least_deviation(tracks[::-1], tvg, 1)


class TestRegionSelection:
    def test_box_filters_maxima(self, tvg):
        sel = select_in_region(tvg, ((-2, -2, -2), (2, 2, 2)), (1, 4))
        all_ids = sorted(m for g in tvg.graphs for m in g.maxima.tolist())
        assert sel.maxima == all_ids

    def test_half_space_keeps_one_blob(self, tvg):
        # the blobs sit at y = +-sep; the y >= 0 half keeps one per step
        sel = select_in_region(tvg, ((-2, 0.0, -2), (2, 2, 2)), (1, 4))
        assert len(sel.maxima) == 4
        for mid in sel.maxima:
            t = mid >> 32
            g, row = tvg.max_row(t, mid)
            assert float(g.coords[row, 1]) >= 0.0

    def test_window_limits_steps(self, tvg):
        sel = select_in_region(tvg, ((-2, -2, -2), (2, 2, 2)), (2, 3))
        assert {mid >> 32 for mid in sel.maxima} <= {2, 3}

    def test_temporal_arcs_need_both_ends(self, tvg):
        sel = select_in_region(tvg, ((-2, -2, -2), (2, 2, 2)), (1, 4))
        chosen = set(sel.maxima)
        for a in sel.temporal_arcs:
            assert a.m0 in chosen and a.m1 in chosen

    def test_spatial_arcs_carry_their_saddles(self, tvg):
        sel = select_in_region(tvg, ((-2, -2, -2), (2, 2, 2)), (1, 4))
        sads = {s for _, s in sel.spatial_arcs}
        assert sads == set(sel.saddles)


class TestEventsInWindow:
    def test_window_filters_by_time(self, tvg):
        ev = events_in_window(tvg, (2, 3))
        for e in ev.merges + ev.splits:
            assert 2 <= e["time"] <= 3
        for _, t in ev.deletions + ev.generations:
            assert 2 <= t <= 3

    def test_full_window_is_identity(self, tvg):
        ev = events_in_window(tvg, (0, 10**6))
        assert ev.merges == tvg.events.merges
        assert ev.splits == tvg.events.splits
        assert ev.deletions == tvg.events.deletions
        assert ev.generations == tvg.events.generations


class TestTrackNeighborhood:
    def test_zero_hops_is_track_itself(self, tvg, tracks):
        tr = tracks[0]
        nb = track_neighborhood(tvg, tr, 0)
        for t, mid in tr.nodes:
            assert mid in nb[t]

    def test_one_hop_adds_incident_saddles(self, tvg, tracks):
        tr = tracks[0]
        nb = track_neighborhood(tvg, tr, 1)
        gained = 0
        for t, mid in tr.nodes:
            base = make_node_id(t, 0)
            saddles = {s + base for m, s in tvg.graph_at(t).arcs.tolist() if m + base == mid}
            assert {mid} | saddles <= set(nb[t])
            gained += len(saddles)
        assert gained  # some node of the track has a saddle

    def test_hops_monotone(self, tvg, tracks):
        tr = tracks[0]
        prev = track_neighborhood(tvg, tr, 0)
        for hops in (1, 2, 3):
            cur = track_neighborhood(tvg, tr, hops)
            for t in prev:
                assert set(prev[t]) <= set(cur[t])
            prev = cur

    def test_hops_past_the_fixpoint(self):
        """Once a hop adds no node the ball is final: 2**62 hops give, at
        once, the ball of len(g.value) hops, which no step can outgrow."""
        tveg = compute_tveg(generate_gauss8((12, 12, 12), steps=4), 0.0, ScoreWeights())
        tr = extract_tracks(tveg, mode="simple-paths")[0]
        most = max(len(g.value) for g in tveg.graphs)
        full = track_neighborhood(tveg, tr, most)
        assert full != track_neighborhood(tveg, tr, 2)  # the ball grows past 2 hops
        assert track_neighborhood(tveg, tr, 2**62) == full

    def test_rejects_negative_hops(self, tvg, tracks):
        with pytest.raises(ValueError):
            track_neighborhood(tvg, tracks[0], -1)

    def test_rejects_seed_outside_its_step(self, tvg):
        g = tvg.graphs[0]
        for seed in (int(g.ids[-1]) + 1, int(g.maxima[0]) + (1 << 32)):
            with pytest.raises(ValueError, match=f"a seed is not a node of step {g.t}"):
                track_neighborhood(tvg, Track(nodes=[(g.t, seed)]), 1)
