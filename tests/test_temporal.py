"""Correspondence scoring, filtering, z-removal, and event detection."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvex.exgraph import make_node_id
from tvex.field import FieldSeries
from tvex.pipeline import compute_tveg
from tvex.temporal import (
    FilterMeta,
    ScoreTuple,
    ScoreWeights,
    Tveg,
    compute_scores,
    detect_events,
    filter_scores,
    link_pair,
    remove_z_configurations,
)

import linking_oracle as oracle
from conftest import linked, maxima_graph, random_field, random_maxima


def mk_maxima(t, n, coords=(0, 0, 0), value=1.0, pers=0.5, eta=1.0):
    """n maxima at step t; each attribute is one value for all or a list."""
    def col(x):
        return np.broadcast_to(np.asarray(x, dtype=np.float64), (n,))

    coords = np.broadcast_to(np.asarray(coords, dtype=np.float64), (n, 3))
    return maxima_graph(t, coords, col(value), col(pers), col(eta))


class TestScoreWeights:
    def test_default_is_uniform(self):
        w = ScoreWeights()
        assert (w.G, w.L1, w.L2, w.L3) == (0.25, 0.25, 0.25, 0.25)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ScoreWeights(G=-0.1, L1=0.5, L2=0.3, L3=0.3)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ScoreWeights(G=0.5, L1=0.5, L2=0.5, L3=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="weights must"):
            ScoreWeights(G=bad, L1=0.5, L2=0.25, L3=0.25)


class TestComputeScores:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compute_scores(mk_maxima(1, 0), mk_maxima(2, 1), ScoreWeights())

    def test_scaled_to_unit_interval(self, rng):
        M0 = random_maxima(rng, 4, 1)
        M1 = random_maxima(rng, 2, 2)  # every pair is kept
        for weights in np.eye(4):  # one component at a time
            scores = [a.s for a in compute_scores(M0, M1, ScoreWeights(*weights))]
            assert len(scores) == 8
            assert min(scores) >= 0.0
            assert max(scores) == 1.0

    def test_constant_component_becomes_zero(self):
        M0 = mk_maxima(1, 2, pers=0.5)
        M1 = mk_maxima(2, 1, pers=0.5, coords=(1, 0, 0))
        # all pers, values and eta equal -> no discrimination
        for w in (ScoreWeights(1, 0, 0, 0), ScoreWeights(0, 1, 0, 0), ScoreWeights(0, 0, 0, 1)):
            assert [a.s for a in compute_scores(M0, M1, w)] == [0.0, 0.0]
        assert [a.s for a in compute_scores(M0, M1, ScoreWeights(0, 0, 1, 0))] == [1.0, 1.0]

    def test_scores_in_row_blocks(self, rng):
        """One pair of 3000 maxima each allocates less than one 3000 x 3000
        float64 matrix."""
        g0, g1 = (
            maxima_graph(t, rng.uniform(-1, 1, (3000, 3)), *rng.uniform(0, 1, (3, 3000)))
            for t in (1, 2)
        )
        tracemalloc.start()
        try:
            compute_scores(g0, g1, ScoreWeights())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3000 * 3000 * 8

    def test_keeps_two_best_per_source(self, rng):
        M0 = random_maxima(rng, 5, 1)
        M1 = random_maxima(rng, 4, 2)
        out = compute_scores(M0, M1, ScoreWeights())
        per_src = {}
        for a in out:
            per_src.setdefault(a.m0, []).append(a)
        assert set(per_src) == set(M0.maxima.tolist())
        assert all(len(v) == 2 for v in per_src.values())

    def test_single_target_gives_one_arc_each(self, rng):
        M0 = random_maxima(rng, 3, 1)
        M1 = random_maxima(rng, 1, 2)
        out = compute_scores(M0, M1, ScoreWeights())
        assert len(out) == 3
        assert {a.m1 for a in out} == {int(M1.maxima[0])}

    def test_chosen_targets_minimize_score(self, rng):
        M0 = random_maxima(rng, 4, 1)
        M1 = random_maxima(rng, 5, 2)
        w = ScoreWeights()
        out = compute_scores(M0, M1, w)
        P, J, D, N = oracle.normalize_components(M0, M1)
        S = w.G * P + w.L1 * J + w.L2 * D + w.L3 * N
        for i, m0 in enumerate(M0.maxima.tolist()):
            kept = sorted(a.s for a in out if a.m0 == m0)
            best = sorted(S[i])[:2]
            assert kept == pytest.approx(best)

    def test_output_sorted_and_deterministic(self, rng):
        M0 = random_maxima(rng, 4, 1)
        M1 = random_maxima(rng, 4, 2)
        out = compute_scores(M0, M1, ScoreWeights())
        assert out == sorted(out, key=lambda a: (a.m0, a.m1))
        assert out == compute_scores(M0, M1, ScoreWeights())

    def test_distance_only_weights_pick_nearest(self):
        M0 = mk_maxima(1, 1, coords=(0, 0, 0))
        M1 = mk_maxima(2, 3, coords=[(0, 0, 3), (0, 0, 1), (0, 0, 2)])
        out = compute_scores(M0, M1, ScoreWeights(G=0, L1=0, L2=1, L3=0))
        assert {a.m1 for a in out} == set(M1.maxima[[1, 2]].tolist())


class TestFilterScores:
    def test_zero_zero_one_drops_the_one(self):
        S = [
            ScoreTuple(m0=1, m1=10, s=0.0),
            ScoreTuple(m0=2, m1=11, s=0.0),
            ScoreTuple(m0=3, m1=12, s=1.0),
        ]
        kept, meta = filter_scores(S)
        assert [a.s for a in kept] == [0.0, 0.0]
        assert meta.mu == pytest.approx(1 / 3)
        assert meta.sigma == pytest.approx(math.sqrt(2) / 3)
        assert meta.tau == pytest.approx(1 / 3 + math.sqrt(2) / 3)

    def test_all_equal_removes_nothing(self):
        S = [ScoreTuple(m0=i, m1=i + 10, s=0.4) for i in range(5)]
        kept, meta = filter_scores(S)
        assert kept == S
        assert meta.sigma == 0.0

    def test_empty_input(self):
        kept, meta = filter_scores([])
        assert kept == []
        assert meta.tau == 0.0

    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False, width=32), min_size=1, max_size=30)
    )
    @settings(max_examples=60, deadline=None)
    def test_kept_scores_below_tau(self, ys):
        S = [ScoreTuple(m0=i, m1=i, s=float(y)) for i, y in enumerate(ys)]
        kept, meta = filter_scores(S)
        if meta.sigma == 0.0:
            assert kept == S
        else:
            assert all(a.s < meta.tau for a in kept)
            assert all(a.s >= meta.tau for a in S if a not in kept)


class TestRemoveZConfigurations:
    def test_plain_sets_untouched(self):
        S = [ScoreTuple(1, 10, 0.1), ScoreTuple(2, 11, 0.2)]
        assert remove_z_configurations(S) == S

    def test_split_alone_untouched(self):
        S = [ScoreTuple(1, 10, 0.1), ScoreTuple(1, 11, 0.2)]
        assert remove_z_configurations(S) == S

    def test_merge_alone_untouched(self):
        S = [ScoreTuple(1, 10, 0.1), ScoreTuple(2, 10, 0.2)]
        assert remove_z_configurations(S) == S

    def test_z_breaks_at_highest_score(self):
        # 1 splits to {10, 11}; 11 also receives from 2: z through (1, 11)
        S = [
            ScoreTuple(1, 10, 0.1),
            ScoreTuple(1, 11, 0.3),
            ScoreTuple(2, 11, 0.2),
        ]
        out = remove_z_configurations(S)
        assert out == [ScoreTuple(1, 10, 0.1), ScoreTuple(2, 11, 0.2)]

    def test_z_keeps_low_score_offender(self):
        S = [
            ScoreTuple(1, 10, 0.4),
            ScoreTuple(1, 11, 0.1),
            ScoreTuple(2, 11, 0.2),
        ]
        # offender is only (1, 11): source 1 splits and target 11 merges
        out = remove_z_configurations(S)
        assert ScoreTuple(1, 11, 0.1) not in out
        assert len(out) == 2

    def test_chain_of_z_resolves_to_fixpoint(self):
        S = [
            ScoreTuple(1, 10, 0.1),
            ScoreTuple(1, 11, 0.2),
            ScoreTuple(2, 11, 0.3),
            ScoreTuple(2, 12, 0.4),
            ScoreTuple(3, 12, 0.5),
        ]
        out = remove_z_configurations(S)
        od, ind = {}, {}
        for a in out:
            od[a.m0] = od.get(a.m0, 0) + 1
            ind[a.m1] = ind.get(a.m1, 0) + 1
        assert not any(od[a.m0] >= 2 and ind[a.m1] >= 2 for a in out)

    def test_tie_breaks_by_greater_ids(self):
        S = [
            ScoreTuple(1, 10, 0.2),
            ScoreTuple(1, 11, 0.2),
            ScoreTuple(2, 11, 0.2),
            ScoreTuple(2, 12, 0.2),
        ]
        # offenders (1,11) and (2,11) tie on score; greater source id goes
        out = remove_z_configurations(S)
        assert ScoreTuple(2, 11, 0.2) not in out
        assert ScoreTuple(1, 11, 0.2) in out


class TestDetectEvents:
    """Ids of maxima 1 and 2 at step 5 and of maxima 10 and 11 at step 6;
    every event's time comes from its node id."""

    a, b = make_node_id(5, 1), make_node_id(5, 2)
    c, d = make_node_id(6, 10), make_node_id(6, 11)

    def test_merge(self):
        a, b, c = self.a, self.b, self.c
        ev = detect_events([ScoreTuple(a, c, 0.1), ScoreTuple(b, c, 0.2)], [a, b], [c])
        assert ev.merges == [{"node": c, "time": 6, "participants": [a, b]}]
        assert ev.splits == [] and ev.deletions == [] and ev.generations == []

    def test_split(self):
        a, c, d = self.a, self.c, self.d
        ev = detect_events([ScoreTuple(a, c, 0.1), ScoreTuple(a, d, 0.2)], [a], [c, d])
        assert ev.splits == [{"node": a, "time": 5, "participants": [c, d]}]
        assert ev.merges == [] and ev.deletions == [] and ev.generations == []

    def test_deletion_and_generation(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        ev = detect_events([ScoreTuple(a, c, 0.1)], [a, b], [c, d])
        assert ev.deletions == [(b, 5)]
        assert ev.generations == [(d, 6)]

    def test_no_arcs_everything_is_event(self):
        a, b, c = self.a, self.b, self.c
        ev = detect_events([], [a, b], [c])
        assert ev.deletions == [(a, 5), (b, 5)]
        assert ev.generations == [(c, 6)]

    def test_middle_step_events_at_their_own_step(self):
        """Over steps 1..3 in one call, a middle maximum without an in-arc
        is a generation at step 2 and one without an out-arc a deletion
        at step 2."""
        first, last = make_node_id(1, 0), make_node_id(3, 0)
        born, dies = make_node_id(2, 0), make_node_id(2, 1)
        arcs = [ScoreTuple(first, dies, 0.1), ScoreTuple(born, last, 0.2)]
        ev = detect_events(arcs, [first, born, dies], [born, dies, last])
        assert ev.deletions == [(dies, 2)]
        assert ev.generations == [(born, 2)]
        assert ev.merges == [] and ev.splits == []


class TestLinkPairInvariants:
    @given(n0=st.integers(1, 8), n1=st.integers(1, 8), seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_structural_invariants(self, n0, n1, seed):
        rng = np.random.default_rng(seed)
        g0 = random_maxima(rng, n0, 1)
        g1 = random_maxima(rng, n1, 2)
        arcs, meta = link_pair(g0, g1, ScoreWeights())
        ev = detect_events(arcs, g0.maxima.tolist(), g1.maxima.tolist())

        ids0 = set(g0.maxima.tolist())
        ids1 = set(g1.maxima.tolist())
        od, ind = {}, {}
        for a in arcs:
            assert a.m0 in ids0 and a.m1 in ids1
            od[a.m0] = od.get(a.m0, 0) + 1
            ind[a.m1] = ind.get(a.m1, 0) + 1
        # out-degree at most 2 per source
        assert all(d <= 2 for d in od.values())
        # no z-configurations
        assert not any(od[a.m0] >= 2 and ind[a.m1] >= 2 for a in arcs)
        # retained scores under tau unless the pair was degenerate
        if meta.sigma > 0:
            assert all(a.s < meta.tau for a in arcs)
        # event sets consistent with arc degrees
        assert sorted(n for n, _ in ev.deletions) == sorted(ids0 - set(od))
        assert sorted(n for n, _ in ev.generations) == sorted(ids1 - set(ind))
        assert sorted(e["node"] for e in ev.merges) == sorted(
            n for n, d in ind.items() if d > 1
        )
        assert sorted(e["node"] for e in ev.splits) == sorted(
            n for n, d in od.items() if d > 1
        )


class TestTemporalArcs:
    def test_rejects_single_graph(self, rng):
        series = FieldSeries([random_field(rng, (4, 4, 4), time_index=1)])
        with pytest.raises(ValueError, match="at least 2"):
            compute_tveg(series, 0.0, ScoreWeights())

    def test_rejects_noncontiguous(self, rng):
        g1 = random_maxima(rng, 2, 1)
        g3 = random_maxima(rng, 2, 3)
        with pytest.raises(ValueError, match="contiguous"):
            Tveg([g1, g3], [([], FilterMeta(0.0, 0.0, 0.0))], ScoreWeights())

    def test_rejects_links_not_one_per_pair(self, rng):
        graphs = [random_maxima(rng, 2, t) for t in (1, 2, 3)]
        link = ([], FilterMeta(0.0, 0.0, 0.0))
        for links in ([], [link], [link] * 3):
            with pytest.raises(ValueError, match="one link per consecutive pair"):
                Tveg(graphs, links, ScoreWeights())

    def test_arcs_only_between_consecutive_steps(self, rng):
        graphs = [random_maxima(rng, 3, t) for t in (1, 2, 3, 4)]
        tvg = linked(graphs)
        assert [g.t for g in tvg.graphs[:-1]] == [1, 2, 3]
        assert len(tvg.links) == 3
        for g, (arcs, _) in zip(tvg.graphs, tvg.links):
            for a in arcs:
                assert a.m0 >> 32 == g.t
                assert a.m1 >> 32 == g.t + 1

    def test_events_accumulate_over_pairs(self, rng):
        graphs = [random_maxima(rng, 3, t) for t in (1, 2, 3)]
        tvg = linked(graphs)
        per_pair = [
            detect_events(
                tvg.links[t - 1][0],
                graphs[t - 1].maxima.tolist(),
                graphs[t].maxima.tolist(),
            )
            for t in (1, 2)
        ]
        assert tvg.events.merges == per_pair[0].merges + per_pair[1].merges
        assert tvg.events.deletions == per_pair[0].deletions + per_pair[1].deletions
