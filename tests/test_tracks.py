"""Track extraction, length, deviation, and overlap refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tvex.field import FieldSeries, ScalarField3D
from tvex.pipeline import compute_tveg
from tvex.query import _deviations
from tvex.temporal import FilterMeta, ScoreTuple, ScoreWeights, Tveg
from tvex.tracks import Track, extract_tracks, refine_by_overlap

import refine_oracle
import tracks_oracle
from conftest import linked, maxima_graph, random_maxima


def nid(t, i):
    return (t << 32) | i


def toy_tveg(arc_triples, graphs=None):
    """Tveg carrying temporal arcs (enough for track extraction); without
    `graphs`, each step holds as many all-zero maxima as its arcs reach."""
    by_pair, n_max = {}, {}
    for m0, m1, s in arc_triples:
        by_pair.setdefault(m0 >> 32, []).append(ScoreTuple(m0, m1, s))
        for m in (m0, m1):
            n_max[m >> 32] = max(n_max.get(m >> 32, 0), (m & 0xFFFFFFFF) + 1)
    if graphs is None:
        graphs = []
        for t in range(min(n_max, default=0), max(n_max, default=-1) + 1):
            z = np.zeros(n_max.get(t, 0))
            graphs.append(maxima_graph(t, np.zeros((len(z), 3)), z, z, z))
    return Tveg(
        graphs=graphs,
        links=[(by_pair.get(g.t, []), FilterMeta(0.0, 0.0, 0.0)) for g in graphs[:-1]],
        weights=ScoreWeights(),
    )


class TestTrackDataclass:
    def test_length_is_time_extent(self):
        tr = Track(nodes=[(1, nid(1, 0)), (2, nid(2, 0)), (4, nid(4, 0))])
        assert tr.length == 4

    def test_empty_track_length(self):
        assert Track(nodes=[]).length == 0

    def test_length_of_unsorted_nodes(self):
        """Loaded tracks may list their nodes in any order, times repeated."""
        nodes = [(4, nid(4, 1)), (1, nid(1, 0)), (2, nid(2, 0)), (4, nid(4, 0)), (1, nid(1, 3))]
        for order in (nodes, nodes[::-1], sorted(nodes)):
            assert Track(nodes=order).length == 4
        assert Track(nodes=[(3, nid(3, 0))]).length == 1

    @given(st.lists(st.tuples(st.integers(-3, 6), st.integers(0, 3)), max_size=12))
    def test_length_matches_reference(self, pairs):
        tr = Track(nodes=[(t, nid(t, i)) for t, i in pairs])
        assert tr.length == tracks_oracle.length(tr)

    def test_deviation_of_short_track(self):
        tvg = toy_tveg([])
        assert _deviations([Track(nodes=[(1, nid(1, 0))]), Track(nodes=[])], tvg) == [0.0, 0.0]

    def test_deviation_mean_step(self, rng):
        maxima = {1: random_maxima(rng, 1, 1), 2: random_maxima(rng, 1, 2)}
        graphs = [maxima[t] for t in (1, 2)]
        tvg = toy_tveg([], graphs=graphs)
        tr = Track(nodes=[(1, int(maxima[1].maxima[0])), (2, int(maxima[2].maxima[0]))])
        expect = float(np.linalg.norm(maxima[2].coords[0] - maxima[1].coords[0]))
        assert _deviations([tr], tvg) == [expect] == [tracks_oracle.deviation(tr, tvg)]


class TestSimplePaths:
    def test_single_chain_one_track(self):
        tvg = toy_tveg(
            [
                (nid(1, 0), nid(2, 0), 0.1),
                (nid(2, 0), nid(3, 0), 0.1),
                (nid(3, 0), nid(4, 0), 0.1),
            ]
        )
        tracks = extract_tracks(tvg, mode="simple-paths")
        assert len(tracks) == 1
        assert tracks[0].length == 4
        assert [t for t, _ in tracks[0].nodes] == [1, 2, 3, 4]

    def test_split_breaks_paths_at_branch(self):
        tvg = toy_tveg(
            [
                (nid(1, 0), nid(2, 0), 0.1),
                (nid(2, 0), nid(3, 0), 0.1),
                (nid(2, 0), nid(3, 1), 0.2),
            ]
        )
        tracks = extract_tracks(tvg, mode="simple-paths")
        # the branch node (2, 0) terminates the incoming path and starts two
        arcs = sorted(a for tr in tracks for a in tr.arcs)
        assert arcs == sorted(
            [
                (nid(1, 0), nid(2, 0)),
                (nid(2, 0), nid(3, 0)),
                (nid(2, 0), nid(3, 1)),
            ]
        )
        assert len(tracks) == 3

    def test_every_arc_in_exactly_one_path(self, rng):
        graphs = [random_maxima(rng, 4, t) for t in range(1, 6)]
        tvg = linked(graphs)
        tracks = extract_tracks(tvg, mode="simple-paths")
        seen = [a for tr in tracks for a in tr.arcs]
        assert sorted(seen) == sorted((a.m0, a.m1) for a in tvg.all_arcs())
        assert len(seen) == len(set(seen))

    def test_ordered_longest_first(self):
        tvg = toy_tveg(
            [
                (nid(1, 0), nid(2, 0), 0.1),
                (nid(2, 0), nid(3, 0), 0.1),
                (nid(1, 5), nid(2, 5), 0.1),
            ]
        )
        tracks = extract_tracks(tvg, mode="simple-paths")
        assert [tr.length for tr in tracks] == [3, 2]


@st.composite
def arc_graphs(draw):
    """Temporal arcs t -> t + 1 over up to six steps of up to five maxima,
    any subset of the pairs of each step pair (any in- and out-degree),
    starting at step 0 to 3."""
    t0, steps = draw(st.integers(0, 3)), draw(st.integers(2, 6))
    sizes = draw(st.lists(st.integers(1, 5), min_size=steps, max_size=steps))
    arcs = []
    for t, (n0, n1) in enumerate(zip(sizes, sizes[1:]), start=t0):
        pairs = draw(st.sets(st.tuples(st.integers(0, n0 - 1), st.integers(0, n1 - 1))))
        arcs += [(nid(t, i), nid(t + 1, j), 0.5) for i, j in sorted(pairs)]
    return arcs


class TestSimplePathsMatchReference:
    """Times from the first node and the node count as length give the
    paths of one `split_node_id` per node (`tests/tracks_oracle.py`)."""

    @given(arc_graphs())
    @settings(max_examples=150, deadline=None)
    def test_arc_graphs(self, arcs):
        tvg = toy_tveg(arcs)
        want = tracks_oracle.simple_paths(tvg.all_arcs())
        got = extract_tracks(tvg, mode="simple-paths")
        assert got == want
        assert [tr.length for tr in got] == [tracks_oracle.length(tr) for tr in want]


class TestComponents:
    def test_merge_is_one_component(self):
        tvg = toy_tveg(
            [
                (nid(1, 0), nid(2, 0), 0.1),
                (nid(1, 1), nid(2, 0), 0.2),
            ]
        )
        tracks = extract_tracks(tvg, mode="components")
        assert len(tracks) == 1
        assert len(tracks[0].nodes) == 3
        assert tracks[0].length == 2

    def test_disjoint_chains_separate(self):
        tvg = toy_tveg(
            [
                (nid(1, 0), nid(2, 0), 0.1),
                (nid(1, 1), nid(2, 1), 0.1),
            ]
        )
        tracks = extract_tracks(tvg, mode="components")
        assert len(tracks) == 2

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            extract_tracks(toy_tveg([]), mode="bogus")


class TestRefineByOverlap:
    def test_end_to_end_on_drifting_blobs(self, small_series):
        theta = 0.05 * small_series.global_range()
        tvg = compute_tveg(small_series, theta, ScoreWeights())
        tracks = refine_by_overlap(tvg, small_series, isovalue=0.05, min_len=2)
        # two blobs drifting smoothly: refinement keeps their identity paths
        assert len(tracks) >= 1
        for tr in tracks:
            assert tr.length >= 2
            # refined sources keep at most one outgoing arc
            out_deg = {}
            for a, b in tr.arcs:
                out_deg[a] = out_deg.get(a, 0) + 1
            assert all(d == 1 for d in out_deg.values())

    def test_needs_every_step_of_the_tveg(self, small_series):
        theta = 0.05 * small_series.global_range()
        tvg = compute_tveg(small_series, theta, ScoreWeights())
        short = FieldSeries(small_series.fields[:-1])
        with pytest.raises(ValueError, match="no time step 4 in series"):
            refine_by_overlap(tvg, short, isovalue=0.05)

    def test_rejects_a_series_with_other_maxima(self, small_series):
        tvg = compute_tveg(small_series, 0.0, ScoreWeights())
        squared = FieldSeries([
            ScalarField3D(f.dims, f.origin, f.spacing, f.values ** 2, f.time_index)
            for f in small_series.fields
        ])
        with pytest.raises(ValueError, match="step 1: the series does not give"):
            refine_by_overlap(tvg, squared, isovalue=0.05)
        tvg.theta = 2.0  # a threshold that would cancel all but one maximum
        with pytest.raises(ValueError, match="graph's maxima at theta 2"):
            refine_by_overlap(tvg, small_series, isovalue=0.05)


@st.composite
def integer_series(draw):
    """(T, nz, ny, nx) integer values: a base field plus 0 or 1 per step,
    so regions persist from step to step and many voxels share a label
    pair."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(2, 6), st.integers(2, 6)))
    steps = draw(st.integers(2, 5))
    base = draw(arrays(np.int64, shape, elements=st.integers(0, 4)))
    noise = draw(arrays(np.int64, (steps,) + shape, elements=st.integers(0, 1)))
    return (base + noise).astype(np.float64)


def as_series(a: np.ndarray) -> FieldSeries:
    _, nz, ny, nx = a.shape
    return FieldSeries([
        ScalarField3D((nx, ny, nz), np.zeros(3), np.ones(3), v.ravel(), t + 1)
        for t, v in enumerate(a)
    ])


# across the range, on the values themselves, and above the maximum
ISOVALUES = (-1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 6.0)


class TestRefineMatchesOracle:
    """The label-pair count gives the tracks of one region intersection
    per arc (`tests/refine_oracle.py`), exactly."""

    def check(self, series, theta, min_lens):
        tvg = compute_tveg(series, theta, ScoreWeights())
        for isovalue, min_len in zip(ISOVALUES, min_lens):
            want = refine_oracle.refine_by_overlap(tvg, series, isovalue, min_len)
            assert refine_by_overlap(tvg, series, isovalue, min_len) == want
        return tvg

    @given(integer_series(), st.sampled_from([0.0, 1.0]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_integer_series(self, a, theta, data):
        steps = len(a)
        min_lens = [data.draw(st.integers(1, steps)) for _ in ISOVALUES]
        self.check(as_series(a), theta, min_lens)

    def test_sources_with_two_arcs(self, rng):
        """Larger seeded series, where many sources keep two arcs and the
        overlap decides between them."""
        two = 0
        for _ in range(6):
            shape = tuple(int(d) for d in rng.integers(5, 9, 3))
            steps = int(rng.integers(2, 6))
            a = rng.integers(0, 5, shape) + rng.integers(0, 2, (steps,) + shape)
            min_lens = rng.integers(1, steps + 1, len(ISOVALUES)).tolist()
            tvg = self.check(as_series(a.astype(np.float64)), 0.0, min_lens)
            sources = [arc.m0 for arc in tvg.all_arcs()]
            two += len(sources) - len(set(sources))
        assert two >= 10

    def test_equal_overlaps_keep_the_lower_score(self):
        """One maximum becomes two that each share two clipped voxels with
        it; the source keeps its lower-scored arc."""
        rows = [[0, 1, 3, 2, 1, 0], [0, 2, 1, 1, 2, 0]]
        series = as_series(np.array(rows, dtype=np.float64).reshape(2, 1, 1, 6))
        tvg = compute_tveg(series, 0.0, ScoreWeights())
        assert tvg.graphs[1].vertex[:2].tolist() == [1, 4]
        for s0, s1, keep in [(0.3, 0.2, 1), (0.2, 0.3, 0)]:
            tvg.links = [
                ([ScoreTuple(nid(1, 0), nid(2, 0), s0),
                  ScoreTuple(nid(1, 0), nid(2, 1), s1)], tvg.links[0][1])
            ]
            got = refine_by_overlap(tvg, series, 0.5, min_len=1)
            assert [tr.arcs for tr in got] == [[(nid(1, 0), nid(2, keep))]]
            assert refine_oracle.refine_by_overlap(tvg, series, 0.5, 1) == got
