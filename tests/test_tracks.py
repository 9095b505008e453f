"""Track extraction, deviation, overlap refinement, and collation."""

import numpy as np
import pytest

from tvex.field import FieldSeries, ScalarField3D
from tvex.pipeline import compute_tveg
from tvex.temporal import ScoreTuple, ScoreWeights, Tveg, EventSets
from tvex.tracks import (
    Track,
    collate_by_saddle,
    extract_tracks,
    refine_by_overlap,
    spatial_overlap,
)

from conftest import random_maxima


def nid(t, i):
    return (t << 32) | i


def toy_tveg(arc_triples, graphs=None):
    """Tveg carrying only temporal arcs (enough for track extraction)."""
    by_pair = {}
    for m0, m1, s in arc_triples:
        by_pair.setdefault(m0 >> 32, []).append(ScoreTuple(m0, m1, s))
    return Tveg(
        graphs=graphs or [],
        arcs_by_pair=by_pair,
        events=EventSets(),
        weights=ScoreWeights(),
        filter_meta={},
    )


class TestTrackDataclass:
    def test_length_is_time_extent(self):
        tr = Track(nodes=[(1, nid(1, 0)), (2, nid(2, 0)), (4, nid(4, 0))])
        assert tr.length == 4

    def test_empty_track_length(self):
        assert Track(nodes=[]).length == 0

    def test_deviation_of_short_track(self):
        tvg = toy_tveg([])
        assert Track(nodes=[(1, nid(1, 0))]).deviation(tvg) == 0.0

    def test_deviation_mean_step(self, rng):
        maxima = {1: random_maxima(rng, 1, 1), 2: random_maxima(rng, 1, 2)}
        graphs = [maxima[t] for t in (1, 2)]
        tvg = toy_tveg([], graphs=graphs)
        tr = Track(nodes=[(1, int(maxima[1].maxima[0])), (2, int(maxima[2].maxima[0]))])
        expect = float(np.linalg.norm(maxima[2].coords[0] - maxima[1].coords[0]))
        assert tr.deviation(tvg) == pytest.approx(expect)


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
        from tvex.temporal import temporal_arcs

        tvg = temporal_arcs(graphs, ScoreWeights())
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


def test_spatial_overlap_counts_shared_voxels():
    a = np.array([1, 2, 3, 7])
    b = np.array([3, 7, 9])
    assert spatial_overlap(a, b) == 2
    assert spatial_overlap(a, np.array([], dtype=int)) == 0


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


class TestCollateBySaddle:
    def test_tracks_sharing_a_saddle_group(self, small_series):
        theta = 0.05 * small_series.global_range()
        tvg = compute_tveg(small_series, theta, ScoreWeights())
        tracks = extract_tracks(tvg, mode="simple-paths")
        groups = collate_by_saddle(tracks, tvg)
        # groups partition the track indices
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(len(tracks)))
        # the two blobs stay saddle-adjacent, so they share one group
        sizes = sorted(len(g) for g in groups)
        assert sizes[-1] >= 2 or len(tracks) == 1
