"""The template tracks writer against the generic canonical writer, byte
for byte: `export_tracks_json` must give `canonical_json(tracks_to_dict(...))`
with the oracle's `tracks_to_dict`."""

from hypothesis import given, settings
from hypothesis import strategies as st

import linking_oracle as oracle
from tvex import io as tvio
from tvex.pipeline import compute_tveg
from tvex.temporal import ScoreWeights
from tvex.tracks import Track, extract_tracks, refine_by_overlap

from conftest import assert_same_text
from test_vtk_oracle import integer_series, series_of


def assert_same_json(tracks, path):
    tvio.export_tracks_json(tracks, str(path))
    assert_same_text(path.read_text(), oracle.canonical_json(oracle.tracks_to_dict(tracks)))


class TestTracksJsonMatchesCanonical:
    @given(integer_series(), st.sampled_from([0.0, 1.0]), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_tvegs(self, tmp_path_factory, a, theta, isovalue):
        """Simple paths, component bundles, refined tracks, a one-node
        track per mode and no tracks."""
        path = tmp_path_factory.mktemp("tracks") / "tracks.json"
        series = series_of(a)
        tveg = compute_tveg(series, theta, ScoreWeights())
        lists = [extract_tracks(tveg, mode) for mode in ("simple-paths", "components")]
        lists.append(refine_by_overlap(tveg, series, float(isovalue), min_len=1))
        lists += [[Track(nodes=tracks[0].nodes[:1])] for tracks in lists if tracks]
        for tracks in lists + [[]]:
            assert_same_json(tracks, path)

    def test_random_tvegs(self, rng, tmp_path):
        """Seeded noise at theta 0: bundles of many nodes and arcs, and
        refined tracks that keep one arc of each split."""
        a = rng.uniform(0.0, 1.0, (4, 6, 7, 8))
        series = series_of(a)
        tveg = compute_tveg(series, 0.0, ScoreWeights())
        refined = refine_by_overlap(tveg, series, 0.5, min_len=2)
        bundles = extract_tracks(tveg, "components")
        assert refined and max(len(tr.arcs) for tr in bundles) > len(a)
        for tracks in (extract_tracks(tveg, "simple-paths"), bundles, refined):
            assert_same_json(tracks, tmp_path / "tracks.json")

    def test_empty(self, tmp_path):
        path = tmp_path / "tracks.json"
        assert_same_json([], path)
        assert path.read_text() == '{"tracks":[]}\n'

    def test_one_node_track(self, tmp_path):
        path = tmp_path / "tracks.json"
        assert_same_json([Track(nodes=[(3, 3 << 32 | 7)])], path)
        assert path.read_text() == '{"tracks":[{"arcs":[],"length":1,"nodes":[[3,12884901895]]}]}\n'
