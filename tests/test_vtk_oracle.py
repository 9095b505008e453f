"""The VTK writer, which renders each distinct coordinate once per file,
against the per-point reference writer in `vtk_oracle`, byte for byte."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import vtk_oracle as oracle
from tvex import io as tvio
from tvex.exgraph import ExtremumGraph, make_node_id
from tvex.field import FieldSeries, ScalarField3D
from tvex.pipeline import compute_tveg
from tvex.query import least_deviation
from tvex.temporal import FilterMeta, ScoreWeights, Tveg
from tvex.tracks import Track, extract_tracks

from conftest import assert_same_text

# (z_scale, slab_height): the defaults, a given slab, and a flat stack
LAYOUTS = ((0.1, None), (0.3, 2 / 3), (1.0, 0.0))


def series_of(a: np.ndarray) -> FieldSeries:
    """A series of the (T, nz, ny, nx) values in `a`, steps 1..T, on a
    grid whose coordinates need all nine significant digits."""
    _, nz, ny, nx = a.shape
    return FieldSeries([
        ScalarField3D((nx, ny, nz), np.array([0.1, -1 / 7, 2 / 3]), np.array([1 / 3, 0.7, 0.3]),
                      v.ravel(), t + 1)
        for t, v in enumerate(a)
    ])


def assert_same_vtk(tracks, tveg, tmp_path) -> list[str]:
    """Both writers give the same bytes for every layout, with and without
    spatial arcs; returns the texts written."""
    texts = []
    for z_scale, slab in LAYOUTS:
        for spatial in (False, True):
            got, want = tmp_path / "got.vtk", tmp_path / "want.vtk"
            kw = dict(z_scale=z_scale, slab_height=slab, include_spatial=spatial)
            tvio.export_tracks_geometry(tracks, tveg, str(got), **kw)
            oracle.export_tracks_geometry(tracks, tveg, str(want), **kw)
            assert_same_text(got.read_bytes(), want.read_bytes())
            texts.append(got.read_text())
    return texts


def track_lists(tveg) -> list[list[Track]]:
    """Both modes' tracks, every third of them, no tracks, and a one-node
    track per mode."""
    lists = [extract_tracks(tveg, mode) for mode in ("simple-paths", "components")]
    thirds = [tracks[1::3] for tracks in lists]
    singles = [[Track(nodes=tracks[0].nodes[:1])] for tracks in lists if tracks]
    return lists + thirds + singles + [[]]


def saddle_sharing(tracks, tveg) -> tuple[bool, bool]:
    """Whether some saddle borders two maxima of one track, and whether
    some saddle borders maxima of two different tracks."""
    owners: dict[int, set[int]] = {}  # maximum id -> the tracks holding it
    for i, tr in enumerate(tracks):
        for _, mid in tr.nodes:
            owners.setdefault(mid, set()).add(i)
    same = other = False
    for g in tveg.graphs:
        borders: dict[int, list[int]] = {}  # saddle row -> its maxima ids
        for m, s in g.arcs.tolist():
            borders.setdefault(s, []).append(make_node_id(g.t, m))
        for maxima in borders.values():
            held = [(m, i) for m in maxima for i in owners.get(m, ())]
            for (m, i), (n, j) in combinations(held, 2):
                same |= i == j and m != n
                other |= i != j
    return same, other


def hand_built_tveg(ts) -> Tveg:
    """Steps `ts` of three maxima and two saddles each, joined by no
    temporal arcs (so every maximum is deleted and generated), on
    coordinates where -0.0 and 0.0 share a step and 0.1 sits beside the
    next float up, which prints the same at %.9g."""
    up = np.nextafter(0.1, 1.0)
    coords = np.array([[-0.0, 0.1, -0.0], [0.0, up, 0.0], [0.1, -0.0, up],
                       [-0.0, up, 0.1], [0.0, 0.0, -0.0]])
    arcs = np.array([[0, 3], [1, 3], [1, 4], [2, 4]])
    graphs = [ExtremumGraph(t, 3, np.arange(5), np.zeros(5), np.zeros(5), np.zeros(5),
                            coords.copy(), arcs=arcs.copy()) for t in ts]
    return Tveg(graphs, [([], FilterMeta(0.0, 0.0, 0.0))] * (len(ts) - 1), ScoreWeights())


@st.composite
def integer_series(draw):
    """(T, nz, ny, nx) small integers: many maxima, plateaus broken by
    the voxel order, and events of every kind."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(2, 5), st.integers(2, 5)))
    steps = draw(st.integers(2, 4))
    return draw(arrays(np.int64, (steps,) + shape, elements=st.integers(0, 4))).astype(float)


class TestWriterMatchesOracle:
    @given(integer_series(), st.sampled_from([0.0, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_tvegs(self, tmp_path_factory, a, theta):
        tmp = tmp_path_factory.mktemp("vtk")
        tveg = compute_tveg(series_of(a), theta, ScoreWeights())
        for tracks in track_lists(tveg):
            assert_same_vtk(tracks, tveg, tmp)

    def test_random_tvegs(self, rng, tmp_path):
        """Seeded noise at theta 0: hundreds of points per file, saddles
        on every maximum, and nodes in more than one event."""
        codes, shared = Counter(), 0
        for _ in range(3):
            shape = (int(rng.integers(2, 5)),) + tuple(int(d) for d in rng.integers(5, 8, 3))
            tveg = compute_tveg(series_of(rng.uniform(0.0, 1.0, shape)), 0.0, ScoreWeights())
            for tracks in track_lists(tveg):
                text = assert_same_vtk(tracks, tveg, tmp_path)[0]
                codes.update(text.split("event_code int 1\nLOOKUP_TABLE default\n")[1].split())
            ev = tveg.events
            kinds = [{(e["time"], e["node"]) for e in ev.merges},
                     {(e["time"], e["node"]) for e in ev.splits},
                     {(t, n) for n, t in ev.deletions}, {(t, n) for n, t in ev.generations}]
            shared += sum(len(a & b) for i, a in enumerate(kinds) for b in kinds[i + 1:])
        assert set(codes) == {"0", "1", "2", "3", "4"}
        assert shared > 0

    def test_dense_noisy_tveg(self, tmp_path):
        """Noisy 20^3 steps at theta 0, hundreds of maxima each: saddles
        border maxima of one bundle and maxima of different tracks, so a
        saddle's point text is reused, the paths written in reverse with
        their nodes reversed touch the steps out of time order, and the
        least-deviation paths hold a few maxima of each step they touch."""
        a = np.random.default_rng(20).uniform(0.0, 1.0, (3, 20, 20, 20))
        tveg = compute_tveg(series_of(a), 0.0, ScoreWeights())
        assert min(g.n_max for g in tveg.graphs) > 200
        paths, bundles = (extract_tracks(tveg, mode) for mode in ("simple-paths", "components"))
        backwards = [Track(nodes=tr.nodes[::-1], arcs=tr.arcs) for tr in reversed(paths)]
        few = least_deviation(paths, tveg, 5)
        assert saddle_sharing(bundles, tveg) == (True, True)
        assert saddle_sharing(paths, tveg)[1]
        first_touch = list(dict.fromkeys(t for tr in backwards for t, _ in tr.nodes))
        assert first_touch != sorted(first_touch)
        assert len({t for tr in few for t, _ in tr.nodes}) > 1
        for tracks in (paths, bundles, backwards, few):
            assert_same_vtk(tracks, tveg, tmp_path)

    @pytest.mark.parametrize("spatial", [False, True])
    def test_one_node_track(self, tmp_path, spatial):
        a = np.zeros((2, 1, 1, 5))
        a[:, 0, 0, [1, 3]] = 1.0  # two maxima and one saddle per step
        tveg = compute_tveg(series_of(a), 0.0, ScoreWeights())
        text = assert_same_vtk([Track(nodes=[(1, 1 << 32)])], tveg, tmp_path)[int(spatial)]
        assert f"POINTS {1 + spatial} float\n" in text

    @pytest.mark.parametrize("nodes", [
        [(2, 1 << 32)],  # a maximum of the step before
        [(1, 2 << 32)],  # a maximum of the step after
        [(1, 1 << 32), (1, 1 << 32 | 2)],  # a maximum and a saddle of its step
    ], ids=["earlier step", "later step", "saddle"])
    def test_node_not_a_maximum_of_its_step(self, tmp_path, nodes):
        a = np.zeros((2, 1, 1, 5))
        a[:, 0, 0, [1, 3]] = 1.0  # two maxima and one saddle per step
        tveg = compute_tveg(series_of(a), 0.0, ScoreWeights())
        t, bad = nodes[-1]
        with pytest.raises(ValueError, match=f"^no maximum {bad} at time {t}$"):
            tvio.export_tracks_geometry([Track(nodes=nodes)], tveg, str(tmp_path / "x.vtk"))


class TestOncePerFileRender:
    """Cases aimed at rendering each distinct value once per file and
    building each node's texts once."""

    def test_signed_zeros_and_values_that_print_alike(self, tmp_path):
        """-0.0 and 0.0 are distinct bit patterns and print apart; 0.1 and
        the next float up print alike. Steps -1 and 0 lift z by -0.0 when
        the slab is flat, so a -0.0 z stays -0.0 there."""
        tveg = hand_built_tveg((-1, 0))
        ids = [make_node_id(t, r) for t in (-1, 0) for r in range(3)]
        tracks = [Track(nodes=[(i >> 32, i) for i in ids])]
        flat = assert_same_vtk(tracks, tveg, tmp_path)[-1]  # z_scale 1, slab 0, spatial
        points = flat.split("POINTS 14 float\n")[1].split("LINES")[0].splitlines()
        assert points[:4] == ["-0 0.1 -0", "0 0.1 0", "0.1 -0 0.1", "-0 0.1 0"]
        assert points[8:10] == ["0 0 -0"] * 2 and points[12:] == ["0 0 0"] * 2  # saddle row 4

    def test_tracks_touch_steps_one_and_three_of_three(self, tmp_path):
        tveg = hand_built_tveg((1, 2, 3))
        a, b, c = make_node_id(1, 0), make_node_id(3, 2), make_node_id(3, 0)
        tracks = [Track(nodes=[(3, b), (1, a)], arcs=[(a, b)]), Track(nodes=[(3, c)])]
        text = assert_same_vtk(tracks, tveg, tmp_path)[1]
        assert "POINTS 6 float\n" in text
        assert "SCALARS time_index int 1\nLOOKUP_TABLE default\n3\n1\n3\n1\n3\n3\n" in text

    def test_node_repeated_in_a_track_and_shared_by_two(self, tmp_path):
        tveg = hand_built_tveg((1, 2))
        a, b = make_node_id(1, 1), make_node_id(2, 1)
        tracks = [Track(nodes=[(1, a), (2, b), (1, a)], arcs=[(a, b)]), Track(nodes=[(1, a)])]
        text = assert_same_vtk(tracks, tveg, tmp_path)[1]
        # a and b are rows 1, of two saddles each: 3 + 6 points, then 1 + 2
        assert "POINTS 12 float\n" in text

    @pytest.mark.parametrize("nodes, message", [
        ([(1, 1 << 32), (9, 9 << 32), (1, 1 << 32 | 3)], "no graph at time 9"),
        ([(1, 1 << 32 | 3), (9, 9 << 32)], "no maximum 4294967299 at time 1"),
        ([(9, 9 << 32), (1, 1 << 32 | 3)], "no graph at time 9"),
    ], ids=["bad maximum after the missing step", "bad maximum first", "missing step first"])
    def test_first_touched_step_names_the_error(self, tmp_path, nodes, message):
        """The first node that is not a maximum, in track order, names the
        error, as in `vtk_oracle`, before anything is written."""
        tveg = hand_built_tveg((1, 2, 3))
        out = tmp_path / "x.vtk"
        for spatial in (False, True):
            with pytest.raises(ValueError, match=f"^{message}$"):
                tvio.export_tracks_geometry([Track(nodes=nodes)], tveg, str(out),
                                            include_spatial=spatial)
        assert not out.exists()
