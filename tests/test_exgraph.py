"""Per-step extremum graph assembly and node attributes."""

from unittest import mock

import numpy as np
import pytest

from tvex import morse, pipeline
from tvex.exgraph import build_extremum_graph, make_node_id, split_node_id
from tvex.morse import simplify

from conftest import random_field, raw_segmentation, two_blob_series


def arc_ids(g) -> list[list[int]]:
    """The graph's arcs as (maximum id, saddle id) pairs."""
    return (g.arcs + make_node_id(g.t, 0)).tolist()


def neighborhood_contribution(g, max_id: int) -> float:
    """eta(m): sum over incident saddles of |f(m) - f(s)|.

    One term at a time over the arcs; the reference for the eta column.
    """
    t, row = split_node_id(max_id)
    if t != g.t or row >= g.n_max:
        raise KeyError(f"{max_id} is not a maximum of step {g.t}")
    value = g.value.tolist()
    return float(sum(abs(value[row] - value[s]) for m, s in g.arcs.tolist() if m == row))


def test_node_id_roundtrip():
    for t, local in [(0, 0), (1, 5), (50, 2**20), (1000, 0xFFFFFFFF)]:
        assert split_node_id(make_node_id(t, local)) == (t, local)


def test_ids_encode_time(rng):
    f = random_field(rng, (6, 6, 6), time_index=7)
    g = build_extremum_graph(f, 0.1)
    for nid in g.ids.tolist():
        assert split_node_id(nid)[0] == 7
        assert g.t == 7


def test_maxima_before_saddles_in_local_index(rng):
    f = random_field(rng, (6, 6, 6), time_index=3)
    g = build_extremum_graph(f, 0.1)
    max_locals = [split_node_id(m)[1] for m in g.maxima.tolist()]
    sad_locals = [split_node_id(s)[1] for s in g.saddles.tolist()]
    assert max_locals == list(range(len(max_locals)))
    assert sad_locals == list(
        range(len(max_locals), len(max_locals) + len(sad_locals))
    )


def test_every_saddle_has_degree_two(rng):
    f = random_field(rng, (7, 7, 7), time_index=1)
    g = build_extremum_graph(f, 0.15)
    deg = {}
    for m, s in arc_ids(g):
        deg[s] = deg.get(s, 0) + 1
    assert set(deg) == set(g.saddles.tolist())
    assert all(d == 2 for d in deg.values())


def test_arcs_join_maxima_to_saddles(rng):
    f = random_field(rng, (6, 6, 6), time_index=1)
    g = build_extremum_graph(f, 0.1)
    max_ids = set(g.maxima.tolist())
    sad_ids = set(g.saddles.tolist())
    for m, s in arc_ids(g):
        assert m in max_ids
        assert s in sad_ids
    assert arc_ids(g) == sorted(arc_ids(g))


def test_graph_matches_simplified_segmentation(rng):
    f = random_field(rng, (6, 6, 6), time_index=1)
    theta = 0.2
    ref = simplify(raw_segmentation(f), theta, morse.vertex_order(f)[0])
    g = build_extremum_graph(f, theta)
    assert len(g.maxima) == len(ref.maxima)
    assert sorted(g.vertex[: g.n_max].tolist()) == sorted(ref.maxima.tolist())
    assert len(g.saddles) == len(ref.pairs)


def test_eta_is_sum_of_saddle_gaps(rng):
    f = random_field(rng, (6, 6, 6), time_index=1)
    g = build_extremum_graph(f, 0.15)
    value = dict(zip(g.ids.tolist(), g.value.tolist()))
    for m, eta in zip(g.maxima.tolist(), g.eta.tolist()):
        expect = sum(
            abs(value[m] - value[s]) for mm, s in arc_ids(g) if mm == m
        )
        assert eta == pytest.approx(expect)
        assert neighborhood_contribution(g, m) == pytest.approx(expect)


def test_eta_sums_in_saddle_order(rng):
    """Many saddles per maximum: another summation order changes the
    last bits, so eta must add the terms in sorted-arc order."""
    f = random_field(rng, (7, 7, 7), time_index=1)
    g = build_extremum_graph(f, 0.05)
    for m, eta in zip(g.maxima.tolist(), g.eta.tolist()):
        assert eta == neighborhood_contribution(g, m)


def test_neighborhood_contribution_rejects_saddle(rng):
    f = random_field(rng, (5, 5, 5), time_index=1)
    g = build_extremum_graph(f, 0.1)
    if len(g.saddles):
        with pytest.raises(KeyError):
            neighborhood_contribution(g, int(g.saddles[0]))


def test_incident_saddles_sorted(rng):
    f = random_field(rng, (6, 6, 6), time_index=1)
    g = build_extremum_graph(f, 0.1)
    for m in g.maxima.tolist():
        inc = [s for mm, s in arc_ids(g) if mm == m]
        assert inc == sorted(inc)


def test_saddle_persistence_is_cancellation_value(rng):
    f = random_field(rng, (6, 6, 6), time_index=1)
    g = build_extremum_graph(f, 0.1)
    value = dict(zip(g.ids.tolist(), g.value.tolist()))
    touching = {}
    for m, s in arc_ids(g):
        touching.setdefault(s, []).append(m)
    for s, pers in zip(g.saddles.tolist(), g.pers[g.n_max :].tolist()):
        pair = touching[s]
        expect = min(value[m] - value[s] for m in pair)
        assert pers == pytest.approx(expect)


def test_vertex_order_runs_once_per_step(rng, monkeypatch):
    with mock.patch.object(morse, "vertex_order", wraps=morse.vertex_order) as counted:
        build_extremum_graph(random_field(rng, (6, 6, 6), time_index=1), 0.2)
        assert counted.call_count == 1
        series = two_blob_series(steps=3, dims=(8, 8, 8))
        monkeypatch.setenv("TVEX_THREADS", "1")
        pipeline.build_graphs(series, 0.05)
        assert counted.call_count == 1 + len(series)


def test_graph_holds_no_voxel_rank(rng):
    """The graph holds no voxel-sized array at all, and no array of the
    step's segmentation is the voxel rank."""
    f = random_field(rng, (6, 6, 6), time_index=1)
    rank, _ = morse.vertex_order(f)
    g = build_extremum_graph(f, 0.1)
    arrays = [v for v in vars(g).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 6
    for value in arrays:
        assert value.size < rank.size
    seg = morse.morse_step(f, 0.1)
    voxel_sized = [
        v for v in vars(seg).values() if isinstance(v, np.ndarray) and v.shape == rank.shape
    ]
    assert voxel_sized  # the labels
    for value in voxel_sized:
        assert not np.array_equal(value, rank)
