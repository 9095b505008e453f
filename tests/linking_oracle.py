"""Reference linking and tveg.json writer, one Python object at a time.

These are the straightforward implementations the column code in
`tvex.temporal` and `tvex.io` must match bit for bit: an (n0, n1, 3)
difference tensor reduced by `np.linalg.norm`, a per-row sort for the
two best targets, a rescan of all arcs after every z-removal, and a
dict tree written by the generic `canonical_json`. `tracks_to_dict` and
`events_to_dict` are the dict trees of the tracks and events writers.
"""

from __future__ import annotations

import numpy as np

from tvex.exgraph import ExtremumGraph, make_node_id
from tvex.io import canonical_json
from tvex.temporal import EventSets, ScoreTuple, ScoreWeights, Tveg
from tvex.tracks import Track


def normalize_components(g0: ExtremumGraph, g1: ExtremumGraph):
    n0, n1 = g0.n_max, g1.n_max
    if not n0 or not n1:
        raise ValueError("both maxima sets must be non-empty")

    def diff(col0, col1):
        return np.abs(col0[:n0, None] - col1[None, :n1])

    P = diff(g0.pers, g1.pers)
    J = diff(g0.value, g1.value)
    D = np.linalg.norm(g0.coords[:n0, None, :] - g1.coords[None, :n1, :], axis=2)
    N = diff(g0.eta, g1.eta)
    out = []
    for comp in (P, J, D, N):
        peak = comp.max()
        out.append(comp / peak if peak > 0 else np.zeros_like(comp))
    return tuple(out)


def compute_scores(
    g0: ExtremumGraph, g1: ExtremumGraph, w: ScoreWeights
) -> list[ScoreTuple]:
    P, J, D, N = normalize_components(g0, g1)
    S = w.G * P + w.L1 * J + w.L2 * D + w.L3 * N
    ids1 = g1.maxima.tolist()
    out = []
    for m0, row in zip(g0.maxima.tolist(), S.tolist()):
        ranked = sorted(zip(row, ids1))
        for s, mid in ranked[:2]:
            out.append(ScoreTuple(m0=m0, m1=mid, s=s))
    return sorted(out, key=lambda a: (a.m0, a.m1))


def remove_z_configurations(arcs: list[ScoreTuple]) -> list[ScoreTuple]:
    arcs = list(arcs)
    while True:
        out_deg: dict[int, int] = {}
        in_deg: dict[int, int] = {}
        for a in arcs:
            out_deg[a.m0] = out_deg.get(a.m0, 0) + 1
            in_deg[a.m1] = in_deg.get(a.m1, 0) + 1
        offenders = [a for a in arcs if out_deg[a.m0] >= 2 and in_deg[a.m1] >= 2]
        if not offenders:
            return sorted(arcs, key=lambda a: (a.m0, a.m1))
        worst = max(offenders, key=lambda a: (a.s, a.m0, a.m1))
        arcs.remove(worst)


def step_dict(g: ExtremumGraph) -> dict:
    index = [3] * g.n_max + [2] * (len(g.value) - g.n_max)
    nodes = [
        {
            "id": nid,
            "index": idx,
            "x": x,
            "value": value,
            "pers": pers,
            "eta": eta,
            "vertex": vertex,
            "t": g.t,
        }
        for nid, idx, x, value, pers, eta, vertex in zip(
            g.ids.tolist(),
            index,
            g.coords.tolist(),
            g.value.tolist(),
            g.pers.tolist(),
            g.eta.tolist(),
            g.vertex.tolist(),
        )
    ]
    return {"t": g.t, "nodes": nodes, "arcs": (g.arcs + make_node_id(g.t, 0)).tolist()}


def events_to_dict(ev: EventSets) -> dict:
    return {
        "merges": ev.merges,
        "splits": ev.splits,
        "deletions": [[n, t] for n, t in ev.deletions],
        "generations": [[n, t] for n, t in ev.generations],
    }


def tracks_to_dict(tracks: list[Track]) -> dict:
    return {
        "tracks": [
            {
                "nodes": [[t, n] for t, n in tr.nodes],
                "arcs": [[a, b] for a, b in tr.arcs],
                "length": tr.length,
            }
            for tr in tracks
        ]
    }


def tveg_to_dict(tveg: Tveg) -> dict:
    return {
        "theta": tveg.theta,
        "weights": {
            "G": tveg.weights.G,
            "L1": tveg.weights.L1,
            "L2": tveg.weights.L2,
            "L3": tveg.weights.L3,
        },
        "steps": [step_dict(g) for g in tveg.graphs],
        "temporal_arcs": [
            {
                "t": g.t,
                "arcs": [[a.m0, a.m1, a.s] for a in arcs],
                "filter": {
                    "mu": meta.mu,
                    "sigma": meta.sigma,
                    "tau": meta.tau,
                },
            }
            for g, (arcs, meta) in zip(tveg.graphs, tveg.links)
        ],
        "events": events_to_dict(tveg.events),
    }


def tveg_json(tveg: Tveg) -> str:
    """The text `export_tveg_json` must write."""
    return canonical_json(tveg_to_dict(tveg))


def extremum_graph_json(g: ExtremumGraph) -> str:
    """The text `export_extremum_graph_json` must write."""
    return canonical_json(step_dict(g))
