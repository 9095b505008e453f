"""Reference track code, one node and one path at a time.

These are the straightforward definitions that `tvex.query.least_deviation`
and `tvex.tracks.extract_tracks` must match exactly: a track's deviation
looks each node up with `Tveg.max_row` and measures each step with
`np.linalg.norm`, a track's length is the extent of the set of its node
times, and the simple paths give every node its own `split_node_id`.
"""

from __future__ import annotations

import numpy as np

from tvex.exgraph import split_node_id
from tvex.temporal import ScoreTuple, Tveg
from tvex.tracks import Track


def length(track: Track) -> int:
    """Time extent of the track's nodes: last step - first step + 1."""
    times = {t for t, _ in track.nodes}
    return max(times) - min(times) + 1 if times else 0


def deviation(track: Track, tveg: Tveg) -> float:
    """Mean step distance of the track's node coordinates."""
    if len(track.nodes) < 2:
        return 0.0
    coords = []
    for t, mid in track.nodes:
        g, row = tveg.max_row(t, mid)
        coords.append(g.coords[row])
    steps = [float(np.linalg.norm(b - a)) for a, b in zip(coords, coords[1:])]
    return sum(steps) / (len(track.nodes) - 1)


def least_deviation(tracks: list[Track], tveg: Tveg, n: int) -> list[Track]:
    """The n tracks of least deviation, ties by first node id."""
    ranked = sorted(
        tracks, key=lambda tr: (deviation(tr, tveg), tr.nodes[0][1] if tr.nodes else -1)
    )
    return ranked[:n]


def simple_paths(arcs: list[ScoreTuple]) -> list[Track]:
    """Monotone paths split at every branch node, longest first, ties by
    first node id; each arc in exactly one path."""
    out_arcs: dict[int, list[ScoreTuple]] = {}
    in_deg: dict[int, int] = {}
    for a in arcs:
        out_arcs.setdefault(a.m0, []).append(a)
        in_deg[a.m1] = in_deg.get(a.m1, 0) + 1

    def chains_through(n: int) -> bool:
        return in_deg.get(n, 0) == 1 and len(out_arcs.get(n, ())) == 1

    tracks = []
    for a in sorted(arcs, key=lambda a: (a.m0, a.m1)):
        if chains_through(a.m0):
            continue
        path = [a]
        while chains_through(path[-1].m1):
            path.append(out_arcs[path[-1].m1][0])
        nodes = [(split_node_id(path[0].m0)[0], path[0].m0)]
        nodes += [(split_node_id(p.m1)[0], p.m1) for p in path]
        tracks.append(Track(nodes=nodes, arcs=[(p.m0, p.m1) for p in path]))
    return sorted(tracks, key=lambda tr: (-length(tr), tr.nodes[0][1]))
