"""Track extraction from temporal arcs and overlap-based refinement."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dfield

import numpy as np

from .exgraph import split_node_id
from .field import FieldSeries
from .morse import find_root, morse_step
from .temporal import ScoreTuple, Tveg


@dataclass
class Track:
    """Monotone-in-time sequence of maxima joined by temporal arcs.

    In components mode a Track is a bundle: nodes are all maxima of one
    connected component of the temporal-arc graph, and length is the
    component's time extent. In simple-paths mode nodes advance by
    exactly one step at a time.
    """

    nodes: list[tuple[int, int]]  # (t, max_id); in time order when extracted
    arcs: list[tuple[int, int]] = dfield(default_factory=list)

    @property
    def length(self) -> int:
        """Time extent: last step - first step + 1 (0 without nodes), for
        nodes in any order."""
        return max(self.nodes)[0] - min(self.nodes)[0] + 1 if self.nodes else 0


def _components(arcs: list[ScoreTuple]) -> list[Track]:
    """One bundle per connected component: its arcs grouped by their
    root in one pass, its nodes the ends of those arcs in id order."""
    parent: dict[int, int] = {}
    for a in arcs:
        parent.setdefault(a.m0, a.m0)
        parent.setdefault(a.m1, a.m1)
        ra, rb = find_root(parent, a.m0), find_root(parent, a.m1)
        if ra != rb:  # join under the smaller root
            parent[max(ra, rb)] = min(ra, rb)
    comp_arcs: dict[int, list[tuple[int, int]]] = {}
    for a in arcs:
        comp_arcs.setdefault(find_root(parent, a.m0), []).append((a.m0, a.m1))
    return [
        Track(
            nodes=[(n >> 32, n) for n in sorted({n for arc in comp for n in arc})],
            arcs=sorted(comp),
        )
        for _, comp in sorted(comp_arcs.items())
    ]


def _simple_paths(arcs: list[ScoreTuple]) -> list[Track]:
    """Split the arc graph into monotone paths at every branch node.

    A path passes through a node only if that node has in-degree 1 and
    out-degree 1; branch nodes terminate paths but are shared as
    endpoints, so every arc lands in exactly one path. Output is ordered
    longest first, ties by first node id. Every arc must join step t to
    t + 1, as the arcs of a Tveg do.
    """
    succ: dict[int, list[int]] = {}
    for a in arcs:
        succ.setdefault(a.m0, []).append(a.m1)
    in_deg = Counter(a.m1 for a in arcs)
    # each pass-through node (in- and out-degree 1) and its one successor
    nxt = {n: out[0] for n, out in succ.items() if len(out) == 1 and in_deg[n] == 1}

    tracks = []
    # start arcs: source is not a pass-through node; every other arc
    # leaves a pass-through node, so each arc is walked exactly once
    # (time strictly increases, so there are no cycles)
    for a in sorted(arcs):  # by (m0, m1), unique among the arcs of a Tveg
        if a.m0 in nxt:
            continue
        ids = [a.m0, a.m1]
        while ids[-1] in nxt:
            ids.append(nxt[ids[-1]])
        # arcs join t to t + 1: the times follow from the first node's,
        # and the path's length is its node count
        t0 = split_node_id(a.m0)[0]
        tracks.append(Track(nodes=list(zip(range(t0, t0 + len(ids)), ids)),
                            arcs=list(zip(ids, ids[1:]))))
    return sorted(tracks, key=lambda tr: (-len(tr.nodes), tr.nodes[0][1]))


def extract_tracks(tveg: Tveg, mode: str = "simple-paths") -> list[Track]:
    """Tracks of the temporal-arc graph.

    mode "components": one bundle per connected component.
    mode "simple-paths": monotone paths, split at branch nodes, each
    temporal arc in exactly one path.
    """
    arcs = tveg.all_arcs()
    if mode == "components":
        return _components(arcs)
    if mode == "simple-paths":
        return _simple_paths(arcs)
    raise ValueError(f"unknown mode {mode!r}")


def refine_by_overlap(
    tveg: Tveg, series: FieldSeries, isovalue: float, min_len: int = 10
) -> list[Track]:
    """Resolve two-way correspondences by clipped-region overlap.

    Each maximum's region is its descending manifold clipped by the
    superlevel set at `isovalue`. Each step's volume is read from
    `series` in time order and segmented again at `tveg.theta`; only the
    clipped labels of the step before are kept. The overlaps of a step
    pair are one count of the (label at t, label at t+1) pairs of the
    voxels clipped in both; a label is its maximum's row. For a source with two arcs only the
    larger-overlap arc survives (ties: lower score); arcs with zero
    overlap are dropped. Tracks shorter than min_len are discarded.
    Raises ValueError when `series` lacks a step of the tveg or does not
    give the graph's maxima there.
    """
    kept: list[ScoreTuple] = []
    prev = None
    for g, (arcs_in, _) in zip(tveg.graphs, [([], None)] + tveg.links):
        f = series.at(g.t)
        seg = morse_step(f, tveg.theta)
        maxima = g.vertex[: g.n_max]
        if not (np.array_equal(seg.maxima, maxima)
                and np.array_equal(f.values[maxima], g.value[: g.n_max])):
            raise ValueError(f"step {g.t}: the series does not give the graph's "
                             f"maxima at theta {tveg.theta:.6g}")
        # -1 outside the superlevel set
        cur, n = np.where(f.values >= isovalue, seg.labels, -1), g.n_max
        overlap: dict[int, int] = {}  # row pair key -> shared voxels
        if prev is not None:
            both = (prev >= 0) & (cur >= 0)
            pairs, counts = np.unique(prev[both].astype(np.int64) * n + cur[both],
                                      return_counts=True)
            overlap = dict(zip(pairs.tolist(), counts.tolist()))
        by_src: dict[int, list[tuple[ScoreTuple, int]]] = {}
        for a in arcs_in:
            key = split_node_id(a.m0)[1] * n + split_node_id(a.m1)[1]
            by_src.setdefault(a.m0, []).append((a, overlap.get(key, 0)))
        for src in sorted(by_src):
            cands = by_src[src]
            if len(cands) == 2:
                cands = [min(cands, key=lambda c: (-c[1], c[0].s, c[0].m1))]
            kept.extend(a for a, ov in cands if ov > 0)
        prev = cur

    pruned = _simple_paths(kept)
    return [tr for tr in pruned if tr.length >= min_len]
