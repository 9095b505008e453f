"""Reference simplification: cancel one pair at a time, re-pairing after each.

This is the loop `tvex.morse.simplify` used before it became a single
sweep. Each round pairs the current region graph, cancels the pair of
least persistence (ties by maximum id), relabels the canceled region to
its partner with a full voxel scan and re-merges the adjacencies. A
saddle is named by its row in the raw segmentation. Two ties are broken
by (saddle rank, raw row), as the sweep breaks them: the pairing's edge
order, and which saddle a merged region pair keeps when several saddles
sit on one voxel (the loop used to keep whichever came first in its
dict, which depends on the cancellation history).
The pairing and the manifold scan are kept here too: the segmentation's
columns are read into dicts once, so the reference shares only the
data type with the code it checks.
"""

from __future__ import annotations

import numpy as np

from morse_oracle import vertex_order
from tvex.morse import Segmentation


def pairing(f, max_ids, adjacency, saddle_vertex, rank):
    """{max_id: (pers, partner_label, saddle row)} by a Kruskal sweep."""
    parent = {mid: mid for mid in max_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comp_best = {mid: rank[mid] for mid in max_ids}
    comp_best_id = {mid: mid for mid in max_ids}
    by_val = {mid: float(f.values[mid]) for mid in max_ids}

    edges = []
    for (la, lb), sid in adjacency.items():
        edges.append((rank[saddle_vertex[sid]], sid, la, lb))
    edges.sort(reverse=True)

    result = {}
    for _, sid, la, lb in edges:
        ra, rb = find(la), find(lb)
        if ra == rb:
            continue
        if comp_best[ra] < comp_best[rb]:
            loser_root, winner_root, winner_side = ra, rb, lb
        else:
            loser_root, winner_root, winner_side = rb, ra, la
        loser_max = comp_best_id[loser_root]
        sval = float(f.values[saddle_vertex[sid]])
        result[loser_max] = (by_val[loser_max] - sval, winner_side, sid)
        parent[loser_root] = winner_root

    fmin = float(f.values.min())
    for mid in max_ids:
        if mid not in result:
            result[mid] = (by_val[mid] - fmin, -1, -1)
    return result


def manifolds(seg: Segmentation) -> list[np.ndarray]:
    """Each maximum's descending manifold by a full voxel scan."""
    return [np.flatnonzero(seg.labels == m) for m in seg.maxima.tolist()]


def iterative_simplify(seg: Segmentation, theta: float) -> Segmentation:
    """Cancel pairs below theta one by one in the raw segmentation `seg`;
    returns a new Segmentation with the persistence of the surviving
    maxima."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    f = seg.field
    rank, _ = vertex_order(f)
    labels = seg.labels.copy()
    maxima = set(seg.maxima.tolist())
    saddle_vertex = dict(enumerate(seg.saddles.tolist()))
    adjacency = {(la, lb): sid for sid, (la, lb) in enumerate(seg.pairs.tolist())}

    while len(maxima) > 1:
        pairs = pairing(f, sorted(maxima), adjacency, saddle_vertex, rank)
        candidates = [
            (p, mid, partner, sid)
            for mid, (p, partner, sid) in pairs.items()
            if partner != -1
        ]
        if not candidates:
            break
        p, mid, partner, sid = min(candidates)
        if p >= theta:
            break
        labels[labels == mid] = partner
        new_adj: dict[tuple[int, int], int] = {}
        for (la, lb), s in adjacency.items():
            if mid in (la, lb):
                other = lb if la == mid else la
                if other == partner:
                    continue
                key = (min(partner, other), max(partner, other))
            else:
                key = (la, lb)
            if key in new_adj:
                keep = new_adj[key]
                if (rank[saddle_vertex[s]], s) > (rank[saddle_vertex[keep]], keep):
                    new_adj[key] = s
            else:
                new_adj[key] = s
        adjacency = new_adj
        maxima.discard(mid)

    max_ids = sorted(maxima)
    keys = sorted(adjacency)
    pairs = pairing(f, max_ids, adjacency, saddle_vertex, rank)
    return Segmentation(
        field=f,
        labels=labels,
        maxima=np.array(max_ids, dtype=np.int64),
        pers=np.array([pairs[m][0] for m in max_ids]),
        pairs=np.array(keys, dtype=np.int64).reshape(-1, 2),
        saddles=np.array([saddle_vertex[adjacency[k]] for k in keys], dtype=np.int64),
    )
