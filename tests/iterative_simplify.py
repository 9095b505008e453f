"""Reference simplification: cancel one pair at a time, re-pairing after each.

This is the loop `tvex.morse.simplify` used before it became a single
sweep. Each round pairs the current region graph, cancels the pair of
least persistence (ties by maximum id), relabels the canceled region to
its partner with a full voxel scan and re-merges the adjacencies. Two
ties are broken by (saddle rank, saddle id), as the sweep breaks them:
the pairing's edge order, and which saddle a merged region pair keeps
when several saddles sit on one voxel (the loop used to keep whichever
came first in its dict, which depends on the cancellation history).
The pairing and the manifold scan are kept here too, so the reference
shares only the data types with the code it checks.
"""

from __future__ import annotations

import numpy as np

from tvex.morse import Segmentation, vertex_order


def pairing(f, maxima, adjacency, saddle_by_id, rank):
    """{max_id: (pers, partner_label, saddle_id)} by a Kruskal sweep."""
    max_ids = [m.id for m in maxima]
    parent = {mid: mid for mid in max_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comp_best = {m.id: rank[m.vertex] for m in maxima}
    comp_best_id = {mid: mid for mid in max_ids}
    by_val = {m.id: m.value for m in maxima}

    edges = []
    for (la, lb), sid in adjacency.items():
        edges.append((rank[saddle_by_id[sid].vertex], sid, la, lb))
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
        sval = saddle_by_id[sid].value
        result[loser_max] = (by_val[loser_max] - sval, winner_side, sid)
        parent[loser_root] = winner_root

    fmin = float(f.values.min())
    for mid in max_ids:
        if mid not in result:
            result[mid] = (by_val[mid] - fmin, -1, -1)
    return result


def iterative_simplify(seg: Segmentation, theta: float) -> Segmentation:
    """Cancel pairs below theta one by one; returns a new Segmentation
    with persistence and manifolds set on the surviving maxima."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    f = seg.field
    rank = vertex_order(f)
    labels = seg.labels.copy()
    maxima = {m.id: m for m in seg.maxima}
    saddle_by_id = {s.id: s for s in seg.saddles}
    adjacency = dict(seg.adjacency)

    while len(maxima) > 1:
        pairs = pairing(f, list(maxima.values()), adjacency, saddle_by_id, rank)
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
                if (rank[saddle_by_id[s].vertex], s) > (
                    rank[saddle_by_id[keep].vertex], keep
                ):
                    new_adj[key] = s
            else:
                new_adj[key] = s
        adjacency = new_adj
        del maxima[mid]

    out = Segmentation(
        field=f,
        labels=labels,
        maxima=sorted(maxima.values(), key=lambda m: m.id),
        saddles=sorted(
            (saddle_by_id[s] for s in set(adjacency.values())), key=lambda s: s.id
        ),
        adjacency=adjacency,
    )
    pairs = pairing(f, out.maxima, out.adjacency, saddle_by_id, rank)
    for m in out.maxima:
        m.pers = pairs[m.id][0]
        m.dscmfold = np.flatnonzero(labels == m.id)
    return out
