"""Maxima, descending-manifold segmentation, saddles, and persistence.

Discrete pipeline on the 26-connected voxel grid. All comparisons use a
strict total order on voxels given by the pair (value, voxel id), so
every field behaves like a Morse function: no two voxels compare equal.
Boundary voxels use clipped neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield, replace

import numpy as np

from .field import ScalarField3D

# (dz, dy, dx) offsets of the 26-neighborhood
NEIGHBOR_OFFSETS = [
    (dz, dy, dx)
    for dz in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dx in (-1, 0, 1)
    if (dz, dy, dx) != (0, 0, 0)
]
# the 13 "positive" offsets; each undirected grid edge is visited once
HALF_OFFSETS = [o for o in NEIGHBOR_OFFSETS if o > (0, 0, 0)]


@dataclass
class CriticalPoint:
    """One critical point with its attributes.

    index is 3 for maxima and 2 for saddles (3D data). `vertex` is the
    linear voxel id hosting the point; `dscmfold` holds the voxel ids
    of the descending manifold (maxima only).
    """

    id: int
    index: int
    coords: np.ndarray
    value: float
    pers: float = 0.0
    vertex: int = -1
    dscmfold: np.ndarray | None = None


@dataclass
class Segmentation:
    """Descending-manifold segmentation of one field.

    labels[v] is the voxel id of the maximum owning voxel v; `maxima`
    are in id order. adjacency maps unordered maximum-id pairs to the
    id of the mediating saddle.
    """

    field: ScalarField3D
    labels: np.ndarray
    maxima: list[CriticalPoint] = dfield(default_factory=list)
    saddles: list[CriticalPoint] = dfield(default_factory=list)
    adjacency: dict[tuple[int, int], int] = dfield(default_factory=dict)


def vertex_order(f: ScalarField3D) -> np.ndarray:
    """Rank of every voxel under the (value, voxel id) total order.

    Ranks are unique integers in [0, n); a higher rank means a greater
    voxel. This is the simulated-simplicity tie-break used everywhere.
    """
    n = f.num_voxels
    # a stable sort keeps equal values in voxel-id order
    order = np.argsort(f.values, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return rank


def _steepest_neighbor(f: ScalarField3D, rank: np.ndarray) -> np.ndarray:
    """next[v] = 26-neighbor of greatest rank if it beats v, else v."""
    nx, ny, nz = f.dims
    n = f.num_voxels
    r3 = rank.reshape(nz, ny, nx)
    padded = np.full((nz + 2, ny + 2, nx + 2), -1, dtype=np.int64)
    padded[1:-1, 1:-1, 1:-1] = r3

    best = np.full(n, -1, dtype=np.int64)
    best_idx = np.full(n, -1, dtype=np.int64)
    for dz, dy, dx in NEIGHBOR_OFFSETS:
        nb = padded[1 + dz : 1 + dz + nz, 1 + dy : 1 + dy + ny, 1 + dx : 1 + dx + nx]
        nb = nb.ravel()
        off = dx + nx * (dy + ny * dz)
        better = nb > best
        best = np.where(better, nb, best)
        if np.any(better):
            idx = np.arange(n, dtype=np.int64) + off
            best_idx = np.where(better, idx, best_idx)
    nxt = np.where(best > rank, best_idx, np.arange(n, dtype=np.int64))
    return nxt


def compute_segmentation(
    f: ScalarField3D, rank: np.ndarray | None = None
) -> Segmentation:
    """Label every voxel with the maximum its steepest-ascent path reaches.

    `rank` is `vertex_order(f)`, computed here when not given.
    """
    if rank is None:
        rank = vertex_order(f)
    nxt = _steepest_neighbor(f, rank)
    labels = nxt.copy()
    while True:
        jumped = labels[labels]
        if np.array_equal(jumped, labels):
            break
        labels = jumped
    maxima_ids = np.flatnonzero(nxt == np.arange(f.num_voxels))
    maxima = _critical_points(f, 3, maxima_ids, maxima_ids)
    return Segmentation(field=f, labels=labels, maxima=maxima)


def _critical_points(
    f: ScalarField3D, index: int, ids: np.ndarray, verts: np.ndarray
) -> list[CriticalPoint]:
    """CriticalPoints of one index at the given voxels, coordinates and
    values gathered for all of them at once. Each point gets its own
    copy of its coordinates, so points that simplification drops do not
    keep the whole block alive."""
    coords = f.world_coords_many(verts)
    return [
        CriticalPoint(id=i, index=index, coords=c.copy(), value=val, vertex=v)
        for i, c, val, v in zip(
            ids.tolist(), coords, f.values[verts].tolist(), verts.tolist()
        )
    ]


def compute_saddles(
    f: ScalarField3D, seg: Segmentation, rank: np.ndarray | None = None
) -> Segmentation:
    """Fill in saddles and the region-adjacency map.

    For each unordered pair of adjacent labels the saddle is the
    crossing edge maximizing min(f(u), f(v)) under the total order; the
    saddle sits at the lower endpoint of that edge. Exactly one saddle
    is kept per pair.
    """
    nx, ny, nz = f.dims
    n = f.num_voxels
    if rank is None:
        rank = vertex_order(f)
    labels = seg.labels
    r3 = rank.reshape(nz, ny, nx)
    l3 = labels.reshape(nz, ny, nx)
    base3 = np.arange(n, dtype=np.int64).reshape(nz, ny, nx)

    pair_keys = []
    edge_ranks = []
    lo_verts = []
    for dz, dy, dx in HALF_OFFSETS:
        zs = slice(0, nz - dz)
        ys_a = slice(max(0, -dy), ny - max(0, dy))
        xs_a = slice(max(0, -dx), nx - max(0, dx))
        zs_b = slice(dz, nz)
        ys_b = slice(max(0, dy), ny + min(0, dy))
        xs_b = slice(max(0, dx), nx + min(0, dx))
        la = l3[zs, ys_a, xs_a].ravel()
        lb = l3[zs_b, ys_b, xs_b].ravel()
        cross = la != lb
        if not np.any(cross):
            continue
        ra = r3[zs, ys_a, xs_a].ravel()[cross]
        rb = r3[zs_b, ys_b, xs_b].ravel()[cross]
        va = base3[zs, ys_a, xs_a].ravel()[cross]
        vb = base3[zs_b, ys_b, xs_b].ravel()[cross]
        la = la[cross]
        lb = lb[cross]
        lo_rank = np.minimum(ra, rb)
        lo_vert = np.where(ra < rb, va, vb)
        pmin = np.minimum(la, lb)
        pmax = np.maximum(la, lb)
        pair_keys.append(pmin.astype(np.int64) * n + pmax)
        edge_ranks.append(lo_rank)
        lo_verts.append(lo_vert)

    seg.saddles = []
    seg.adjacency = {}
    if not pair_keys:
        return seg
    pair_keys = np.concatenate(pair_keys)
    edge_ranks = np.concatenate(edge_ranks)
    lo_verts = np.concatenate(lo_verts)

    uniq, inverse = np.unique(pair_keys, return_inverse=True)
    best = np.full(uniq.size, -1, dtype=np.int64)
    np.maximum.at(best, inverse, edge_ranks)
    # pick the achieving edge for each pair (ranks are unique per vertex,
    # so ties can only repeat the same saddle vertex)
    achieving = edge_ranks == best[inverse]
    sad_vert = np.full(uniq.size, -1, dtype=np.int64)
    sad_vert[inverse[achieving]] = lo_verts[achieving]

    # saddle ids offset past voxel-id maxima ids
    sids = n + np.arange(uniq.size, dtype=np.int64)
    seg.saddles = _critical_points(f, 2, sids, sad_vert)
    seg.adjacency = {
        (key // n, key % n): sid for key, sid in zip(uniq.tolist(), sids.tolist())
    }
    return seg


def find_root(parent: dict[int, int] | list[int], x: int) -> int:
    """Union-find root of x in a parent map, halving the path on the way.

    A root is its own parent; callers link roots by their own rule.
    """
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _pairing(
    f: ScalarField3D,
    maxima: list[CriticalPoint],
    adjacency: dict[tuple[int, int], int],
    saddle_by_id: dict[int, CriticalPoint],
    rank: np.ndarray,
) -> dict[int, tuple[float, int, int]]:
    """Merge-order persistence pairing on the region-adjacency graph.

    Edges are processed in decreasing (saddle rank, saddle id) order
    (Kruskal style); when two components merge, the component whose best
    maximum is lower gets paired: pers = f(m) - f(saddle). The order
    does not depend on region labels, so pairing a graph with some pairs
    already canceled gives the remaining pairs the same partners.
    Returns {max_id: (pers, partner_label, saddle_id)}; the global
    maximum maps to (f(max) - f(min), -1, -1).
    """
    max_ids = [m.id for m in maxima]
    mrank = {m.id: rank[m.vertex] for m in maxima}
    parent = {mid: mid for mid in max_ids}
    comp_best = dict(mrank)  # root -> rank of its best maximum
    comp_best_id = {mid: mid for mid in max_ids}
    by_val = {m.id: m.value for m in maxima}

    edges = []
    for (la, lb), sid in adjacency.items():
        edges.append((rank[saddle_by_id[sid].vertex], sid, la, lb))
    edges.sort(reverse=True)

    result: dict[int, tuple[float, int, int]] = {}
    for _, sid, la, lb in edges:
        ra, rb = find_root(parent, la), find_root(parent, lb)
        if ra == rb:
            continue
        if comp_best[ra] < comp_best[rb]:
            loser_root, winner_root = ra, rb
            loser_side, winner_side = la, lb
        else:
            loser_root, winner_root = rb, ra
            loser_side, winner_side = lb, la
        loser_max = comp_best_id[loser_root]
        sval = saddle_by_id[sid].value
        result[loser_max] = (by_val[loser_max] - sval, winner_side, sid)
        parent[loser_root] = winner_root  # winner keeps its best maximum

    fmin = float(f.values.min())
    for mid in max_ids:
        if mid not in result:
            result[mid] = (by_val[mid] - fmin, -1, -1)
    return result


def compute_persistence(
    f: ScalarField3D, seg: Segmentation, rank: np.ndarray | None = None
) -> dict[int, float]:
    """Persistence of every maximum; also stored on the CriticalPoints.

    The globally greatest maximum gets the essential value
    f(global max) - f(global min).
    """
    if rank is None:
        rank = vertex_order(f)
    saddle_by_id = {s.id: s for s in seg.saddles}
    pairing = _pairing(f, seg.maxima, seg.adjacency, saddle_by_id, rank)
    pers = {mid: p for mid, (p, _, _) in pairing.items()}
    for m in seg.maxima:
        m.pers = pers[m.id]
    return pers


def simplify(
    seg: Segmentation, theta: float, rank: np.ndarray | None = None
) -> Segmentation:
    """Cancel every maximum-saddle pair with persistence below theta.

    One Kruskal sweep: cancelling the least persistent pair leaves every
    other pair unchanged (elder rule), so the raw graph is paired once
    and all pairs below theta cancel together. A canceled maximum's
    region joins its partner across the pairing saddle; partners that
    are canceled themselves resolve through a union-find to the one
    surviving maximum of their tree. Each surviving region pair keeps
    the saddle of greatest (rank, saddle id). The global maximum is
    never canceled; persistence is recomputed on the simplified graph
    and set on copies of the surviving maxima, so `seg` is left as it
    was. Saddles are shared with `seg`; nothing here changes them.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0")
    f = seg.field
    if rank is None:
        rank = vertex_order(f)
    saddle_by_id = {s.id: s for s in seg.saddles}
    pairing = _pairing(f, seg.maxima, seg.adjacency, saddle_by_id, rank)
    canceled = {
        mid: partner
        for mid, (p, partner, _) in pairing.items()
        if partner != -1 and p < theta
    }

    # canceled (maximum, partner) pairs form a forest in which every
    # tree holds exactly one survivor
    parent = {m.id: m.id for m in seg.maxima}
    for mid, partner in canceled.items():
        parent[find_root(parent, mid)] = find_root(parent, partner)
    survivor = {
        find_root(parent, m.id): m.id for m in seg.maxima if m.id not in canceled
    }
    rep = {m.id: survivor[find_root(parent, m.id)] for m in seg.maxima}

    if canceled:
        lut = np.arange(f.num_voxels, dtype=seg.labels.dtype)
        lut[list(canceled)] = [rep[mid] for mid in canceled]
        labels = lut[seg.labels]
    else:
        labels = seg.labels.copy()  # no voxel-sized lookup table needed

    best: dict[tuple[int, int], tuple[int, int]] = {}
    for (la, lb), sid in seg.adjacency.items():
        a, b = rep[la], rep[lb]
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        cand = (int(rank[saddle_by_id[sid].vertex]), sid)
        if key not in best or cand > best[key]:
            best[key] = cand
    adjacency = {key: sid for key, (_, sid) in sorted(best.items())}

    out = Segmentation(
        field=f,
        labels=labels,
        maxima=sorted(
            (replace(m) for m in seg.maxima if m.id not in canceled),
            key=lambda m: m.id,
        ),
        saddles=sorted(
            (saddle_by_id[s] for s in adjacency.values()), key=lambda s: s.id
        ),
        adjacency=adjacency,
    )
    compute_persistence(f, out, rank)
    attach_manifolds(out)
    return out


def morse_step(f: ScalarField3D, theta: float) -> Segmentation:
    """One step's Morse pipeline: segmentation, saddles and simplification
    at threshold theta, sharing one voxel order.

    `simplify` pairs the raw graph itself and sets the persistence of
    the survivors, so the raw persistence is not computed separately.
    """
    rank = vertex_order(f)
    seg = compute_segmentation(f, rank)
    seg = compute_saddles(f, seg, rank)
    return simplify(seg, theta, rank)


def attach_manifolds(seg: Segmentation) -> None:
    """Store each maximum's descending-manifold voxel set on it.

    One stable argsort groups the voxels by label in id order; each
    maximum gets its slice.
    """
    order = np.argsort(seg.labels, kind="stable")
    sorted_labels = seg.labels[order]
    ids = np.array([m.id for m in seg.maxima], dtype=np.int64)
    lo = np.searchsorted(sorted_labels, ids, side="left")
    hi = np.searchsorted(sorted_labels, ids, side="right")
    for m, a, b in zip(seg.maxima, lo.tolist(), hi.tolist()):
        m.dscmfold = order[a:b]


def merge_tree_oracle(f: ScalarField3D) -> dict[int, float]:
    """Independent persistence oracle: superlevel-set sweep over voxels.

    Walks voxels in decreasing (value, id) order, unioning each new
    voxel with already-active 26-neighbors. When two components merge,
    the component with the lower best maximum is paired at the current
    voxel's value. Shares nothing with the segmentation pipeline.
    """
    nx, ny, nz = f.dims
    n = f.num_voxels
    vals = f.values
    order = np.lexsort((np.arange(n), vals))[::-1]  # decreasing

    parent = np.full(n, -1, dtype=np.int64)  # -1 = not yet active
    best_max = np.full(n, -1, dtype=np.int64)  # root -> maximum voxel id
    pers: dict[int, float] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    nxy = nx * ny
    for v in order:
        v = int(v)
        parent[v] = v
        best_max[v] = v
        ix = v % nx
        iy = (v // nx) % ny
        iz = v // nxy
        for dz, dy, dx in NEIGHBOR_OFFSETS:
            jx, jy, jz = ix + dx, iy + dy, iz + dz
            if jx < 0 or jy < 0 or jz < 0 or jx >= nx or jy >= ny or jz >= nz:
                continue
            u = jx + nx * (jy + ny * jz)
            if parent[u] < 0:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            bu, bv = int(best_max[ru]), int(best_max[rv])
            # lower maximum under (value, id) gets paired at f(v)
            if (vals[bu], bu) < (vals[bv], bv):
                loser, winner, lroot, wroot = bu, bv, ru, rv
            else:
                loser, winner, lroot, wroot = bv, bu, rv, ru
            if loser != v:
                # two components that predate v merge here: real pairing
                pers[loser] = float(vals[loser] - vals[v])
            parent[lroot] = wroot
            best_max[wroot] = winner
    # essential class: the surviving global maximum
    top = int(best_max[find(int(order[0]))])
    pers[top] = float(vals[top] - vals.min())
    return pers
