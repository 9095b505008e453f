"""Per-voxel Morse passes as they were before the packed-key sorts, the
box maximum and the flat-edge saddles, and the persistence pairing as
it was before it visited only the spanning forest: the oracle
`tests/test_morse_oracle.py` compares `tvex.morse.vertex_order`,
`_keep_last`, `_best_per_pair`, `compute_segmentation`,
`compute_saddles` and `_pairing` with, bit for bit.

The voxel order is one stable argsort of the values; steepest ascent
runs one compare-and-keep pass per each of the 26 neighbor offsets over
a padded int64 rank array; saddles mask the strided 3-D views of each
of the 13 half offsets, key region pairs on voxel ids and reduce them
by an argsort and a maximum per run. The pairing is a Kruskal sweep
over every region pair with its own union-find. Only the offset lists
and the `Segmentation` columns come from `tvex.morse`.
"""

from __future__ import annotations

import numpy as np

from tvex.field import ScalarField3D
from tvex.morse import HALF_OFFSETS, NEIGHBOR_OFFSETS, Segmentation


def _empty_ids(*shape: int) -> np.ndarray:
    return np.empty(shape, dtype=np.int64)


def vertex_order(f: ScalarField3D) -> tuple[np.ndarray, np.ndarray]:
    """(rank of every voxel, voxel of every rank) under the (value, voxel
    id) total order; ranks are int32 when n < 2**31."""
    n = f.num_voxels
    # a stable sort keeps equal values in voxel-id order
    voxel = np.argsort(f.values, kind="stable")
    dtype = np.int32 if n < 2**31 else np.int64
    rank = np.empty(n, dtype=dtype)
    rank[voxel] = np.arange(n, dtype=dtype)
    return rank, voxel


def _steepest_neighbor(f: ScalarField3D, rank: np.ndarray) -> np.ndarray:
    """next[v] = 26-neighbor of greatest rank if it beats v, else v.

    Only the greatest neighbor rank and the index of the offset that
    reached it are kept per voxel; the neighbor ids are formed once.
    """
    nx, ny, nz = f.dims
    n = f.num_voxels
    padded = np.full((nz + 2, ny + 2, nx + 2), -1, dtype=np.int64)
    padded[1:-1, 1:-1, 1:-1] = rank.reshape(nz, ny, nx)

    best = np.full((nz, ny, nx), -1, dtype=np.int64)
    best_off = np.zeros((nz, ny, nx), dtype=np.int8)
    better = np.empty((nz, ny, nx), dtype=bool)
    for i, (dz, dy, dx) in enumerate(NEIGHBOR_OFFSETS):
        nb = padded[1 + dz : 1 + dz + nz, 1 + dy : 1 + dy + ny, 1 + dx : 1 + dx + nx]
        np.greater(nb, best, out=better)  # strict: the first winning offset stays
        np.copyto(best, nb, where=better)
        best_off[better] = i
    steps = np.array(
        [dx + nx * (dy + ny * dz) for dz, dy, dx in NEIGHBOR_OFFSETS], dtype=np.int64
    )
    own = np.arange(n, dtype=np.int64)
    return np.where(best.ravel() > rank, own + steps[best_off.ravel()], own)


def _jump(ptr: np.ndarray) -> np.ndarray:
    """Follow pointers to their fixed points by pointer jumping."""
    while True:
        jumped = ptr[ptr]
        if np.array_equal(jumped, ptr):
            return ptr
        ptr = jumped


def compute_segmentation(f: ScalarField3D) -> Segmentation:
    """Label every voxel with the maximum its steepest-ascent path reaches."""
    rank, _ = vertex_order(f)
    nxt = _steepest_neighbor(f, rank)
    maxima = np.flatnonzero(nxt == np.arange(f.num_voxels))
    return Segmentation(
        field=f, labels=_jump(nxt), maxima=maxima, pers=np.zeros(len(maxima))
    )


def _best_per_pair(keys: np.ndarray, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct region-pair keys, ascending, and the greatest edge
    rank of each."""
    order = np.argsort(keys)
    keys, ranks = keys[order], ranks[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return keys[starts], np.maximum.reduceat(ranks, starts)


def compute_saddles(f: ScalarField3D, seg: Segmentation) -> Segmentation:
    """Fill in the region pairs and their saddles.

    For each unordered pair of adjacent labels the saddle is the
    crossing edge maximizing min(f(u), f(v)) under the total order; the
    saddle sits at the lower endpoint of that edge. Each offset's
    crossing edges are reduced to the best rank per pair before the
    next offset.
    """
    nx, ny, nz = f.dims
    n = f.num_voxels
    rank = vertex_order(f)[0].astype(np.int64)
    r3 = rank.reshape(nz, ny, nx)
    l3 = seg.labels.reshape(nz, ny, nx)

    keys, ranks = [_empty_ids(0)], [_empty_ids(0)]
    for dz, dy, dx in HALF_OFFSETS:
        a = (slice(0, nz - dz), slice(max(0, -dy), ny - max(0, dy)),
             slice(max(0, -dx), nx - max(0, dx)))
        b = (slice(dz, nz), slice(max(0, dy), ny + min(0, dy)),
             slice(max(0, dx), nx + min(0, dx)))
        cross = l3[a] != l3[b]
        if not np.any(cross):
            continue
        la, lb = l3[a][cross], l3[b][cross]
        key = np.minimum(la, lb).astype(np.int64) * n + np.maximum(la, lb)
        best = _best_per_pair(key, np.minimum(r3[a][cross], r3[b][cross]))
        keys.append(best[0])
        ranks.append(best[1])

    keys, ranks = _best_per_pair(np.concatenate(keys), np.concatenate(ranks))
    # the saddle is the lower vertex of its edge: the voxel of that rank
    voxel = np.empty(n, dtype=np.int64)
    voxel[rank] = np.arange(n)
    seg.pairs = np.column_stack([keys // n, keys % n])
    seg.saddles = voxel[ranks]
    return seg


def pairing(seg: Segmentation, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pers, partner) per maximum row of a segmentation whose pairs
    name maxima by row: a Kruskal sweep over every region pair in
    decreasing (saddle rank, row) order. When two components merge, the
    one whose best maximum is lower is paired across the saddle; the
    global maximum has partner -1 and persistence f(max) - f(min)."""
    k = len(seg.maxima)
    order = np.argsort(rank[seg.saddles], kind="stable")[::-1]
    mrank = rank[seg.maxima].tolist()
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    partner = [-1] * k
    died = [-1] * k  # position in `order` of the saddle each row dies at
    for i, (a, b) in enumerate(seg.pairs[order].tolist()):
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if mrank[ra] < mrank[rb]:
            loser, winner, side = ra, rb, b
        else:
            loser, winner, side = rb, ra, a
        partner[loser], died[loser] = side, i
        parent[loser] = winner

    # a maximum that never dies (died = -1) picks the appended global minimum
    vals = seg.field.values
    floor = np.append(vals[seg.saddles[order]], vals.min())[died]
    return vals[seg.maxima] - floor, np.array(partner, dtype=np.int64)
