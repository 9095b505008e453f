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
NEIGHBOR_OFFSETS = [(dz, dy, dx) for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
                    if (dz, dy, dx) != (0, 0, 0)]
# the 13 "positive" offsets; each undirected grid edge is visited once
HALF_OFFSETS = [o for o in NEIGHBOR_OFFSETS if o > (0, 0, 0)]
# (rank of every voxel, voxel of every rank), as `vertex_order` gives it
VoxelOrder = tuple[np.ndarray, np.ndarray]
# the signed words a packed key may take, by the value bits each holds
_WORDS = ((31, np.int32), (63, np.int64))


def _word(bits: int) -> type | None:
    """The narrowest word of `_WORDS` holding `bits` value bits; None: two rows."""
    return next((word for width, word in _WORDS if bits <= width), None)


@dataclass
class Segmentation:
    """Descending-manifold segmentation of one field, stored as columns.

    `maxima` holds the maxima's voxel ids in ascending order and `pers`
    their persistence (0 until `simplify` sets it); everything else
    refers to a maximum by its row there. labels[v] is the row of the
    maximum owning voxel v, in the dtype of the voxel ranks. Row i of
    `pairs` and `saddles` is one pair of adjacent regions: its (lo, hi)
    maximum rows, rows sorted ascending, and the voxel of the saddle
    mediating it. Saddles on one voxel tie in rank; their row breaks it.
    """

    field: ScalarField3D
    labels: np.ndarray
    maxima: np.ndarray = dfield(default_factory=lambda: np.empty(0, np.int64))
    pers: np.ndarray = dfield(default_factory=lambda: np.zeros(0))
    pairs: np.ndarray = dfield(default_factory=lambda: np.empty((0, 2), np.int64))
    saddles: np.ndarray = dfield(default_factory=lambda: np.empty(0, np.int64))


def vertex_order(f: ScalarField3D) -> VoxelOrder:
    """(rank of every voxel, voxel of every rank) under the (value, voxel
    id) total order.

    Ranks are unique integers in [0, n), int32 when n < 2**31; a higher
    rank means a greater voxel. This is the simulated-simplicity
    tie-break used everywhere. When every value is exactly a float32 (as
    in volumes read from `<f4` files), each voxel gets a 32-bit code, the
    float32 bit pattern mapped to a signed integer that orders the same
    way and is equal exactly when the values are, and one in-place sort
    of the int64 keys code << 32 | voxel id gives the voxel of every rank
    in the low 32 bits. Other values take a stable argsort. The voxel of
    each rank is the sort order: the ranks are scattered through it, and
    it is returned narrowed to their dtype.
    """
    n = f.num_voxels
    # voxel ids fit the low 32 bits of a key up to 2**31 voxels
    code = _float32_codes(f.values) if n <= 2**31 else None
    if code is None:
        # a stable sort keeps equal values in voxel-id order
        voxel = np.argsort(f.values, kind="stable")
    else:
        voxel = code
        voxel <<= 32
        voxel |= np.arange(n, dtype=np.int32)
        voxel.sort()
        voxel &= 0xFFFFFFFF
    dtype = np.int32 if n < 2**31 else np.int64
    rank = np.empty(n, dtype=dtype)
    rank[voxel] = np.arange(n, dtype=dtype)
    return rank, voxel.astype(dtype, copy=False)


def _float32_codes(values: np.ndarray) -> np.ndarray | None:
    """int64 codes in [-2**31, 2**31) that order like `values` and are
    equal exactly when the values are, or None when a value is not
    exactly a float32."""
    with np.errstate(over="ignore"):  # too large for float32: not exact
        single = values.astype(np.float32)
    if not np.array_equal(single, values):
        return None
    single += 0  # -0.0 becomes +0.0, its equal
    code = single.view(np.int32).astype(np.int64)
    del single
    # negative floats order backwards in their low 31 bits: flip them
    np.bitwise_xor(code, 0x7FFFFFFF, out=code, where=code < 0)
    return code


def _steepest_neighbor(f: ScalarField3D, order: VoxelOrder) -> np.ndarray:
    """next[v] = 26-neighbor of greatest rank if it beats v, else v.

    Ranks are unique, so the greatest rank in v's 3x3x3 box (clipped at
    the border) is v's own exactly when v is a maximum, and otherwise
    that of its steepest neighbor: next[v] is the voxel of that rank, as
    intp. The box maximum is separable, a width-3 running maximum per axis.
    """
    rank, voxel = order
    nx, ny, nz = f.dims
    box = rank.reshape(nz, ny, nx)
    for axis in range(3):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        src, box = box, box.copy()
        np.maximum(box[hi], src[lo], out=box[hi])
        np.maximum(box[lo], src[hi], out=box[lo])
    del src  # off the peak of the gather
    return voxel[box.ravel()].astype(np.intp, copy=False)


def _jump(ptr: np.ndarray) -> np.ndarray:
    """Follow pointers to their fixed points by pointer jumping; `ptr` is overwritten."""
    jumped = np.empty_like(ptr)
    while True:
        ptr.take(ptr, out=jumped, mode="clip")  # in range; "clip" writes `out` unbuffered
        if np.array_equal(jumped, ptr):
            return ptr
        ptr, jumped = jumped, ptr


def compute_segmentation(f: ScalarField3D, order: VoxelOrder) -> Segmentation:
    """Label every voxel with the row of the maximum its steepest-ascent
    path reaches; `order` is `vertex_order(f)`."""
    nxt = _steepest_neighbor(f, order)
    maxima = np.flatnonzero(nxt == np.arange(f.num_voxels))
    nxt = _jump(nxt)  # each voxel's maximum; the row table comes after, off the peak
    row = np.empty_like(order[0])  # set at the maxima only
    row[maxima] = np.arange(len(maxima), dtype=row.dtype)
    return Segmentation(field=f, labels=row[nxt], maxima=maxima, pers=np.zeros(len(maxima)))


def _pack(keys: np.ndarray, values: np.ndarray, bits: int, word: type | None) -> np.ndarray:
    """(key, value) pairs: keys << bits | values in `word`, shifted in place
    (`keys` is overwritten: pass a temporary), or, with no word (`_word`
    gave None), the two-row int64 array of keys over values."""
    if word is None:
        return np.stack((keys, values), dtype=np.int64)
    pairs = keys.astype(word, copy=False)
    pairs <<= bits
    pairs |= values  # cast to `word`, which holds them
    return pairs


def _unpack(pairs: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The keys and the values of `_pack`'s pairs."""
    return tuple(pairs) if pairs.ndim == 2 else (pairs >> bits, pairs & ((1 << bits) - 1))


def _sorted(pairs: np.ndarray) -> np.ndarray:
    """`_pack`'s pairs by key, then value; packed ones are sorted in place."""
    if pairs.ndim == 2:
        return pairs.take(np.lexsort(pairs[::-1]), axis=1)
    pairs.sort()
    return pairs


def _keep_last(pairs: np.ndarray, bits: int) -> np.ndarray:
    """Of `_pack`'s pairs, each distinct key with its greatest value, by key."""
    pairs = _sorted(pairs)
    key = pairs[0] if pairs.ndim == 2 else pairs >> bits
    last = np.empty(len(key), dtype=bool)
    last[-1:] = True
    np.not_equal(key[1:], key[:-1], out=last[:-1])
    return pairs.compress(last, axis=-1)


def _best_per_pair(keys: np.ndarray, values: np.ndarray, bits: int = 0,
                   word: type | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct key, ascending, and its greatest value (`_pack` overwrites `keys`)."""
    return _unpack(_keep_last(_pack(keys, values, bits, word), bits), bits)


def _pad(a: np.ndarray, fill: int) -> np.ndarray:
    """`a` (nz, ny, nx) framed by `fill` to (nz + 1, ny + 2, nx + 2), flat."""
    nz, ny, nx = a.shape
    out = np.full((nz + 1, ny + 2, nx + 2), fill, dtype=a.dtype)
    out[:nz, 1:-1, 1:-1] = a
    return out.ravel()


def compute_saddles(seg: Segmentation, order: VoxelOrder) -> Segmentation:
    """`seg` with its region pairs and their saddles filled in; `order`
    is `vertex_order(seg.field)`.

    For each unordered pair of adjacent labels the saddle is the
    crossing edge maximizing min(f(u), f(v)) under the total order; the
    saddle sits at the lower endpoint of that edge, one per pair. On the
    padded flat arrays each of the 13 half offsets is a constant shift;
    `inner` drops the edges into the padding. Each offset's crossing
    edges are reduced to the best rank per pair of maximum rows before
    the next offset. The key and rank widths are fixed once from k and
    n: each edge's pair key is packed above its rank (`_pack`) in the
    narrowest word that holds both (`_word`), and `_keep_last` reduces
    them, per offset and across the offsets. The labels are shared with `seg`.
    """
    nx, ny, nz = seg.field.dims
    rank, voxel = order
    k = len(seg.maxima)
    lp = _pad(seg.labels.reshape(nz, ny, nx), -1)
    rp = _pad(rank.reshape(nz, ny, nx), -1)
    inner = _pad(np.ones((nz, ny, nx), dtype=bool), False)
    # a pair's key lo * k + hi is below k * k, an edge rank below n
    rank_bits = (len(rank) - 1).bit_length()
    word = _word((k * k - 1).bit_length() + rank_bits)

    best = []
    for dz, dy, dx in HALF_OFFSETS:
        s = (dz * (ny + 2) + dy) * (nx + 2) + dx
        cross = lp[:-s] != lp[s:]
        cross &= inner[:-s]
        cross &= inner[s:]
        i = np.flatnonzero(cross)
        j = i + s
        la, lb = lp.take(i), lp.take(j)
        key = np.minimum(la, lb, dtype=word or np.int64)
        key *= k
        key += np.maximum(la, lb)
        edge = np.minimum(rp.take(i), rp.take(j))
        best.append(_keep_last(_pack(key, edge, rank_bits, word), rank_bits))
    best = np.concatenate(best, axis=-1)  # the per-offset arrays freed before the reduction
    keys, ranks = _unpack(_keep_last(best, rank_bits), rank_bits)
    # the saddle is the lower vertex of its edge: the voxel of that rank
    pairs = np.column_stack(np.divmod(keys.astype(np.int64, copy=False), k))
    return replace(seg, pairs=pairs, saddles=voxel.take(ranks).astype(np.int64, copy=False))


def find_root(parent: dict[int, int] | list[int], x: int) -> int:
    """Union-find root of x in a parent map, halving the path on the way.

    A root is its own parent; callers link roots by their own rule.
    """
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _spanning_forest(ends: np.ndarray, k: int) -> np.ndarray:
    """The edges of the maximum spanning forest of a graph on k vertices,
    by their positions, ascending; row p of `ends` is edge p's two
    vertices, and a higher position is a greater edge.

    Borůvka rounds: every component hooks onto the component across its
    greatest incident edge, which is in the forest. Positions are
    unique, so two components hook onto each other only across one
    edge; the lower of the two becomes the root, and pointer jumping
    resolves the hooks to the merged components' roots. A component is
    named by a vertex, and edges inside a component drop out after each
    round.
    """
    forest = np.zeros(len(ends), dtype=bool)
    live = np.arange(len(ends))  # positions of the edges between components
    ca, cb = ends[:, 0], ends[:, 1]  # their ends' components
    while len(live):
        # a live edge's index orders it as its position does
        best = np.full(k, -1)
        np.maximum.at(best, ca, np.arange(len(live)))
        np.maximum.at(best, cb, np.arange(len(live)))
        c = np.flatnonzero(best >= 0)
        e = best.take(c)
        forest[live.take(e)] = True
        x, y = ca.take(e), cb.take(e)
        across = np.where(x == c, y, x)
        hook = np.arange(k)
        hook[c] = across
        mutual = c.compress((hook.take(across) == c) & (c < across))
        hook[mutual] = mutual
        root = _jump(hook)
        ca, cb = root.take(ca), root.take(cb)
        between = ca != cb
        live, ca, cb = live.compress(between), ca.compress(between), cb.compress(between)
    return np.flatnonzero(forest)


def _pairing(seg: Segmentation, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge-order persistence pairing on the region-adjacency graph.

    Edges are processed in decreasing (saddle rank, row) order (Kruskal
    style); when two components merge, the component whose best maximum
    is lower gets paired: pers = f(m) - f(saddle). A component's root is
    its best maximum. Kruskal merges two components exactly at the edges
    of the maximum spanning forest under that order and skips every
    other edge, so only the forest's edges are visited.
    Returns (pers, partner, order): pers and partner per maximum row,
    partner being the row of the maximum across the pairing saddle, -1
    for the global maximum, whose persistence is f(max) - f(min); and
    the rows of `seg.pairs` in increasing (saddle rank, row) order, so
    that a row's position there orders the rows by (rank, row), by one
    sort of each saddle's rank packed above its row (`_pack`).
    """
    k, rows = len(seg.maxima), len(seg.saddles)
    row_bits = (rows - 1).bit_length()
    word = _word((len(rank) - 1).bit_length() + row_bits)
    order = _sorted(_pack(rank.take(seg.saddles), np.arange(rows), row_bits, word))
    order = _unpack(order, row_bits)[1].astype(np.intp, copy=False)
    ends = seg.pairs[order]
    forest = _spanning_forest(ends, k)[::-1]
    mrank = rank[seg.maxima].tolist()
    parent = list(range(k))
    partner = [-1] * k
    died = [-1] * k  # position in `order` of the saddle each row dies at
    for p, (a, b) in zip(forest.tolist(), ends[forest].tolist()):
        ra, rb = find_root(parent, a), find_root(parent, b)
        if mrank[ra] < mrank[rb]:
            loser, winner, side = ra, rb, b
        else:
            loser, winner, side = rb, ra, a
        partner[loser], died[loser] = side, p
        parent[loser] = winner

    # a maximum that never dies (died = -1) picks the appended global minimum
    vals = seg.field.values
    floor = np.append(vals[seg.saddles[order]], vals.min())[died]
    return vals[seg.maxima] - floor, np.array(partner, dtype=np.int64), order


def compute_persistence(seg: Segmentation, rank: np.ndarray) -> dict[int, float]:
    """Persistence of every maximum of `seg`, {voxel id: pers}; `rank` is
    the voxel rank of `vertex_order(seg.field)`.

    The globally greatest maximum gets the essential value
    f(global max) - f(global min).
    """
    pers = _pairing(seg, rank)[0]
    return dict(zip(seg.maxima.tolist(), pers.tolist()))


def simplify(seg: Segmentation, theta: float, rank: np.ndarray) -> Segmentation:
    """Cancel every maximum-saddle pair with persistence below theta.

    One Kruskal sweep: cancelling the least persistent pair leaves every
    other pair unchanged (elder rule), so the raw graph is paired once
    and all pairs below theta cancel together. A canceled maximum's
    region joins its partner across the pairing saddle. The canceled
    (maximum, partner) links form a forest whose trees each hold one
    survivor, so pointer jumping resolves partners that are canceled
    themselves to the one surviving maximum of their tree. Labels and
    pairs are relabeled through one table, the new row of every old
    row's survivor. Each surviving region pair keeps the saddle of
    greatest (rank, row), the last in the pairing order: `_keep_last` of
    the pair's (lo, hi) packed above that position (`_pack`) in the
    narrowest word (`_word`). The global maximum is never canceled. By
    the same elder rule a survivor keeps its raw persistence. `rank` is
    the voxel rank of `vertex_order(seg.field)`; `seg` is left as it was.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0")
    pers, partner, order = _pairing(seg, rank)
    canceled = (partner >= 0) & (pers < theta)
    survivor = _jump(np.where(canceled, partner, np.arange(len(seg.maxima))))
    kept = ~canceled
    new_row = (np.cumsum(kept) - 1)[survivor]
    k = int(np.count_nonzero(kept))  # the survivors

    # the ends of every region pair, by position in the pairing order
    a, b = new_row.take(seg.pairs.take(order, axis=0).T)
    live = np.flatnonzero(a != b)
    a, b = a.take(live), b.take(live)
    pos_bits = (len(order) - 1).bit_length()
    word = _word((k * k - 1).bit_length() + pos_bits)
    key = np.minimum(a, b, dtype=word or np.int64)
    key *= k
    key += np.maximum(a, b)
    key, last = _best_per_pair(key, live, pos_bits, word)

    return Segmentation(
        field=seg.field,
        labels=new_row.astype(seg.labels.dtype).take(seg.labels),
        maxima=seg.maxima.compress(kept),
        pers=pers.compress(kept),
        pairs=np.column_stack(np.divmod(key.astype(np.int64, copy=False), k)),
        saddles=seg.saddles.take(order.take(last)),
    )


def morse_step(f: ScalarField3D, theta: float) -> Segmentation:
    """One step's Morse pipeline: segmentation, saddles and simplification
    at threshold theta, sharing one voxel order.

    `simplify` pairs the raw graph itself and sets the persistence of
    the survivors, so the raw persistence is not computed separately.
    """
    order = vertex_order(f)
    seg = compute_saddles(compute_segmentation(f, order), order)
    rank, order = order[0], None  # free the sort order before simplify
    return simplify(seg, theta, rank)


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
