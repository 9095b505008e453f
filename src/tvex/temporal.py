"""Temporal arcs between consecutive extremum graphs and event detection.

Correspondence scores combine four normalized components: persistence
difference, function-value difference, Euclidean distance, and
neighborhood-contribution difference. Each maximum keeps its two
best-scoring targets; a statistical filter drops outliers; z-shaped
configurations (an arc whose source splits while its target merges) are
removed greedily by score.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field as dfield
from itertools import accumulate, chain, compress
from typing import NamedTuple

import numpy as np

from .exgraph import ExtremumGraph, make_node_id, split_node_id
from .field import check_step_times


@dataclass(frozen=True)
class ScoreWeights:
    """Weights of the four score components; must sum to 1."""

    G: float = 0.25  # persistence
    L1: float = 0.25  # function value
    L2: float = 0.25  # distance
    L3: float = 0.25  # neighborhood

    def __post_init__(self):
        w = (self.G, self.L1, self.L2, self.L3)
        if not all(x >= 0 for x in w):  # NaN is not >= 0
            raise ValueError(f"weights must be numbers >= 0, got {w}")
        if abs(sum(w) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(w)!r}")


class ScoreTuple(NamedTuple):
    """Candidate correspondence (m0 at t) -> (m1 at t+1) with score s."""

    m0: int
    m1: int
    s: float


@dataclass
class EventSets:
    """Topological events; merge/split records carry their participants."""

    merges: list[dict] = dfield(default_factory=list)
    splits: list[dict] = dfield(default_factory=list)
    deletions: list[tuple[int, int]] = dfield(default_factory=list)
    generations: list[tuple[int, int]] = dfield(default_factory=list)


@dataclass
class FilterMeta:
    mu: float
    sigma: float
    tau: float


@dataclass
class Tveg:
    """All per-step graphs plus the temporal arcs between them: `links[i]`
    is the (arcs, filter statistics) that `link_pair` gives for
    `graphs[i]` and `graphs[i + 1]`. The events are derived from all the
    arcs in one `detect_events` call, each at its node's step. Step times
    lie in [-2**31, 2**31), so that every node id fits int64."""

    graphs: list[ExtremumGraph]
    links: list[tuple[list[ScoreTuple], FilterMeta]]
    weights: ScoreWeights
    theta: float = 0.0
    events: EventSets = dfield(init=False)

    def __post_init__(self):
        if any(b.t != a.t + 1 for a, b in zip(self.graphs, self.graphs[1:])):
            raise ValueError("graphs must be contiguous in t")
        if self.graphs:
            check_step_times(self.graphs[0].t, self.graphs[-1].t)
        if len(self.links) != max(len(self.graphs) - 1, 0):
            raise ValueError("a Tveg needs one link per consecutive pair of graphs")
        # each step's maxima ids as a range (rows [0, n_max)): cheaper than g.maxima.tolist()
        ids = [range(make_node_id(g.t, 0), make_node_id(g.t, g.n_max)) for g in self.graphs]
        self.events = detect_events(self.all_arcs(), chain(*ids[:-1]), chain(*ids[1:]))

    def all_arcs(self) -> list[ScoreTuple]:
        return list(chain.from_iterable(arcs for arcs, _ in self.links))

    def graph_at(self, t: int) -> ExtremumGraph:
        """The graph of step t; graphs are contiguous in t."""
        i = t - self.graphs[0].t if self.graphs else -1
        if not 0 <= i < len(self.graphs):
            raise ValueError(f"no graph at time {t}")
        return self.graphs[i]

    def max_row(self, t: int, node_id: int) -> tuple[ExtremumGraph, int]:
        """The graph of step t and the row of its maximum `node_id`."""
        g = self.graph_at(t)
        node_t, row = split_node_id(node_id)
        if node_t != t or row >= g.n_max:
            raise ValueError(f"no maximum {node_id} at time {t}")
        return g, row

    def maxima_rows(self, nodes: Sequence[tuple[int, int]]) -> np.ndarray:
        """Each (t, id) node's row among all maxima (every step's in turn, in
        row order), in one column pass. The first node, in order, that is not
        a maximum raises the ValueError of `max_row`."""
        n = [g.n_max for g in self.graphs]
        n_max = np.array([0, *n, 0])  # with a step of none at each end, for clipped lookups
        first = np.array([0, *accumulate(n, initial=0)])  # each step's first row
        t0 = self.graphs[0].t - 1 if self.graphs else 0  # the added step before the first
        try:
            flat = np.fromiter(chain.from_iterable(nodes), np.int64, 2 * len(nodes))
        except OverflowError:  # beyond int64, where no node id of a graph lies
            for node in nodes:
                self.max_row(*node)  # raises for the first bad node
            raise
        t, node = flat[0::2], flat[1::2]
        i = t - t0
        node_t, row = split_node_id(node)
        ok = (node_t == t) & (row < n_max.take(i, mode="clip"))
        if not ok.all():
            self.max_row(*nodes[int(np.argmin(ok))])  # raises for the first bad node
        return first[i] + row


_ENTRIES = 2**15  # score entries per block, so that a block's three buffers stay in cache
_PRUNE_MIN = 1024  # targets from which the distance prune is tried
_PRUNE_ROWS = 16  # rows per block of the prune, in Z-order
_SEEDS = 16  # targets next to a row in Z-order whose scores bound its second best
_DENSE_SHARE = 0.5  # mean share of targets in a block's reach from which all are scored
# each 10-bit integer with bit k moved to bit 3k: one axis of a Z-order key
_SPREAD = sum(((np.arange(1024) >> k) & 1) << 3 * k for k in range(10))


def _scaled(comp: np.ndarray, peak, weight: float) -> np.ndarray:
    """comp / peak * weight in place; a peak of 0 leaves comp (then all 0)
    undivided."""
    if peak > 0:
        comp /= peak
    comp *= weight
    return comp


def _dist2(a: np.ndarray, b: np.ndarray, out: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Squared distances between the points of attribute rows a and b
    (which broadcast), axes added in x, y, z order, into out; d is scratch."""
    np.square(np.subtract(a[2], b[2], out=out), out=out)
    for k in (3, 4):
        out += np.square(np.subtract(a[k], b[k], out=d), out=d)
    return out


def _score(a, b, peaks, w: ScoreWeights, out: np.ndarray) -> np.ndarray:
    """G*P + L1*J + L2*D + L3*N, added left to right, of attribute rows a
    against b (which broadcast), into out[0]; out[1] and out[2] are scratch."""
    S, comp, d = out
    _dist2(a, b, comp, d)
    _scaled(np.abs(np.subtract(a[0], b[0], out=S), out=S), peaks[0], w.G)
    S += _scaled(np.abs(np.subtract(a[1], b[1], out=d), out=d), peaks[1], w.L1)
    S += _scaled(np.sqrt(comp, out=comp), peaks[2], w.L2)
    S += _scaled(np.abs(np.subtract(a[5], b[5], out=comp), out=comp), peaks[3], w.L3)
    return S


def _attributes(g: ExtremumGraph) -> np.ndarray:
    """Rows pers, value, x, y, z and eta of the maxima of g."""
    n = g.n_max
    out = np.empty((6, n))
    out[0], out[1], out[5] = g.pers[:n], g.value[:n], g.eta[:n]
    out[2:5] = g.coords[:n].T
    return out


def _zorder(X: np.ndarray, lo: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Z-order keys of the points of attribute rows X over 1024 cells per
    axis of the box lo + [0, ext] (points outside it clipped onto it)."""
    q = np.divide(X[2:5] - lo[:, None], ext[:, None], out=np.zeros((3, X.shape[1])),
                  where=ext[:, None] > 0)
    q = np.clip(q * 1024, 0, 1023).astype(np.int64)
    return _SPREAD[q[0]] | _SPREAD[q[1]] << 1 | _SPREAD[q[2]] << 2


def _peak_dist2(A, B, lo, hi, rows: int, buffers) -> float:
    """The greatest squared distance between a point of A and one of B.

    Rounded subtraction, squaring and addition are monotone, so a row's
    squared distances are at most its bound from B's bounding box [lo, hi]:
    on each axis the larger |a - lo| or |a - hi|, squared, added in x, y, z
    order. The row of the greatest bound is scanned in full; its greatest
    squared distance is a real pair's, so only rows whose bound reaches it
    can hold a greater one, and only those are scanned, `rows` at a time."""
    far = np.maximum(np.abs(A[2:5] - lo[:, None]), np.abs(A[2:5] - hi[:, None]))
    far *= far
    bound = far[0] + far[1]
    bound += far[2]
    top = int(bound.argmax())
    _, d2, d = buffers(1, B.shape[1])
    peak = _dist2(A[:, top:top + 1, None], B[:, None], d2, d).max()
    scan = np.flatnonzero(bound >= peak)
    for i in range(0, len(scan), rows):
        r = scan[i:i + rows]
        _, d2, d = buffers(len(r), B.shape[1])
        peak = max(peak, _dist2(A[:, r, None], B[:, None], d2, d).max())
    return peak


def _pruned_blocks(A, B, lo, hi, peaks, w: ScoreWeights, rows: int, buffers):
    """Blocks of `_PRUNE_ROWS` rows in Z-order, each with the targets that
    can be among the two best of one of its rows, in id order; or None
    when those are more than `_DENSE_SHARE` of all targets on average.
    [lo, hi] is the bounding box of the targets' points.

    Every score term is >= 0 and rounded addition is monotone, so a pair's
    score is at least its D term. A row's second-best score is at most the
    second best of its scores against `_SEEDS` targets next to it in
    Z-order, and a block's bound is the greatest of its rows'. The gap
    between a target and a block's bounding box on each axis, squared and
    added in x, y, z order, is at most the squared distance of the target
    to each row of the block, so its D term, computed with the same
    rounded ops, is at most each pair's. If that exceeds the block's bound,
    the target scores strictly above the second best of every row of the
    block, so it is among the best two of none, ties by target id
    included. The gaps of `rows` blocks are taken at once, in `buffers`."""
    n0, n1 = A.shape[1], B.shape[1]
    ext = hi - lo
    key0, key1 = _zorder(A, lo, ext), _zorder(B, lo, ext)
    order0, order1 = np.argsort(key0, kind="stable"), np.argsort(key1, kind="stable")
    # each row's seeds: the targets around its place in the targets' Z-order
    k = min(_SEEDS, n1)
    first = np.clip(np.searchsorted(key1[order1], key0) - k // 2, 0, n1 - k)
    seeds = order1[first[:, None] + np.arange(k)]
    scores = _score(A[:, :, None], B[:, seeds], peaks, w, np.empty((3, n0, k)))
    starts = np.arange(0, n0, _PRUNE_ROWS)
    bound = np.maximum.reduceat(np.partition(scores, 1, axis=1)[order0, 1], starts)
    a = A[2:5, order0]
    alo, ahi = np.minimum.reduceat(a, starts, axis=1), np.maximum.reduceat(a, starts, axis=1)
    near = np.empty((len(starts), n1), bool)
    for i in range(0, len(starts), rows):
        s = slice(i, i + rows)
        lb, gap, d = buffers(len(near[s]), n1)
        lb.fill(0.0)  # 0 + x is x: the gaps squared are added in x, y, z order
        for k in range(3):
            np.subtract(B[2 + k], ahi[k, s, None], out=gap)
            np.maximum(gap, np.subtract(alo[k, s, None], B[2 + k], out=d), out=gap)
            lb += np.square(np.maximum(gap, 0.0, out=gap), out=gap)
        np.less_equal(_scaled(np.sqrt(lb, out=lb), peaks[2], w.L2), bound[s, None], out=near[s])
    if np.count_nonzero(near) > _DENSE_SHARE * near.size:
        return None
    return ((order0[i:i + _PRUNE_ROWS], np.flatnonzero(row)) for i, row in zip(starts, near))


def compute_scores(
    g0: ExtremumGraph, g1: ExtremumGraph, w: ScoreWeights
) -> list[ScoreTuple]:
    """The two lowest-scoring targets in g1 of each maximum of g0 (one if
    g1 has a single maximum), sorted by (m0, m1).

    score = G*P + L1*J + L2*D + L3*N, added left to right. Each component
    is an absolute difference (D a distance, axes added in x, y, z order)
    over its peak across all pairs, or 0 if that peak is 0. Rounded `-`
    and `sqrt` are monotone, so the P, J and N peaks come exactly from
    column extremes, and the D peak from the squared distances of the few
    rows that `_peak_dist2` bounds. Rows are then scored in blocks, each
    score element by element with the same rounded ops, so no block
    changes a bit. A block is `_ENTRIES // |g1|` rows in id order against
    every target (its three buffers of `_ENTRIES` float64 stay in cache);
    or, from `_PRUNE_MIN` targets on, one of `_pruned_blocks`: rows in
    Z-order against only the targets that can be among their best two,
    unless those are more than `_DENSE_SHARE` of the targets on average,
    with buffers sized once for the largest of them. Candidates are in id
    order, so ties break by target id: `argmin` returns the first minimum.
    A squared distance that overflows float64 raises ValueError.
    """
    n0, n1 = g0.n_max, g1.n_max
    if not n0 or not n1:
        raise ValueError("both maxima sets must be non-empty")
    A, B = _attributes(g0), _attributes(g1)
    lo, hi = B.min(axis=1), B.max(axis=1)
    peaks = np.maximum(A.max(axis=1) - lo, hi - A.min(axis=1))[[0, 1, 2, 5]]
    rows = max(1, _ENTRIES // n1)
    buf = np.empty(3 * min(n0, rows) * n1)  # for the largest block in id order

    def buffers(nr: int, nc: int) -> np.ndarray:
        """Three (nr, nc) arrays: the scores, a component and scratch."""
        return buf[: 3 * nr * nc].reshape(3, nr, nc)

    peaks[2] = _peak_dist2(A, B, lo[2:5], hi[2:5], rows, buffers)
    if not np.isfinite(peaks[2]):
        raise ValueError("squared distances between maxima overflow float64")
    peaks[2] = np.sqrt(peaks[2])
    blocks = None
    if n1 >= max(_PRUNE_MIN, 2) and peaks[2] > 0 and w.L2 > 0:
        blocks = _pruned_blocks(A, B, lo[2:5], hi[2:5], peaks, w, rows, buffers)
    if blocks is None:
        blocks = ((slice(i, i + rows), slice(None)) for i in range(0, n0, rows))
    else:  # one buffer for the largest pruned block
        blocks = list(blocks)
        buf = np.empty(3 * max(len(r) * len(c) for r, c in blocks))
    ids0, ids1, found = g0.maxima, g1.maxima, []
    for r, c in blocks:
        a, b = A[:, r, None], B[:, None, c]
        S = _score(a, b, peaks, w, buffers(a.shape[1], b.shape[2]))
        at = np.arange(len(S))
        for _ in range(min(2, S.shape[1])):  # the best target, then the best once it is masked
            pick = S.argmin(axis=1)
            found.append((ids0[r], ids1[c][pick], S[at, pick]))
            S[at, pick] = np.inf
    m0, m1, s = map(np.concatenate, zip(*found))
    order = np.lexsort((m1, m0))
    return list(map(ScoreTuple, m0[order].tolist(), m1[order].tolist(), s[order].tolist()))


def filter_scores(S: list[ScoreTuple]) -> tuple[list[ScoreTuple], FilterMeta]:
    """Drop tuples with score >= mu + sigma (population std).

    If sigma == 0 every score ties and nothing is an outlier; the set is
    returned unchanged.
    """
    if not S:
        return [], FilterMeta(mu=0.0, sigma=0.0, tau=0.0)
    ys = np.array([a.s for a in S])
    mu = float(ys.mean())
    # all-equal scores must yield exactly zero spread; the mean can pick
    # up rounding noise that would otherwise leak into sigma
    sigma = 0.0 if ys.min() == ys.max() else float(ys.std())
    tau = mu + sigma
    meta = FilterMeta(mu=mu, sigma=sigma, tau=tau)
    if sigma == 0.0:
        return list(S), meta
    return [a for a in S if a.s < tau], meta


def detect_events(
    arcs: Iterable[ScoreTuple], sources: Iterable[int], targets: Iterable[int]
) -> EventSets:
    """Classify events from arc degrees, in one pass over arcs of any
    consecutive steps. Each event is recorded at its node's step, id >> 32.

    merge: target with in-degree > 1; split: source with out-degree > 1;
    deletion: maximum of `sources` with out-degree 0;
    generation: maximum of `targets` with in-degree 0.
    Every kind comes in node id order, participants in id order too.
    """
    out_deg: dict[int, list[int]] = {}
    in_deg: dict[int, list[int]] = {}
    for a in arcs:
        out_deg.setdefault(a.m0, []).append(a.m1)
        in_deg.setdefault(a.m1, []).append(a.m0)

    def branching(deg: dict[int, list[int]]) -> list[dict]:
        return [{"node": n, "time": n >> 32, "participants": sorted(ends)}
                for n, ends in sorted(deg.items()) if len(ends) > 1]

    return EventSets(
        merges=branching(in_deg),
        splits=branching(out_deg),
        deletions=[(m, m >> 32) for m in sorted(sources) if m not in out_deg],
        generations=[(m, m >> 32) for m in sorted(targets) if m not in in_deg],
    )


def remove_z_configurations(arcs: list[ScoreTuple]) -> list[ScoreTuple]:
    """Greedily delete arcs that sit in a split and a merge at once.

    Repeat until fixpoint: among arcs whose source has out-degree >= 2
    and whose target has in-degree >= 2, remove the one with the
    greatest score (ties: greater source id, then greater target id).

    Removing an arc only lowers degrees, so an arc that stops offending
    never offends again and no arc starts to: visiting the initial
    offenders once, by descending (score, source id, target id), and
    removing those that still offend removes the same arcs in the same
    order as rescanning after every removal.
    """
    if not arcs:
        return []
    m0, m1, s = map(np.array, zip(*arcs))
    _, src, out_deg = np.unique(m0, return_inverse=True, return_counts=True)
    _, dst, in_deg = np.unique(m1, return_inverse=True, return_counts=True)
    offenders = np.flatnonzero((out_deg[src] >= 2) & (in_deg[dst] >= 2))
    order = offenders[np.lexsort((m1[offenders], m0[offenders], s[offenders]))[::-1]]
    src, dst, out_deg, in_deg = src.tolist(), dst.tolist(), out_deg.tolist(), in_deg.tolist()
    kept = [True] * len(arcs)
    for i in order.tolist():
        if out_deg[src[i]] >= 2 and in_deg[dst[i]] >= 2:
            kept[i] = False
            out_deg[src[i]] -= 1
            in_deg[dst[i]] -= 1
    return sorted(compress(arcs, kept))  # by (m0, m1), unique within a pair


def link_pair(
    g0: ExtremumGraph, g1: ExtremumGraph, w: ScoreWeights
) -> tuple[list[ScoreTuple], FilterMeta]:
    """Full correspondence computation for one consecutive pair; a pair
    with no maxima on a side has no arcs and the empty filter statistics."""
    S, meta = filter_scores(compute_scores(g0, g1, w) if g0.n_max and g1.n_max else [])
    return remove_z_configurations(S), meta
