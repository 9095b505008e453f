"""Temporal arcs between consecutive extremum graphs and event detection.

Correspondence scores combine four normalized components: persistence
difference, function-value difference, Euclidean distance, and
neighborhood-contribution difference. Each maximum keeps its two
best-scoring targets; a statistical filter drops outliers; z-shaped
configurations (an arc whose source splits while its target merges) are
removed greedily by score.
"""

from __future__ import annotations

from collections import Counter
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


_ROWS = 256  # rows of g0 scored at a time


def compute_scores(
    g0: ExtremumGraph, g1: ExtremumGraph, w: ScoreWeights
) -> list[ScoreTuple]:
    """The two lowest-scoring targets in g1 of each maximum of g0 (one if
    g1 has a single maximum), sorted by (m0, m1).

    score = G*P + L1*J + L2*D + L3*N, added left to right. Each component
    is an absolute difference (D a distance, axes added in x, y, z order)
    over its peak across all pairs, or 0 if that peak is 0. Rounded `-`
    and `sqrt` are monotone, so the peaks come exactly from column extremes
    and the greatest squared distance; then `_ROWS` rows are scored at a time.
    Ties break by target id: `argmin` returns the first minimum.
    """
    n0, n1 = g0.n_max, g1.n_max
    if not n0 or not n1:
        raise ValueError("both maxima sets must be non-empty")
    cols = [(getattr(g0, c)[:n0], getattr(g1, c)[:n1]) for c in ("pers", "value", "eta")]
    weights = (w.G, w.L1, w.L2, w.L3)
    buf = np.empty((3, min(n0, _ROWS), n1))  # per block: scores, a component, scratch
    spans = [slice(lo, min(lo + _ROWS, n0)) for lo in range(0, n0, _ROWS)]
    blocks = [(r, buf[:, : r.stop - r.start]) for r in spans]

    def dist2(r: slice, out: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Squared distances of rows r to every target, into out."""
        np.square(np.subtract.outer(g0.coords[r, 0], g1.coords[:n1, 0], out=out), out=out)
        for k in (1, 2):
            out += np.square(np.subtract.outer(g0.coords[r, k], g1.coords[:n1, k], out=d), out=d)
        return out

    def absdiff(a: np.ndarray, b: np.ndarray, r: slice, out: np.ndarray) -> np.ndarray:
        return np.abs(np.subtract.outer(a[r], b, out=out), out=out)

    def scaled(comp: np.ndarray, k: int) -> np.ndarray:
        if peaks[k] > 0:  # otherwise every entry is already 0
            comp /= peaks[k]
        comp *= weights[k]
        return comp

    peaks = [max(a.max() - b.min(), b.max() - a.min()) for a, b in cols]
    peaks.insert(2, np.sqrt(max(dist2(r, comp, d).max() for r, (_, comp, d) in blocks)))
    ids0, ids1, found = g0.maxima, g1.maxima, []
    for r, (S, comp, d) in blocks:
        scaled(absdiff(*cols[0], r, S), 0)
        S += scaled(absdiff(*cols[1], r, comp), 1)
        S += scaled(np.sqrt(dist2(r, comp, d), out=comp), 2)
        S += scaled(absdiff(*cols[2], r, comp), 3)
        rows = np.arange(len(S))
        for _ in range(min(2, n1)):  # the best target, then the best once it is masked
            pick = S.argmin(axis=1)
            found.append((ids0[r], ids1[pick], S[rows, pick]))
            S[rows, pick] = np.inf
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
    out_deg = Counter(a.m0 for a in arcs)
    in_deg = Counter(a.m1 for a in arcs)

    def offends(a: ScoreTuple) -> bool:
        return out_deg[a.m0] >= 2 and in_deg[a.m1] >= 2

    kept = [True] * len(arcs)
    offenders = [i for i, a in enumerate(arcs) if offends(a)]
    for i in sorted(offenders, key=lambda i: (arcs[i].s, arcs[i].m0, arcs[i].m1), reverse=True):
        a = arcs[i]
        if offends(a):
            kept[i] = False
            out_deg[a.m0] -= 1
            in_deg[a.m1] -= 1
    return sorted(compress(arcs, kept))  # by (m0, m1), unique within a pair


def link_pair(
    g0: ExtremumGraph, g1: ExtremumGraph, w: ScoreWeights
) -> tuple[list[ScoreTuple], FilterMeta]:
    """Full correspondence computation for one consecutive pair."""
    if not g0.n_max or not g1.n_max:
        return [], FilterMeta(mu=0.0, sigma=0.0, tau=0.0)
    S, meta = filter_scores(compute_scores(g0, g1, w))
    return remove_z_configurations(S), meta
