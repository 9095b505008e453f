"""Temporal and spatiotemporal queries over a computed Tveg."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exgraph import make_node_id, split_node_id
from .field import finite_number
from .temporal import EventSets, ScoreTuple, Tveg
from .tracks import Track


@dataclass
class Selection:
    """Subset of a Tveg: node ids, spatial arcs, and temporal arcs."""

    maxima: list[int]
    saddles: list[int]
    spatial_arcs: list[tuple[int, int]]
    temporal_arcs: list[ScoreTuple]


def tracks_longer_than(tracks: list[Track], k: int) -> list[Track]:
    """Tracks of length >= k, original order preserved."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [tr for tr in tracks if tr.length >= k]


def least_deviation(tracks: list[Track], tveg: Tveg, n: int) -> list[Track]:
    """The n tracks with smallest mean per-step spatial movement.

    A track's deviation is the mean distance between the coordinates of
    its consecutive nodes, in node order; a track of fewer than two nodes
    has deviation 0 and its nodes are not looked up. Ties break by the
    track's first node id (-1 for an empty track). Every node of a longer
    track must be a maximum of `tveg`: the first that is not, in track
    order, raises the ValueError of `Tveg.max_row`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    devs = _deviations(tracks, tveg)
    keys = [(dev, tr.nodes[0][1] if tr.nodes else -1) for dev, tr in zip(devs, tracks)]
    return [tracks[i] for i in sorted(range(len(tracks)), key=keys.__getitem__)[:n]]


def _deviations(tracks: list[Track], tveg: Tveg) -> list[float]:
    """Each track's mean step distance (0.0 under two nodes), in one
    column pass. The nodes of all longer tracks are looked up at once
    (`Tveg.maxima_rows`), and every step's distance is sqrt(d . d) of one
    stacked `matmul`, which reduces each row by the dot product
    `np.linalg.norm` takes: the bits of the per-track definition (`einsum`
    and `(d * d).sum(1)` differ). Each mean adds its track's steps with
    Python's `sum`, as that definition does, since `np.add.reduceat` adds
    pairwise and changes the bits past 8 steps."""
    nodes = [node for tr in tracks if len(tr.nodes) >= 2 for node in tr.nodes]
    if not nodes:
        return [0.0] * len(tracks)
    rows = tveg.maxima_rows(nodes)
    pts = np.concatenate([g.coords[: g.n_max] for g in tveg.graphs])[rows]
    d = pts[1:] - pts[:-1]  # also across track boundaries, never read
    steps = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])).ravel().tolist()
    devs, at = [], 0
    for tr in tracks:
        k = len(tr.nodes)
        if k < 2:
            devs.append(0.0)
            continue
        devs.append(sum(steps[at : at + k - 1]) / (k - 1))
        at += k
    return devs


def select_in_region(
    tveg: Tveg, box: tuple, window: tuple[int, int]
) -> Selection:
    """Maxima inside the closed box and time window, plus local context.

    Context: spatial arcs incident to a selected maximum (with their
    saddles) and temporal arcs with both endpoints selected.
    """
    t0, t1 = window
    if t0 > t1:
        raise ValueError("window start must be <= end")
    if not (isinstance(box, (list, tuple)) and len(box) == 2 and all(
            isinstance(c, (list, tuple)) and len(c) == 3
            and all(map(finite_number, c)) for c in box)):
        raise ValueError(f"'box' must be two corners of three numbers, got {box!r}")
    lo, hi = np.asarray(box[0], dtype=np.float64), np.asarray(box[1], dtype=np.float64)
    if any(a > b for a, b in zip(*box)):
        raise ValueError("box min must be <= max per axis")
    chosen: set[int] = set()
    spatial: list[tuple[int, int]] = []
    for g in tveg.graphs:
        if g.t < t0 or g.t > t1:
            continue
        pts = g.coords[: g.n_max]
        inside = np.all((pts >= lo) & (pts <= hi), axis=1)  # per maximum row
        chosen.update(g.maxima[inside].tolist())
        spatial.extend(map(tuple, (g.arcs[inside[g.arcs[:, 0]]] + make_node_id(g.t, 0)).tolist()))
    temporal = [a for a in tveg.all_arcs() if a.m0 in chosen and a.m1 in chosen]
    return Selection(
        maxima=sorted(chosen),
        saddles=sorted({s for _, s in spatial}),
        spatial_arcs=sorted(spatial),
        temporal_arcs=temporal,
    )


def events_in_window(tveg: Tveg, window: tuple[int, int]) -> EventSets:
    """Cumulative event records whose time lies in [t0, t1]."""
    t0, t1 = window
    if t0 > t1:
        raise ValueError("window start must be <= end")
    ev = tveg.events
    return EventSets(
        merges=[e for e in ev.merges if t0 <= e["time"] <= t1],
        splits=[e for e in ev.splits if t0 <= e["time"] <= t1],
        deletions=[e for e in ev.deletions if t0 <= e[1] <= t1],
        generations=[e for e in ev.generations if t0 <= e[1] <= t1],
    )


def track_neighborhood(
    tveg: Tveg, track: Track, hops: int
) -> dict[int, list[int]]:
    """Graph ball of radius `hops` around each track node in its G^t.

    Returns {t: sorted node ids}; layers alternate between maxima and
    saddles as the ball grows through extremum-graph arcs, one sweep
    over the step's arcs per hop, until `hops` sweeps or a sweep that
    adds no node (the ball is then the seeds' whole components, whatever
    `hops` is). A node id that is not in its step raises ValueError.
    """
    if hops < 0:
        raise ValueError("hops must be >= 0")
    seeds: dict[int, list[int]] = {}
    for t, node in track.nodes:
        seeds.setdefault(t, []).append(node)
    out: dict[int, list[int]] = {}
    for t in sorted(seeds):
        g = tveg.graph_at(t)
        rows = [row for node_t, row in map(split_node_id, seeds[t])
                if node_t == t and row < len(g.value)]
        if len(rows) < len(seeds[t]):
            raise ValueError(f"a seed is not a node of step {t}")
        ball = np.zeros(len(g.value), dtype=bool)
        ball[rows] = True
        m, s = g.arcs.T
        for _ in range(hops):
            # every arc with one end in the ball brings in its other end
            hit = ball[m] != ball[s]
            if not hit.any():
                break  # the fixpoint: no further hop adds a node
            ball[m[hit]] = True
            ball[s[hit]] = True
        out[t] = (np.flatnonzero(ball) + make_node_id(t, 0)).tolist()
    return out
