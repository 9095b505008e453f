"""Reference overlap refinement, one region array per maximum.

This is the straightforward implementation `tvex.tracks.refine_by_overlap`
must match exactly: each maximum's descending manifold is split out of
the step's labels, clipped by the superlevel set, and every arc's
overlap is one `np.intersect1d` of its two clipped regions.
"""

from __future__ import annotations

import numpy as np

from tvex.field import FieldSeries
from tvex.morse import Segmentation, morse_step
from tvex.temporal import ScoreTuple, Tveg
from tvex.tracks import Track

import tracks_oracle

from conftest import voxel_ids


def descending_manifolds(seg: Segmentation) -> list[np.ndarray]:
    """Each maximum's voxel ids, ascending, in the order of `seg.maxima`."""
    order = np.argsort(seg.labels, kind="stable")
    return np.split(order, np.searchsorted(seg.labels[order], seg.maxima[1:]))


def refine_by_overlap(
    tveg: Tveg, series: FieldSeries, isovalue: float, min_len: int = 10
) -> list[Track]:
    kept: list[ScoreTuple] = []
    prev: dict[int, np.ndarray] = {}
    arcs_into = {g1.t: arcs for g1, (arcs, _) in zip(tveg.graphs[1:], tveg.links)}
    for g in tveg.graphs:
        f = series.at(g.t)
        seg = voxel_ids(morse_step(f, tveg.theta))  # labels as voxel ids
        maxima = g.vertex[: g.n_max]
        if not (np.array_equal(seg.maxima, maxima)
                and np.array_equal(f.values[maxima], g.value[: g.n_max])):
            raise ValueError(f"step {g.t}: the series does not give the graph's "
                             f"maxima at theta {tveg.theta:.6g}")
        mask = f.values >= isovalue
        cur = {
            mid: region[mask[region]]
            for mid, region in zip(g.maxima.tolist(), descending_manifolds(seg))
        }
        by_src: dict[int, list[ScoreTuple]] = {}
        for a in arcs_into.get(g.t, []):
            by_src.setdefault(a.m0, []).append(a)
        for src in sorted(by_src):
            cands = by_src[src]
            overlaps = [int(np.intersect1d(prev[a.m0], cur[a.m1]).size) for a in cands]
            if len(cands) == 2:
                best = min(
                    range(2), key=lambda i: (-overlaps[i], cands[i].s, cands[i].m1)
                )
                cands, overlaps = [cands[best]], [overlaps[best]]
            for a, ov in zip(cands, overlaps):
                if ov > 0:
                    kept.append(a)
        prev = cur
    return [tr for tr in tracks_oracle.simple_paths(kept) if tracks_oracle.length(tr) >= min_len]
