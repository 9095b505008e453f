"""Per-time-step extremum graph: simplified maxima, saddles, and arcs."""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .field import ScalarField3D
from . import morse


def make_node_id(t: int, local: int) -> int:
    """Global 64-bit node id from (time step, local index)."""
    return (t << 32) | local


def split_node_id(node_id: int) -> tuple[int, int]:
    return node_id >> 32, node_id & 0xFFFFFFFF


@dataclass
class ExtremumGraph:
    """Graph of maxima and 2-saddles at one time step.

    Arcs join one maximum and one saddle; every saddle mediates exactly
    one unordered maximum pair and therefore has two incident arcs.
    """

    t: int
    maxima: list[morse.CriticalPoint] = dfield(default_factory=list)
    saddles: list[morse.CriticalPoint] = dfield(default_factory=list)
    arcs: list[tuple[int, int]] = dfield(default_factory=list)
    segmentation: morse.Segmentation | None = None

    def __post_init__(self):
        self._by_id = {cp.id: cp for cp in self.maxima}
        self._by_id.update({cp.id: cp for cp in self.saddles})

    def node(self, node_id: int) -> morse.CriticalPoint:
        return self._by_id[node_id]

    def incident_saddles(self, max_id: int) -> list[int]:
        return sorted(s for m, s in self.arcs if m == max_id)

    def maxima_ids(self) -> list[int]:
        return [m.id for m in self.maxima]


def build_extremum_graph(
    f: ScalarField3D, theta: float, keep_segmentation: bool = True
) -> ExtremumGraph:
    """Run the full per-step pipeline and assemble the graph.

    Maxima get local indices in voxel-id order, saddles follow in
    adjacency-pair order; global ids encode (t, local index). eta is the
    sum of |f(m) - f(s)| over the maximum's incident saddles, computed
    after saddle deduplication.
    """
    seg = morse.morse_step(f, theta)

    t = f.time_index
    id_map: dict[int, int] = {}
    maxima = []
    for local, m in enumerate(sorted(seg.maxima, key=lambda m: m.id)):
        gid = make_node_id(t, local)
        id_map[m.id] = gid
        maxima.append(
            morse.CriticalPoint(
                id=gid,
                index=3,
                coords=m.coords,
                value=m.value,
                pers=m.pers,
                vertex=m.vertex,
                t=t,
                dscmfold=m.dscmfold,
            )
        )

    saddles = []
    arcs = []
    local = len(maxima)
    saddle_by_id = {s.id: s for s in seg.saddles}
    max_value = {m.id: m.value for m in seg.maxima}
    for (la, lb) in sorted(seg.adjacency):
        s = saddle_by_id[seg.adjacency[(la, lb)]]
        gid = make_node_id(t, local)
        local += 1
        # saddle persistence: the value the pair would cancel at
        spers = min(max_value[la] - s.value, max_value[lb] - s.value)
        saddles.append(
            morse.CriticalPoint(
                id=gid,
                index=2,
                coords=s.coords,
                value=s.value,
                pers=spers,
                vertex=s.vertex,
                t=t,
            )
        )
        arcs.append((id_map[la], gid))
        arcs.append((id_map[lb], gid))

    g = ExtremumGraph(
        t=t,
        maxima=maxima,
        saddles=saddles,
        arcs=sorted(arcs),
        segmentation=seg if keep_segmentation else None,
    )
    # eta in one pass over the sorted arcs: each maximum's terms are added
    # in the same (saddle id) order as neighborhood_contribution adds them
    eta = {m.id: 0.0 for m in g.maxima}
    for mid, sid in g.arcs:
        eta[mid] += abs(g.node(mid).value - g.node(sid).value)
    for m in g.maxima:
        m.eta = eta[m.id]
    return g


def neighborhood_contribution(g: ExtremumGraph, max_id: int) -> float:
    """eta(m): sum over incident saddles of |f(m) - f(s)|."""
    m = g.node(max_id)
    if m.index != 3:
        raise KeyError(f"{max_id} is not a maximum")
    return float(sum(abs(m.value - g.node(s).value) for _, s in _incident(g, max_id)))


def _incident(g: ExtremumGraph, max_id: int) -> list[tuple[int, int]]:
    arcs = [(m, s) for m, s in g.arcs if m == max_id]
    if not arcs and max_id not in {m.id for m in g.maxima}:
        raise KeyError(f"unknown maximum id {max_id}")
    return arcs
