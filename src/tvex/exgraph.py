"""Per-time-step extremum graph: simplified maxima, saddles, and arcs."""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .field import ScalarField3D
from . import morse


def make_node_id(t: int, local: int) -> int:
    """Global 64-bit node id from (time step, local index)."""
    return (t << 32) | local


def split_node_id(node_id):
    """(time step, local index) of a node id, or of an array of them."""
    return node_id >> 32, node_id & 0xFFFFFFFF


@dataclass
class ExtremumGraph:
    """Graph of maxima and 2-saddles at one time step, stored as columns.

    Row i of every column is the node with id make_node_id(t, i), so a
    node's row is its local id. Rows [0, n_max) are the maxima in voxel-id
    order, the rest are saddles. `coords` has shape (k, 3); `eta` is 0
    for saddles. `arcs` holds (maximum row, saddle row) pairs sorted
    ascending; every saddle mediates exactly one unordered maximum pair
    and therefore has two arcs.
    """

    t: int
    n_max: int
    vertex: np.ndarray
    value: np.ndarray
    pers: np.ndarray
    eta: np.ndarray
    coords: np.ndarray
    arcs: np.ndarray = dfield(default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    @property
    def ids(self) -> np.ndarray:
        return make_node_id(self.t, 0) + np.arange(len(self.value), dtype=np.int64)

    @property
    def maxima(self) -> np.ndarray:
        """Ids of the maxima, in row order."""
        return self.ids[: self.n_max]

    @property
    def saddles(self) -> np.ndarray:
        """Ids of the saddles, in row order."""
        return self.ids[self.n_max :]


def build_extremum_graph(f: ScalarField3D, theta: float) -> ExtremumGraph:
    """Run the full per-step pipeline and assemble the graph.

    Maxima take the first rows in voxel-id order, saddles follow in
    region-pair order. A saddle's persistence is the value its pair
    would cancel at; eta is the sum of |f(m) - f(s)| over the maximum's
    incident saddles, computed after saddle deduplication.
    """
    seg = morse.morse_step(f, theta)
    n_max = len(seg.maxima)
    vertex = np.concatenate([seg.maxima, seg.saddles])
    # value and pers take + 0.0, which turns -0.0 into 0.0 and keeps every
    # other value: JSON reads "-0" back as the integer 0, so a -0.0 would
    # not round-trip through tveg.json
    value = f.values[vertex] + 0.0
    sad_rows = np.arange(n_max, len(vertex), dtype=np.int64)

    sval = value[n_max:]
    sad_pers = np.minimum(value[seg.pairs[:, 0]] - sval, value[seg.pairs[:, 1]] - sval)
    pers = np.concatenate([seg.pers, sad_pers]) + 0.0

    arcs = np.concatenate(
        [np.column_stack([seg.pairs[:, k], sad_rows]) for k in (0, 1)]
    )
    arcs = arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))]
    # eta in sorted-arc order: each maximum's terms are added one at a
    # time in ascending saddle row order
    eta = np.zeros(len(vertex))
    np.add.at(eta, arcs[:, 0], np.abs(value[arcs[:, 0]] - value[arcs[:, 1]]))

    return ExtremumGraph(
        t=f.time_index,
        n_max=n_max,
        vertex=vertex,
        value=value,
        pers=pers,
        eta=eta,
        coords=f.world_coords_many(vertex).reshape(-1, 3),
        arcs=arcs,
    )

