"""Reference VTK track writer, one point and one line at a time.

This is the straightforward writer `tvex.io.export_tracks_geometry` must
match byte for byte: event codes from overwrite loops run in reverse,
each point added to four parallel lists (position, time index, track
id, event code), and one `write` per point, line and scalar.
"""

from __future__ import annotations

import numpy as np

from tvex.exgraph import split_node_id
from tvex.temporal import Tveg
from tvex.tracks import Track


def _event_codes(tveg: Tveg) -> dict[tuple[int, int], int]:
    """Per-(t, node) event code: 1 merge, 2 split, 3 deletion, 4 generation.

    First match in that order wins when a node participates in several.
    """
    codes: dict[tuple[int, int], int] = {}
    for n, t in reversed(tveg.events.generations):
        codes[(t, n)] = 4
    for n, t in reversed(tveg.events.deletions):
        codes[(t, n)] = 3
    for e in reversed(tveg.events.splits):
        codes[(e["time"], e["node"])] = 2
    for e in reversed(tveg.events.merges):
        codes[(e["time"], e["node"])] = 1
    return codes


def export_tracks_geometry(
    tracks: list[Track],
    tveg: Tveg,
    path: str,
    z_scale: float = 0.1,
    slab_height: float | None = None,
    include_spatial: bool = False,
) -> None:
    """Legacy ASCII polydata export of tracks stacked along z.

    Point z' = z * z_scale + t * slab_height; slab_height defaults to
    the scaled z-extent of the node coordinates so consecutive steps do
    not overlap. Point scalars: time index, track id, event code. With
    `include_spatial`, each track maximum also gets a line to each of
    its saddles.
    """
    if slab_height is None:
        slab_height = _default_slab_height(tveg, z_scale)
    codes = _event_codes(tveg)

    points: list[tuple[float, float, float]] = []
    ptime: list[int] = []
    ptrack: list[int] = []
    pevent: list[int] = []
    lines: list[tuple[int, int]] = []
    # per step: node coordinates, and the saddle rows of maximum row r
    # at saddles[first[r]:first[r + 1]] (arcs are sorted by maximum)
    steps: dict[int, tuple[list, list[int], list[int]]] = {}

    for track_id, tr in enumerate(tracks):
        index: dict[int, int] = {}  # node id -> its point
        for t, mid in tr.nodes:
            g, row = tveg.max_row(t, mid)
            if t not in steps:
                first = np.searchsorted(g.arcs[:, 0], np.arange(g.n_max + 1))
                steps[t] = (g.coords.tolist(), first.tolist(), g.arcs[:, 1].tolist())
            x, y, z = steps[t][0][row]
            index[mid] = len(points)
            points.append((x, y, z * z_scale + t * slab_height))
            ptime.append(t)
            ptrack.append(track_id)
            pevent.append(codes.get((t, mid), 0))
        lines.extend((index[a], index[b]) for a, b in tr.arcs)
        if include_spatial:
            for t, mid in tr.nodes:
                coords, first, saddles = steps[t]
                row = split_node_id(mid)[1]
                for s in saddles[first[row] : first[row + 1]]:
                    x, y, z = coords[s]
                    lines.append((index[mid], len(points)))
                    points.append((x, y, z * z_scale + t * slab_height))
                    ptime.append(t)
                    ptrack.append(track_id)
                    pevent.append(0)

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("tvex tracks\n")
        fh.write("ASCII\n")
        fh.write("DATASET POLYDATA\n")
        fh.write(f"POINTS {len(points)} float\n")
        for x, y, z in points:
            fh.write(f"{x:.9g} {y:.9g} {z:.9g}\n")
        fh.write(f"LINES {len(lines)} {3 * len(lines)}\n")
        for a, b in lines:
            fh.write(f"2 {a} {b}\n")
        fh.write(f"POINT_DATA {len(points)}\n")
        for name, data in (
            ("time_index", ptime),
            ("track_id", ptrack),
            ("event_code", pevent),
        ):
            fh.write(f"SCALARS {name} int 1\n")
            fh.write("LOOKUP_TABLE default\n")
            for v in data:
                fh.write(f"{v}\n")


def _default_slab_height(tveg: Tveg, z_scale: float) -> float:
    """The scaled z-extent of all node coordinates (1 if flat)."""
    zs = np.concatenate([g.coords[:, 2] for g in tveg.graphs] or [np.empty(0)])
    if not zs.size:
        return 1.0
    extent = float(zs.max() - zs.min())
    return extent * z_scale if extent > 0 else 1.0
