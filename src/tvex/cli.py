"""Command-line driver.

Subcommands: gen | eg | tveg | events | tracks | query | export.
Each command returns a one-line summary (counts); `main` prints it with
the command's time and returns 0, or a nonzero code with a diagnostic.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections.abc import Iterable

from . import io as tvio
from . import morse, pipeline, query as tvquery, tracks as tvtracks
from .exgraph import build_extremum_graph, split_node_id
from .field import generate_gauss8, load_series, read_json, save_series
from .temporal import ScoreWeights


def _parse_dims(text: str) -> tuple[int, int, int]:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError as exc:  # argparse shows only this type's message
        raise argparse.ArgumentTypeError(str(exc)) from None
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("dims must be N or NX,NY,NZ")
    return tuple(parts)


def _finite(text: str) -> float:
    """A finite number: argparse names the option of any other value."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _parse_weights(text: str) -> ScoreWeights:
    try:
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError("weights must be G,L1,L2,L3")
        return ScoreWeights(*parts)
    except ValueError as exc:  # argparse shows only this type's message
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_theta_series(args):
    series = load_series(args.manifest)
    theta = pipeline.resolve_theta(args.theta, series)
    return series, theta


def cmd_gen(args) -> str:
    if not args.gauss8:
        raise ValueError("only --gauss8 generation is supported")
    series = generate_gauss8(
        dims=args.dims, steps=args.steps, amplitude=args.amplitude, sigma=args.sigma
    )
    manifest = save_series(series, args.output)
    return f"gen: {len(series)} steps of {args.dims[0]}x{args.dims[1]}x{args.dims[2]} -> {manifest}"


def cmd_eg(args) -> str:
    series, theta = _load_theta_series(args)
    os.makedirs(args.output, exist_ok=True)
    fields = series.fields if args.t is None else [series.at(args.t)]
    n_nodes = 0
    for f in fields:
        g = build_extremum_graph(f, theta)
        path = os.path.join(args.output, f"exgraph_{f.time_index:04d}.json")
        tvio.export_extremum_graph_json(g, path)
        n_nodes += len(g.value)
    return f"eg: {len(fields)} graphs, {n_nodes} nodes, theta={theta:.6g} -> {args.output}"


def cmd_tveg(args) -> str:
    series, theta = _load_theta_series(args)
    t_range = tuple(args.range) if args.range else None
    tveg = pipeline.compute_tveg(series, theta, args.weights, t_range=t_range)
    os.makedirs(args.output, exist_ok=True)
    path = os.path.join(args.output, "tveg.json")
    tvio.export_tveg_json(tveg, path)
    n_arcs = len(tveg.all_arcs())
    return (f"tveg: {len(tveg.graphs)} steps, {n_arcs} temporal arcs, "
            f"{_counts(tveg.events)} -> {path}")


def cmd_events(args) -> str:
    tveg = tvio.load_tveg_json(args.tveg)
    ev = tvquery.events_in_window(tveg, tuple(args.window)) if args.window else tveg.events
    _write([tvio.events_json(ev), "\n"], args.output)
    return f"events: {_counts(ev)}"


def _counts(ev) -> str:
    """The event counts of a summary line."""
    return (f"{len(ev.merges)} merges, {len(ev.splits)} splits, "
            f"{len(ev.deletions)} deletions, {len(ev.generations)} generations")


def cmd_tracks(args) -> str:
    tveg = tvio.load_tveg_json(args.tveg)
    if args.refine:
        if not args.manifest:
            raise ValueError("--refine needs --manifest to read the volumes")
        result = tvtracks.refine_by_overlap(
            tveg, load_series(args.manifest), args.isovalue, args.min_len
        )
    else:
        result = tvtracks.extract_tracks(tveg, mode=args.mode)
    tvio.export_tracks_json(result, args.output)
    return f"tracks: {len(result)} tracks -> {args.output}"


def cmd_query(args) -> str:
    tveg = tvio.load_tveg_json(args.tveg)
    if args.spec:
        q = read_json(args.spec)
        if not isinstance(q, dict):
            raise ValueError(f"{args.spec}: a query must be a JSON object")
        _check_spec(q, args.spec)
    else:
        q = {
            "kind": args.kind,
            "k": args.k,
            "n": args.n,
            "box": [args.box[:3], args.box[3:]] if args.box else None,
            "window": args.window,
            "seeds": args.seeds,
            "hops": args.hops,
        }
    try:
        pieces = _run_query(tveg, q, args.tracks)
    except ValueError as exc:
        if not args.spec:
            raise
        raise ValueError(f"{args.spec}: {exc}") from None
    _write(pieces, args.output)
    return f"query: kind={q['kind']}"


def _check_spec(q: dict, spec: str) -> None:
    """Name the first key of a query file that is missing (`kind`) or
    whose JSON type is wrong. Another absent key passes; a bool is not an
    integer."""
    if "kind" not in q:
        raise ValueError(f"{spec}: the key 'kind' is missing")
    if type(q["kind"]) is not str:
        raise ValueError(f"{spec}: 'kind' must be a string, got {q['kind']!r}")
    for key in ("k", "n", "hops"):
        if key in q and type(q[key]) is not int:
            raise ValueError(f"{spec}: '{key}' must be an integer, got {q[key]!r}")
    window, seeds = q.get("window", [0, 0]), q.get("seeds", [0])
    if not (type(window) is list and len(window) == 2 and all(type(x) is int for x in window)):
        raise ValueError(f"{spec}: 'window' must be two integers, got {window!r}")
    if not (type(seeds) is list and seeds and all(type(x) is int for x in seeds)):
        raise ValueError(f"{spec}: 'seeds' must be a non-empty list of integers, got {seeds!r}")


def _run_query(tveg, q: dict, tracks_path) -> Iterable[str]:
    """Answer one query dict (`kind` plus the keys that kind reads) as the
    pieces of its canonical JSON text: tracks and events through their
    writers in `io`. An absent (or, from the flags, None) `k` or `n` is 1."""
    kind, box, window = q["kind"], q.get("box"), q.get("window")
    if kind in ("length-threshold", "least-deviation"):
        track_list = _tracks_or_paths(tveg, tracks_path)
        k, n = (1 if q.get(key) is None else q[key] for key in ("k", "n"))
        if kind == "length-threshold":
            result = tvquery.tracks_longer_than(track_list, k)
        else:
            result = tvquery.least_deviation(track_list, tveg, n)
        return tvio.tracks_json(result)
    if kind == "region":
        if box is None or window is None:
            raise ValueError("region query needs --box and --window")
        sel = tvquery.select_in_region(tveg, box, window)
        return [tvio.canonical_json({
            "maxima": sel.maxima,
            "saddles": sel.saddles,
            "spatial_arcs": sel.spatial_arcs,
            "temporal_arcs": [[a.m0, a.m1, a.s] for a in sel.temporal_arcs],
        })]
    if kind == "window-events":
        if window is None:
            raise ValueError("window-events query needs --window")
        return [tvio.events_json(tvquery.events_in_window(tveg, window)), "\n"]
    if kind == "neighborhood":
        seeds = q.get("seeds")
        if not seeds:
            raise ValueError("neighborhood query needs --seeds")
        track = tvtracks.Track(nodes=sorted((split_node_id(s)[0], s) for s in seeds), arcs=[])
        nb = tvquery.track_neighborhood(tveg, track, q.get("hops", 0))
        return [tvio.canonical_json({"neighborhood": {str(t): n for t, n in nb.items()}})]
    raise ValueError(f"unknown query kind {kind!r}")


def _tracks_or_paths(tveg, tracks_path) -> list:
    """The tracks of the `--tracks` file, or the tveg's simple paths.
    Raises ValueError, naming the file, the track and the node, if a
    track node is not a maximum of the tveg."""
    if not tracks_path:
        return tvtracks.extract_tracks(tveg, mode="simple-paths")
    track_list = tvio.load_tracks_json(tracks_path)
    for i, track in enumerate(track_list):
        for t, node in track.nodes:
            try:
                tveg.max_row(t, node)
            except ValueError as exc:
                raise ValueError(f"{tracks_path}: track {i}: node {[t, node]}: {exc}") from None
    return track_list


def _write(pieces: Iterable[str], output) -> None:
    """Write the text pieces to the `-o` file, or to stdout without one."""
    if output:
        with open(output, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def cmd_export(args) -> str:
    if args.what == "geometry":
        if not args.tveg:
            raise ValueError("a geometry export needs --tveg")
        tveg = tvio.load_tveg_json(args.tveg)
        track_list = _tracks_or_paths(tveg, args.tracks)
        tvio.export_tracks_geometry(
            track_list,
            tveg,
            args.output,
            z_scale=args.z_scale,
            slab_height=args.slab_height,
            include_spatial=args.spatial_arcs,
        )
        return f"export: {len(track_list)} tracks -> {args.output}"
    if not args.manifest:
        raise ValueError("a segmentation export needs --manifest")
    series, theta = _load_theta_series(args)
    seg = morse.morse_step(series.at(args.t), theta)
    labels_path, sidecar = tvio.export_segmentation(seg, args.output)
    return f"export: {len(seg.maxima)} regions -> {labels_path}"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tvex",
        description="Extremum graphs of time-varying scalar fields: "
        "temporal linking, events, tracks, queries, exports.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic series")
    g.add_argument("--gauss8", action="store_true", help="eight moving Gaussians")
    g.add_argument("--dims", type=_parse_dims, default=(32, 32, 32))
    g.add_argument("--steps", type=int, default=50)
    g.add_argument("--amplitude", type=float, default=1.0)
    g.add_argument("--sigma", type=float, default=0.08)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_gen)

    e = sub.add_parser("eg", help="compute per-step extremum graphs")
    e.add_argument("--manifest", required=True)
    e.add_argument("--theta", default="0.0")
    e.add_argument("--t", type=int, default=None)
    e.add_argument("-o", "--output", required=True)
    e.set_defaults(func=cmd_eg)

    tv = sub.add_parser("tveg", help="compute the full time-varying graph")
    tv.add_argument("--manifest", required=True)
    tv.add_argument("--theta", default="0.0")
    tv.add_argument("--weights", type=_parse_weights, default=ScoreWeights())
    tv.add_argument("--range", type=int, nargs=2, default=None, metavar=("P", "R"))
    tv.add_argument("-o", "--output", required=True)
    tv.set_defaults(func=cmd_tveg)

    ev = sub.add_parser("events", help="list topological events")
    ev.add_argument("--tveg", required=True)
    ev.add_argument("--window", type=int, nargs=2, default=None, metavar=("T0", "T1"))
    ev.add_argument("-o", "--output", default=None)
    ev.set_defaults(func=cmd_events)

    tr = sub.add_parser("tracks", help="extract or refine tracks")
    tr.add_argument("--tveg", required=True)
    tr.add_argument("--mode", choices=["components", "simple-paths"],
                    default="simple-paths")
    tr.add_argument("--refine", action="store_true",
                    help="resolve two-way arcs by clipped-region overlap")
    tr.add_argument("--manifest", default=None)
    tr.add_argument("--isovalue", type=_finite, default=0.1)
    tr.add_argument("--min-len", type=int, default=10)
    tr.add_argument("-o", "--output", required=True)
    tr.set_defaults(func=cmd_tracks)

    q = sub.add_parser("query", help="query a computed tveg")
    q.add_argument("--tveg", required=True)
    one = q.add_mutually_exclusive_group(required=True)
    one.add_argument("--spec", default=None, help="JSON query file")
    one.add_argument("--kind", default=None,
                     choices=["length-threshold", "least-deviation", "region",
                              "window-events", "neighborhood"])
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--box", type=float, nargs=6, default=None,
                   metavar=("X0", "Y0", "Z0", "X1", "Y1", "Z1"))
    q.add_argument("--window", type=int, nargs=2, default=None,
                   metavar=("T0", "T1"))
    q.add_argument("--seeds", type=int, nargs="+", default=None,
                   metavar="NODE", help="node ids for a neighborhood query")
    q.add_argument("--hops", type=int, default=0)
    q.add_argument("--tracks", default=None)
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_query)

    ex = sub.add_parser("export", help="export geometry or segmentation")
    ex.add_argument("--what", choices=["geometry", "segmentation"],
                    default="geometry")
    ex.add_argument("--tveg", default=None)
    ex.add_argument("--tracks", default=None)
    ex.add_argument("--z-scale", type=_finite, default=0.1)
    ex.add_argument("--slab-height", type=_finite, default=None)
    ex.add_argument("--spatial-arcs", action="store_true")
    ex.add_argument("--manifest", default=None)
    ex.add_argument("--theta", default="0.0")
    ex.add_argument("--t", type=int, default=1)
    ex.add_argument("-o", "--output", required=True)
    ex.set_defaults(func=cmd_export)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        summary = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 3
    print(f"{summary} [{time.perf_counter() - t0:.2f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
