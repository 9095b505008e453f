#!/usr/bin/env python3
"""Benchmark the track queries and the tveg and track writers on a seeded
noisy Gauss8 series.

Builds a Gauss8 series of `--dims`^3 voxels and 2 steps plus N(0, 0.05^2)
noise per voxel from `default_rng(48)`, rounded to float32 as a `<f4`
volume is, computes its tveg at theta = 0 (about 4,200 maxima per step
at 48^3) and extracts its simple-path tracks. It first checks that
`export_tracks_json` writes the bytes of `canonical_json(tracks_to_dict(...))`,
with the dict tree of the oracle in `tests/linking_oracle.py`, for the
tracks of both modes, and that `least_deviation` ranks the tracks of
both modes as the per-track reference in `tests/tracks_oracle.py` does.
It then times the track queries: `extract_tracks` in both modes,
`least_deviation` of the 10 paths of least deviation and the length
threshold of the paths that span both steps. Then it times
`export_tveg_json`, and `export_tracks_json` and `export_tracks_geometry`
without and with spatial arcs, each run writing a new file: the track
writers once for all the simple paths, which hold nearly every maximum
of each step, and once (the `sparse_` writers) for the 10 paths of least
deviation, as `tvex query --kind least-deviation --n 10` selects them,
which hold a few maxima of each step they touch. Each figure is the best
and the median of `--repeats` runs.
The results go to standard output and to BENCH_exports.json in the
current directory.

Usage:
    python3 scripts/benchmark_exports.py [--dims 48] [--repeats 5]
"""

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from statistics import median

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from linking_oracle import canonical_json, tracks_to_dict
from tracks_oracle import least_deviation as least_deviation_reference
from tvex import io as tvio
from tvex.field import generate_gauss8
from tvex.pipeline import compute_tveg
from tvex.query import least_deviation, tracks_longer_than
from tvex.temporal import ScoreWeights
from tvex.tracks import extract_tracks

STEPS, NOISE, SEED = 2, 0.05, 48
SPARSE = 10  # tracks of the sparse export
OUT = "BENCH_exports.json"


def noisy_tveg(edge):
    """The tveg of the noisy Gauss8 series of edge^3 voxels, at theta 0."""
    series = generate_gauss8((edge, edge, edge), STEPS)
    rng = np.random.default_rng(SEED)
    for f in series.fields:
        noisy = f.values + rng.normal(0.0, NOISE, f.num_voxels)
        f.values = noisy.astype(np.float32).astype(np.float64)
    return compute_tveg(series, 0.0, ScoreWeights())


def check_tracks_json(tveg, tmp):
    """Exit unless the tracks file of each mode is the oracle's text."""
    path = os.path.join(tmp, "check.json")
    for mode in ("simple-paths", "components"):
        tracks = extract_tracks(tveg, mode)
        tvio.export_tracks_json(tracks, path)
        with open(path) as fh:
            if fh.read() != canonical_json(tracks_to_dict(tracks)):
                sys.exit(f"export_tracks_json differs from the oracle writer ({mode})")


def check_least_deviation(tveg):
    """Exit unless least_deviation ranks the tracks of each mode, for the
    sparse export and as a whole, as the per-track reference does."""
    for mode in ("simple-paths", "components"):
        tracks = extract_tracks(tveg, mode)
        for n in (SPARSE, len(tracks) or 1):
            want = least_deviation_reference(tracks, tveg, n)
            if list(map(id, least_deviation(tracks, tveg, n))) != list(map(id, want)):
                sys.exit(f"least_deviation differs from the per-track reference ({mode}, n={n})")


def track_queries(tracks, tveg):
    """The timed track queries, each a function of no argument, by name."""
    return {
        "simple_paths": lambda: extract_tracks(tveg, "simple-paths"),
        "components": lambda: extract_tracks(tveg, "components"),
        "least_deviation": lambda: least_deviation(tracks, tveg, SPARSE),
        "length_threshold": lambda: tracks_longer_than(tracks, STEPS),
    }


def track_writers(tracks, tveg, prefix=""):
    """The three timed writers of `tracks`, each a function of the path
    it writes, by name."""
    return {
        prefix + "tracks_json": lambda path: tvio.export_tracks_json(tracks, path),
        prefix + "vtk": lambda path: tvio.export_tracks_geometry(tracks, tveg, path),
        prefix + "vtk_spatial": lambda path: tvio.export_tracks_geometry(
            tracks, tveg, path, include_spatial=True),
    }


def timed(call, repeats):
    """Seconds of each of `repeats` calls of call(i), i = 0, 1, ..."""
    seconds = []
    for i in range(repeats):
        t0 = time.perf_counter()
        call(i)
        seconds.append(time.perf_counter() - t0)
    return seconds


def summary(name, seconds, size=None):
    """The result of one timed job, printed as it goes to the report."""
    print(f"{name}: best {min(seconds) * 1000:.1f} ms, "
          f"median {median(seconds) * 1000:.1f} ms over {len(seconds)} runs"
          + (f", {size / 1e6:.2f} MB" if size is not None else ""))
    result = {"best_s": min(seconds), "median_s": median(seconds)}
    return result if size is None else {**result, "bytes": size}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, default=48, help="edge of the cubic grid")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    tveg = noisy_tveg(args.dims)
    tracks = extract_tracks(tveg, "simple-paths")
    sparse = least_deviation(tracks, tveg, SPARSE)
    writers = {"tveg_json": lambda path: tvio.export_tveg_json(tveg, path),
               **track_writers(tracks, tveg), **track_writers(sparse, tveg, "sparse_")}
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        check_tracks_json(tveg, tmp)
        check_least_deviation(tveg)
        for name, run in track_queries(tracks, tveg).items():
            run()
            results[name] = summary(name, timed(lambda i: run(), args.repeats))
        for name, write in writers.items():
            write(os.path.join(tmp, f"{name}.warm"))
            paths = [os.path.join(tmp, f"{name}.{i}") for i in range(args.repeats)]
            seconds = timed(lambda i: write(paths[i]), args.repeats)
            results[name] = summary(name, seconds, os.path.getsize(paths[-1]))

    report = {
        "series": {"dims": [args.dims] * 3, "steps": STEPS, "noise_sd": NOISE, "seed": SEED,
                   "theta": 0.0, "maxima": [g.n_max for g in tveg.graphs],
                   "nodes": [len(g.value) for g in tveg.graphs]},
        "tracks": len(tracks),
        "track_nodes": sum(len(tr.nodes) for tr in tracks),
        "sparse_tracks": len(sparse),
        "sparse_track_nodes": sum(len(tr.nodes) for tr in sparse),
        "repeats": args.repeats,
        "results": results,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    with open(OUT, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
