#!/usr/bin/env python3
"""Benchmark each tvex layer on one fixed case matrix.

- morse: `morse_step` and its five stages on the first step of gauss8-64
  (smooth 64^3, theta = 0.05 r), noisy-24 (24^3 plus N(0, 0.05^2) noise,
  rounded to float32 as a `<f4` volume is, theta = 0) and noisy-64-f64
  (the same noise at 64^3, left in float64, so the voxel order takes the
  stable argsort; theta = 0).
- linking: `link_pair` with the events of its arcs, and its four stages,
  on synthetic pairs of 150, 600, 1500 and 3000 maxima (points and
  attributes drawn uniformly, so the pairs have no temporal coherence),
  and on the coherent pair of the exports' series below (`noisy-48`, steps
  1 -> 2, where the distance prune of `compute_scores` does its work),
  plus the `tracemalloc` peak of one `compute_scores`.
- exports: the track queries, the `tveg.json` writer and loader, and the
  tracks JSON and VTK writers (without and with spatial arcs) of all simple
  paths and, as `sparse_`, of the 10 of least deviation, on the noisy
  Gauss8 48^3 series of two steps (noise from `default_rng(48)`, float32,
  theta = 0, about 4,200 maxima a step). Each writer run writes a new file;
  the loader reads the last `tveg.json` written.

A stage's figure is the self time of that stage's calls inside each
timed `morse_step` or `linked` run: at import the nine stage functions
of `morse` and `temporal` are wrapped once by `bench/spans.Recorder`,
which also counts the raw and kept maxima, the saddles, the arcs and the
events. A timed run that records no span of a stage exits nonzero,
naming the stage; a renamed stage function already fails at import.

Before timing anything it checks the loaded `tveg.json` against its own
bytes when exported again; the tracks file, the region answer of the
whole domain over both steps, the neighbourhood of the first simple path
at 2 hops and the segmentation sidecar of step 1 at theta = 0 against
the generic writer of `tests/linking_oracle.py`; the least-deviation
ranking against `tests/tracks_oracle.py`; and the VTK file of both
modes' tracks and the sparse paths, without and with spatial arcs,
against `tests/vtk_oracle.py`. It exits nonzero, naming the check or the
writer, at the first disagreement. Each figure is the best and the
median of `--repeats` runs after one warm-up run, printed and written to
BENCH_layers.json in the current directory.

Usage:
    python3 scripts/benchmark_layers.py [--repeats 5]
"""

import argparse
import json
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from statistics import median

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
for _dir in ("src", "tests", "bench"):
    sys.path.insert(0, os.path.join(HERE, "..", _dir))

from linking_oracle import (canonical_json, neighborhood_dict, selection_dict, sidecar_dict,
                            tracks_to_dict)
from spans import Recorder
from tracks_oracle import least_deviation as least_deviation_reference
import vtk_oracle
from tvex import io as tvio, morse, temporal
from tvex.exgraph import ExtremumGraph
from tvex.field import generate_gauss8
from tvex.pipeline import compute_tveg
from tvex.query import least_deviation, select_in_region, track_neighborhood, tracks_longer_than
from tvex.temporal import ScoreWeights, link_pair
from tvex.tracks import extract_tracks

OUT = "BENCH_layers.json"
# name: (grid edge, noise sd, theta as a fraction of the value range,
# whether the noisy values are rounded to float32)
MORSE = {
    "gauss8-64": (64, 0.0, 0.05, True),
    "noisy-24": (24, 0.05, 0.0, True),
    "noisy-64-f64": (64, 0.05, 0.0, False),
}
LINK_SIZES = (150, 600, 1500, 3000)
# `pairing` is timed apart from the rest of `simplify`, which calls it
MORSE_STAGES = ("vertex_order", "segmentation", "saddles", "pairing", "simplify")
LINK_STAGES = ("scores", "filter", "z_removal", "events")
SPANS = Recorder()  # the stages' spans and counters, by their names here
SPANS.wrap(morse, "vertex_order", "vertex_order")
SPANS.wrap(morse, "compute_segmentation", "segmentation",
           {"raw_maxima": lambda seg: len(seg.maxima)})
SPANS.wrap(morse, "compute_saddles", "saddles", {"raw_saddles": lambda seg: len(seg.saddles)})
SPANS.wrap(morse, "_pairing", "pairing")
SPANS.wrap(morse, "simplify", "simplify", {"kept_maxima": lambda seg: len(seg.maxima)})
SPANS.wrap(temporal, "compute_scores", "scores")
SPANS.wrap(temporal, "filter_scores", "filter")
SPANS.wrap(temporal, "remove_z_configurations", "z_removal", {"arcs": len})
SPANS.wrap(temporal, "detect_events", "events",
           {"merges": lambda ev: len(ev.merges), "splits": lambda ev: len(ev.splits)})
EDGE, STEPS, NOISE, SEED = 48, 2, 0.05, 48  # the series of the exports
SPARSE = 10  # tracks of the sparse export


def noisy_gauss8(edge, noise, seed, single=True):
    """The Gauss8 series of edge^3 voxels and two steps plus N(0, noise^2)
    per voxel from `default_rng(seed)`, rounded to float32 if `single`."""
    series = generate_gauss8((edge, edge, edge), STEPS)
    rng = np.random.default_rng(seed)
    for f in series.fields if noise else ():
        noisy = f.values + rng.normal(0.0, noise, f.num_voxels)
        f.values = noisy.astype(np.float32).astype(np.float64) if single else noisy
    return series


def stats(label, seconds):
    """The best and the median of `seconds`, printed after `label`."""
    best, middle = min(seconds), median(seconds)
    print(f"{label}: best {best * 1000:.2f} ms, median {middle * 1000:.2f} ms")
    return {"best_s": best, "median_s": middle}


def timed(label, call, repeats, stages=()):
    """Best and median seconds of call(i), i = 0 .. repeats - 1, after a
    warm-up call(-1); those of the self time of each of `stages` in the
    same calls, by stage; and the counters of the last call. Exits, naming
    the stage, if a timed call records no span of one of `stages`."""
    call(-1)
    SPANS.take()
    seconds, runs = [], []
    for i in range(repeats):
        t0 = time.perf_counter()
        call(i)
        seconds.append(time.perf_counter() - t0)
        runs.append(SPANS.take())
    for name in stages:
        if not all(name + "_calls" in run for run in runs):
            sys.exit(f"{label}: a timed run recorded no {name} span")
    return (stats(label, seconds),
            {name: stats(f"{label} {name}", [run[name + "_s"] for run in runs])
             for name in stages},
            runs[-1])


def morse_case(name):
    """The first step of the case's series and its theta."""
    edge, noise, frac, single = MORSE[name]
    f = noisy_gauss8(edge, noise, 0, single).fields[0]
    return f, frac * float(np.ptp(f.values))


def synthetic_pair(n):
    """Graphs of n maxima and no saddles at steps 1 and 2, from `default_rng(0)`."""
    rng = np.random.default_rng(0)
    return tuple(ExtremumGraph(t, n, np.arange(n), coords=rng.uniform(-1.0, 1.0, (n, 3)),
                               value=rng.uniform(0.5, 2.0, n), pers=rng.uniform(0.05, 1.0, n),
                               eta=rng.uniform(0.1, 3.0, n)) for t in (1, 2))


def linked(g0, g1, w):
    """The work of one pair: `link_pair`, then the events of its arcs."""
    arcs, _ = link_pair(g0, g1, w)
    return arcs, temporal.detect_events(arcs, g0.maxima.tolist(), g1.maxima.tolist())


def check_exports(series, tveg, tmp):
    """Exit unless the loaded `tveg.json` exports to the same bytes, the
    tracks file of each mode is the oracle's text, the
    least-deviation ranking of each mode (the sparse paths and the whole)
    is the per-track reference's, the VTK file of the tracks of each
    mode and of the sparse paths, without and with spatial arcs, is the
    oracle writer's, and the region answer of the whole domain over all
    steps, the neighbourhood of the first simple path at 2 hops and the
    segmentation sidecar of step 1 at theta 0 are the oracle's texts."""
    got, want = os.path.join(tmp, "check"), os.path.join(tmp, "oracle")
    tvio.export_tveg_json(tveg, got)
    tvio.export_tveg_json(tvio.load_tveg_json(got), want)
    with open(got, "rb") as a, open(want, "rb") as b:
        if a.read() != b.read():
            sys.exit("the loaded tveg.json exports to other bytes")
    cases = {mode: extract_tracks(tveg, mode) for mode in ("simple-paths", "components")}
    for mode, tracks in cases.items():
        tvio.export_tracks_json(tracks, got)
        with open(got) as fh:
            if fh.read() != canonical_json(tracks_to_dict(tracks)):
                sys.exit(f"export_tracks_json differs from the oracle writer ({mode})")
        for n in (SPARSE, len(tracks) or 1):
            ranked = least_deviation(tracks, tveg, n)
            if list(map(id, ranked)) != list(map(id, least_deviation_reference(tracks, tveg, n))):
                sys.exit(f"least_deviation differs from the per-track reference ({mode}, n={n})")
    cases["sparse"] = least_deviation(cases["simple-paths"], tveg, SPARSE)
    for name, tracks in cases.items():
        for spatial in (False, True):
            tvio.export_tracks_geometry(tracks, tveg, got, include_spatial=spatial)
            vtk_oracle.export_tracks_geometry(tracks, tveg, want, include_spatial=spatial)
            with open(got, "rb") as a, open(want, "rb") as b:
                if a.read() != b.read():
                    sys.exit(f"export_tracks_geometry differs from the oracle writer "
                             f"({name}, spatial={spatial})")
    coords = np.concatenate([g.coords for g in tveg.graphs])
    box = [coords.min(0).tolist(), coords.max(0).tolist()]
    sel = select_in_region(tveg, box, (tveg.graphs[0].t, tveg.graphs[-1].t))
    nb = track_neighborhood(tveg, cases["simple-paths"][0], 2)
    seg = morse.morse_step(series.at(1), 0.0)
    with open(tvio.export_segmentation(seg, os.path.join(tmp, "seg"))[1]) as fh:
        sidecar = fh.read()
    texts = {"selection_json": (tvio.selection_json(sel), selection_dict(sel)),
             "neighborhood_json": (tvio.neighborhood_json(nb), neighborhood_dict(nb)),
             "export_segmentation": (sidecar, sidecar_dict(seg))}
    for writer, (text, tree) in texts.items():
        if text != canonical_json(tree):
            sys.exit(f"{writer} differs from the oracle writer")


def bench_morse(name, f, theta, repeats):
    total, stages, counts = timed(f"{name} morse_step", lambda i: morse.morse_step(f, theta),
                                  repeats, MORSE_STAGES)
    return {"voxels": f.num_voxels, "theta": theta,
            **{key: counts[key] for key in ("raw_maxima", "raw_saddles", "kept_maxima")},
            "morse_step": total, "stages": stages}


def bench_linking(name, g0, g1, w, repeats):
    total, stages, counts = timed(f"{name} link_pair", lambda i: linked(g0, g1, w), repeats,
                                  LINK_STAGES)
    tracemalloc.start()
    try:
        temporal.compute_scores(g0, g1, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"maxima": [g0.n_max, g1.n_max],
            **{key: counts[key] for key in ("arcs", "merges", "splits")},
            "link_pair": total, "stages": stages, "scores_traced_peak_mb": peak / 1e6}


def track_writers(tracks, tveg, prefix=""):
    """The three timed writers of `tracks`, each a function of the path
    it writes, by name."""
    return {
        prefix + "tracks_json": lambda path: tvio.export_tracks_json(tracks, path),
        prefix + "vtk": lambda path: tvio.export_tracks_geometry(tracks, tveg, path),
        prefix + "vtk_spatial": lambda path: tvio.export_tracks_geometry(
            tracks, tveg, path, include_spatial=True),
    }


def bench_exports(tveg, tmp, repeats):
    tracks = extract_tracks(tveg, "simple-paths")
    sparse = least_deviation(tracks, tveg, SPARSE)
    queries = {
        "simple_paths": lambda: extract_tracks(tveg, "simple-paths"),
        "components": lambda: extract_tracks(tveg, "components"),
        "least_deviation": lambda: least_deviation(tracks, tveg, SPARSE),
        "length_threshold": lambda: tracks_longer_than(tracks, STEPS),
    }
    writers = {"tveg_json": lambda path: tvio.export_tveg_json(tveg, path),
               **track_writers(tracks, tveg), **track_writers(sparse, tveg, "sparse_")}
    result = {
        "series": {"dims": [EDGE] * 3, "steps": STEPS, "noise_sd": NOISE, "seed": SEED,
                   "theta": tveg.theta, "maxima": [g.n_max for g in tveg.graphs],
                   "nodes": [len(g.value) for g in tveg.graphs]},
        "tracks": len(tracks), "track_nodes": sum(len(tr.nodes) for tr in tracks),
        "sparse_tracks": len(sparse), "sparse_track_nodes": sum(len(tr.nodes) for tr in sparse),
        "queries": {name: timed(name, lambda i: run(), repeats)[0]
                    for name, run in queries.items()},
        "writers": {},
    }
    for name, write in writers.items():
        path = os.path.join(tmp, name + ".%d")
        result["writers"][name] = {**timed(name, lambda i: write(path % i), repeats)[0],
                                   "bytes": os.path.getsize(path % (repeats - 1))}
    stored = os.path.join(tmp, "tveg_json.%d" % (repeats - 1))
    result["load"] = timed("load", lambda i: tvio.load_tveg_json(stored), repeats)[0]
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=5, help="timed runs of each job")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    w = ScoreWeights()
    cases = {name: morse_case(name) for name in MORSE}
    pairs = {n: synthetic_pair(n) for n in LINK_SIZES}
    series = noisy_gauss8(EDGE, NOISE, SEED)
    tveg = compute_tveg(series, 0.0, w)
    with tempfile.TemporaryDirectory() as tmp:
        check_exports(series, tveg, tmp)
        report = {
            "repeats": args.repeats,
            "morse": {name: bench_morse(name, f, theta, args.repeats)
                      for name, (f, theta) in cases.items()},
            "linking": {**{str(n): bench_linking(f"n={n}", g0, g1, w, args.repeats)
                           for n, (g0, g1) in pairs.items()},
                        "noisy-48": bench_linking("noisy-48", *tveg.graphs, w, args.repeats)},
            "exports": bench_exports(tveg, tmp, args.repeats),
            "environment": {"python": platform.python_version(), "numpy": np.__version__,
                            "machine": platform.machine(), "cpus": os.cpu_count()},
        }
    with open(OUT, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
