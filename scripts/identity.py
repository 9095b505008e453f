#!/usr/bin/env python3
"""Write the canonical outputs of a tvex build into one directory tree.

Every output is written by the tvex package that `PYTHONPATH` points
at, mostly through its command-line interface, so running this once per
source tree and comparing the two trees checks that a change leaves
every canonical output byte-identical:

    PYTHONPATH=old/src python3 scripts/identity.py /tmp/id-old
    PYTHONPATH=new/src python3 scripts/identity.py /tmp/id-new
    diff -r /tmp/id-old /tmp/id-new

The tree holds, for the Gauss8 32^3 x 50 series at theta = 0.05r:
`tveg.json` written with TVEX_THREADS 1 and 2, the `eg` files, the
events (all, and the window 20..30), the tracks in both modes, the
refined tracks at isovalues 0.1, 0.8 and 0.9, one query of each kind,
the VTK export with and without spatial arcs, and the segmentation of
step 30. Three commands are also recorded as printed to standard output
without `-o` (`*.stdout.json`, the summary line dropped): `tvex events`,
the window-events query and the length-threshold query. For each series
of the benchmark's gauss8-64, noisy-20 and dense-24 workloads (drawn
from seed 5) it holds `tveg.json` written
with TVEX_THREADS 1 and 2, its export -> load -> export copy, the
tracks in both modes, the VTK export of each mode's tracks with and
without spatial arcs (Gauss8 has 8 maxima per step; dense-24 gives the
writer hundreds), and the 5 simple paths of least deviation with their
VTK export with and without spatial arcs, which hold only a few maxima
of each step they touch. For the first noisy-20 series it also holds the
segmentation of step 1 and the refined tracks: at its theta = 0.3r
simplification cancels about 310 of some 320 maxima per step, so
relabeling does the most work there. Many maxima: one noisy Gauss8
64^3 series of two float32 steps (noise sd 0.05 from seed 5, about
9,700 raw maxima and 77,000 region pairs per step) through `tvex eg` at
theta = 0 and theta = 0.05r, so the pairs, saddles and persistence of
the pairing and the saddle reduction at their largest are compared too;
and the `tveg.json` of the same noise on a 48^3 series of two steps at
theta = 0 (about 4,100 maxima a step), so the temporal arcs of a pair
the distance prune of `compute_scores` scores are compared as well.
The input volumes are written under `inputs/`.
"""

import argparse
import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "bench"))

from tvex import io as tvio  # noqa: E402
from tvex.cli import main as tvex  # noqa: E402
from workloads import GAUSS8_SIGMA, WORKLOADS, series_params, write_series  # noqa: E402

THREADS = ("1", "2")
SEED = 5  # of the benchmark series


def run(*argv: str) -> str:
    """One `tvex` command; returns what it printed, which ends with its
    summary line (with timings)."""
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        code = tvex(list(argv))
    if code:
        sys.exit(f"identity: tvex {' '.join(argv)} exited {code}")
    return printed.getvalue()


def run_to_stdout(path: str, *argv: str) -> None:
    """One `tvex` command without `-o`; what it printed before its summary
    line is written to `path`."""
    *text, _summary = run(*argv).splitlines(keepends=True)
    with open(path, "w") as fh:
        fh.writelines(text)


def tveg_per_thread_count(manifest: str, theta: str, out: str) -> str:
    """`tvex tveg` once per thread count into out/threads<n>/; returns the
    first tveg.json. Only `tveg` reads TVEX_THREADS."""
    for n in THREADS:
        os.environ["TVEX_THREADS"] = n
        run("tveg", "--manifest", manifest, "--theta", theta, "-o", f"{out}/threads{n}")
    return f"{out}/threads{THREADS[0]}/tveg.json"


def gauss8(out: str) -> None:
    theta = "0.05r"
    run("gen", "--gauss8", "--dims", "32", "--steps", "50", "-o", f"{out}/inputs/gauss8")
    manifest = f"{out}/inputs/gauss8/manifest.json"
    out = f"{out}/gauss8"
    tveg = tveg_per_thread_count(manifest, theta, out)
    run("eg", "--manifest", manifest, "--theta", theta, "-o", f"{out}/eg")
    run("events", "--tveg", tveg, "-o", f"{out}/events.json")
    run("events", "--tveg", tveg, "--window", "20", "30", "-o", f"{out}/events_20_30.json")
    paths = f"{out}/tracks_simple_paths.json"
    run("tracks", "--tveg", tveg, "-o", paths)
    run("tracks", "--tveg", tveg, "--mode", "components", "-o", f"{out}/tracks_components.json")
    for iso in ("0.1", "0.8", "0.9"):
        run("tracks", "--tveg", tveg, "--refine", "--manifest", manifest, "--isovalue", iso,
            "-o", f"{out}/refined_{iso}.json")
    with open(paths) as fh:
        seeds = [str(n) for _, n in json.load(fh)["tracks"][0]["nodes"]]
    query = ["query", "--tveg", tveg, "--tracks", paths, "--kind"]
    run(*query, "length-threshold", "--k", "10", "-o", f"{out}/query_length.json")
    run(*query, "least-deviation", "--n", "3", "-o", f"{out}/query_deviation.json")
    run(*query, "region", "--box", "-1", "0", "-1", "1", "1", "1", "--window", "20", "30",
        "-o", f"{out}/query_region.json")
    run(*query, "window-events", "--window", "20", "30", "-o", f"{out}/query_events.json")
    run(*query, "neighborhood", "--seeds", *seeds, "--hops", "2",
        "-o", f"{out}/query_neighborhood.json")
    run_to_stdout(f"{out}/events.stdout.json", "events", "--tveg", tveg)
    run_to_stdout(f"{out}/query_events.stdout.json", *query, "window-events",
                  "--window", "20", "30")
    run_to_stdout(f"{out}/query_length.stdout.json", *query, "length-threshold", "--k", "10")
    run("export", "--tveg", tveg, "-o", f"{out}/tracks.vtk")
    run("export", "--tveg", tveg, "--spatial-arcs", "-o", f"{out}/tracks_spatial.vtk")
    run("export", "--what", "segmentation", "--manifest", manifest, "--theta", theta,
        "--t", "30", "-o", f"{out}/segmentation_30")


def bench_series(out: str) -> None:
    for name in ("gauss8-64", "noisy-20", "dense-24"):
        w = WORKLOADS[name]
        for i, params in enumerate(series_params(w, SEED, smoke=False, steps=None)):
            manifest = write_series(params, f"{out}/inputs/{name}/series{i}")
            dest = f"{out}/{name}/series{i}"
            tveg = tveg_per_thread_count(manifest, w.theta, dest)
            tvio.export_tveg_json(tvio.load_tveg_json(tveg), f"{dest}/copy.json")
            for mode in ("simple-paths", "components"):
                tracks = f"{dest}/tracks_{mode}.json"
                run("tracks", "--tveg", tveg, "--mode", mode, "-o", tracks)
                run("export", "--tveg", tveg, "--tracks", tracks, "-o", f"{dest}/{mode}.vtk")
                run("export", "--tveg", tveg, "--tracks", tracks, "--spatial-arcs",
                    "-o", f"{dest}/{mode}_spatial.vtk")
            few = f"{dest}/least_deviation.json"
            run("query", "--tveg", tveg, "--tracks", f"{dest}/tracks_simple-paths.json",
                "--kind", "least-deviation", "--n", "5", "-o", few)
            run("export", "--tveg", tveg, "--tracks", few, "-o", f"{dest}/least_deviation.vtk")
            run("export", "--tveg", tveg, "--tracks", few, "--spatial-arcs",
                "-o", f"{dest}/least_deviation_spatial.vtk")
            if (name, i) == ("noisy-20", 0):
                run("export", "--what", "segmentation", "--manifest", manifest,
                    "--theta", w.theta, "--t", "1", "-o", f"{dest}/segmentation_1")
                run("tracks", "--tveg", tveg, "--refine", "--manifest", manifest,
                    "--min-len", "1", "-o", f"{dest}/refined.json")


def many_maxima(out: str) -> None:
    params = {"dims": 64, "steps": 2, "amplitude": 1.0, "sigma": GAUSS8_SIGMA,
              "noise": 0.05, "noise_seed": SEED}
    manifest = write_series(params, f"{out}/inputs/noisy-64")
    for theta in ("0.0", "0.05r"):
        run("eg", "--manifest", manifest, "--theta", theta, "-o", f"{out}/noisy-64/eg_{theta}")
    manifest = write_series({**params, "dims": 48}, f"{out}/inputs/noisy-48")
    run("tveg", "--manifest", manifest, "--theta", "0.0", "-o", f"{out}/noisy-48")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="directory to write the outputs into (created)")
    args = ap.parse_args()
    print(f"identity: tvex from {os.path.dirname(tvio.__file__)}", file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)
    gauss8(args.out)
    bench_series(args.out)
    many_maxima(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
