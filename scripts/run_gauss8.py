#!/usr/bin/env python3
"""End-to-end experiment on the synthetic eight-Gaussian series.

Generates the series, computes per-step extremum graphs and temporal
arcs, reports event statistics and the connectivity of the temporal-arc
graph, and writes all exports (tveg.json, tracks.json, tracks.vtk) to
the output directory.

Usage:
    python3 scripts/run_gauss8.py --out results/gauss8 [--dims 32] [--steps 50]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tvex import io as tvio
from tvex.field import generate_gauss8, save_series
from tvex.pipeline import compute_tveg
from tvex.temporal import ScoreWeights
from tvex.tracks import extract_tracks


def component_spans(tvg) -> list[tuple[int, int]]:
    """Sorted (first step, last step) of each temporal-arc graph component;
    a maximum without arcs is a component of its own."""
    components = extract_tracks(tvg, mode="components")
    linked = {n for tr in components for _, n in tr.nodes}
    spans = [(tr.nodes[0][0], tr.nodes[-1][0]) for tr in components]
    spans += [
        (g.t, g.t) for g in tvg.graphs for m in g.maxima.tolist() if m not in linked
    ]
    return sorted(spans)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--dims", type=int, default=32)
    ap.add_argument("--steps", type=int, default=50)
    ap.add_argument("--sigma", type=float, default=0.08)
    ap.add_argument("--theta-frac", type=float, default=0.05)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()
    series = generate_gauss8(
        (args.dims, args.dims, args.dims), steps=args.steps, sigma=args.sigma
    )
    print(f"generated {len(series)} steps of {args.dims}^3 "
          f"[{time.perf_counter() - t0:.1f}s]")
    save_series(series, os.path.join(args.out, "data"))

    theta = args.theta_frac * series.global_range()
    t1 = time.perf_counter()
    tvg = compute_tveg(series, theta, ScoreWeights())
    print(f"pipeline done, theta={theta:.4f} [{time.perf_counter() - t1:.1f}s]")

    counts = [len(g.maxima) for g in tvg.graphs]
    print(f"maxima per step: min {min(counts)}, max {max(counts)}")
    n_arcs = len(tvg.all_arcs())
    ev = tvg.events
    half = args.steps // 2
    mg1 = sum(1 for e in ev.merges if e["time"] <= half)
    sp2 = sum(1 for e in ev.splits if e["time"] > half)
    print(f"temporal arcs: {n_arcs}")
    print(f"events: {len(ev.merges)} merges, {len(ev.splits)} splits, "
          f"{len(ev.deletions)} deletions, {len(ev.generations)} generations")
    print(f"first-half merges {mg1} vs second-half splits {sp2}")
    spans = component_spans(tvg)
    print(f"temporal-arc graph components: {len(spans)} (steps "
          + ", ".join(f"{lo}..{hi}" for lo, hi in spans) + ")")

    tvio.export_tveg_json(tvg, os.path.join(args.out, "tveg.json"))
    tracks = extract_tracks(tvg, mode="simple-paths")
    tvio.export_tracks_json(tracks, os.path.join(args.out, "tracks.json"))
    tvio.export_tracks_geometry(tracks, tvg, os.path.join(args.out, "tracks.vtk"))
    print(f"{len(tracks)} tracks -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
