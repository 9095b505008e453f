#!/usr/bin/env python3
"""Benchmark the per-step Morse pass stage by stage.

Builds one smooth 64^3 Gauss8 step (theta = 0.05 r), one noisy 24^3
Gauss8 step (noise sd 0.05, theta = 0) and one noisy 64^3 Gauss8 step
whose float64 values are not rounded to float32 (noise sd 0.05,
theta = 0; its voxel order takes the stable argsort rather than the
float32 code), then times `morse_step` and each of its stages on its
own -- `vertex_order`, `compute_segmentation`, `compute_saddles` and
`simplify` -- by calling the same `tvex.morse` functions in the same
order. Each figure is the best of `--repeats` runs.

Usage:
    python3 scripts/benchmark_morse.py [--case gauss8-64 [noisy-24 ...]] [--repeats 9]
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tvex import morse
from tvex.field import generate_gauss8

STAGES = ("vertex_order", "segmentation", "saddles", "simplify")
# name: (grid edge, noise sd, theta as a fraction of the value range,
# whether the noisy values are rounded to float32 as a `<f4` volume is)
CASES = {
    "gauss8-64": (64, 0.0, 0.05, True),
    "noisy-24": (24, 0.05, 0.0, True),
    "noisy-64-f64": (64, 0.05, 0.0, False),
}


def case_field(name, seed):
    """The first step of the case's Gauss8 series and its theta."""
    edge, noise, frac, single = CASES[name]
    f = generate_gauss8((edge, edge, edge), 2).fields[0]
    if noise > 0:
        rng = np.random.default_rng(seed)
        f.values = f.values + rng.normal(0.0, noise, f.values.size)
        if single:
            f.values = f.values.astype(np.float32).astype(np.float64)
    return f, frac * float(np.ptp(f.values))


def staged_step(f, theta):
    """morse_step one stage at a time; returns the raw and simplified
    segmentations and the seconds of each stage."""
    clock = [time.perf_counter()]
    order = morse.vertex_order(f)
    clock.append(time.perf_counter())
    raw = morse.compute_segmentation(f, order)
    clock.append(time.perf_counter())
    raw = morse.compute_saddles(raw, order)
    clock.append(time.perf_counter())
    seg = morse.simplify(raw, theta, order[0])
    clock.append(time.perf_counter())
    return raw, seg, [b - a for a, b in zip(clock, clock[1:])]


def same(a, b):
    return all(
        np.array_equal(getattr(a, k), getattr(b, k))
        for k in ("labels", "maxima", "pers", "pairs", "saddles")
    )


def run(name, repeats, seed):
    f, theta = case_field(name, seed)
    whole = morse.morse_step(f, theta)  # warm up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        morse.morse_step(f, theta)
        times.append(time.perf_counter() - t0)
    split = []
    for _ in range(repeats):
        raw, seg, seconds = staged_step(f, theta)
        split.append(seconds)
    if not same(seg, whole):
        raise SystemExit("staged pass disagrees with morse_step")

    print(f"{name}: {f.num_voxels} voxels, {len(raw.maxima)} raw maxima, "
          f"{len(raw.saddles)} raw saddles, {len(seg.maxima)} kept")
    print(f"morse_step best {min(times) * 1000:.2f} ms over {repeats} runs")
    print("stage bests: " + ", ".join(
        f"{stage} {min(s[i] for s in split) * 1000:.2f} ms"
        for i, stage in enumerate(STAGES)
    ))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--case", choices=sorted(CASES), nargs="+", default=list(CASES))
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for name in args.case:
        run(name, args.repeats, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
