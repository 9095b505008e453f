#!/usr/bin/env python3
"""Benchmark temporal-arc computation for one pair of steps.

Builds two synthetic maxima sets of each requested size and times the
full scoring -> filtering -> z-removal -> event-detection chain
(`link_pair`, then the `detect_events` a Tveg runs on its arcs), then
each of those four stages on its own by calling the same
`tvex.temporal` functions in the same order. Last, apart from the
timed runs, it prints the `tracemalloc` peak of one `compute_scores`.

Usage:
    python3 scripts/benchmark_linking.py [--n 150 [600 ...]] [--repeats 20]
"""

import argparse
import os
import sys
import time
import tracemalloc
from statistics import mean, median

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tvex import temporal
from tvex.exgraph import ExtremumGraph
from tvex.temporal import ScoreWeights, link_pair

STAGES = ("scores", "filter", "z-removal", "events")


def synthetic_maxima(rng, n, t):
    """Graph of n maxima and no saddles at step t."""
    return ExtremumGraph(
        t=t,
        n_max=n,
        vertex=np.arange(n),
        coords=rng.uniform(-1.0, 1.0, (n, 3)),
        value=rng.uniform(0.5, 2.0, n),
        pers=rng.uniform(0.05, 1.0, n),
        eta=rng.uniform(0.1, 3.0, n),
    )


def staged_link(g0, g1, w):
    """link_pair's chain one stage at a time; returns the arcs and the
    seconds of each stage."""
    clock = [time.perf_counter()]
    arcs = temporal.compute_scores(g0, g1, w)
    clock.append(time.perf_counter())
    arcs, _ = temporal.filter_scores(arcs)
    clock.append(time.perf_counter())
    arcs = temporal.remove_z_configurations(arcs)
    clock.append(time.perf_counter())
    temporal.detect_events(arcs, g0.maxima.tolist(), g1.maxima.tolist(), g0.t)
    clock.append(time.perf_counter())
    return arcs, [b - a for a, b in zip(clock, clock[1:])]


def linked(g0, g1, w):
    """The work of one pair: `link_pair`, then the events of its arcs."""
    arcs, _ = link_pair(g0, g1, w)
    return arcs, temporal.detect_events(arcs, g0.maxima.tolist(), g1.maxima.tolist(), g0.t)


def run(n, repeats, seed):
    rng = np.random.default_rng(seed)
    g0 = synthetic_maxima(rng, n, 1)
    g1 = synthetic_maxima(rng, n, 2)
    w = ScoreWeights()

    linked(g0, g1, w)  # warm up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        arcs, ev = linked(g0, g1, w)
        times.append(time.perf_counter() - t0)
    split = []
    for _ in range(repeats):
        staged, seconds = staged_link(g0, g1, w)
        split.append(seconds)
    if staged != arcs:
        raise SystemExit("staged chain disagrees with link_pair")

    ms = [t * 1000 for t in times]
    print(f"n={n}: {len(arcs)} arcs, "
          f"{len(ev.merges)} merges / {len(ev.splits)} splits")
    print(f"median {median(ms):.2f} ms, mean {mean(ms):.2f} ms, "
          f"min {min(ms):.2f} ms, max {max(ms):.2f} ms over {repeats} runs")
    print("stage medians: " + ", ".join(
        f"{name} {median(s[i] for s in split) * 1000:.2f} ms"
        for i, name in enumerate(STAGES)
    ))
    tracemalloc.start()
    try:
        temporal.compute_scores(g0, g1, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"compute_scores traced peak {peak / 1e6:.1f} MB")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[150])
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for n in args.n:
        run(n, args.repeats, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
