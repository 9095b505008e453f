#!/usr/bin/env python3
"""Benchmark temporal-arc computation for one pair of steps.

Builds two synthetic maxima sets of the requested size and times the
full scoring -> filtering -> z-removal -> event-detection chain.

Usage:
    python3 scripts/benchmark_linking.py [--n 150] [--repeats 20]
"""

import argparse
import os
import sys
import time
from statistics import mean, median

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tvex.exgraph import ExtremumGraph
from tvex.temporal import ScoreWeights, link_pair


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=150)
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    g0 = synthetic_maxima(rng, args.n, 1)
    g1 = synthetic_maxima(rng, args.n, 2)

    link_pair(g0, g1, ScoreWeights())  # warm up
    times = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        arcs, ev, _ = link_pair(g0, g1, ScoreWeights())
        times.append(time.perf_counter() - t0)

    ms = [t * 1000 for t in times]
    print(f"n={args.n}: {len(arcs)} arcs, "
          f"{len(ev.merges)} merges / {len(ev.splits)} splits")
    print(f"median {median(ms):.2f} ms, mean {mean(ms):.2f} ms, "
          f"min {min(ms):.2f} ms, max {max(ms):.2f} ms over {args.repeats} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
