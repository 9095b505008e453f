"""Benchmark workloads and their seeded inputs.

Each workload is a Gauss8 series (eight moving Gaussians, see
`tvex.field.generate_gauss8`) at some grid size, optionally with
seeded N(0, sd^2) noise, plus the persistence threshold the pipeline
runs with. The program under test only ever sees the files written
here.

Run as a script to write a run's series; the benchmark does this in a
child process so generation cannot set the peak RSS of the process that
runs the timed operations:

    python3 bench/workloads.py --params '[...]' --src src --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    dims: int  # cubic grid edge
    steps: int  # even: generate_gauss8 mirrors the second half
    theta: str  # persistence threshold as the CLI takes it
    noise: float  # sd of the added noise; 0 keeps the field smooth
    series: int  # independent series drawn from one seed; a round runs each
    sessions: int  # session passes per series and round
    smoke_dims: int  # toy grid edge for --smoke
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        # 262,144 voxels and 1-8 maxima per step: the per-voxel Morse
        # passes and the per-step arrays held to the end dominate.
        Workload(
            "gauss8-64", 64, 4, "0.05r", 0.0, 1, 20, 24,
            "smooth 64^3 Gauss8: per-voxel Morse passes and memory held per step dominate",
        ),
        # ~320 raw maxima per step cancelled down to the 8 blobs:
        # simplify's repeated re-pairing dominates. theta = 0.3r cancels
        # every noise maximum and no blob (0.2r did too; 0.5r merged two
        # blobs once), so the kept features, and the session's work on
        # them, do not depend on the noise draw. At 0.05r some 70-90
        # noise maxima per step survived, and the session's time moved
        # by 25% between seeds.
        # Four series per run average the raw maxima.
        Workload(
            "noisy-20", 20, 2, "0.3r", 0.05, 4, 10, 10,
            "noisy 20^3 at theta=0.3r: ~320 maxima per step cancelled down to the 8 blobs, simplify dominates",
        ),
        # theta = 0 keeps ~550 maxima and ~3,650 saddles per step: graph
        # assembly, linking, the tveg.json and the session over it dominate.
        # The tracks, and the exports' work with them, vary with the noise
        # draw, so each run averages two series.
        Workload(
            "dense-24", 24, 2, "0.0", 0.05, 2, 1, 10,
            "noisy 24^3 at theta=0: ~550 maxima per step kept, graphs, linking, JSON and the session dominate",
        ),
    )
}

SMOKE_STEPS = 4
GAUSS8_SIGMA = 0.08


def series_params(w: Workload, seed: int, smoke: bool, steps: int | None) -> list[dict]:
    """Everything that defines a run's input series, drawn from `seed`."""
    import numpy as np

    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    out = []
    for _ in range(w.series):
        params = {
            "dims": w.smoke_dims if smoke else w.dims,
            "steps": steps or (SMOKE_STEPS if smoke else w.steps),
            "amplitude": 1.0,
            "sigma": GAUSS8_SIGMA,
            "noise": w.noise,
            "noise_seed": int(rng.integers(2**31)),
        }
        if w.noise == 0.0:
            # a smooth field has nothing else to draw, so the seed sets
            # the blobs' height; theta scales with it, so the features
            # (and the work) stay the same
            params["amplitude"] = float(rng.uniform(0.9, 1.1))
        out.append(params)
    return out


def write_series(params: dict, out_dir: str) -> str:
    """Generate the series described by `params`; returns its manifest."""
    import numpy as np
    from tvex.field import generate_gauss8, save_series

    n = params["dims"]
    series = generate_gauss8(
        (n, n, n), params["steps"], amplitude=params["amplitude"], sigma=params["sigma"]
    )
    if params["noise"] > 0:
        rng = np.random.default_rng(params["noise_seed"])
        for f in series.fields:
            noisy = f.values + rng.normal(0.0, params["noise"], f.values.size)
            f.values = noisy.astype(np.float32).astype(np.float64)
    manifest = save_series(series, out_dir)
    with open(os.path.join(out_dir, "params.json"), "w") as fh:
        json.dump(params, fh, sort_keys=True)
    return manifest


def main() -> int:
    ap = argparse.ArgumentParser(description="write one run's input series")
    ap.add_argument("--params", required=True, help="JSON list from series_params")
    ap.add_argument("--src", required=True, help="directory holding the tvex package")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    for i, params in enumerate(json.loads(args.params)):
        print(write_series(params, os.path.join(args.out, f"series{i}")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
