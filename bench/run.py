#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of tvex on seeded workloads.

    python3 bench/run.py --workload dense-24 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports `tvex` from its
`src/`. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
recorded by spans around calls into tvex's modules (see spans.py).
`--smoke` runs the same code on toy inputs; see README.md.

A run draws the workload's series from --seed. One round is, for each
series, one `tvex tveg` operation (load_series -> compute_tveg ->
export_tveg_json) followed by the workload's session passes over the
written tveg.json (load, a fixed query mix, tracks JSON and VTK
exports, and a neighbourhood query through the CLI's flags). The run
repeats whole rounds until --seconds have passed and reports, for each
timing, the median over rounds of the round's mean, scaled to a fixed
machine speed by a reference operation run in every round (see
reference_op and README.md, "Machine speed").
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 3
TIMED = ("tveg_s", "load_s", "query_s", "export_s")

# The reference operation's time at this machine's fast speed (README,
# "Machine speed"); timings are reported in seconds at that speed.
REF_S = 0.025
# The reference operation's inputs: neither tvex nor the seed shapes
# them, so no change to either can change its time.
REF_DOC = json.dumps([
    {"id": [i % 7, i], "xyz": [i * 0.37 % 1, i * 0.61 % 1, i * 0.13 % 1],
     "v": i * 0.7 % 1, "arcs": [i + 1, i + 2]}
    for i in range(1500)
])
REF_FIELD = np.random.default_rng(0).random(100_000)

END_TO_END = {
    "setup_s": "s",
    "tveg_s": "s",
    "peak_rss_mb": "MB",
    "load_s": "s",
    "query_s": "s",
    "export_s": "s",
}

PER_LAYER = {
    "field.load_series_s": "s",
    "morse.vertex_order_s": "s",
    "morse.vertex_order_calls": "count",
    "morse.segmentation_s": "s",
    "morse.saddles_s": "s",
    "morse.persistence_s": "s",
    "morse.simplify_s": "s",
    "morse.raw_maxima": "count",
    "morse.raw_saddles": "count",
    "morse.kept_maxima": "count",
    "morse.kept_ratio": "ratio",
    "exgraph.build_self_s": "s",
    "exgraph.nodes": "count",
    "exgraph.arcs": "count",
    "temporal.scores_s": "s",
    "temporal.filter_s": "s",
    "temporal.zremoval_s": "s",
    "temporal.events_s": "s",
    "temporal.candidates": "count",
    "temporal.kept_tau": "count",
    "temporal.kept_z": "count",
    "temporal.arc_yield": "ratio",
    "pipeline.retained_mb": "MB",
    "pipeline.alloc_peak_mb": "MB",
    "io.export_tveg_s": "s",
    "io.tveg_json_mb": "MB",
    "io.load_tveg_s": "s",
    "io.export_tracks_s": "s",
    "io.export_vtk_s": "s",
    "io.vtk_mb": "MB",
    "tracks.simple_paths_s": "s",
    "tracks.components_s": "s",
    "tracks.count": "count",
    "query.length_threshold_s": "s",
    "query.least_deviation_s": "s",
    "query.region_s": "s",
    "query.window_events_s": "s",
    "query.neighborhood_s": "s",
    "cli.query_s": "s",
    "traced.tveg_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="measure for this long, in whole rounds (0: one round)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy-size inputs")
    ap.add_argument("--steps", type=int, default=None, help="override the series length")
    ap.add_argument("--threads", type=int, default=1, help="TVEX_THREADS for the pipeline")
    return ap.parse_args(argv)


def import_tvex():
    """Import tvex from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tvex", "__init__.py")):
        sys.exit(f"bench: no tvex sources in {SRC}")
    sys.path.insert(0, SRC)
    import tvex

    if os.path.dirname(os.path.dirname(os.path.abspath(tvex.__file__))) != SRC:
        sys.exit(f"bench: imported tvex from {tvex.__file__}, not from {SRC}")


def generate(params: list[dict], out_dir: str) -> list[str]:
    """Write the input series in a child process; returns their manifests."""
    shutil.rmtree(out_dir, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"),
         "--params", json.dumps(params), "--src", SRC, "--out", out_dir],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout.split()


def query_params(steps: int) -> dict:
    half = (steps + 1) // 2
    return {
        "k": half,
        "n": 10,
        "box": ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5)),
        "window": (1, half),
        "event_window": (2, max(2, steps - 1)),
        "hops": 2,
    }


class Bench:
    """The timed operations of one run and what they produced."""

    def __init__(self, manifest: str, theta: str, q: dict, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.manifest = manifest
        self.theta = theta
        self.q = q
        self.path = {
            name: os.path.join(out_dir, name)
            for name in ("tveg.json", "tracks.json", "tracks.vtk", "cli.json", "copy.json")
        }
        self.session_out: dict = {}
        self.digest = None

    def _fresh(self, *names: str) -> None:
        """Remove earlier outputs, so each operation writes new files:
        rewriting a truncated file can make the filesystem flush it on
        close (ext4 does), which would put disk latency into the timing."""
        for name in names:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.path[name])

    def tveg_op(self) -> float:
        """The work of `tvex tveg`; returns its seconds."""
        from tvex import field, io as tvio, pipeline
        from tvex.temporal import ScoreWeights

        self._fresh("tveg.json")
        t0 = time.perf_counter()
        series = field.load_series(self.manifest)
        theta = pipeline.resolve_theta(self.theta, series)
        tveg = pipeline.compute_tveg(series, theta, ScoreWeights())
        tvio.export_tveg_json(tveg, self.path["tveg.json"])
        return time.perf_counter() - t0

    def session(self) -> dict:
        """Load tveg.json, run the query mix and the exports; returns
        seconds per part and whether the CLI query succeeded."""
        from tvex import cli, io as tvio, query, tracks

        q = self.q
        self._fresh("tracks.json", "tracks.vtk")
        t0 = time.perf_counter()
        tveg = tvio.load_tveg_json(self.path["tveg.json"])
        t1 = time.perf_counter()
        paths = tracks.extract_tracks(tveg, "simple-paths")
        out = {
            "paths": paths,
            "components": tracks.extract_tracks(tveg, "components"),
            "longer": query.tracks_longer_than(paths, q["k"]),
            "least": query.least_deviation(paths, tveg, q["n"]),
            "region": query.select_in_region(tveg, q["box"], q["window"]),
            "events": query.events_in_window(tveg, q["event_window"]),
            "neighborhood": query.track_neighborhood(tveg, paths[0], q["hops"]),
        }
        t2 = time.perf_counter()
        tvio.export_tracks_json(paths, self.path["tracks.json"])
        tvio.export_tracks_geometry(paths, tveg, self.path["tracks.vtk"], include_spatial=True)
        t3 = time.perf_counter()
        # a neighbourhood query reached from flags alone
        argv = ["query", "--tveg", self.path["tveg.json"], "--kind", "neighborhood",
                "--seeds", *(str(n) for _, n in paths[0].nodes),
                "--hops", str(q["hops"]), "-o", self.path["cli.json"]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            out["cli_rc"] = cli.main(argv)
        self.session_out = out
        return {"load_s": t1 - t0, "query_s": t2 - t1, "export_s": t3 - t2,
                "cli_ok": out["cli_rc"] == 0}

    def memory_op(self) -> dict:
        """tracemalloc figures for one compute_tveg (traced runs only)."""
        from tvex import field, pipeline
        from tvex.temporal import ScoreWeights

        series = field.load_series(self.manifest)
        theta = pipeline.resolve_theta(self.theta, series)
        gc.collect()
        tracemalloc.start()
        try:
            tveg = pipeline.compute_tveg(series, theta, ScoreWeights())
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del tveg
        return {"pipeline.retained_mb": retained / 1e6, "pipeline.alloc_peak_mb": peak / 1e6}

    def check(self, workload: str, params: dict) -> list[str]:
        """Every output check on the last round's outputs."""
        import checks
        from tvex import field

        with open(self.path["tveg.json"]) as fh:
            doc = json.load(fh)
        out = self.session_out
        errs = []
        if workload == "gauss8-64":
            errs += checks.check_gauss8(doc, params)
        else:
            fields = field.load_series(self.manifest).fields
            if workload == "noisy-20":
                errs += checks.check_oracle_maxima(doc, fields)
            else:
                errs += checks.check_local_maxima(doc, fields)
        errs += checks.check_linking(doc)
        errs += checks.check_roundtrip(self.path["tveg.json"], self.path["copy.json"])
        errs += checks.check_simple_paths(out["paths"], doc)
        errs += checks.check_components(out["components"], doc)
        errs += checks.check_vtk(self.path["tracks.vtk"], out["paths"], doc)
        errs += checks.check_queries(out, self.q, doc)
        if out["cli_rc"] == 0:
            errs += checks.check_cli_neighborhood(self.path["cli.json"], out["neighborhood"])
        return errs


def reference_op() -> float:
    """Seconds of a fixed task that measures the machine's speed at the
    moment: about half interpreted Python (a JSON round trip and an
    integer loop) and half numpy (a stable argsort and a gather), as
    tvex's own work is. The cyclic GC is off, so the live heap left by
    tvex cannot slow it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        json.dumps(json.loads(REF_DOC))
        x = 0
        for i in range(30000):
            x += i * i % 7
        order = np.argsort(REF_FIELD, kind="stable")
        np.cumsum(REF_FIELD[order])
        return time.perf_counter() - t0
    finally:
        gc.enable()


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def median_of(samples: list[dict]) -> dict:
    keys = {k for s in samples for k in s}
    return {k: statistics.median(s.get(k, 0) for s in samples) for k in keys}


def run(args, work_dir: str) -> tuple[dict, list[str]]:
    from workloads import WORKLOADS, series_params
    import spans

    w = WORKLOADS[args.workload]
    params = series_params(w, args.seed, args.smoke, args.steps)
    import_s = time.perf_counter() - START

    q = query_params(params[0]["steps"])
    setups, setup_refs = [], []
    for _ in range(SETUP_REPEATS):
        setup_refs.append(reference_op())
        s0 = time.perf_counter()
        manifests = generate(params, os.path.join(work_dir, "inputs"))
        benches = [Bench(m, w.theta, q, os.path.join(work_dir, f"out{i}"))
                   for i, m in enumerate(manifests)]
        benches[0].tveg_op()  # warm-up, untimed
        for _ in range(w.sessions):
            benches[0].session()
        setups.append(time.perf_counter() - s0)
        setup_refs.append(reference_op())
    raw = {"setup_s": import_s + statistics.median(setups)}
    setup_s = raw["setup_s"] * REF_S / statistics.median(setup_refs)

    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)
    errs: list[str] = []
    # per round, the mean of each timing over the round's operations, and
    # that mean in seconds at reference speed: divided by the mean of the
    # reference operations run between them (README, "Machine speed")
    raw_rounds: dict[str, list[float]] = {k: [] for k in (*TIMED, "ref")}
    rounds: dict[str, list[float]] = {k: [] for k in TIMED}
    tveg_layers, session_layers = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        this_round: dict[str, list[float]] = {k: [] for k in (*TIMED, "ref")}
        for bench in benches:
            gc.collect()
            this_round["ref"].append(reference_op())
            this_round["tveg_s"].append(bench.tveg_op())
            attempted += 1
            if rec:
                tveg_layers.append(rec.take())
            d = digest(bench.path["tveg.json"])
            if bench.digest not in (None, d):
                errs.append("tveg.json differs between rounds")
            bench.digest = d
            this_round["ref"].append(reference_op())
            for _ in range(w.sessions):
                gc.collect()
                sample = bench.session()
                for k in TIMED[1:]:
                    this_round[k].append(sample[k])
                attempted += 11  # load, seven queries, two exports, the CLI query
                failed += not sample["cli_ok"]
                if rec:
                    session_layers.append(rec.take())
        for k, samples in this_round.items():
            raw_rounds[k].append(statistics.fmean(samples))
        for k in TIMED:
            rounds[k].append(raw_rounds[k][-1] * REF_S / raw_rounds["ref"][-1])
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if rec:
        layers = median_of(tveg_layers)
        layers.update(median_of(session_layers))
        layers.update(benches[0].memory_op())
        layers["traced.tveg_s"] = statistics.median(rounds["tveg_s"])
        layers["morse.kept_ratio"] = layers["morse.kept_maxima"] / layers["morse.raw_maxima"]
        layers["temporal.arc_yield"] = layers["temporal.kept_z"] / layers["temporal.candidates"]
        layers.update(median_of([{
            "io.tveg_json_mb": os.path.getsize(b.path["tveg.json"]) / 1e6,
            "io.vtk_mb": os.path.getsize(b.path["tracks.vtk"]) / 1e6,
            "tracks.count": len(b.session_out["paths"]),
        } for b in benches]))
        metrics = {k: {"value": layers.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
    else:
        raw.update((k, statistics.median(v)) for k, v in raw_rounds.items())
        print(f"bench: {len(rounds['tveg_s'])} rounds; unscaled medians: "
              + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()), file=sys.stderr)
        values = {k: statistics.median(v) for k, v in rounds.items()}
        values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    for bench, p in zip(benches, params):
        errs += bench.check(w.name, p)
    result = {
        "correct": not errs,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, errs


def main(argv=None) -> int:
    args = parse_args(argv)
    # one pipeline thread, one BLAS thread: the runs stay under nproc = 2
    os.environ["TVEX_THREADS"] = str(args.threads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_tvex()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work_dir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result, errs = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for e in errs:
        print(f"check failed: {e}", file=sys.stderr)
    line = json.dumps(result)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", tag + ".json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
