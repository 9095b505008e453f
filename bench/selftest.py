"""Tests of the benchmark itself: every output check passes on real
output and fails on a planted corruption, and the smoke mode runs each
workload end to end in seconds.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, series_params, write_series  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One smoke-size round per workload: (bench, parsed tveg.json, params)."""
    out = {}
    for name, w in WORKLOADS.items():
        d = str(tmp_path_factory.mktemp(name))
        params = series_params(w, 7, smoke=True, steps=None)[0]
        manifest = write_series(params, os.path.join(d, "inputs"))
        bench = run.Bench(manifest, w.theta, run.query_params(params["steps"]), d)
        bench.tveg_op()
        bench.session()
        with open(bench.path["tveg.json"]) as fh:
            out[name] = (bench, json.load(fh), params)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_on_real_output(outputs, name):
    bench, _, params = outputs[name]
    assert bench.check(name, params) == []


def _fields(bench):
    from tvex import field

    return field.load_series(bench.manifest).fields


def _fails(errs, text):
    assert any(text in e for e in errs), errs


def test_oracle_maxima_catch_wrong_persistence(outputs):
    bench, doc, _ = outputs["noisy-20"]
    doc = copy.deepcopy(doc)
    node = next(n for n in doc["steps"][1]["nodes"] if n["index"] == 3)
    node["pers"] *= 1 + 1e-12
    _fails(checks.check_oracle_maxima(doc, _fields(bench)), "oracle")


def test_local_maxima_catch_a_missing_maximum(outputs):
    bench, doc, _ = outputs["dense-24"]
    doc = copy.deepcopy(doc)
    nodes = doc["steps"][2]["nodes"]
    nodes.remove(next(n for n in nodes if n["index"] == 3))
    _fails(checks.check_local_maxima(doc, _fields(bench)), "local maxima")


def test_gauss8_catches_asymmetry_and_a_lost_maximum(outputs):
    _, doc, params = outputs["gauss8-64"]
    bad = copy.deepcopy(doc)
    bad["steps"][1]["nodes"][0]["eta"] += 1e-9
    _fails(checks.check_gauss8(bad, params), "mirrored")
    bad = copy.deepcopy(doc)
    nodes = bad["steps"][0]["nodes"]
    nodes.remove(next(n for n in nodes if n["index"] == 3))
    _fails(checks.check_gauss8(bad, params), "7 maxima")


def _pair(doc, t=1):
    return next(p for p in doc["temporal_arcs"] if p["t"] == t)


def _maxima(doc, t):
    return [n for n in doc["steps"][t - 1]["nodes"] if n["index"] == 3]


def _plain(doc, t=1):
    return checks.plain_scores(_maxima(doc, t), _maxima(doc, t + 1), doc["weights"])


def test_linking_catches_an_arc_that_skips_a_step(outputs):
    doc = copy.deepcopy(outputs["dense-24"][1])
    _pair(doc)["arcs"][0][1] = _maxima(doc, 3)[0]["id"]
    _fails(checks.check_linking(doc), "does not join step 1 to 2")


def test_linking_catches_out_degree_three(outputs):
    doc = copy.deepcopy(outputs["dense-24"][1])
    arcs = _pair(doc)["arcs"]
    src = arcs[0][0]
    used = {a[1] for a in arcs if a[0] == src}
    for m in _maxima(doc, 2):
        if len([a for a in arcs if a[0] == src]) >= 3:
            break
        if m["id"] not in used:
            arcs.append([src, m["id"], 0.0])
    _fails(checks.check_linking(doc), "out-degree 3")


def test_linking_catches_a_z_configuration(outputs):
    doc = copy.deepcopy(outputs["dense-24"][1])
    arcs = _pair(doc)["arcs"]
    # a source that splits, linked to a target that already merges
    split = next(a[0] for a in arcs if sum(b[0] == a[0] for b in arcs) == 1)
    merge = next(a[1] for a in arcs if sum(b[1] == a[1] for b in arcs) >= 1 and a[0] != split)
    arcs.append([split, merge, 0.0])
    _fails(checks.check_linking(doc), "z-configuration")


def test_linking_catches_a_wrong_score_and_tau(outputs):
    doc = copy.deepcopy(outputs["dense-24"][1])
    _pair(doc)["arcs"][0][2] += 1e-9
    _fails(checks.check_linking(doc), "recomputed")
    doc = copy.deepcopy(outputs["dense-24"][1])
    _pair(doc)["filter"]["tau"] += 1e-12
    _fails(checks.check_linking(doc), "recomputed mu")


def test_linking_catches_a_target_outside_the_two_best(outputs):
    doc = copy.deepcopy(outputs["dense-24"][1])
    arc = _pair(doc)["arcs"][0]
    i = [n["id"] for n in _maxima(doc, 1)].index(arc[0])
    S = _plain(doc)
    j = int(S[i].argmax())
    arc[1], arc[2] = _maxima(doc, 2)[j]["id"], float(S[i, j])
    _fails(checks.check_linking(doc), "two best")


def test_linking_catches_a_dropped_arc_and_event(outputs):
    doc = copy.deepcopy(outputs["dense-24"][1])
    pair = _pair(doc)
    S, m0, m1 = _plain(doc), _maxima(doc, 1), _maxima(doc, 2)
    under = [(m0[i]["id"], m1[j]["id"]) for i in range(len(m0))
             for j in np.argsort(S[i], kind="stable")[:2] if S[i, j] < pair["filter"]["tau"]]
    out_deg, in_deg = Counter(a for a, _ in under), Counter(b for _, b in under)
    # an arc no z-configuration could have removed
    lone = next(a for a in pair["arcs"] if out_deg[a[0]] == 1 and in_deg[a[1]] == 1)
    pair["arcs"].remove(lone)
    _fails(checks.check_linking(doc), "dropped outside a z-configuration")
    doc = copy.deepcopy(outputs["dense-24"][1])
    doc["events"]["deletions"].pop()
    _fails(checks.check_linking(doc), "deletions")


def test_roundtrip_catches_non_canonical_json(outputs, tmp_path):
    bench, doc, _ = outputs["dense-24"]
    path = str(tmp_path / "tveg.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    _fails(checks.check_roundtrip(path, str(tmp_path / "copy.json")), "changes")


def test_tracks_checks_catch_lost_and_merged_arcs(outputs):
    bench, doc, _ = outputs["dense-24"]
    paths = copy.deepcopy(bench.session_out["paths"])
    long = next(tr for tr in paths if len(tr.arcs) > 1)
    long.arcs.pop()
    long.nodes.pop()
    _fails(checks.check_simple_paths(paths, doc), "exactly once")
    comps = copy.deepcopy(bench.session_out["components"])
    comps[0].nodes += comps.pop(1).nodes
    _fails(checks.check_components(comps, doc), "found by BFS")


def test_vtk_check_catches_missing_spatial_arcs(outputs, tmp_path):
    from tvex import io as tvio

    bench, doc, _ = outputs["dense-24"]
    paths = bench.session_out["paths"]
    path = str(tmp_path / "tracks.vtk")
    tvio.export_tracks_geometry(paths, tvio.load_tveg_json(bench.path["tveg.json"]), path)
    _fails(checks.check_vtk(path, paths, doc), "VTK has")


@pytest.mark.parametrize("part,text", [
    ("longer", "length threshold"),
    ("least", "least-deviation"),
    ("region", "region"),
    ("events", "window events"),
    ("neighborhood", "neighbourhood"),
])
def test_query_check_catches_each_wrong_result(outputs, part, text):
    bench, doc, _ = outputs["dense-24"]
    res = copy.deepcopy(bench.session_out)
    assert checks.check_queries(res, bench.q, doc) == []
    if part in ("longer", "least"):
        res[part] = res[part][1:] if part == "longer" else res[part][::-1][:1] + res[part][1:]
    elif part == "region":
        res[part].maxima.append(-1)
    elif part == "events":
        res[part].generations.append((-1, 2))
    else:
        res[part][1].append(-1)
    _fails(checks.check_queries(res, bench.q, doc), text)


def test_cli_check_compares_with_the_library(outputs, tmp_path):
    bench = outputs["dense-24"][0]
    nb = bench.session_out["neighborhood"]
    path = str(tmp_path / "cli.json")
    with open(path, "w") as fh:
        json.dump({"neighborhood": {str(t): n for t, n in nb.items()}}, fh)
    assert checks.check_cli_neighborhood(path, nb) == []
    with open(path, "w") as fh:
        json.dump({"neighborhood": {}}, fh)
    _fails(checks.check_cli_neighborhood(path, nb), "differs")


def _run(args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(name, trace):
    proc = _run(["--workload", name, "--seed", "3", "--smoke", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    # the flags-only neighbourhood query fails once per session pass
    w = WORKLOADS[name]
    assert result["failed"] == w.series * w.sessions
    assert result["attempted"] == w.series * (1 + 11 * w.sessions)
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as fh:
            spec = json.load(fh)
        key = "per_layer" if trace else "end_to_end"
        assert {m["name"]: m["unit"] for m in spec[key]} == want
        assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "dense-24", "--seed", "1", "--smoke"],
                cwd=str(tmp_path), script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
