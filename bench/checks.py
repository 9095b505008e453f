"""Output checks for the benchmark.

Every check recomputes what it needs apart from the pipeline (plain
numpy comparisons, sorts, filters and BFS over the exported
`tveg.json`) or tests a property the method must have. None compares
against a stored copy of earlier output. Each returns a list of
failure messages; an empty list means the check passed.

`doc` is a parsed `tveg.json`:
  steps[{t, nodes[{id, index, x, value, pers, eta, vertex, t}], arcs[[max, saddle]]}],
  temporal_arcs[{t, arcs[[m0, m1, s]], filter{mu, sigma, tau}}],
  events{merges, splits, deletions, generations}, weights{G, L1, L2, L3}, theta.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict

import numpy as np

ULPS = 8  # scores and tau are recomputed in another summation order

NEIGHBOR_OFFSETS = [
    (dz, dy, dx)
    for dz in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dx in (-1, 0, 1)
    if (dz, dy, dx) != (0, 0, 0)
]


def _close(a: float, b: float, ulps: int = ULPS) -> bool:
    return abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b), 1e-300))


def _key(record) -> str:
    return json.dumps(record, sort_keys=True)


def _maxima(step: dict) -> list[dict]:
    return [n for n in step["nodes"] if n["index"] == 3]


def _first(errs: list[str], limit: int = 5) -> list[str]:
    return errs if len(errs) <= limit else errs[:limit] + [f"... {len(errs) - limit} more"]


# --- per-step maxima -------------------------------------------------------


def check_oracle_maxima(doc: dict, fields) -> list[str]:
    """Kept maxima and persistence equal the merge-tree oracle's maxima
    with persistence >= theta, at every step."""
    from tvex.morse import merge_tree_oracle

    theta = doc["theta"]
    errs = []
    for step, f in zip(doc["steps"], fields):
        want = {v: p for v, p in merge_tree_oracle(f).items() if p >= theta}
        got = {n["vertex"]: n["pers"] for n in _maxima(step)}
        if got != want:
            diff = sorted(set(got.items()) ^ set(want.items()))[:3]
            errs.append(f"t={step['t']}: maxima differ from the oracle, e.g. {diff}")
    return errs


def check_local_maxima(doc: dict, fields) -> list[str]:
    """With theta = 0, each step's maxima are exactly the voxels that beat
    all 26 neighbours under (value, voxel id)."""
    errs = []
    for step, f in zip(doc["steps"], fields):
        nx, ny, nz = f.dims
        vals = np.pad(f.values.reshape(nz, ny, nx), 1, constant_values=-np.inf)
        ids = np.pad(np.arange(nx * ny * nz).reshape(nz, ny, nx), 1, constant_values=-1)
        core = (slice(1, -1),) * 3
        v, i = vals[core], ids[core]
        beats = np.ones(v.shape, dtype=bool)
        for dz, dy, dx in NEIGHBOR_OFFSETS:
            nb = (slice(1 + dz, 1 + dz + nz), slice(1 + dy, 1 + dy + ny), slice(1 + dx, 1 + dx + nx))
            beats &= (v > vals[nb]) | ((v == vals[nb]) & (i > ids[nb]))
        want = np.flatnonzero(beats).tolist()
        got = sorted(n["vertex"] for n in _maxima(step))
        if got != want:
            errs.append(
                f"t={step['t']}: {len(got)} maxima, {len(want)} local maxima; "
                f"e.g. {sorted(set(got) ^ set(want))[:3]}"
            )
    return errs


def check_gauss8(doc: dict, params: dict) -> list[str]:
    """Separated steps have 8 maxima near the centres; steps t and
    T+1-t hold equal attribute multisets (the series is mirrored)."""
    from tvex.field import gauss8_centers

    steps = params["steps"]
    spacing = 2.0 / (params["dims"] - 1)
    by_t = {s["t"]: s for s in doc["steps"]}
    errs = []
    for t, step in by_t.items():
        c = gauss8_centers(t, steps)
        gaps = np.linalg.norm(c[:, None] - c[None], axis=2) + np.eye(len(c)) * 1e9
        if gaps.min() <= 6 * params["sigma"]:
            continue
        mx = _maxima(step)
        far = [
            n["id"] for n in mx
            if np.linalg.norm(c - np.asarray(n["x"]), axis=1).min() > spacing
        ]
        if len(mx) != 8 or far:
            errs.append(f"t={t}: {len(mx)} maxima, {len(far)} farther than a spacing from a centre")

    def attrs(step):
        return Counter(
            (n["index"], n["value"], n["pers"], n["eta"], n["vertex"], tuple(n["x"]))
            for n in step["nodes"]
        )

    for t in range(1, steps // 2 + 1):
        if attrs(by_t[t]) != attrs(by_t[steps + 1 - t]):
            errs.append(f"steps {t} and {steps + 1 - t} differ although the field is mirrored")
    return errs


# --- temporal linking -------------------------------------------------------


def plain_scores(m0: list[dict], m1: list[dict], w: dict) -> np.ndarray:
    """Score matrix from node attributes: weighted sum of the four
    component differences, each divided by its largest value."""
    def col(nodes, key):
        return np.array([n[key] for n in nodes], dtype=np.float64)

    comps = [
        np.abs(col(m0, "pers")[:, None] - col(m1, "pers")[None]),
        np.abs(col(m0, "value")[:, None] - col(m1, "value")[None]),
        np.sqrt(sum(
            (np.array([n["x"][k] for n in m0])[:, None] - np.array([n["x"][k] for n in m1])[None]) ** 2
            for k in range(3)
        )),
        np.abs(col(m0, "eta")[:, None] - col(m1, "eta")[None]),
    ]
    comps = [c / c.max() if c.max() > 0 else np.zeros_like(c) for c in comps]
    return w["G"] * comps[0] + w["L1"] * comps[1] + w["L2"] * comps[2] + w["L3"] * comps[3]


def check_linking(doc: dict) -> list[str]:
    """Arcs join consecutive steps, out-degree <= 2, no z-configurations,
    scores and tau agree with a recomputation, kept targets are among the
    source's two best, and events match the arc degrees."""
    errs = []
    steps = {s["t"]: s for s in doc["steps"]}
    ts = sorted(steps)
    node_t = {n["id"]: t for t, s in steps.items() for n in _maxima(s)}
    pairs = {p["t"]: p for p in doc["temporal_arcs"]}
    if sorted(pairs) != ts[:-1]:
        errs.append(f"temporal pairs {sorted(pairs)} for steps {ts}")
    want_events = {"merges": [], "splits": [], "deletions": [], "generations": []}
    for t in sorted(pairs):
        arcs = pairs[t]["arcs"]
        out_deg = Counter(a[0] for a in arcs)
        in_deg = Counter(a[1] for a in arcs)
        for m0, m1, _ in arcs:
            if node_t.get(m0) != t or node_t.get(m1) != t + 1:
                errs.append(f"arc {m0}->{m1} does not join step {t} to {t + 1}")
        if out_deg and max(out_deg.values()) > 2:
            errs.append(f"t={t}: out-degree {max(out_deg.values())}")
        z = [a for a in arcs if out_deg[a[0]] >= 2 and in_deg[a[1]] >= 2]
        if z:
            errs.append(f"t={t}: z-configuration arcs {z[:3]}")
        later = _maxima(steps.get(t + 1, {"nodes": []}))
        errs += _check_scores(t, _maxima(steps[t]), later, pairs[t], doc["weights"])
        srcs, dsts = defaultdict(list), defaultdict(list)
        for m0, m1, _ in arcs:
            srcs[m1].append(m0)
            dsts[m0].append(m1)
        want_events["merges"] += [
            {"node": m, "time": t + 1, "participants": sorted(p)} for m, p in srcs.items() if len(p) > 1
        ]
        want_events["splits"] += [
            {"node": m, "time": t, "participants": sorted(p)} for m, p in dsts.items() if len(p) > 1
        ]
        want_events["deletions"] += [[n["id"], t] for n in _maxima(steps[t]) if n["id"] not in out_deg]
        want_events["generations"] += [[n["id"], t + 1] for n in later if n["id"] not in in_deg]
    for kind, want in want_events.items():
        got = doc["events"][kind]
        if sorted(map(_key, got)) != sorted(map(_key, want)):
            errs.append(f"{kind}: {len(got)} recorded, {len(want)} implied by the arc degrees")
    return _first(errs)


def _check_scores(t: int, m0: list[dict], m1: list[dict], pair: dict, w: dict) -> list[str]:
    if not m0 or not m1:
        return [f"t={t}: arcs with an empty side"] if pair["arcs"] else []
    S = plain_scores(m0, m1, w)
    ids0 = {n["id"]: i for i, n in enumerate(m0)}
    ids1 = {n["id"]: j for j, n in enumerate(m1)}
    # candidates: the two best targets per source, ties by target id
    cands = []
    for i, n in enumerate(m0):
        best = sorted(range(len(m1)), key=lambda j: (S[i, j], m1[j]["id"]))[:2]
        cands += [(n["id"], m1[j]["id"], float(S[i, j])) for j in best]
    ys = [s for _, _, s in cands]
    mu = math.fsum(ys) / len(ys)
    sigma = 0.0 if min(ys) == max(ys) else math.sqrt(math.fsum((y - mu) ** 2 for y in ys) / len(ys))
    tau = mu + sigma
    errs = []
    f = pair["filter"]
    if not (_close(f["mu"], mu) and _close(f["sigma"], sigma) and _close(f["tau"], tau)):
        errs.append(f"t={t}: filter {f} but recomputed mu={mu!r} sigma={sigma!r} tau={tau!r}")
    kept = set()
    for a0, a1, s in pair["arcs"]:
        i, j = ids0.get(a0), ids1.get(a1)
        if i is None or j is None:
            continue  # reported by the step check
        kept.add((a0, a1))
        if not _close(s, float(S[i, j])):
            errs.append(f"t={t}: arc {a0}->{a1} score {s!r}, recomputed {float(S[i, j])!r}")
        second = sorted(S[i])[min(1, len(m1) - 1)]
        if S[i, j] > second and not _close(float(S[i, j]), float(second)):
            errs.append(f"t={t}: arc {a0}->{a1} is not among its source's two best")
        if sigma > 0 and s >= tau and not _close(s, tau):
            errs.append(f"t={t}: arc {a0}->{a1} score {s!r} >= tau {tau!r}")
    # a candidate under tau that was dropped must have sat in a z-configuration
    under = [(a, b) for a, b, s in cands if sigma == 0 or (s < tau and not _close(s, tau))]
    out_deg = Counter(a for a, _ in under)
    in_deg = Counter(b for _, b in under)
    for a, b in under:
        if (a, b) not in kept and (out_deg[a] < 2 or in_deg[b] < 2):
            errs.append(f"t={t}: candidate {a}->{b} under tau dropped outside a z-configuration")
    return errs


# --- exports and queries ----------------------------------------------------


def check_roundtrip(tveg_path: str, copy_path: str) -> list[str]:
    """export -> load -> export reproduces the file byte for byte."""
    from tvex import io as tvio

    tvio.export_tveg_json(tvio.load_tveg_json(tveg_path), copy_path)
    with open(tveg_path, "rb") as a, open(copy_path, "rb") as b:
        same = a.read() == b.read()
    return [] if same else ["tveg.json changes on export -> load -> export"]


def _temporal_arcs(doc: dict) -> list[tuple[int, int]]:
    return [(a[0], a[1]) for p in doc["temporal_arcs"] for a in p["arcs"]]


def check_simple_paths(paths, doc: dict) -> list[str]:
    """Simple paths advance one step per arc and cover each temporal arc
    exactly once."""
    errs = []
    covered = Counter(arc for tr in paths for arc in tr.arcs)
    if covered != Counter(_temporal_arcs(doc)):
        errs.append("simple paths do not cover each temporal arc exactly once")
    for tr in paths:
        ids = [n for _, n in tr.nodes]
        times = [t for t, _ in tr.nodes]
        if list(zip(ids, ids[1:])) != list(tr.arcs) or times != list(range(times[0], times[0] + len(times))):
            errs.append(f"path from {tr.nodes[0]} does not advance one step per arc")
    return _first(errs)


def check_components(comps, doc: dict) -> list[str]:
    """Components partition the arc endpoints into the connected
    components of the temporal-arc graph (found here by BFS)."""
    adj = defaultdict(set)
    for a, b in _temporal_arcs(doc):
        adj[a].add(b)
        adj[b].add(a)
    seen, want = set(), set()
    for start in adj:
        if start in seen:
            continue
        comp, todo = {start}, [start]
        while todo:
            for nb in adj[todo.pop()]:
                if nb not in comp:
                    comp.add(nb)
                    todo.append(nb)
        seen |= comp
        want.add(frozenset(comp))
    got = [frozenset(n for _, n in tr.nodes) for tr in comps]
    if len(set(got)) != len(got) or set(got) != want:
        return [f"{len(got)} components do not match the {len(want)} found by BFS"]
    return []


def check_vtk(vtk_path: str, paths, doc: dict) -> list[str]:
    """VTK point and line counts match the tracks plus their spatial arcs."""
    spatial = Counter(m for s in doc["steps"] for m, _ in s["arcs"])
    extra = sum(spatial[n] for tr in paths for _, n in tr.nodes)
    want_points = sum(len(tr.nodes) for tr in paths) + extra
    want_lines = sum(len(tr.arcs) for tr in paths) + extra
    points = lines = None
    with open(vtk_path) as fh:
        for line in fh:
            if line.startswith("POINTS "):
                points = int(line.split()[1])
            elif line.startswith("LINES "):
                lines = int(line.split()[1])
                break
    if (points, lines) != (want_points, want_lines):
        return [f"VTK has {points} points, {lines} lines; tracks give {want_points}, {want_lines}"]
    return []


def plain_neighborhood(doc: dict, seeds: list[int], hops: int) -> dict[int, list[int]]:
    """BFS of `hops` steps through each seed's step arcs."""
    arcs = {s["t"]: s["arcs"] for s in doc["steps"]}
    out = defaultdict(set)
    for seed in seeds:
        t = seed >> 32
        adj = defaultdict(set)
        for m, s in arcs[t]:
            adj[m].add(s)
            adj[s].add(m)
        ball, frontier = {seed}, {seed}
        for _ in range(hops):
            frontier = {nb for n in frontier for nb in adj[n]} - ball
            ball |= frontier
        out[t] |= ball
    return {t: sorted(nodes) for t, nodes in sorted(out.items())}


def check_queries(res: dict, q: dict, doc: dict) -> list[str]:
    """Query results equal plain filters, sorts and BFS over `doc`.

    `res` holds the session's results: paths, longer, least, region,
    events, neighborhood; `q` its parameters: k, n, box, window,
    event_window, hops.
    """
    errs = []
    paths = res["paths"]

    def span(tr):
        ts = [t for t, _ in tr.nodes]
        return max(ts) - min(ts) + 1

    if [tr.nodes for tr in res["longer"]] != [tr.nodes for tr in paths if span(tr) >= q["k"]]:
        errs.append("length threshold differs from a plain filter")

    xs = {n["id"]: n["x"] for s in doc["steps"] for n in s["nodes"]}

    def dev(tr):
        pts = [xs[n] for _, n in tr.nodes]
        return math.fsum(math.dist(a, b) for a, b in zip(pts, pts[1:])) / max(1, len(pts) - 1)

    want = sorted((dev(tr), tr.nodes[0][1]) for tr in paths)[: q["n"]]
    got = [(dev(tr), tr.nodes[0][1]) for tr in res["least"]]
    if len(got) != len(want) or not all(
        _close(a[0], b[0], 64) or a == b for a, b in zip(got, want)
    ):
        errs.append("least-deviation tracks are not the plain sort's first n")

    lo, hi = np.asarray(q["box"][0]), np.asarray(q["box"][1])
    t0, t1 = q["window"]
    chosen = {
        n["id"] for s in doc["steps"] if t0 <= s["t"] <= t1 for n in _maxima(s)
        if np.all(lo <= n["x"]) and np.all(np.asarray(n["x"]) <= hi)
    }
    spatial = sorted((m, s) for st in doc["steps"] for m, s in st["arcs"] if m in chosen)
    region = res["region"]
    if (
        region.maxima != sorted(chosen)
        or region.spatial_arcs != spatial
        or region.saddles != sorted({s for _, s in spatial})
        or [(a.m0, a.m1, a.s) for a in region.temporal_arcs]
        != [tuple(a) for p in doc["temporal_arcs"] for a in p["arcs"] if a[0] in chosen and a[1] in chosen]
    ):
        errs.append("region selection differs from a plain filter")

    e0, e1 = q["event_window"]
    ev, dev_ = res["events"], doc["events"]
    if (
        ev.merges != [e for e in dev_["merges"] if e0 <= e["time"] <= e1]
        or ev.splits != [e for e in dev_["splits"] if e0 <= e["time"] <= e1]
        or [list(e) for e in ev.deletions] != [e for e in dev_["deletions"] if e0 <= e[1] <= e1]
        or [list(e) for e in ev.generations] != [e for e in dev_["generations"] if e0 <= e[1] <= e1]
    ):
        errs.append("window events differ from a plain filter")

    seeds = [n for _, n in paths[0].nodes]
    if res["neighborhood"] != plain_neighborhood(doc, seeds, q["hops"]):
        errs.append("track neighbourhood differs from a plain BFS")
    return errs


def check_cli_neighborhood(out_path: str, neighborhood: dict[int, list[int]]) -> list[str]:
    """A neighbourhood query run through the CLI equals the library's."""
    with open(out_path) as fh:
        got = json.load(fh)
    want = {"neighborhood": {str(t): nodes for t, nodes in neighborhood.items()}}
    return [] if got == want else ["CLI neighbourhood query differs from track_neighborhood"]
