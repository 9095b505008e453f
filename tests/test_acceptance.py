"""Acceptance gate: one test per top-level criterion.

Each test prints exactly one `[criterion N] ...: PASS|FAIL` line. The
checks run the real pipeline end to end; nothing is mocked.
"""

import itertools
import os
import sys
import time
from statistics import median

import numpy as np
import pytest

from tvex import io as tvio
from tvex.field import FieldSeries, generate_gauss8
from tvex.morse import compute_persistence, merge_tree_oracle, vertex_order
from tvex.pipeline import compute_tveg
from tvex.temporal import (
    ScoreTuple,
    ScoreWeights,
    compute_scores,
    filter_scores,
    link_pair,
    remove_z_configurations,
)
from tvex.tracks import extract_tracks

from conftest import random_field, random_maxima, raw_segmentation


# collected by conftest's terminal-summary hook so every line is shown
# even for passing tests
CRITERION_LINES: list[str] = []


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {name}: {tag}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr, flush=True)
    CRITERION_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def gauss8_run():
    """Shared 32^3 Gauss8 pipeline run with the fixed parameters."""
    t0 = time.perf_counter()
    series = generate_gauss8((32, 32, 32), steps=50)
    theta = 0.05 * series.global_range()
    tvg = compute_tveg(series, theta, ScoreWeights())
    elapsed = time.perf_counter() - t0
    return series, tvg, elapsed


def _component_spans(graphs, arc_lists):
    """Sorted (first step, last step) of each temporal-arc graph component."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    step = {}
    for g in graphs:
        for mid in g.maxima.tolist():
            parent[mid] = mid
            step[mid] = g.t
    for arcs in arc_lists:
        for a in arcs:
            ra, rb = find(a.m0), find(a.m1)
            if ra != rb:
                parent[ra] = rb
    spans = {}
    for n, t in step.items():
        lo, hi = spans.get(find(n), (t, t))
        spans[find(n)] = (min(lo, t), max(hi, t))
    return sorted(spans.values())


def _tau_tie_variants(tvg, ulps=4):
    """Arc lists (one per pair) with every score within `ulps` ulps of
    tau kept or dropped.

    With exactly two candidates, tau = mu + sigma equals the larger score
    in exact arithmetic, so rounding alone decides whether that arc
    survives the filter. Pairs holding such a tie are relinked both ways
    with the pipeline's own z-removal; other pairs keep their arcs.
    Returns {} when no pair holds a tie.
    """
    kept, dropped = [[arcs for arcs, _ in tvg.links] for _ in range(2)]
    tied = False
    for i, (M0, M1, (_, meta)) in enumerate(zip(tvg.graphs, tvg.graphs[1:], tvg.links)):
        if meta.sigma == 0 or not M0.n_max or not M1.n_max:
            continue
        tol = ulps * np.spacing(meta.tau)
        S = compute_scores(M0, M1, tvg.weights)
        if not any(abs(a.s - meta.tau) <= tol for a in S):
            continue
        tied = True
        kept[i] = remove_z_configurations([a for a in S if a.s < meta.tau + tol])
        dropped[i] = remove_z_configurations([a for a in S if a.s < meta.tau - tol])
    return {"tie kept": kept, "tie dropped": dropped} if tied else {}


def _check_2b(graphs, arc_lists):
    """(ok, detail) for criterion 2b on one arc list per pair; see that test."""
    spans = _component_spans(graphs, arc_lists)
    first, last = graphs[0].t, graphs[-1].t
    through = [s for s in spans if s == (first, last)]
    ids = {g.t: g.maxima.tolist() for g in graphs}
    offending = []
    for t, arcs in zip((g.t for g in graphs), arc_lists):
        srcs = {a.m0 for a in arcs}
        dsts = {a.m1 for a in arcs}
        breaks = sum(m not in srcs for m in ids[t]) + sum(
            m not in dsts for m in ids[t + 1]
        )
        allowed = abs(len(ids[t + 1]) - len(ids[t]))
        if breaks > allowed:
            offending.append(f"t={t}: {breaks} > {allowed}")
    ok = len(through) == 1 and not offending
    detail = (
        f"{len(spans)} components, spans "
        + " ".join(f"{lo}..{hi}" for lo, hi in spans)
        + f"; {len(through)} span {first}..{last}"
        + (f"; offending pairs {', '.join(offending)}" if offending else "")
    )
    return ok, detail


def test_criterion_1_oracle_equivalence(rng):
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        dims = tuple(int(d) for d in rng.integers(8, 17, 3))
        f = random_field(rng, dims)
        seg = raw_segmentation(f)
        if compute_persistence(seg, vertex_order(f)[0]) != merge_tree_oracle(f):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "persistence matches independent merge-tree oracle on 100 random fields",
        mismatches == 0 and elapsed < 10.0,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2a_maxima_on_midplane(gauss8_run):
    series, tvg, _ = gauss8_run
    sp = float(series.fields[0].spacing[0])
    worst = max(abs(x) for g in tvg.graphs for x in g.coords[: g.n_max, 0].tolist())
    _report(
        "2a",
        "all maxima within 1.5 voxel spacings of the x=0 plane",
        worst <= 1.5 * sp,
        f"worst |x| = {worst:.4f}, bound {1.5 * sp:.4f}",
    )


def test_criterion_2b_single_connected_component(gauss8_run):
    """Tracks do not fragment on Gauss8 except at the events.

    (a) exactly one component of the temporal-arc graph holds maxima of
    both the first and the last step, so tracks pass through the merge
    and split phase; (b) for every pair (t, t+1), deletions at t plus
    generations at t+1 are at most |#maxima(t+1) - #maxima(t)|, so no
    track breaks while the count of maxima is steady and an event step
    breaks no more tracks than it creates or removes.

    A single component is not demanded: each source keeps at most two
    targets, so where one maximum becomes four (t=29 -> 30) at least two
    of the four start new tracks. Both checks must also hold whichever
    way a score that ties tau up to rounding is resolved.
    """
    _, tvg, _ = gauss8_run
    arc_lists = [arcs for arcs, _ in tvg.links]
    ok, detail = _check_2b(tvg.graphs, arc_lists)
    for name, variant in _tau_tie_variants(tvg).items():
        if variant == arc_lists:
            continue
        v_ok, v_detail = _check_2b(tvg.graphs, variant)
        ok = ok and v_ok
        detail += f" | {name}: {'ok' if v_ok else 'FAIL'}, {v_detail}"
    _report(
        "2b",
        "one component spans all steps; tracks break only at count changes",
        ok,
        detail,
    )


def test_criterion_2c_time_reversal_symmetry(gauss8_run):
    series, tvg, _ = gauss8_run
    T = 50
    mirror_ok = True
    for t in range(1, T // 2 + 1):
        g0, g1 = tvg.graph_at(t), tvg.graph_at(T + 1 - t)
        a0 = sorted(zip(*(c[: g0.n_max].tolist() for c in (g0.value, g0.pers, g0.eta))))
        a1 = sorted(zip(*(c[: g1.n_max].tolist() for c in (g1.value, g1.pers, g1.eta))))
        if (
            a0 != a1
            or len(g0.saddles) != len(g1.saddles)
            or len(g0.arcs) != len(g1.arcs)
        ):
            mirror_ok = False
    fields_ok = all(
        np.array_equal(series[t - 1].values, series[T - t].values)
        for t in range(1, T + 1)
    )
    # a merge recorded at t (its target's step) mirrors a split recorded at
    # T + 1 - t (its source's step), and a split a merge the same way
    merges = [e["time"] for e in tvg.events.merges]
    splits = [e["time"] for e in tvg.events.splits]

    def mirrored_first_half(times):
        return sorted(T + 1 - t for t in times if t <= T // 2)

    def second_half(times):
        return sorted(t for t in times if t > T // 2)

    m1, s2 = mirrored_first_half(merges), second_half(splits)
    s1, m2 = mirrored_first_half(splits), second_half(merges)
    events_ok = bool(merges or splits) and m1 == s2 and s1 == m2
    _report(
        "2c",
        "mirrored fields, isomorphic graphs, merges[1,25] mirror splits[26,50] "
        "and splits[1,25] mirror merges[26,50]",
        fields_ok and mirror_ok and events_ok,
        f"fields {fields_ok}, graphs {mirror_ok}, merges[1,25] mirrored {m1} vs "
        f"splits[26,50] {s2}, splits[1,25] mirrored {s1} vs merges[26,50] {m2}",
    )


def test_criterion_2d_eight_maxima_when_separated(gauss8_run):
    from tvex.field import gauss8_centers

    series, tvg, elapsed = gauss8_run
    sigma = 0.08  # generator default used by the shared run
    bad = []
    qualifying = []
    for t in range(1, 51):
        c = gauss8_centers(t, 50)
        dmin = min(
            float(np.linalg.norm(c[i] - c[j]))
            for i, j in itertools.combinations(range(8), 2)
        )
        if dmin > 6 * sigma:
            qualifying.append(t)
            if len(tvg.graph_at(t).maxima) != 8:
                bad.append(t)
    runtime_ok = elapsed < 60.0
    _report(
        "2d",
        "exactly 8 maxima in well-separated steps; pipeline under 60 s",
        bool(qualifying) and not bad and runtime_ok,
        f"{len(qualifying)} qualifying steps, bad={bad}, {elapsed:.1f}s",
    )


def test_criterion_3_structural_invariants(rng, gauss8_run):
    _, gauss_tvg, _ = gauss8_run
    tvegs = [gauss_tvg]
    for _ in range(3):
        fields = []
        base = random_field(rng, (10, 10, 10), time_index=1)
        fields.append(base)
        for t in (2, 3, 4):
            f = random_field(rng, (10, 10, 10), time_index=t)
            fields.append(f)
        series = FieldSeries(fields=fields)
        theta = 0.05 * series.global_range()
        tvegs.append(compute_tveg(series, theta, ScoreWeights()))

    problems = []
    for tvg in tvegs:
        by_t = {g.t: g for g in tvg.graphs}
        del_set = set(tvg.events.deletions)
        gen_set = set(tvg.events.generations)
        merge_nodes = {(e["node"], e["time"]) for e in tvg.events.merges}
        split_nodes = {(e["node"], e["time"]) for e in tvg.events.splits}
        for g, (arcs, meta) in zip(tvg.graphs, tvg.links):
            t = g.t
            od, ind = {}, {}
            for a in arcs:
                if a.m0 >> 32 != t or a.m1 >> 32 != t + 1:
                    problems.append(f"non-consecutive arc at {t}")
                od[a.m0] = od.get(a.m0, 0) + 1
                ind[a.m1] = ind.get(a.m1, 0) + 1
            if any(d > 2 for d in od.values()):
                problems.append(f"out-degree > 2 at {t}")
            if any(od[a.m0] >= 2 and ind[a.m1] >= 2 for a in arcs):
                problems.append(f"z-configuration at {t}")
            if meta.sigma > 0 and any(a.s >= meta.tau for a in arcs):
                problems.append(f"score >= tau at {t}")
            for m in by_t[t].maxima.tolist():
                if m not in od and (m, t) not in del_set:
                    problems.append(f"missing deletion {m}@{t}")
            for m in by_t[t + 1].maxima.tolist():
                if m not in ind and (m, t + 1) not in gen_set:
                    problems.append(f"missing generation {m}@{t+1}")
            for n, d in ind.items():
                if (d > 1) != ((n, t + 1) in merge_nodes):
                    problems.append(f"merge record mismatch {n}@{t+1}")
            for n, d in od.items():
                if (d > 1) != ((n, t) in split_nodes):
                    problems.append(f"split record mismatch {n}@{t}")
    _report(
        3,
        "degree bounds, z-freedom, tau bound, event/degree consistency",
        not problems,
        f"{len(problems)} violations" + (f"; first: {problems[0]}" if problems else ""),
    )


def _is_z_free(arcs):
    od, ind = {}, {}
    for a in arcs:
        od[a.m0] = od.get(a.m0, 0) + 1
        ind[a.m1] = ind.get(a.m1, 0) + 1
    return not any(od[a.m0] >= 2 and ind[a.m1] >= 2 for a in arcs)


def test_criterion_4_small_instance_optimality(rng):
    failures = 0
    for _ in range(200):
        n0 = int(rng.integers(1, 5))
        n1 = int(rng.integers(1, 5))
        M0 = random_maxima(rng, n0, 1)
        M1 = random_maxima(rng, n1, 2)
        S, _ = filter_scores(compute_scores(M0, M1, ScoreWeights()))
        got = remove_z_configurations(S)
        # reachability under the documented tie order: recomputation is
        # deterministic, so the greedy result must reproduce exactly
        if got != remove_z_configurations(S):
            failures += 1
            continue
        if not _is_z_free(got):
            failures += 1
            continue
        # maximality: no dropped arc can rejoin without recreating a z
        dropped = [a for a in S if a not in got]
        if any(_is_z_free(got + [a]) for a in dropped):
            failures += 1
            continue
        # cross-check against full enumeration of admissible subsets
        got_set = set(got)
        for r in range(len(got) + 1, len(S) + 1):
            for sub in itertools.combinations(S, r):
                if got_set <= set(sub) and _is_z_free(sub):
                    failures += 1
                    break
            else:
                continue
            break
    _report(
        4,
        "arc sets maximal over brute-forced admissible subsets (200 instances)",
        failures == 0,
        f"{failures} failures",
    )


def test_criterion_5_byte_identical_determinism(tmp_path):
    series = generate_gauss8((16, 16, 16), steps=8, sigma=0.15)
    theta = 0.05 * series.global_range()
    outputs = []
    for threads in (1, 4, 1):
        os.environ["TVEX_THREADS"] = str(threads)
        try:
            tvg = compute_tveg(series, theta, ScoreWeights())
        finally:
            del os.environ["TVEX_THREADS"]
        jpath = str(tmp_path / f"tveg_{len(outputs)}.json")
        tvio.export_tveg_json(tvg, jpath)
        gpath = str(tmp_path / f"geom_{len(outputs)}.vtk")
        tvio.export_tracks_geometry(extract_tracks(tvg), tvg, gpath)
        outputs.append((open(jpath, "rb").read(), open(gpath, "rb").read()))
    ok = all(o == outputs[0] for o in outputs[1:])
    _report(
        5,
        "byte-identical exports across repeated runs and thread counts",
        ok,
        f"{len(outputs)} runs compared",
    )


def test_criterion_6_pair_linking_performance(rng):
    g0 = random_maxima(rng, 150, 1)
    g1 = random_maxima(rng, 150, 2)
    times = []
    for _ in range(20):
        t0 = time.perf_counter()
        link_pair(g0, g1, ScoreWeights())
        times.append(time.perf_counter() - t0)
    med = median(times)
    _report(
        6,
        "one 150-maxima pair linked in <= 100 ms (median of 20)",
        med <= 0.100,
        f"median {med * 1000:.1f} ms",
    )


def test_criterion_7_filter_arithmetic():
    S = [ScoreTuple(0, 0, 0.0), ScoreTuple(1, 1, 0.0), ScoreTuple(2, 2, 1.0)]
    kept, meta = filter_scores(S)
    tau_expected = 1 / 3 + np.sqrt(2) / 3
    case1 = (
        [a.s for a in kept] == [0.0, 0.0]
        and abs(meta.tau - tau_expected) < 1e-12
    )
    same = [ScoreTuple(i, i, 0.7) for i in range(6)]
    kept2, meta2 = filter_scores(same)
    case2 = kept2 == same and meta2.sigma == 0.0
    _report(
        7,
        "filter drops exactly the outlier in {0,0,1}; all-equal untouched",
        case1 and case2,
        f"tau = {meta.tau:.6f}",
    )
