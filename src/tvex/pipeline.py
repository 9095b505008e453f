"""Series-level drivers shared by the CLI and scripts."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

from .exgraph import ExtremumGraph, build_extremum_graph
from .field import FieldSeries
from .temporal import ScoreWeights, Tveg, link_pair


def thread_count() -> int:
    """Worker count from TVEX_THREADS (default 1)."""
    text = os.environ.get("TVEX_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"TVEX_THREADS must be a positive integer, got {text!r}")
    return workers


def resolve_theta(spec: str | float, series: FieldSeries) -> float:
    """Persistence threshold from a CLI spec.

    A trailing "r" means a fraction of the series' global scalar range
    ("0.05r"); a plain number is an absolute threshold. Either must be
    finite and >= 0; that is checked before any volume is read.
    """
    relative = isinstance(spec, str) and spec.endswith("r")
    value = check_theta(float(spec[:-1] if relative else spec), "theta", spec)
    return value * series.global_range() if relative else value


def check_theta(value: float, name: str, given) -> float:
    """`value` (0.0 for -0.0) if it is a finite number >= 0, else a ValueError
    that names `name` and shows `given`, the text or JSON it was read from."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {given!r}")
    return value + 0.0


def build_graphs(series: FieldSeries, theta: float) -> list[ExtremumGraph]:
    """Per-step extremum graphs, built on TVEX_THREADS workers.

    Each task reads its own step, so at most one volume per worker is
    live. Results are assembled in time order, so the output is
    independent of the worker count.
    """
    fields = series.fields
    workers = thread_count()
    if workers <= 1 or len(fields) == 1:
        return [build_extremum_graph(f, theta) for f in fields]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        graphs = pool.map(lambda i: build_extremum_graph(fields[i], theta), range(len(fields)))
        return list(graphs)


def compute_tveg(
    series: FieldSeries,
    theta: float,
    weights: ScoreWeights,
    t_range: tuple[int, int] | None = None,
) -> Tveg:
    """Full pipeline: graphs for each step, then temporal linking.
    `t_range` (p, r) keeps the steps p..r; no other step is read."""
    fields = series.fields
    if t_range is not None:
        p, r = t_range
        t0 = series.times[0]
        fields = fields[max(p - t0, 0) : max(r - t0 + 1, 0)]
    if len(fields) < 2:
        raise ValueError("need at least 2 time steps")
    graphs = build_graphs(FieldSeries(fields), theta)
    links = [link_pair(g0, g1, weights) for g0, g1 in zip(graphs, graphs[1:])]
    return Tveg(graphs, links, weights, theta)
