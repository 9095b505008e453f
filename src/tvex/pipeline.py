"""Series-level drivers shared by the CLI and scripts."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .exgraph import ExtremumGraph, build_extremum_graph
from .field import FieldSeries
from .temporal import ScoreWeights, Tveg, temporal_arcs


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
    ("0.05r"); a plain number is an absolute threshold.
    """
    if isinstance(spec, str) and spec.endswith("r"):
        frac = float(spec[:-1])
        return frac * series.global_range()
    value = float(spec)
    if value < 0:
        raise ValueError("theta must be >= 0")
    return value


def build_graphs(
    series: FieldSeries, theta: float, threads: int | None = None
) -> list[ExtremumGraph]:
    """Per-step extremum graphs, optionally built on a thread pool.

    Results are assembled in time order, so the output is independent of
    the worker count.
    """
    workers = threads if threads is not None else thread_count()
    if workers <= 1 or len(series) == 1:
        return [build_extremum_graph(f, theta) for f in series.fields]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(build_extremum_graph, f, theta) for f in series.fields]
        return [fut.result() for fut in futures]


def compute_tveg(
    series: FieldSeries,
    theta: float,
    weights: ScoreWeights,
    t_range: tuple[int, int] | None = None,
    threads: int | None = None,
) -> Tveg:
    """Full pipeline: graphs for each step, then temporal linking."""
    fields = series.fields
    if t_range is not None:
        p, r = t_range
        fields = [f for f in fields if p <= f.time_index <= r]
    if len(fields) < 2:
        raise ValueError("need at least 2 time steps")
    sub = FieldSeries(fields=fields)
    graphs = build_graphs(sub, theta, threads=threads)
    tveg = temporal_arcs(graphs, weights)
    tveg.theta = theta
    return tveg
