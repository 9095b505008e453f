"""Series-level drivers shared by the CLI and scripts."""

from __future__ import annotations

import math
import os
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor

from .exgraph import ExtremumGraph, build_extremum_graph
from .field import FieldSeries, ScalarField3D
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
    try:
        value = float(spec[:-1] if relative else spec)
    except ValueError:  # not a number: named as a NaN would be
        value = math.nan
    value = check_theta(value, "theta", spec)
    return value * series.global_range() if relative else value


def check_theta(value: float, name: str, given) -> float:
    """`value` (0.0 for -0.0) if it is a finite number >= 0, else a ValueError
    that names `name` and shows `given`, the text or JSON it was read from."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {given!r}")
    return value + 0.0


def graphs(fields: Sequence[ScalarField3D], theta: float) -> Iterator[ExtremumGraph]:
    """Each field's extremum graph in the order of `fields`, built on
    TVEX_THREADS workers; each task reads its own step."""
    workers = thread_count()
    if workers <= 1 or len(fields) == 1:
        yield from (build_extremum_graph(f, theta) for f in fields)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(lambda i: build_extremum_graph(fields[i], theta), range(len(fields)))


def compute_tveg(
    series: FieldSeries,
    theta: float,
    weights: ScoreWeights,
    t_range: tuple[int, int] | None = None,
) -> Tveg:
    """Full pipeline: each pair is linked as soon as its second graph is
    built. `t_range` (p, r) keeps the steps p..r; no other step is read."""
    fields = series.fields
    if t_range is not None:
        p, r = t_range
        t0 = series.times[0]
        fields = fields[max(p - t0, 0) : max(r - t0 + 1, 0)]
    if len(fields) < 2:
        raise ValueError("need at least 2 time steps")
    steps, links = [], []
    for g in graphs(fields, theta):
        if steps:
            links.append(link_pair(steps[-1], g, weights))
        steps.append(g)
    return Tveg(steps, links, weights, theta)
