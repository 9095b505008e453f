"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: `Recorder.wrap` replaces a
module attribute with a wrapper that times the call, so callers that
look the name up at call time (in their own module's globals or through
the module object) reach the wrapper. Nothing in `tvex` changes.

A span's self time is its duration minus the time its child spans
cover. Spans are kept in memory per operation; `take` aggregates and
clears them.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Recorder:
    def __init__(self):
        self.spans: list[tuple[str, float]] = []  # name, self seconds
        self.counts: Counter = Counter()
        self._open: list[list[float]] = []  # child seconds of each open span

    def wrap(self, module, attr: str, name, counts=None) -> None:
        """Trace calls of `module.attr` as span `name`.

        `name` may instead be a callable of the call's arguments.
        `counts` maps a counter name to a function of the call's result
        giving the amount to add.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            children = [0.0]
            self._open.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += dur
                self.spans.append((span, dur - children[0]))
            for key, amount in (counts or {}).items():
                self.counts[key] += amount(result)
            return result

        setattr(module, attr, traced)

    def take(self) -> dict[str, float]:
        """Self seconds (`<span>_s`) and calls (`<span>_calls`) per span
        name, plus the counters, since the last `take`."""
        out: Counter = Counter()
        for span, self_s in self.spans:
            out[span + "_s"] += self_s
            out[span + "_calls"] += 1
        out.update(self.counts)
        self.spans.clear()
        self.counts.clear()
        return dict(out)


def install(rec: Recorder) -> None:
    """Wrap the public functions the benchmark's operations reach."""
    from tvex import cli, field, io, morse, pipeline, query, temporal, tracks

    rec.wrap(field, "load_series", "field.load_series")
    rec.wrap(morse, "vertex_order", "morse.vertex_order")
    rec.wrap(morse, "compute_segmentation", "morse.segmentation",
             {"morse.raw_maxima": lambda seg: len(seg.maxima)})
    rec.wrap(morse, "compute_saddles", "morse.saddles",
             {"morse.raw_saddles": lambda seg: len(seg.saddles)})
    rec.wrap(morse, "compute_persistence", "morse.persistence")
    rec.wrap(morse, "simplify", "morse.simplify",
             {"morse.kept_maxima": lambda seg: len(seg.maxima)})
    # pipeline imported build_extremum_graph by name
    rec.wrap(pipeline, "build_extremum_graph", "exgraph.build_self",
             {"exgraph.nodes": lambda g: len(g.maxima) + len(g.saddles),
              "exgraph.arcs": lambda g: len(g.arcs)})
    rec.wrap(temporal, "compute_scores", "temporal.scores",
             {"temporal.candidates": len})
    rec.wrap(temporal, "filter_scores", "temporal.filter",
             {"temporal.kept_tau": lambda res: len(res[0])})
    rec.wrap(temporal, "remove_z_configurations", "temporal.zremoval",
             {"temporal.kept_z": len})
    rec.wrap(temporal, "detect_events", "temporal.events")
    rec.wrap(io, "export_tveg_json", "io.export_tveg")
    rec.wrap(io, "load_tveg_json", "io.load_tveg")
    rec.wrap(io, "export_tracks_json", "io.export_tracks")
    rec.wrap(io, "export_tracks_geometry", "io.export_vtk")
    rec.wrap(tracks, "extract_tracks",
             lambda tveg, mode="simple-paths": "tracks." + mode.replace("-", "_"))
    rec.wrap(query, "tracks_longer_than", "query.length_threshold")
    rec.wrap(query, "least_deviation", "query.least_deviation")
    rec.wrap(query, "select_in_region", "query.region")
    rec.wrap(query, "events_in_window", "query.window_events")
    rec.wrap(query, "track_neighborhood", "query.neighborhood")
    rec.wrap(cli, "main", "cli.query")
