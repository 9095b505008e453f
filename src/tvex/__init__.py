"""Extremum graphs of time-varying 3D scalar fields.

Per-step graphs of maxima and 2-saddles are linked across time by a
scored correspondence optimization; the linked structure supports event
detection, track extraction, refinement, and queries.
"""

from .exgraph import ExtremumGraph, build_extremum_graph
from .field import (
    FieldSeries,
    ScalarField3D,
    generate_gauss8,
    load_series,
    save_series,
)
from .morse import (
    Segmentation,
    compute_saddles,
    compute_segmentation,
    simplify,
)
from .pipeline import build_graphs, compute_tveg, resolve_theta
from .temporal import (
    EventSets,
    ScoreTuple,
    ScoreWeights,
    Tveg,
    compute_scores,
    detect_events,
    filter_scores,
    remove_z_configurations,
)
from .tracks import Track, extract_tracks, refine_by_overlap

__version__ = "0.1.0"
