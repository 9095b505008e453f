"""Canonical exporters and loaders for graphs, tracks, and segmentations.

All JSON output is canonical: keys sorted, floats printed with 17
significant digits, so identical inputs produce byte-identical files
and export -> parse -> export round-trips exactly.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import chain, repeat, zip_longest
from operator import itemgetter

import numpy as np

from .exgraph import ExtremumGraph, make_node_id, split_node_id
from .field import read_json
from .morse import Segmentation
from .pipeline import check_theta
from .temporal import EventSets, FilterMeta, ScoreTuple, ScoreWeights, Tveg
from .tracks import Track


def _canon(obj, out: list) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _canon(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canon(item, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format(float(obj), ".17g"))
    elif obj is None:
        out.append("null")
    else:
        out.append(json.dumps(obj))


def _text(obj) -> str:
    """`obj`'s canonical JSON text, without a trailing newline."""
    out: list[str] = []
    _canon(obj, out)
    return "".join(out)


def canonical_json(obj) -> str:
    """Deterministic JSON text for a tree of dicts/lists/scalars."""
    return _text(obj) + "\n"


# one node of a step: keys in sorted order, floats as `_canon` prints
# them ("%.17g" % v is format(v, ".17g")); eta and x come as `_texts` gives them
_NODE = (
    '{"eta":%s,"id":%d,"index":%d,"pers":%.17g,"t":%d,"value":%.17g,'
    '"vertex":%d,"x":[%s,%s,%s]}'
)


_NODE_ROWS = 256  # node rows rendered at a time


def _texts(cols: np.ndarray, fmt: str = "%.17g") -> list:
    """The `fmt` text of each value of the float64 array `cols`, as nested
    lists of its shape. Each distinct bit pattern is rendered once, in one
    fill, so -0.0 still prints as "-0"."""
    bits, inverse = np.unique(cols.view(np.int64), return_inverse=True)
    values = tuple(bits.view(np.float64).tolist())
    texts = np.array(((fmt + " ") * len(values) % values).split(), object)
    return texts[inverse.reshape(cols.shape)].tolist()  # the inverse's shape varies by numpy


def _step_json(g: ExtremumGraph) -> Iterator[str]:
    """One step's canonical JSON object (arcs of node ids, nodes in row
    order, t) as pieces to write in turn: the arcs text, the nodes text
    `_NODE_ROWS` rows at a time, and the closing text. Each piece is one fill
    of its template, its rows converted to Python values once per column.
    Grid positions and the saddles' eta of 0 repeat within a block, so the
    eta and x columns are rendered through `_texts`."""
    k, t, base = len(g.value), g.t, make_node_id(g.t, 0)
    arcs = ",".join(["[%d,%d]"] * len(g.arcs)) % tuple((g.arcs.ravel() + base).tolist())
    yield '{"arcs":[%s],"nodes":[' % arcs
    index = [3] * g.n_max + [2] * (k - g.n_max)
    for i in range(0, k, _NODE_ROWS):
        j = min(i + _NODE_ROWS, k)
        eta, x, y, z = _texts(np.vstack((g.eta[i:j], g.coords[i:j].T)))
        rows = zip(
            eta, range(base + i, base + j), index[i:j], g.pers[i:j].tolist(),
            repeat(t, j - i), g.value[i:j].tolist(), g.vertex[i:j].tolist(), x, y, z,
        )
        yield ("," if i else "") + ",".join([_NODE] * (j - i)) % tuple(chain.from_iterable(rows))
    yield '],"t":%d}' % t


_NODE_FIELDS = itemgetter("id", "t", "index", "vertex", "value", "pers", "eta", "x")


@contextmanager
def _reading(section: str, where: str = ""):
    """Raise a TypeError (a value of the wrong JSON type), KeyError (a
    missing key) or OverflowError (a number out of range) of the block as
    a ValueError that names `section`, then `where` (" in step 2")."""
    try:
        yield
    except TypeError as exc:
        raise ValueError(f"'{section}': a value of the wrong JSON type{where} ({exc})") from None
    except KeyError as exc:
        raise ValueError(f"'{section}': the key {exc} is missing{where}") from None
    except OverflowError as exc:
        raise ValueError(f"'{section}': a number out of range{where} ({exc})") from None


def _scalar(v, name: str, types=(int, float)):
    """v if its type is one of `types` (a bool is neither), else a TypeError."""
    if type(v) not in types:
        kind = "an integer" if types == (int,) else "a number"
        raise TypeError(f"{name} must be {kind}, got {v!r}")
    return v


def _finite(v, name: str) -> float:
    """v as a float (0.0 for -0.0) if it is a finite number, else a TypeError."""
    if not math.isfinite(_scalar(v, name)):
        raise TypeError(f"{name} must be a finite number, got {v!r}")
    return float(v) + 0.0


def _column(values, shape: tuple, dtype, name: str) -> np.ndarray:
    """`values` as a finite `dtype` array of `shape` (-0.0 as 0.0), or a TypeError naming `name`.
    Every value must be a JSON integer, or for float64 an integer or a float;
    each value's type is checked, since numpy reads a string as its number
    and true or false as 1 or 0."""
    types = {int} if dtype == np.int64 else {int, float}
    try:
        a = np.array(values, dtype) if math.prod(shape) else np.empty(shape, dtype)
    except (TypeError, ValueError, OverflowError):  # no number, unequal lengths, out of range
        a = None
    if a is None or a.shape != shape or not {*map(type, chain.from_iterable(values))} <= types:
        raise TypeError(f"{name} must be {'integers' if dtype == np.int64 else 'numbers'} "
                        f"in the {np.dtype(dtype)} range, of shape {shape}")
    if dtype == np.int64:  # integers are finite
        return a
    if not np.isfinite(a).all():
        raise TypeError(f"{name} must be finite, got {a[~np.isfinite(a)][0]}")
    return a + 0.0


def _graph_from_step(step: dict) -> ExtremumGraph:
    """The graph of one stored step, the inverse of `_step_json`. Rejects a
    step whose node ids are not (t, row) in row order, whose maxima do not
    come first, whose arcs are not sorted (maximum, saddle) pairs of it
    without repeats, or one of whose saddles has not exactly two arcs."""
    with _reading("steps"):
        t = _scalar(step["t"], "a step's 't'", (int,))
    with _reading("steps", f" in step {t}"):
        nodes, arcs = step["nodes"], step["arcs"]
        k = len(nodes)
        columns = list(zip(*map(_NODE_FIELDS, nodes))) or [()] * 8
        _, _, _, vertex = _column(columns[:4], (4, k), np.int64,
                                  "node 'id', 't', 'index' and 'vertex'")
        value, pers, eta = _column(columns[4:7], (3, k), np.float64,
                                   "node 'value', 'pers' and 'eta'")
        coords = _column(columns[7], (k, 3), np.float64, "node 'x'")
        arcs = _column(arcs, (len(arcs), 2), np.int64, "'arcs'")
        ids, node_t, index = columns[:3]  # integers (checked above), so compared exactly
        base = make_node_id(t, 0)
        if ids != tuple(range(base, base + k)) or node_t.count(t) != k:
            raise ValueError(f"step {t}: node ids are not (t, row) in row order")
        n_max = index.count(3)
        if index != (3,) * n_max + (2,) * (k - n_max):
            raise ValueError(f"step {t}: nodes must be maxima first, then saddles")
        arc_t, rows = split_node_id(arcs)
        m, s = rows[:, 0], rows[:, 1]
        ok = (arc_t == t).all() and ((m < n_max) & (n_max <= s) & (s < k)).all()
        key = m * k + s  # orders the (m, s) pairs
        if not (ok and (key[1:] > key[:-1]).all()):
            raise ValueError(f"step {t}: arcs must be sorted (maximum, saddle) pairs")
        if (np.bincount(s, minlength=k)[n_max:] != 2).any():
            raise ValueError(f"step {t}: every saddle must have two arcs")
    return ExtremumGraph(t, n_max, vertex, value, pers, eta, coords, arcs=rows)


def export_tveg_json(tveg: Tveg, path: str) -> None:
    """Write the whole structure as canonical JSON, key by key in sorted
    order, rendering and writing one step and one pair at a time."""
    with open(path, "w") as fh:
        fh.write('{"events":%s,"steps":[' % events_json(tveg.events))
        for i, g in enumerate(tveg.graphs):
            fh.write("," if i else "")
            fh.writelines(_step_json(g))
        fh.write('],"temporal_arcs":[')
        for i, (g, (arcs, meta)) in enumerate(zip(tveg.graphs, tveg.links)):
            fh.write("," if i else "")
            fh.write(_pair_json(g.t, arcs, meta))
        fh.write('],"theta":%s,"weights":%s}\n' % (_text(tveg.theta), _text(vars(tveg.weights))))


def events_json(ev: EventSets) -> str:
    """The canonical JSON object of the events (deletions and generations
    as [node, t] pairs, merges and splits as {node, participants, time}
    records) as one fill of its template, without a trailing newline: the
    one writer of events, for `tveg.json`, `tvex events` and queries alike."""
    record = '{"node":%%d,"participants":[%s],"time":%%d}'
    pairs = [",".join(["[%d,%d]"] * len(p)) for p in (ev.deletions, ev.generations)]
    records = [",".join([record % ",".join(["%d"] * len(e["participants"])) for e in r])
               for r in (ev.merges, ev.splits)]
    template = '{"deletions":[%s],"generations":[%s],"merges":[%s],"splits":[%s]}' % (
        *pairs, *records)
    values = chain(chain.from_iterable(ev.deletions), chain.from_iterable(ev.generations),
                   *((e["node"], *e["participants"], e["time"]) for e in ev.merges + ev.splits))
    return template % tuple(values)


def _pair_json(t: int, arcs: list[ScoreTuple], meta: FilterMeta) -> str:
    """The canonical JSON object of the pair t -> t + 1: its arcs as one
    fill of the [m0, m1, s] template, its filter statistics and t."""
    arcs_text = ",".join(["[%d,%d,%.17g]"] * len(arcs)) % tuple(chain.from_iterable(arcs))
    return '{"arcs":[%s],"filter":%s,"t":%d}' % (arcs_text, _text(vars(meta)), t)


def _temporal_arc(a, t: int, n0: int, n1: int) -> ScoreTuple:
    """Stored arc `a` of the pair t -> t + 1: [m0, m1, s], two integers and
    a number, where m0 is one of the n0 maxima of step t and m1 one of the
    n1 of step t + 1."""
    if type(a) is not list or len(a) != 3:
        raise TypeError(f"a temporal arc must be [m0, m1, s], got {a!r}")
    m0, m1 = _scalar(a[0], "m0", (int,)), _scalar(a[1], "m1", (int,))
    (t0, r0), (t1, r1) = split_node_id(m0), split_node_id(m1)
    if not (t0 == t and r0 < n0 and t1 == t + 1 and r1 < n1):
        raise ValueError(f"temporal arcs {t}->{t + 1}: arc ({m0}, {m1}) does not "
                         f"join a maximum of step {t} to one of step {t + 1}")
    return ScoreTuple(m0, m1, _finite(a[2], "s"))


def _links_from_pairs(pairs: list, graphs: list[ExtremumGraph]) -> list:
    """The (arcs, filter statistics) of each stored pair. The pairs must
    be those of consecutive stored steps, in order, and each pair's arcs
    must join a maximum of step t to one of step t + 1, sorted by
    (m0, m1) without repeats, as `link_pair` gives them."""
    with _reading("temporal_arcs"):
        stored = [_scalar(pair["t"], "a pair's 't'", (int,)) for pair in pairs]
    ts = [g.t for g in graphs[:-1]]
    for i, (t, want) in enumerate(zip_longest(stored, ts)):
        if t != want:
            if t is None or t in ts and t not in stored[:i]:
                t, why = want, "missing" if want not in stored else "stored out of order"
            else:
                why = "stored twice" if t in ts else f"steps {t} and {t + 1} are not both stored"
            raise ValueError(f"temporal arcs {t}->{t + 1}: {why}")
    links = []
    for g0, g1, pair in zip(graphs, graphs[1:], pairs):
        t, n0, n1 = g0.t, g0.n_max, g1.n_max
        with _reading("temporal_arcs", f" in pair {t}->{t + 1}"):
            arcs = [_temporal_arc(a, t, n0, n1) for a in pair["arcs"]]
            meta = FilterMeta(*(_finite(pair["filter"][k], f"'{k}'")
                                for k in ("mu", "sigma", "tau")))
        if any((a.m0, a.m1) >= (b.m0, b.m1) for a, b in zip(arcs, arcs[1:])):
            raise ValueError(f"temporal arcs {t}->{t + 1}: arcs are not sorted by (m0, m1) "
                             "without repeats")
        links.append((arcs, meta))
    return links


def load_tveg_json(path: str) -> Tveg:
    """Rebuild a Tveg from an exported file (without voxel geometry), one
    step at a time. Raises ValueError, naming the section and the step or
    pair, when a key is missing, a value has the wrong JSON type, is out of
    range or is not finite, a step's or a pair's layout is not the one
    exported, the steps are not contiguous in t, theta is not a finite
    number >= 0, or the stored events are not the ones the arcs give."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a tveg.json must be an object, got {type(doc).__name__}")
    for key, kind in (("steps", list), ("temporal_arcs", list), ("weights", dict), ("events", dict)):
        if not isinstance(value := doc.get(key), kind):
            raise ValueError(f"'{key}' must be a {kind.__name__}, got {type(value).__name__}")
    graphs = list(map(_graph_from_step, doc["steps"]))
    links = _links_from_pairs(doc["temporal_arcs"], graphs)
    with _reading("weights"):
        weights = ScoreWeights(*(float(_scalar(doc["weights"][k], f"'{k}'")) + 0.0
                                 for k in ("G", "L1", "L2", "L3")))
    with _reading("theta"):
        theta = check_theta(float(_scalar(doc["theta"], "'theta'")), "'theta'", doc["theta"])
    tveg = Tveg(graphs, links, weights, theta)
    with _reading("events"):
        for kind, records in vars(tveg.events).items():
            # compared as JSON texts, so that a stored true or 1.0 is not taken for 1
            stored, derived = (json.dumps(r, sort_keys=True) for r in (doc["events"][kind], records))
            if stored != derived:
                raise ValueError(f"events: the stored {kind} are not those the temporal arcs give")
    return tveg


def tracks_json(tracks: list[Track]) -> Iterator[str]:
    """The canonical JSON text of the tracks (each an object of arcs, length
    and nodes), trailing newline included, as pieces to write in turn: one
    fill of the [a, b] pair template per track. The one writer of tracks,
    for `tracks.json` and the track queries alike."""
    yield '{"tracks":['
    for i, tr in enumerate(tracks):
        arcs, nodes = tr.arcs, tr.nodes
        template = '%s{"arcs":[%s],"length":%%d,"nodes":[%s]}' % (
            "," if i else "", ",".join(["[%d,%d]"] * len(arcs)), ",".join(["[%d,%d]"] * len(nodes)))
        yield template % (*chain.from_iterable(arcs), tr.length, *chain.from_iterable(nodes))
    yield "]}\n"


def export_tracks_json(tracks: list[Track], path: str) -> None:
    """Write the tracks as canonical JSON, track by track."""
    with open(path, "w") as fh:
        fh.writelines(tracks_json(tracks))


def load_tracks_json(path: str) -> list[Track]:
    """The tracks of an exported file. Raises ValueError, naming the file
    and the track, unless the document is an object whose `tracks` list
    holds objects with `nodes` and `arcs` lists, each node two integers
    [t, id] with t the step of id and each arc two ids of its track's
    nodes."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a tracks file must be an object, got {type(doc).__name__}")
    if not isinstance(tracks := doc.get("tracks"), list):
        raise ValueError(f"{path}: 'tracks': a value of the wrong JSON type "
                         f"(a list is needed, got {type(tracks).__name__})")
    return [_track(tr, f"{path}: track {i}") for i, tr in enumerate(tracks)]


def _int_pair(v) -> bool:
    """Whether v is a JSON list of two integers (not bools or floats)."""
    return type(v) is list and len(v) == 2 and all(type(x) is int for x in v)


def _track(tr, where: str) -> Track:
    """One checked track of a tracks file; `where` names it in errors."""
    if not (isinstance(tr, dict) and all(type(tr.get(k)) is list for k in ("nodes", "arcs"))):
        raise ValueError(f"{where}: a track must be an object with 'nodes' and 'arcs' lists")
    for node in tr["nodes"]:
        if not (_int_pair(node) and split_node_id(node[1])[0] == node[0]):
            raise ValueError(f"{where}: node {node!r} is not two integers [t, id] "
                             "with t the step of id")
    ids = {n for _, n in tr["nodes"]}
    for arc in tr["arcs"]:
        if not (_int_pair(arc) and arc[0] in ids and arc[1] in ids):
            raise ValueError(f"{where}: arc {arc!r} is not two ids of the track's nodes")
    return Track(nodes=list(map(tuple, tr["nodes"])), arcs=list(map(tuple, tr["arcs"])))


def _event_codes(tveg: Tveg) -> dict[int, int]:
    """Per node id, its event code: 1 merge, 2 split, 3 deletion, 4 generation.

    First match in that order wins when a node participates in several:
    the kinds are entered from the last, each over those after it. Every
    event is recorded at its node's step, so the node id alone keys it.
    """
    ev = tveg.events
    codes = {n: 4 for n, _ in ev.generations}
    codes.update({n: 3 for n, _ in ev.deletions})
    codes.update({e["node"]: 2 for e in ev.splits})
    codes.update({e["node"]: 1 for e in ev.merges})
    return codes


def export_tracks_geometry(
    tracks: list[Track],
    tveg: Tveg,
    path: str,
    z_scale: float = 0.1,
    slab_height: float | None = None,
    include_spatial: bool = False,
) -> None:
    """Legacy ASCII polydata export of tracks stacked along z.

    Point z' = z * z_scale + t * slab_height; slab_height defaults to
    the scaled z-extent of the node coordinates so consecutive steps do
    not overlap. Point scalars: time index, track id, event code. With
    `include_spatial`, each track maximum also gets a line to each of
    its saddles. Points are each track's nodes, then its saddles; lines
    are each track's arcs, then its spatial lines. Every track node must
    be a maximum of `tveg`: the first that is not, in track order, raises
    the ValueError of `Tveg.max_row` before anything is written.

    Each step the tracks touch only selects its rows (`_step_rows`). The
    rows of all steps are rendered once per file (`_node_texts`), so a
    maximum's point, time and event texts and its saddles' joined point
    text are built once, however many points use them; each point of it
    then adds its spatial lines in one fill and its saddles' scalars as
    repeated texts.
    """
    nodes = [node for tr in tracks for node in tr.nodes]
    tveg.maxima_rows(nodes)
    if slab_height is None:
        slab_height = _default_slab_height(tveg, z_scale)
    held: dict[int, set[int]] = defaultdict(set)  # per step, the ids of its maxima the tracks hold
    for t, mid in nodes:
        held[t].add(mid)
    steps = [_step_rows(tveg.graph_at(t), ids, include_spatial) for t, ids in held.items()]
    point, saddles = _node_texts(steps, list(held), z_scale, slab_height, _event_codes(tveg))

    points: list[str] = []  # the text of each point, or of a node's saddles
    lines: list[str] = []  # the text of each line, or of a node's spatial lines
    times: list[str] = []  # the scalars' texts, each one point's or one node's saddles'
    track_ids: list[str] = []
    events: list[str] = []
    n = m = 0  # points and lines so far
    for track_id, tr in enumerate(tracks):
        start, nodes, arcs = n, tr.nodes, tr.arcs
        index: dict[int, int] = {}  # node id -> its point
        for t, mid in nodes:
            index[mid] = n
            n += 1
            text, time_text, event_text = point[mid]
            points.append(text)
            times.append(time_text)
            events.append(event_text)
        for a, b in arcs:
            lines.append("2 %d %d\n" % (index[a], index[b]))
        m += len(arcs)
        if include_spatial:
            for t, mid in nodes:
                text, c = saddles[mid]
                points.append(text)
                lines.append(("2 %d %%d\n" % index[mid]) * c % tuple(range(n, n + c)))
                times.append(("%d\n" % t) * c)
                events.append("0\n" * c)
                n += c
                m += c
        track_ids.append(("%d\n" % track_id) * (n - start))

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\ntvex tracks\nASCII\nDATASET POLYDATA\n"
                 f"POINTS {n} float\n")
        fh.write("".join(points))
        fh.write(f"LINES {m} {3 * m}\n")
        fh.write("".join(lines))
        fh.write(f"POINT_DATA {n}\n")
        for name, column in zip(("time_index", "track_id", "event_code"), (times, track_ids, events)):
            fh.write(f"SCALARS {name} int 1\nLOOKUP_TABLE default\n")
            fh.write("".join(column))


def _step_rows(g: ExtremumGraph, ids: set[int],
               spatial: bool) -> tuple[list[int], np.ndarray, np.ndarray, list[int]]:
    """The rows of `g` the points use, in row order: the maxima `ids`,
    then, if `spatial`, the saddles of their arcs. Returns the ids in
    order, the rows' coordinates and, if `spatial`, the row among them of
    each of those arcs' saddle (the arcs sorted by maximum) and the
    bounds first[i]:first[i + 1] of the i-th maximum's arcs. Every id must
    be a maximum of the step."""
    base = make_node_id(g.t, 0)
    maxima = sorted(ids)
    rows = np.array(maxima) - base
    if not spatial:
        return maxima, g.coords.take(rows, 0), rows[:0], []
    used = np.zeros(len(g.value), bool)
    used[rows] = True
    m, s = g.arcs[:, 0], g.arcs[:, 1]
    held = used[m]
    m, s = m[held], s[held]  # the arcs of the maxima `ids`
    used[s] = True
    first = m.searchsorted(rows).tolist() + [len(m)]
    rows = used.nonzero()[0]
    return maxima, g.coords.take(rows, 0), rows.searchsorted(s), first


def _node_texts(steps: list, ts: list[int], z_scale: float, slab_height: float,
                codes: dict[int, int]) -> tuple[dict, dict]:
    """The texts of the maxima of `steps`, the `_step_rows` of steps `ts`,
    from one render of all their rows, z' = z * z_scale + t * slab_height:
    each distinct x, y and z' once, then every row's text in one fill.
    Returns, by maximum id, its point, time and event texts, and its
    saddles' point texts joined, with their count."""
    sizes = [len(c) for _, c, _, _ in steps]
    coords = np.concatenate([c for _, c, _, _ in steps] or [np.empty((0, 3))])
    coords[:, 2] *= z_scale
    coords[:, 2] += np.repeat([t * slab_height for t in ts], sizes)
    texts = ("%s %s %s\n" * len(coords) % tuple(_texts(coords.ravel(), "%.9g"))).splitlines(True)
    row_texts = np.array(texts, object)
    point: dict[int, tuple[str, str, str]] = {}
    saddles: dict[int, tuple[str, int]] = {}
    at = 0  # the step's first row
    for (maxima, _, saddle_rows, first), size, t in zip(steps, sizes, ts):
        point.update(zip(maxima, zip(texts[at:at + len(maxima)], repeat("%d\n" % t),
                                     ["%d\n" % codes.get(mid, 0) for mid in maxima])))
        ends = row_texts.take(saddle_rows + at).tolist()  # each arc's saddle text
        for mid, lo, hi in zip(maxima, first, first[1:]):
            saddles[mid] = "".join(ends[lo:hi]), hi - lo
        at += size
    return point, saddles


def _default_slab_height(tveg: Tveg, z_scale: float) -> float:
    """The scaled z-extent of all node coordinates (1 if flat)."""
    zs = np.concatenate([g.coords[:, 2] for g in tveg.graphs] or [np.empty(0)])
    if not zs.size:
        return 1.0
    extent = float(zs.max() - zs.min())
    return extent * z_scale if extent > 0 else 1.0


def export_segmentation(seg: Segmentation, path_prefix: str) -> tuple[str, str]:
    """Raw 32-bit unsigned volume of each voxel's maximum's voxel id, plus
    a JSON sidecar.

    Returns (labels_path, sidecar_path).
    """
    labels_path = path_prefix + ".labels.raw"
    sidecar_path = path_prefix + ".labels.json"
    seg.maxima.astype("<u4").take(seg.labels).tofile(labels_path)
    f = seg.field
    maxima = seg.maxima.tolist()
    sizes = np.bincount(seg.labels, minlength=len(maxima))
    sidecar = {
        "dims": list(f.dims),
        "dtype": "<u4",
        "order": "x-fastest",
        "maxima": [
            {
                "label": m,
                "x": x,
                "value": value,
                "pers": pers,
                "vertex": m,
                "region_voxels": size,
            }
            for m, x, value, pers, size in zip(
                maxima,
                f.world_coords_many(seg.maxima).tolist(),
                f.values[seg.maxima].tolist(),
                seg.pers.tolist(),
                sizes.tolist(),
            )
        ],
    }
    with open(sidecar_path, "w") as fh:
        fh.write(canonical_json(sidecar))
    return labels_path, sidecar_path


def export_extremum_graph_json(g: ExtremumGraph, path: str) -> None:
    """Write one step as the object it is inside `tveg.json`."""
    with open(path, "w") as fh:
        fh.writelines(_step_json(g))
        fh.write("\n")
