"""Canonical JSON, exports, loaders, and the command-line driver."""

import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

import linking_oracle as oracle
from tvex import io as tvio
from tvex.cli import main
from tvex.field import FieldSeries, ScalarField3D, generate_gauss8, load_series, save_series
from tvex.pipeline import compute_tveg, resolve_theta
from tvex.query import events_in_window, least_deviation, track_neighborhood, tracks_longer_than
from tvex.temporal import ScoreWeights
from tvex.tracks import Track, extract_tracks, refine_by_overlap

from conftest import assert_same_text, random_field, raw_segmentation, two_blob_series


@pytest.fixture(scope="module")
def tvg():
    series = two_blob_series(steps=4)
    theta = 0.05 * series.global_range()
    return compute_tveg(series, theta, ScoreWeights())


class TestCanonicalJson:
    def test_sorted_keys(self):
        assert tvio.canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'

    def test_float_formatting(self):
        assert tvio.canonical_json(0.1) == "0.10000000000000001\n"
        assert tvio.canonical_json(1.0) == "1\n"

    def test_float_roundtrips_exactly(self):
        for x in (0.1, 1 / 3, math.pi, 1e-300, 12345.6789):
            text = tvio.canonical_json(x)
            assert float(text) == x

    def test_scalars(self):
        assert tvio.canonical_json(True) == "true\n"
        assert tvio.canonical_json(None) == "null\n"
        assert tvio.canonical_json([1, "x"]) == '[1,"x"]\n'

    def test_numpy_scalars(self):
        assert tvio.canonical_json(np.int64(3)) == "3\n"
        assert tvio.canonical_json(np.float64(0.5)) == "0.5\n"


class TestTvegRoundtrip:
    def test_export_load_export_byte_identical(self, tvg, tmp_path):
        p1 = str(tmp_path / "a.json")
        p2 = str(tmp_path / "b.json")
        tvio.export_tveg_json(tvg, p1)
        back = tvio.load_tveg_json(p1)
        tvio.export_tveg_json(back, p2)
        assert_same_text(open(p1, "rb").read(), open(p2, "rb").read())

    def test_loaded_structure_matches(self, tvg, tmp_path):
        p = str(tmp_path / "t.json")
        tvio.export_tveg_json(tvg, p)
        back = tvio.load_tveg_json(p)
        assert back.theta == tvg.theta
        assert back.weights == tvg.weights
        assert [g.t for g in back.graphs] == [g.t for g in tvg.graphs]
        assert back.all_arcs() == tvg.all_arcs()
        assert back.events.merges == tvg.events.merges
        assert back.events.deletions == tvg.events.deletions
        assert [meta.tau for _, meta in back.links] == [meta.tau for _, meta in tvg.links]


class TestSignedZeros:
    """JSON reads "-0" back as the integer 0, so a -0.0 that enters as
    theta, a weight or a loaded float is stored as 0.0: otherwise export ->
    load -> export would not be byte-identical."""

    @pytest.mark.parametrize("option, field", [
        ("--theta=-0", '"theta":0,'), ("--theta=-0r", '"theta":0,'),
        ("--weights=-0,0.5,0.25,0.25", '"G":0,'),
    ])
    def test_cli_options(self, tmp_path, option, field):
        manifest = save_series(generate_gauss8((8, 8, 8), steps=4), str(tmp_path / "d"))
        assert main(["tveg", "--manifest", manifest, option, "-o", str(tmp_path)]) == 0
        path, again = tmp_path / "tveg.json", str(tmp_path / "again.json")
        assert field in path.read_text()
        tvio.export_tveg_json(tvio.load_tveg_json(str(path)), again)
        assert_same_text(path.read_bytes(), open(again, "rb").read())

    @pytest.mark.parametrize("keys, value", [
        (("steps", 1, "nodes", 0, "pers"), -0.0),
        (("steps", 1, "nodes", 0, "x", 0), -0.0),
        (("temporal_arcs", 0, "arcs", 0, 2), -0.0),
        (("temporal_arcs", 0, "filter", "mu"), -0.0),
        (("theta",), -0.0),
        (("weights",), {"G": -0.0, "L1": 0.5, "L2": 0.25, "L3": 0.25}),
    ], ids=["pers", "x", "s", "mu", "theta", "weights"])
    def test_loaded_values(self, tvg, tmp_path, keys, value):
        path, once, twice = (str(tmp_path / name) for name in ("a.json", "b.json", "c.json"))
        tvio.export_tveg_json(tvg, path)
        doc = json.load(open(path))
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert "-0.0" in open(path).read()
        tvio.export_tveg_json(tvio.load_tveg_json(path), once)
        tvio.export_tveg_json(tvio.load_tveg_json(once), twice)
        assert not re.search(r"[:,\[]-0[,\]}]", open(once).read())
        assert_same_text(open(once, "rb").read(), open(twice, "rb").read())


class TestStreamingExport:
    """`export_tveg_json` writes the file as it renders it, one step's or
    one pair's text at a time."""

    def test_peak_memory_is_a_few_steps(self, tmp_path):
        """On 12 noisy 16^3 steps (104-148 maxima each) the export's
        allocations peak below twice the longest step's text (about 1.4
        times): a step is written as its arcs text, its nodes text in row
        blocks and its closing text. A writer that renders each step as
        one string peaks at about 3.5 times, one that joins the whole
        document at about 31 times."""
        series = generate_gauss8((16, 16, 16), 12, sigma=0.2)
        rng = np.random.default_rng(0)
        for f in series.fields:
            noisy = f.values + rng.normal(0.0, 0.05, f.num_voxels)
            f.values = noisy.astype(np.float32).astype(np.float64)
        tveg = compute_tveg(series, 0.0, ScoreWeights())
        longest = max(len("".join(tvio._step_json(g))) for g in tveg.graphs)
        path = tmp_path / "tveg.json"
        tracemalloc.start()
        try:
            tvio.export_tveg_json(tveg, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 9 * longest
        assert peak < 2 * longest

    def test_out_of_memory_mid_export(self, tmp_path, capsys, monkeypatch):
        """A MemoryError while rendering the second step exits 3; the
        partial file left behind is refused with exit 2, naming the file."""
        manifest = save_series(generate_gauss8((8, 8, 8), steps=4), str(tmp_path / "d"))
        step_json, calls = tvio._step_json, []

        def second_fails(g):
            calls.append(g.t)
            if len(calls) == 2:
                raise MemoryError
            return step_json(g)

        monkeypatch.setattr(tvio, "_step_json", second_fails)
        assert main(["tveg", "--manifest", manifest, "-o", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "error: out of memory\n"
        assert calls == [1, 2]
        path = tmp_path / "o" / "tveg.json"
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(path.read_text())
        assert main(["events", "--tveg", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: not JSON: {exc.value}\n"


def _corrupt_steps(doc, how):
    steps = doc["steps"]
    if how == "ids out of order":
        nodes = steps[1]["nodes"]
        nodes[0], nodes[1] = nodes[1], nodes[0]
    elif how == "id of another step":
        steps[1]["nodes"][0]["id"] += 1 << 32
    elif how == "saddle among maxima":
        steps[1]["nodes"][0]["index"] = 2
    elif how == "steps not contiguous":
        del steps[1]
    elif how == "arcs not sorted":
        steps[1]["arcs"].reverse()
    elif how == "arc to another step":
        steps[1]["arcs"][0][1] += 1 << 32
    elif how == "six coordinates":
        for step in steps:
            for node in step["nodes"]:
                node["x"] += node["x"]
    elif how == "arc repeated":
        steps[1]["arcs"].insert(1, steps[1]["arcs"][0])
    elif how == "saddle with one arc":
        del steps[1]["arcs"][0]


class TestTvegLoaderChecks:
    @pytest.mark.parametrize(
        "how",
        [
            "ids out of order",
            "id of another step",
            "saddle among maxima",
            "steps not contiguous",
            "arcs not sorted",
            "arc to another step",
            "six coordinates",
            "arc repeated",
            "saddle with one arc",
        ],
    )
    def test_rejects_layout_with_exit_2(self, tvg, tmp_path, capsys, how):
        p = str(tmp_path / "t.json")
        tvio.export_tveg_json(tvg, p)
        doc = json.load(open(p))
        assert len(doc["steps"][1]["arcs"]) >= 2
        _corrupt_steps(doc, how)
        with open(p, "w") as fh:
            fh.write(tvio.canonical_json(doc))
        with pytest.raises(ValueError):
            tvio.load_tveg_json(p)
        assert main(["events", "--tveg", p]) == 2
        assert "error:" in capsys.readouterr().err

    def test_first_bad_step_is_named(self, tvg, tmp_path, capsys):
        """Each step is read and checked before the next: step 1's arcs are
        named although step 2's node ids are out of order too."""
        p = str(tmp_path / "t.json")
        tvio.export_tveg_json(tvg, p)
        doc = json.load(open(p))
        steps = doc["steps"]
        assert [s["t"] for s in steps[:2]] == [1, 2] and len(steps[0]["arcs"]) >= 2
        steps[0]["arcs"].reverse()
        nodes = steps[1]["nodes"]
        nodes[0], nodes[1] = nodes[1], nodes[0]
        with open(p, "w") as fh:
            fh.write(tvio.canonical_json(doc))
        named = "step 1: arcs must be sorted (maximum, saddle) pairs"
        with pytest.raises(ValueError, match=re.escape(named)):
            tvio.load_tveg_json(p)
        assert main(["events", "--tveg", p]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"

    @pytest.mark.parametrize(
        "how, named",
        [
            ("events a list", "'events' must be a dict, got list"),
            ("events null", "'events' must be a dict, got NoneType"),
            ("arcs a number", "'temporal_arcs': a value of the wrong JSON type"),
            ("filter null", "'temporal_arcs': a value of the wrong JSON type"),
            ("temporal_arcs an object", "'temporal_arcs' must be a list, got dict"),
            ("weights a list", "'weights' must be a dict, got list"),
            ("a weight null", "'weights': a value of the wrong JSON type"),
            ("theta null", "'theta': a value of the wrong JSON type"),
            ("node a number", "'steps': a value of the wrong JSON type"),
            ("steps an empty object", "'steps' must be a list, got dict"),
            ("document a list", "a tveg.json must be an object, got list"),
            ("theta a string", "'theta': a value of the wrong JSON type ('theta' must be a number"),
            ("a weight a string", "'weights': a value of the wrong JSON type ('G' must be a number"),
            ("weights booleans", "'weights': a value of the wrong JSON type ('G' must be a number"),
            ("step t not integral", "'steps': a value of the wrong JSON type (a step's 't' must "
             "be an integer, got 1.5)"),
            ("step t a string", "'steps': a value of the wrong JSON type (a step's 't' must be "
             "an integer, got '1')"),
            ("pair t a string", "'temporal_arcs': a value of the wrong JSON type (a pair's 't' "
             "must be an integer, got '1')"),
            ("mu a string", "'temporal_arcs': a value of the wrong JSON type in pair 1->2 ('mu' "
             "must be a number"),
            ("node value a string", "'steps': a value of the wrong JSON type in step 2 (node "
             "'value', 'pers' and 'eta' must be numbers"),
            ("node vertex not integral", "'steps': a value of the wrong JSON type in step 2 "
             "(node 'id', 't', 'index' and 'vertex' must be integers"),
            ("node id a float", "'steps': a value of the wrong JSON type in step 2 (node 'id', "
             "'t', 'index' and 'vertex' must be integers"),
            ("node vertex true", "'steps': a value of the wrong JSON type in step 2 (node 'id', "
             "'t', 'index' and 'vertex' must be integers"),
            ("node value false", "'steps': a value of the wrong JSON type in step 2 (node "
             "'value', 'pers' and 'eta' must be numbers"),
            ("coordinate a string", "'steps': a value of the wrong JSON type in step 2 (node 'x' "
             "must be numbers"),
            ("temporal arc id a float", "'temporal_arcs': a value of the wrong JSON type in pair "
             "1->2 (m0 must be an integer"),
            ("arc score a string", "'temporal_arcs': a value of the wrong JSON type in pair 1->2 "
             "(s must be a number"),
            ("node vertex 2**70", "'steps': a value of the wrong JSON type in step 2 (node 'id', "
             "'t', 'index' and 'vertex' must be integers in the int64 range"),
            ("spatial arc id 2**70", "'steps': a value of the wrong JSON type in step 2 ('arcs' "
             "must be integers in the int64 range"),
            ("node value 10**400", "'steps': a value of the wrong JSON type in step 2 (node "
             "'value', 'pers' and 'eta' must be numbers in the float64 range"),
            ("theta 10**400", "'theta': a number out of range"),
            ("node eta missing", "'steps': the key 'eta' is missing in step 2"),
            ("step arcs missing", "'steps': the key 'arcs' is missing in step 2"),
            ("filter mu missing", "'temporal_arcs': the key 'mu' is missing in pair 1->2"),
            ("weight G missing", "'weights': the key 'G' is missing"),
            ("merges missing", "'events': the key 'merges' is missing"),
            ("theta missing", "'theta': the key 'theta' is missing"),
            ("temporal arc of two entries", "'temporal_arcs': a value of the wrong JSON type in "
             "pair 1->2 (a temporal arc must be [m0, m1, s]"),
            ("two coordinates", "'steps': a value of the wrong JSON type in step 2 (node 'x' "
             "must be numbers in the float64 range, of shape"),
            ("a weight NaN", "weights must be numbers >= 0, got (nan,"),
            ("node value NaN", "'steps': a value of the wrong JSON type in step 2 (node "
             "'value', 'pers' and 'eta' must be finite, got nan)"),
            ("coordinate Infinity", "'steps': a value of the wrong JSON type in step 2 (node "
             "'x' must be finite, got inf)"),
            ("arc score NaN", "'temporal_arcs': a value of the wrong JSON type in pair 1->2 "
             "(s must be a finite number, got nan)"),
            ("mu NaN", "'temporal_arcs': a value of the wrong JSON type in pair 1->2 ('mu' "
             "must be a finite number, got nan)"),
        ],
    )
    def test_wrong_json_type_is_named(self, tvg, tmp_path, capsys, how, named):
        p = str(tmp_path / "t.json")
        tvio.export_tveg_json(tvg, p)
        doc = json.load(open(p))
        pair = doc["temporal_arcs"][0]
        step, node = doc["steps"][1], doc["steps"][1]["nodes"][0]
        assert (step["t"], pair["t"]) == (2, 1)
        if how == "events a list":
            doc["events"] = []
        elif how == "events null":
            doc["events"] = None
        elif how == "arcs a number":
            pair["arcs"] = 5
        elif how == "filter null":
            pair["filter"] = None
        elif how == "temporal_arcs an object":
            doc["temporal_arcs"] = {"1": pair}
        elif how == "weights a list":
            doc["weights"] = list(doc["weights"].values())
        elif how == "a weight null":
            doc["weights"]["G"] = None
        elif how == "theta null":
            doc["theta"] = None
        elif how == "node a number":
            doc["steps"][1]["nodes"][0] = 7
        elif how == "steps an empty object":
            doc["steps"] = {}
        elif how == "document a list":
            doc = [doc]
        elif how == "theta a string":
            doc["theta"] = str(doc["theta"])
        elif how == "a weight a string":
            doc["weights"]["G"] = "0.25"
        elif how == "weights booleans":
            doc["weights"] = {"G": True, "L1": False, "L2": 0, "L3": 0}
        elif how == "step t not integral":
            doc["steps"][0]["t"] = 1.5
        elif how == "step t a string":
            doc["steps"][0]["t"] = "1"
        elif how == "pair t a string":
            pair["t"] = "1"
        elif how == "mu a string":
            pair["filter"]["mu"] = "0.5"
        elif how == "node value a string":
            node["value"] = "0.5"
        elif how == "node vertex not integral":
            node["vertex"] += 0.7
        elif how == "node id a float":
            node["id"] = float(node["id"])
        elif how == "node vertex true":  # numpy would read it as 1
            node["vertex"] = True
        elif how == "node value false":  # numpy would read it as 0.0
            node["value"] = False
        elif how == "coordinate a string":
            node["x"][0] = "1.0"
        elif how == "temporal arc id a float":
            pair["arcs"][0][0] = float(pair["arcs"][0][0])
        elif how == "arc score a string":
            pair["arcs"][0][2] = "0.1"
        elif how == "node vertex 2**70":
            node["vertex"] = 2**70
        elif how == "spatial arc id 2**70":
            step["arcs"][0][0] = 2**70
        elif how == "node value 10**400":
            node["value"] = 10**400
        elif how == "theta 10**400":
            doc["theta"] = 10**400
        elif how == "node eta missing":
            del node["eta"]
        elif how == "step arcs missing":
            del step["arcs"]
        elif how == "filter mu missing":
            del pair["filter"]["mu"]
        elif how == "weight G missing":
            del doc["weights"]["G"]
        elif how == "merges missing":
            del doc["events"]["merges"]
        elif how == "theta missing":
            del doc["theta"]
        elif how == "temporal arc of two entries":
            pair["arcs"][0].pop()
        elif how == "two coordinates":
            node["x"].pop()
        elif how == "a weight NaN":
            doc["weights"]["G"] = math.nan
        elif how == "node value NaN":
            node["value"] = math.nan
        elif how == "coordinate Infinity":
            node["x"][0] = math.inf
        elif how == "arc score NaN":
            pair["arcs"][0][2] = math.nan
        elif how == "mu NaN":
            pair["filter"]["mu"] = math.nan
        with open(p, "w") as fh:
            # json.dumps keeps a float's ".0" and writes a NaN as NaN, as json.load reads it
            fh.write(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(named)):
            tvio.load_tveg_json(p)
        assert main(["events", "--tveg", p]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("t0, named", [
        (2**31 - 2, None),
        (2**31, "step times must lie in [-2**31, 2**31), got 2147483648..2147483649"),
        (-2**31 - 2, "step times must lie in [-2**31, 2**31), got -2147483650..-2147483649"),
    ])
    def test_steps_beyond_32_bits_are_named(self, tmp_path, capsys, t0, named):
        """Steps without nodes hold no node id, yet one beyond [-2**31, 2**31)
        is refused on load: the ids of its graph would not fit int64."""
        doc = {
            "events": {"deletions": [], "generations": [], "merges": [], "splits": []},
            "steps": [{"arcs": [], "nodes": [], "t": t} for t in (t0, t0 + 1)],
            "temporal_arcs": [{"arcs": [], "filter": {"mu": 0.0, "sigma": 0.0, "tau": 0.0},
                               "t": t0}],
            "theta": 0.0,
            "weights": {"G": 0.25, "L1": 0.25, "L2": 0.25, "L3": 0.25},
        }
        p = tmp_path / "t.json"
        p.write_text(tvio.canonical_json(doc))
        argv = ["query", "--tveg", str(p), "--kind", "region", "--box", "0", "0", "0", "1",
                "1", "1", "--window", str(t0), str(t0 + 1)]
        if named is None:
            assert main(argv) == 0
            assert capsys.readouterr().out.startswith(
                '{"maxima":[],"saddles":[],"spatial_arcs":[],"temporal_arcs":[]}\n')
            return
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {named}\n"


class TestTvegPairChecks:
    """The loader checks each stored pair of temporal arcs against the
    steps, and the stored events against those the arcs give."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("pairs")
        series = generate_gauss8((8, 8, 8), steps=4, sigma=0.08)
        manifest = save_series(series, str(tmp / "d"))
        assert main(["tveg", "--manifest", manifest, "--theta", "0.05r", "-o", str(tmp)]) == 0
        return manifest, (tmp / "tveg.json").read_text()

    @pytest.mark.parametrize(
        "how, named",
        [
            ("m0 is a saddle", "temporal arcs 1->2"),
            ("m0 is a row past n_max", "temporal arcs 1->2"),
            ("m1 is of step t + 2", "temporal arcs 1->2"),
            ("pair at the last step", "temporal arcs 4->5"),
            ("arc repeated", "temporal arcs 1->2: arcs are not sorted"),
            ("arcs out of order", "temporal arcs 1->2: arcs are not sorted"),
            ("pair stored twice", "temporal arcs 1->2: stored twice"),
            ("pair missing", "temporal arcs 2->3: missing"),
            ("pairs out of order", "temporal arcs 1->2: stored out of order"),
            ("merge the arcs do not give", "events: the stored merges"),
            ("deletion dropped", "events: the stored deletions"),
            ("deletion time true", "events: the stored deletions"),
            ("deletion node a float", "events: the stored deletions"),
        ],
    )
    def test_rejects_with_exit_2(self, run, tmp_path, capsys, how, named):
        manifest, text = run
        doc = json.loads(text)
        pair, nodes = doc["temporal_arcs"][0], doc["steps"][0]["nodes"]
        n_max = sum(node["index"] == 3 for node in nodes)
        if how == "m0 is a saddle":
            assert len(nodes) > n_max
            pair["arcs"][0][0] = nodes[n_max]["id"]
        elif how == "m0 is a row past n_max":
            pair["arcs"][0][0] = (1 << 32) | 999
        elif how == "m1 is of step t + 2":
            pair["arcs"][0][1] += 1 << 32
        elif how == "arc repeated":
            pair["arcs"].insert(1, pair["arcs"][0])
        elif how == "arcs out of order":
            pair["arcs"].reverse()
        elif how == "pair at the last step":
            doc["temporal_arcs"][-1]["t"] = doc["steps"][-1]["t"]
        elif how == "pair stored twice":
            doc["temporal_arcs"].append(pair)
        elif how == "pair missing":
            del doc["temporal_arcs"][1]
        elif how == "pairs out of order":
            pairs = doc["temporal_arcs"]
            pairs[0], pairs[1] = pairs[1], pairs[0]
        elif how == "merge the arcs do not give":
            (a, b, _), (c, _, _) = pair["arcs"][:2]
            doc["events"]["merges"].append({"node": b, "time": 2, "participants": [a, c]})
        elif how == "deletion dropped":
            assert doc["events"]["deletions"]
            doc["events"]["deletions"].pop()
        elif how == "deletion time true":
            next(d for d in doc["events"]["deletions"] if d[1] == 1)[1] = True
        elif how == "deletion node a float":
            deletion = doc["events"]["deletions"][0]
            deletion[0] = float(deletion[0])
        p = str(tmp_path / "t.json")
        with open(p, "w") as fh:
            json.dump(doc, fh)  # a float as 1.0, where canonical_json writes 1
        with pytest.raises(ValueError, match=named):
            tvio.load_tveg_json(p)
        capsys.readouterr()
        for argv in (
            ["events", "--tveg", p],
            ["export", "--tveg", p, "-o", str(tmp_path / "x.vtk")],
            ["tracks", "--refine", "--tveg", p, "--manifest", manifest,
             "-o", str(tmp_path / "x.json")],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: {named}")

    @pytest.mark.parametrize("theta", [math.nan, -1.0, math.inf])
    def test_rejects_theta_not_finite_and_non_negative(self, run, tmp_path, capsys, theta):
        manifest, text = run
        doc = json.loads(text)
        doc["theta"] = theta
        p = str(tmp_path / "t.json")
        with open(p, "w") as fh:
            json.dump(doc, fh)  # writes NaN and Infinity as json.load reads them
        named = f"'theta' must be a finite number >= 0, got {theta!r}"
        with pytest.raises(ValueError, match=re.escape(named)):
            tvio.load_tveg_json(p)
        capsys.readouterr()
        argv = ["tracks", "--refine", "--tveg", p, "--manifest", manifest,
                "-o", str(tmp_path / "x.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {named}\n"


class TestTracksRoundtrip:
    def test_json_roundtrip(self, tvg, tmp_path):
        tracks = extract_tracks(tvg, mode="simple-paths")
        p = str(tmp_path / "tracks.json")
        tvio.export_tracks_json(tracks, p)
        back = tvio.load_tracks_json(p)
        assert [tr.nodes for tr in back] == [tr.nodes for tr in tracks]
        assert [tr.arcs for tr in back] == [tr.arcs for tr in tracks]


class TestGeometryExport:
    def test_polydata_counts_consistent(self, tvg, tmp_path):
        tracks = extract_tracks(tvg, mode="simple-paths")
        p = str(tmp_path / "tracks.vtk")
        tvio.export_tracks_geometry(tracks, tvg, p)
        lines = open(p).read().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET POLYDATA"
        n_points = int(lines[4].split()[1])
        assert n_points == sum(len(tr.nodes) for tr in tracks)
        li = lines.index(next(l for l in lines if l.startswith("LINES")))
        n_lines = int(lines[li].split()[1])
        assert n_lines == sum(len(tr.arcs) for tr in tracks)
        pd = lines.index(f"POINT_DATA {n_points}")
        names = [l.split()[1] for l in lines[pd:] if l.startswith("SCALARS")]
        assert names == ["time_index", "track_id", "event_code"]

    def test_z_offset_stacks_steps(self, tvg, tmp_path):
        tracks = extract_tracks(tvg, mode="simple-paths")
        p = str(tmp_path / "tracks.vtk")
        tvio.export_tracks_geometry(tracks, tvg, p, z_scale=0.1, slab_height=10.0)
        lines = open(p).read().splitlines()
        n_points = int(lines[4].split()[1])
        pts = [tuple(map(float, l.split())) for l in lines[5 : 5 + n_points]]
        times = [t for tr in tracks for t, _ in tr.nodes]
        for (x, y, z), t in zip(pts, times):
            assert 10.0 * t - 1.0 <= z <= 10.0 * t + 1.0


    def test_loaded_copy_gives_identical_vtk(self, tvg, tmp_path):
        """The default slab height comes from the node coordinates, which
        tveg.json keeps, so a loaded copy exports the same file."""
        p = str(tmp_path / "t.json")
        tvio.export_tveg_json(tvg, p)
        back = tvio.load_tveg_json(p)
        tracks = extract_tracks(tvg, mode="simple-paths")
        for spatial in (False, True):
            a, b = str(tmp_path / "a.vtk"), str(tmp_path / "b.vtk")
            tvio.export_tracks_geometry(tracks, tvg, a, include_spatial=spatial)
            tvio.export_tracks_geometry(tracks, back, b, include_spatial=spatial)
            assert_same_text(open(a, "rb").read(), open(b, "rb").read())


    def test_track_node_must_be_a_maximum(self, tvg, tmp_path, capsys):
        """A saddle is refused by the writer; a node of another step, by
        the writer in memory and by the loader in a --tracks file."""
        p = str(tmp_path / "t.json")
        tvio.export_tveg_json(tvg, p)
        g = tvg.graphs[0]
        for node, msg in ((int(g.saddles[0]), "no maximum"),
                          (int(g.maxima[0]) + (1 << 32), "with t the step of id")):
            tp = str(tmp_path / "tracks.json")
            tvio.export_tracks_json([Track(nodes=[(g.t, node)])], tp)
            argv = ["export", "--tveg", p, "--tracks", tp, "-o", str(tmp_path / "x.vtk")]
            assert main(argv) == 2
            assert msg in capsys.readouterr().err
            with pytest.raises(ValueError, match="no maximum"):
                tvio.export_tracks_geometry([Track(nodes=[(g.t, node)])], tvg,
                                            str(tmp_path / "y.vtk"))

    @pytest.mark.parametrize("option", ["--z-scale", "--slab-height"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_lift_is_named(self, tvg, tmp_path, capsys, option, value):
        """A lift that is not finite would put nan or inf into every
        point's z; it exits 2 before any file is read or written."""
        out = tmp_path / "x.vtk"
        argv = ["export", "--tveg", str(tmp_path / "missing.json"), f"{option}={value}",
                "-o", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {option}: must be a finite number, got {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("values, field", [
        ([-1, -1, -0.0, -1, -1, -0.0, -1, -1], '"value":0,'),
        ([5, 0.0, -0.0, -1, -1, -1, -1, -1], '"pers":0,'),
    ], ids=["maxima of value -0.0", "a maximum of pers -0.0"])
    def test_signed_zeros_round_trip(self, tmp_path, values, field):
        """JSON reads "-0" back as the integer 0, so a node value or pers of
        -0.0 is stored as 0.0 and export -> load -> export is byte-identical.
        In the second series the -0.0 voxel outranks the 0.0 voxel beside
        it (equal values, greater voxel id), a saddle of value 0.0."""
        a = np.array(values, float)
        series = FieldSeries([ScalarField3D((8, 1, 1), np.zeros(3), np.ones(3), a.copy(), t)
                              for t in (1, 2)])
        tvg = compute_tveg(series, 0.0, ScoreWeights())
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        tvio.export_tveg_json(tvg, p1)
        tvio.export_tveg_json(tvio.load_tveg_json(p1), p2)
        text = open(p1).read()
        assert text.count(field) >= 2 and "-0" not in text
        assert_same_text(open(p1, "rb").read(), open(p2, "rb").read())


class TestSegmentationExport:
    def test_raw_roundtrip(self, rng, tmp_path):
        f = random_field(rng, (6, 6, 6), time_index=1)
        seg = raw_segmentation(f)
        labels_path, sidecar_path = tvio.export_segmentation(
            seg, str(tmp_path / "seg")
        )
        back = np.fromfile(labels_path, dtype="<u4")
        assert np.array_equal(back, seg.maxima[seg.labels])
        side = json.load(open(sidecar_path))
        assert side["dims"] == list(f.dims)
        by_label = {m["label"]: m for m in side["maxima"]}
        for row, m in enumerate(seg.maxima.tolist()):
            assert by_label[m]["region_voxels"] == int(
                np.count_nonzero(seg.labels == row)
            )


class TestResolveTheta:
    def test_relative_spec(self):
        series = two_blob_series(steps=2)
        assert resolve_theta("0.05r", series) == pytest.approx(
            0.05 * series.global_range()
        )

    def test_absolute_spec(self):
        series = two_blob_series(steps=2)
        assert resolve_theta("0.3", series) == 0.3
        assert resolve_theta(0.3, series) == 0.3

    def test_rejects_negative(self):
        series = two_blob_series(steps=2)
        with pytest.raises(ValueError):
            resolve_theta("-1", series)


class TestCli:
    def test_gen_eg_tveg_tracks_query_export(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        out = str(tmp_path / "out")
        assert (
            main(
                [
                    "gen",
                    "--gauss8",
                    "--dims",
                    "16",
                    "--steps",
                    "8",
                    "--sigma",
                    "0.15",
                    "-o",
                    data,
                ]
            )
            == 0
        )
        manifest = os.path.join(data, "manifest.json")
        assert os.path.exists(manifest)

        assert (
            main(
                ["eg", "--manifest", manifest, "--theta", "0.05r", "--t", "1", "-o", out]
            )
            == 0
        )
        assert os.path.exists(os.path.join(out, "exgraph_0001.json"))

        assert (
            main(["tveg", "--manifest", manifest, "--theta", "0.05r", "-o", out]) == 0
        )
        tveg_path = os.path.join(out, "tveg.json")
        assert os.path.exists(tveg_path)

        tracks_path = os.path.join(out, "tracks.json")
        assert main(["tracks", "--tveg", tveg_path, "-o", tracks_path]) == 0
        assert os.path.exists(tracks_path)

        assert main(["events", "--tveg", tveg_path, "--window", "1", "4"]) == 0

        assert (
            main(
                [
                    "query",
                    "--tveg",
                    tveg_path,
                    "--kind",
                    "length-threshold",
                    "--k",
                    "2",
                    "--tracks",
                    tracks_path,
                ]
            )
            == 0
        )

        vtk_path = os.path.join(out, "tracks.vtk")
        assert (
            main(
                [
                    "export",
                    "--what",
                    "geometry",
                    "--tveg",
                    tveg_path,
                    "--tracks",
                    tracks_path,
                    "-o",
                    vtk_path,
                ]
            )
            == 0
        )
        assert os.path.exists(vtk_path)

        capsys.readouterr()  # drain stage summaries

    def test_summary_lines(self, tmp_path, capsys):
        """Each command prints one summary line: its counts, then its time."""
        d, out = str(tmp_path / "d"), str(tmp_path / "o")
        tveg, tracks = os.path.join(out, "tveg.json"), str(tmp_path / "tracks.json")
        runs = [
            (["gen", "--gauss8", "--dims", "8", "--steps", "4", "-o", d],
             f"gen: 4 steps of 8x8x8 -> {d}/manifest.json"),
            (["eg", "--manifest", f"{d}/manifest.json", "--t", "2", "-o", out],
             rf"eg: 1 graphs, \d+ nodes, theta=0 -> {out}"),
            (["tveg", "--manifest", f"{d}/manifest.json", "--theta", "0.05r", "-o", out],
             rf"tveg: 4 steps, \d+ temporal arcs, \d+ merges, \d+ splits, \d+ deletions, "
             rf"\d+ generations -> {tveg}"),
            (["events", "--tveg", tveg, "-o", str(tmp_path / "ev.json")],
             r"events: \d+ merges, \d+ splits, \d+ deletions, \d+ generations"),
            (["tracks", "--tveg", tveg, "-o", tracks], rf"tracks: \d+ tracks -> {tracks}"),
            (["query", "--tveg", tveg, "--kind", "window-events", "--window", "1", "4",
              "-o", str(tmp_path / "q.json")], "query: kind=window-events"),
            (["export", "--tveg", tveg, "-o", str(tmp_path / "t.vtk")],
             rf"export: \d+ tracks -> {tmp_path}/t.vtk"),
            (["export", "--what", "segmentation", "--manifest", f"{d}/manifest.json",
              "-o", str(tmp_path / "seg")],
             rf"export: \d+ regions -> {tmp_path}/seg.labels.raw"),
        ]
        for argv, summary in runs:
            assert main(argv) == 0
            assert re.fullmatch(rf"{summary} \[\d+\.\d\ds\]\n", capsys.readouterr().out)

    def test_nan_weight_exits_2(self, tmp_path, capsys):
        manifest = save_series(generate_gauss8((8, 8, 8), steps=2), str(tmp_path / "d"))
        argv = ["tveg", "--manifest", manifest, "--weights", "nan,0.5,0.25,0.25", "-o",
                str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "argument --weights: weights must be numbers >= 0, got (nan," in err
        assert not os.path.exists(tmp_path / "o")

    def test_weights_not_summing_to_1_are_named(self, tmp_path, capsys):
        manifest = save_series(generate_gauss8((4, 4, 4), steps=2), str(tmp_path / "d"))
        argv = ["tveg", "--manifest", manifest, "--weights", "0.5,0.5,0.5,0.5", "-o",
                str(tmp_path / "o")]
        assert main(argv) == 2
        assert "argument --weights: weights must sum to 1, got 2.0" in capsys.readouterr().err

    def test_eg_file_is_the_tveg_step(self, tmp_path, capsys):
        """`tvex eg` writes each step as the bytes of its object inside
        tveg.json."""
        manifest = save_series(two_blob_series(steps=3), str(tmp_path / "d"))
        out = str(tmp_path / "o")
        for cmd in ("eg", "tveg"):
            assert main([cmd, "--manifest", manifest, "--theta", "0", "-o", out]) == 0
        text = open(os.path.join(out, "tveg.json")).read()
        steps = json.loads(text)["steps"]
        assert [len(step["arcs"]) > 0 for step in steps] == [True] * 3
        for step in steps:
            with open(os.path.join(out, f"exgraph_{step['t']:04d}.json")) as fh:
                eg = fh.read()
            assert eg == tvio.canonical_json(step)
            assert eg[:-1] in text
        capsys.readouterr()

    def test_tveg_rejects_single_step_range(self, tmp_path, capsys):
        series = generate_gauss8((8, 8, 8), steps=4, sigma=0.2)
        manifest = save_series(series, str(tmp_path / "d"))
        code = main(
            [
                "tveg",
                "--manifest",
                manifest,
                "--theta",
                "0.05r",
                "--range",
                "2",
                "2",
                "-o",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "need at least 2 time steps" in capsys.readouterr().err

    def test_query_spec_file(self, tmp_path, capsys):
        series = generate_gauss8((8, 8, 8), steps=4, sigma=0.2)
        manifest = save_series(series, str(tmp_path / "d"))
        out = str(tmp_path / "o")
        assert (
            main(["tveg", "--manifest", manifest, "--theta", "0.05r", "-o", out]) == 0
        )
        spec = tmp_path / "q.json"
        spec.write_text(json.dumps({"kind": "window-events", "window": [1, 4]}))
        res = tmp_path / "res.json"
        assert (
            main(
                [
                    "query",
                    "--tveg",
                    os.path.join(out, "tveg.json"),
                    "--spec",
                    str(spec),
                    "-o",
                    str(res),
                ]
            )
            == 0
        )
        doc = json.loads(res.read_text())
        assert set(doc) == {"merges", "splits", "deletions", "generations"}

    def test_spec_file_equals_flags(self, tmp_path, capsys):
        """Every query kind gives the same bytes from flags and from the
        equivalent --spec file."""
        series = generate_gauss8((8, 8, 8), steps=4, sigma=0.2)
        manifest = save_series(series, str(tmp_path / "d"))
        out = str(tmp_path / "o")
        assert main(["tveg", "--manifest", manifest, "--theta", "0.05r", "-o", out]) == 0
        tveg_path = os.path.join(out, "tveg.json")
        tracks_path = str(tmp_path / "tracks.json")
        assert main(["tracks", "--tveg", tveg_path, "-o", tracks_path]) == 0
        seeds = [n for _, n in tvio.load_tracks_json(tracks_path)[0].nodes]
        cases = [
            (["--k", "2"], {"kind": "length-threshold", "k": 2}),
            (["--n", "3"], {"kind": "least-deviation", "n": 3}),
            (["--box", "-1", "-1", "-1", "0", "1", "1", "--window", "1", "3"],
             {"kind": "region", "box": [[-1, -1, -1], [0, 1, 1]], "window": [1, 3]}),
            (["--window", "2", "3"], {"kind": "window-events", "window": [2, 3]}),
            (["--seeds", *map(str, seeds), "--hops", "1"],
             {"kind": "neighborhood", "seeds": seeds, "hops": 1}),
        ]
        for flags, spec in cases:
            by_flags, by_spec = tmp_path / "flags.json", tmp_path / "spec.json"
            spec_path = tmp_path / "q.json"
            spec_path.write_text(json.dumps(spec))
            argv = ["query", "--tveg", tveg_path, "--tracks", tracks_path, "-o"]
            assert main(argv + [str(by_flags), "--kind", spec["kind"], *flags]) == 0
            assert main(argv + [str(by_spec), "--spec", str(spec_path)]) == 0
            text = by_flags.read_text()
            assert json.loads(text)
            assert_same_text(by_spec.read_text(), text)
        capsys.readouterr()

    def test_track_and_event_queries_write_the_oracle_text(self, rng, tmp_path, capsys):
        """The track queries and the window-events query write, from the
        flags and from a --spec file, to the -o file and to stdout, the text
        of the oracle's dict trees; `tvex events --window` writes the same
        text as the window-events query. Noise at theta 0 gives events."""
        series = FieldSeries([random_field(rng, (8, 8, 8), t) for t in (1, 2, 3, 4)])
        manifest = save_series(series, str(tmp_path / "d"))
        out = str(tmp_path / "o")
        assert main(["tveg", "--manifest", manifest, "--theta", "0", "-o", out]) == 0
        tveg_path = os.path.join(out, "tveg.json")
        tveg = tvio.load_tveg_json(tveg_path)
        paths = extract_tracks(tveg, "simple-paths")
        window = events_in_window(tveg, (2, 3))
        assert paths and window.merges + window.splits + window.deletions + window.generations
        cases = [
            (["--k", "2"], {"kind": "length-threshold", "k": 2},
             oracle.tracks_to_dict(tracks_longer_than(paths, 2))),
            (["--n", "3"], {"kind": "least-deviation", "n": 3},
             oracle.tracks_to_dict(least_deviation(paths, tveg, 3))),
            (["--window", "2", "3"], {"kind": "window-events", "window": [2, 3]},
             oracle.events_to_dict(window)),
        ]
        spec_path, res = tmp_path / "q.json", tmp_path / "res.json"

        def written(argv, summary):
            """The text of `argv` in its -o file, and on stdout before the summary line."""
            assert main(argv + ["-o", str(res)]) == 0
            capsys.readouterr()
            assert main(argv) == 0
            *lines, last = capsys.readouterr().out.splitlines(keepends=True)
            assert last.startswith(summary)
            return res.read_text(), "".join(lines)

        capsys.readouterr()
        for flags, spec, want in cases:
            assert json.loads(want := oracle.canonical_json(want)) != {"tracks": []}
            spec_path.write_text(json.dumps(spec))
            for given in (["--kind", spec["kind"], *flags], ["--spec", str(spec_path)]):
                for text in written(["query", "--tveg", tveg_path, *given], "query: "):
                    assert_same_text(text, want)
        events_text = oracle.canonical_json(oracle.events_to_dict(window))
        for text in written(["events", "--tveg", tveg_path, "--window", "2", "3"], "events: "):
            assert_same_text(text, events_text)

    def test_zero_k_and_n_exit_2(self, tmp_path, capsys):
        """0 is a given k or n, not an absent one: it is refused, from the
        flags and from a spec file; an absent one is 1."""
        series = generate_gauss8((8, 8, 8), steps=4, sigma=0.2)
        manifest = save_series(series, str(tmp_path / "d"))
        out = str(tmp_path / "o")
        assert main(["tveg", "--manifest", manifest, "--theta", "0.05r", "-o", out]) == 0
        argv = ["query", "--tveg", os.path.join(out, "tveg.json"), "-o"]
        spec_path = tmp_path / "q.json"
        for kind, key in (("length-threshold", "k"), ("least-deviation", "n")):
            capsys.readouterr()
            assert main(argv + [str(tmp_path / "r.json"), "--kind", kind, f"--{key}", "0"]) == 2
            assert capsys.readouterr().err == f"error: {key} must be >= 1\n"
            spec_path.write_text(json.dumps({"kind": kind, key: 0}))
            assert main(argv + [str(tmp_path / "r.json"), "--spec", str(spec_path)]) == 2
            assert f"{key} must be >= 1" in capsys.readouterr().err
            by_default, by_one = tmp_path / "default.json", tmp_path / "one.json"
            spec_path.write_text(json.dumps({"kind": kind}))
            assert main(argv + [str(by_default), "--spec", str(spec_path)]) == 0
            assert main(argv + [str(by_one), "--kind", kind, f"--{key}", "1"]) == 0
            assert_same_text(by_default.read_text(), by_one.read_text())

    def test_query_neighborhood_from_flags(self, tmp_path, capsys):
        series = generate_gauss8((8, 8, 8), steps=4, sigma=0.2)
        manifest = save_series(series, str(tmp_path / "d"))
        out = str(tmp_path / "o")
        assert (
            main(["tveg", "--manifest", manifest, "--theta", "0.05r", "-o", out]) == 0
        )
        tveg_path = os.path.join(out, "tveg.json")
        tveg = tvio.load_tveg_json(tveg_path)
        track = extract_tracks(tveg, mode="simple-paths")[0]
        seeds = [n for _, n in track.nodes]
        res = tmp_path / "nb.json"
        argv = ["query", "--tveg", tveg_path, "--kind", "neighborhood", "--seeds"]
        argv += [str(n) for n in seeds] + ["--hops", "2", "-o", str(res)]
        assert main(argv) == 0
        want = track_neighborhood(tveg, track, 2)
        assert want
        doc = json.loads(res.read_text())
        assert doc == {"neighborhood": {str(t): nodes for t, nodes in want.items()}}

    def test_segmentation_export_cli(self, tmp_path, capsys):
        series = generate_gauss8((8, 8, 8), steps=2, sigma=0.2)
        manifest = save_series(series, str(tmp_path / "d"))
        prefix = str(tmp_path / "seg")
        assert (
            main(
                [
                    "export",
                    "--what",
                    "segmentation",
                    "--manifest",
                    manifest,
                    "--theta",
                    "0.05r",
                    "--t",
                    "1",
                    "-o",
                    prefix,
                ]
            )
            == 0
        )
        assert os.path.exists(prefix + ".labels.raw")
        assert os.path.exists(prefix + ".labels.json")

    def test_bad_thread_count_is_named(self, tmp_path, capsys, monkeypatch):
        series = generate_gauss8((8, 8, 8), steps=2, sigma=0.2)
        manifest = save_series(series, str(tmp_path / "d"))
        argv = ["tveg", "--manifest", manifest, "-o", str(tmp_path / "o")]
        for bad in ("abc", "0", "-2"):
            monkeypatch.setenv("TVEX_THREADS", bad)
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"error: TVEX_THREADS must be a positive integer, got '{bad}'\n"

    def test_manifest_missing_key_is_named(self, tmp_path, capsys):
        series = generate_gauss8((8, 8, 8), steps=2, sigma=0.2)
        manifest = save_series(series, str(tmp_path / "d"))
        doc = json.loads(open(manifest).read())
        for key in ("dims", "steps"):
            path = tmp_path / f"no_{key}.json"
            path.write_text(json.dumps({k: v for k, v in doc.items() if k != key}))
            argv = ["tveg", "--manifest", str(path), "-o", str(tmp_path / "o")]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"error: manifest {path} has no '{key}' entry\n"

    def test_manifest_step_missing_key_is_named(self, tmp_path, capsys):
        series = generate_gauss8((8, 8, 8), steps=2, sigma=0.2)
        manifest = save_series(series, str(tmp_path / "d"))
        doc = json.loads(open(manifest).read())
        for key in ("file", "t"):
            step = {k: v for k, v in doc["steps"][1].items() if k != key}
            bad = dict(doc, steps=[doc["steps"][0], step])
            path = tmp_path / "d" / f"no_{key}.json"
            path.write_text(json.dumps(bad))
            argv = ["tveg", "--manifest", str(path), "-o", str(tmp_path / "o")]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"error: manifest {path}: step 1 has no '{key}' entry\n"

    def test_manifest_bad_dims_or_steps_is_named(self, tmp_path, capsys):
        cases = [
            ({"dims": [2, 2, 2], "steps": 5}, "'steps' must be a list, got 5"),
            ({"dims": [2, 2], "steps": []},
             "'dims' must be three positive integers, got [2, 2]"),
            ({"dims": [2, 0, 2], "steps": []},
             "'dims' must be three positive integers, got [2, 0, 2]"),
            ({"dims": [2, 2, 2], "steps": []},
             "'steps': series must contain at least one field"),
        ]
        for i, (doc, msg) in enumerate(cases):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(doc))
            argv = ["tveg", "--manifest", str(path), "-o", str(tmp_path / "o")]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: manifest {path}: {msg}\n"

    @pytest.mark.parametrize("times", [(2**31 - 1, 2**31), (-2**31 - 1, -2**31)])
    def test_manifest_steps_beyond_32_bits_are_named(self, tmp_path, capsys, times):
        """Node ids t << 32 | row fit int64 only for steps in [-2**31, 2**31),
        so a manifest with a step beyond is refused, not linked."""
        series = generate_gauss8((4, 4, 4), steps=2, sigma=0.5)
        manifest = save_series(series, str(tmp_path / "d"))
        doc = json.loads(open(manifest).read())
        for step, t in zip(doc["steps"], times):
            step["t"] = t
        path = tmp_path / "d" / "bad.json"
        path.write_text(json.dumps(doc))
        argv = ["tveg", "--manifest", str(path), "-o", str(tmp_path / "o")]
        assert main(argv) == 2
        msg = f"'steps': step times must lie in [-2**31, 2**31), got {times[0]}..{times[1]}"
        assert capsys.readouterr().err == f"error: manifest {path}: {msg}\n"

    def test_manifest_skipping_step_times_are_named(self, tmp_path, capsys):
        series = generate_gauss8((4, 4, 4), steps=2, sigma=0.5)
        manifest = save_series(series, str(tmp_path / "d"))
        doc = json.loads(open(manifest).read())
        doc["steps"][1]["t"] = 5
        path = tmp_path / "d" / "bad.json"
        path.write_text(json.dumps(doc))
        argv = ["tveg", "--manifest", str(path), "-o", str(tmp_path / "o")]
        assert main(argv) == 2
        msg = "'steps': time indices must increase by 1"
        assert capsys.readouterr().err == f"error: manifest {path}: {msg}\n"

    @pytest.mark.parametrize("box", [
        [[0, 0], [1, 1]],
        [[0, 0, 0], [1, 1]],
        [[0, 0, 0], [1, 1, 1], [2, 2, 2]],
        [["a", 0, 0], [1, 1, 1]],
        [[None, 0, 0], [1, 1, 1]],
        [["-1", 0, 0], [1, 1, 1]],
        [[0, 0, 0], [2**2000, 1, 1]],  # beyond the float range
        5,
    ])
    def test_query_spec_bad_box_is_named(self, tmp_path, capsys, box):
        series = generate_gauss8((4, 4, 4), steps=2, sigma=0.5)
        manifest = save_series(series, str(tmp_path / "d"))
        out = str(tmp_path / "o")
        assert main(["tveg", "--manifest", manifest, "--theta", "0", "-o", out]) == 0
        spec = tmp_path / "q.json"
        spec.write_text(json.dumps({"kind": "region", "box": box, "window": [1, 2]}))
        tveg_path = os.path.join(out, "tveg.json")
        capsys.readouterr()
        assert main(["query", "--tveg", tveg_path, "--spec", str(spec)]) == 2
        assert capsys.readouterr().err == (
            f"error: {spec}: 'box' must be two corners of three numbers, got {box!r}\n"
        )

    @pytest.mark.parametrize("spec, msg", [
        ({"kind": "length-threshold", "k": "3"}, "'k' must be an integer, got '3'"),
        ({"kind": "length-threshold", "k": True}, "'k' must be an integer, got True"),
        ({"kind": "least-deviation", "n": 1.5}, "'n' must be an integer, got 1.5"),
        ({"kind": "neighborhood", "seeds": "x"},
         "'seeds' must be a non-empty list of integers, got 'x'"),
        ({"kind": "neighborhood", "seeds": [1.5]},
         "'seeds' must be a non-empty list of integers, got [1.5]"),
        ({"kind": "neighborhood", "seeds": []},
         "'seeds' must be a non-empty list of integers, got []"),
        ({"kind": "neighborhood", "seeds": [4294967296], "hops": "2"},
         "'hops' must be an integer, got '2'"),
        ({"kind": "window-events", "window": "ab"}, "'window' must be two integers, got 'ab'"),
        ({"kind": "window-events", "window": [1]}, "'window' must be two integers, got [1]"),
        ({"seeds": [1]}, "the key 'kind' is missing"),
        ({"kind": 3}, "'kind' must be a string, got 3"),
        ({"kind": "sideways"}, "unknown query kind 'sideways'"),
        ([{"kind": "window-events"}], "a query must be a JSON object"),
    ])
    def test_query_spec_bad_key_is_named(self, tmp_path, capsys, spec, msg):
        series = generate_gauss8((4, 4, 4), steps=2, sigma=0.5)
        manifest = save_series(series, str(tmp_path / "d"))
        out = str(tmp_path / "o")
        assert main(["tveg", "--manifest", manifest, "--theta", "0", "-o", out]) == 0
        spec_path = tmp_path / "q.json"
        spec_path.write_text(json.dumps(spec))
        tveg_path = os.path.join(out, "tveg.json")
        capsys.readouterr()
        assert main(["query", "--tveg", tveg_path, "--spec", str(spec_path)]) == 2
        assert capsys.readouterr().err == f"error: {spec_path}: {msg}\n"

    @pytest.mark.parametrize("seed, msg", [
        (99999999999, "no graph at time 23"),
        ((1 << 32) + 10**6, "a seed is not a node of step 1"),
    ])
    def test_query_bad_seed_is_named(self, tmp_path, capsys, seed, msg):
        series = generate_gauss8((4, 4, 4), steps=2, sigma=0.5)
        manifest = save_series(series, str(tmp_path / "d"))
        out = str(tmp_path / "o")
        assert main(["tveg", "--manifest", manifest, "--theta", "0", "-o", out]) == 0
        capsys.readouterr()
        argv = ["query", "--tveg", os.path.join(out, "tveg.json"), "--kind", "neighborhood",
                "--seeds", str(seed)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {msg}\n"

    @pytest.mark.parametrize("key, value, msg", [
        ("file", 5, "step 1 'file' must be a string, got 5"),
        ("t", "a", "step 1 't' must be an integer, got 'a'"),
        ("origin", [0.0, 0.0], "'origin' must be three finite numbers, got [0.0, 0.0]"),
        ("spacing", [1.0, 0, 1.0],
         "'spacing' must be three finite numbers > 0, got [1.0, 0, 1.0]"),
        pytest.param("origin", [0, 10**400, 0],
                     f"'origin' must be three finite numbers, got [0, {10**400}, 0]",
                     id="origin-int-beyond-float"),
    ])
    def test_manifest_bad_entry_is_named(self, tmp_path, capsys, key, value, msg):
        series = generate_gauss8((2, 2, 2), steps=2, sigma=0.5)
        manifest = save_series(series, str(tmp_path / "d"))
        doc = json.loads(open(manifest).read())
        (doc["steps"][1] if key in ("file", "t") else doc)[key] = value
        path = tmp_path / "d" / "bad.json"
        path.write_text(json.dumps(doc))
        argv = ["tveg", "--manifest", str(path), "-o", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: manifest {path}: {msg}\n"

    @pytest.mark.parametrize("theta", ["nan", "inf", "nanr", "-infr", "-0.5r", "-1"])
    def test_bad_theta_is_named_before_any_volume_is_read(self, tmp_path, capsys, theta):
        manifest = save_series(generate_gauss8((4, 4, 4), steps=2), str(tmp_path / "d"))
        raw = tmp_path / "d" / "vol_0001.raw"
        vals = np.fromfile(raw, dtype="<f4")
        vals[0] = np.nan  # reading this volume would fail with its own error
        vals.tofile(raw)
        out = tmp_path / "o"
        assert main(["tveg", "--manifest", manifest, f"--theta={theta}", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: theta must be a finite number >= 0, got {theta!r}\n"
        assert not (out / "tveg.json").exists()

    def test_nan_volume_is_named(self, tmp_path, capsys):
        manifest = save_series(generate_gauss8((8, 8, 8), steps=2), str(tmp_path / "d"))
        raw = tmp_path / "d" / "vol_0002.raw"
        vals = np.fromfile(raw, dtype="<f4")
        vals[0] = np.nan
        vals.tofile(raw)
        assert main(["tveg", "--manifest", manifest, "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {raw}: non-finite value in field\n"

    @pytest.mark.parametrize(
        "doc, msg",
        [
            ({"tracks": 5}, "'tracks': a value of the wrong JSON type"),
            ([1], "a tracks file must be an object, got list"),
            ({}, "'tracks': a value of the wrong JSON type"),
        ],
        ids=["tracks a number", "a list", "no tracks"],
    )
    def test_bad_tracks_file_is_named(self, tmp_path, capsys, doc, msg):
        manifest = save_series(generate_gauss8((8, 8, 8), steps=4), str(tmp_path / "d"))
        assert main(["tveg", "--manifest", manifest, "-o", str(tmp_path / "o")]) == 0
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps(doc))
        capsys.readouterr()
        for argv in (["query", "--kind", "length-threshold"],
                     ["export", "-o", str(tmp_path / "x.vtk")]):
            argv += ["--tveg", str(tmp_path / "o" / "tveg.json"), "--tracks", str(tracks)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and msg in err

    @pytest.fixture(scope="class")
    def gauss8_tveg(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("gauss8")
        manifest = save_series(generate_gauss8((8, 8, 8), steps=4), str(tmp / "d"))
        assert main(["tveg", "--manifest", manifest, "-o", str(tmp / "o")]) == 0
        return str(tmp / "o" / "tveg.json")

    # maxima of the Gauss8 8^3 x 4 run of `gauss8_tveg`: (1, 0) and (2, 0)
    A, B = 1 << 32, 2 << 32

    @pytest.mark.parametrize(
        "track, msg",
        [
            (5, "a track must be an object with 'nodes' and 'arcs' lists"),
            ({"arcs": []}, "a track must be an object with 'nodes' and 'arcs' lists"),
            ({"nodes": [], "arcs": 5}, "a track must be an object with 'nodes' and 'arcs' lists"),
            ({"nodes": [[1, "x"]], "arcs": []}, "node [1, 'x'] is not two integers"),
            ({"nodes": [[1]], "arcs": []}, "node [1] is not two integers"),
            ({"nodes": [[1, A, 0]], "arcs": []}, f"node [1, {A}, 0] is not two integers"),
            ({"nodes": [5], "arcs": []}, "node 5 is not two integers"),
            ({"nodes": [[1.7, A]], "arcs": []}, f"node [1.7, {A}] is not two integers"),
            ({"nodes": [[1, float(A)]], "arcs": []}, f"node [1, {float(A)}] is not two integers"),
            ({"nodes": [[True, A]], "arcs": []}, f"node [True, {A}] is not two integers"),
            ({"nodes": [[2, A]], "arcs": []},
             f"node [2, {A}] is not two integers [t, id] with t the step of id"),
            ({"nodes": [[1, A], [2, B]], "arcs": [[A, 12345]]},
             f"arc [{A}, 12345] is not two ids of the track's nodes"),
            ({"nodes": [[1, A], [2, B]], "arcs": [[A]]}, f"arc [{A}] is not two ids"),
            ({"nodes": [[1, A], [2, B]], "arcs": [[A, float(B)]]},
             f"arc [{A}, {float(B)}] is not two ids"),
        ],
        ids=["a number", "no nodes", "arcs a number", "id a string", "one value",
             "three values", "node a number", "t a float", "id a float", "t a bool",
             "t not the id's step", "arc to another node", "arc of one id", "arc id a float"],
    )
    def test_bad_track_is_named(self, gauss8_tveg, tmp_path, capsys, track, msg):
        """Each track is checked once, at load: `export --tracks` and
        `query --tracks` exit 2 and name the file and the track."""
        good = {"nodes": [[1, self.A], [2, self.B]], "arcs": [[self.A, self.B]]}
        path = tmp_path / "tracks.json"
        path.write_text(json.dumps({"tracks": [good, track]}))
        capsys.readouterr()
        for argv in (["query", "--kind", "least-deviation"],
                     ["query", "--kind", "length-threshold"],
                     ["export", "-o", str(tmp_path / "x.vtk")]):
            argv += ["--tveg", gauss8_tveg, "--tracks", str(path)]
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: {path}: track 1: {msg}")

    @pytest.mark.parametrize(
        "node, msg",
        [([1, A + 4], f"no maximum {A + 4} at time 1"), ([9, 9 << 32], "no graph at time 9")],
        ids=["a saddle", "a step outside the tveg"],
    )
    def test_track_node_not_a_maximum_is_named(self, gauss8_tveg, tmp_path, capsys, node, msg):
        """A well-formed node that is not a maximum of the tveg is refused
        where a tveg and a tracks file meet: `query` of either track kind
        and `export` exit 2 and name the file, the track and the node."""
        assert tvio.load_tveg_json(gauss8_tveg).graphs[0].n_max == 4  # so A + 4 is a saddle
        good = {"nodes": [[1, self.A], [2, self.B]], "arcs": [[self.A, self.B]]}
        path = tmp_path / "tracks.json"
        path.write_text(json.dumps({"tracks": [good, {"nodes": [node], "arcs": []}]}))
        capsys.readouterr()
        for argv in (["query", "--kind", "least-deviation"],
                     ["query", "--kind", "length-threshold"],
                     ["export", "-o", str(tmp_path / "x.vtk")]):
            argv += ["--tveg", gauss8_tveg, "--tracks", str(path)]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {path}: track 1: node {node}: {msg}\n"

    @pytest.mark.parametrize("detail", ["Unable to allocate 8.00 GiB", ""])
    def test_out_of_memory_is_named(self, tmp_path, capsys, monkeypatch, detail):
        """A volume too large to read ends in a named error, exit 3; the
        read is made to fail, nothing large is allocated."""
        manifest = save_series(generate_gauss8((8, 8, 8), steps=2), str(tmp_path / "d"))

        def no_memory(*args, **kwargs):
            raise MemoryError(detail)

        monkeypatch.setattr(np, "fromfile", no_memory)
        assert main(["tveg", "--manifest", manifest, "-o", str(tmp_path / "o")]) == 3
        want = f"error: out of memory: {detail}\n" if detail else "error: out of memory\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize(
        "argv, msg",
        [
            (["export", "--tracks", "missing.json", "-o", "x.vtk"],
             "a geometry export needs --tveg"),
            (["export", "--what", "segmentation", "-o", "x"],
             "a segmentation export needs --manifest"),
            (["gen", "--dims", "8", "-o", "g"], "only --gauss8 generation is supported"),
        ],
        ids=["geometry without --tveg", "segmentation without --manifest", "gen without --gauss8"],
    )
    def test_missing_option_is_named(self, tmp_path, capsys, monkeypatch, argv, msg):
        """Refused before any file is read (a missing file would exit 3)
        or written."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {msg}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("option", ["--sigma", "--amplitude"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_gauss8_parameter_is_named(self, tmp_path, capsys, monkeypatch,
                                                   option, value):
        """An infinite sigma would write a constant series; each non-finite
        value exits 2 before anything is written."""
        monkeypatch.chdir(tmp_path)
        argv = ["gen", "--gauss8", "--dims", "6", "--steps", "2", f"{option}={value}", "-o", "g"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"tvex gen: error: argument {option}: must be a finite number, got {value!r}")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv, msg",
        [
            (["gen", "--gauss8", "--dims", "8,x", "-o", "g"],
             "argument --dims: invalid literal for int() with base 10: 'x'"),
            (["tveg", "--manifest", "missing.json", "--weights", "0.5,0.5", "-o", "o"],
             "argument --weights: weights must be G,L1,L2,L3"),
            (["query", "--tveg", "missing.json"],
             "one of the arguments --spec --kind is required"),
            (["query", "--tveg", "missing.json", "--spec", "missing.json", "--kind", "region"],
             "argument --kind: not allowed with argument --spec"),
        ],
        ids=["dims not integers", "three weights", "query without --spec or --kind",
             "query with --spec and --kind"],
    )
    def test_bad_arguments_exit_2_before_any_file_is_read(
            self, tmp_path, capsys, monkeypatch, argv, msg):
        """argparse refuses these with the command's usage and one error
        line; the files named do not exist, so reading one would exit 3."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: tvex {argv[0]} ")
        assert err.splitlines()[-1] == f"tvex {argv[0]}: error: {msg}"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "flags, msg",
        [
            (["--kind", "region", "--window", "1", "2"], "region query needs --box and --window"),
            (["--kind", "region", "--box", "0", "0", "0", "1", "1", "1"],
             "region query needs --box and --window"),
            (["--kind", "window-events"], "window-events query needs --window"),
            (["--kind", "neighborhood", "--hops", "1"], "neighborhood query needs --seeds"),
        ],
        ids=["region without --box", "region without --window", "window-events",
             "neighborhood"],
    )
    def test_query_flag_missing_is_named(self, gauss8_tveg, capsys, flags, msg):
        assert main(["query", "--tveg", gauss8_tveg, *flags]) == 2
        assert capsys.readouterr().err == f"error: {msg}\n"

    def test_missing_input_file_is_an_io_error(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["tveg", "--manifest", str(path), "-o", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == f"i/o error: [Errno 2] No such file or directory: '{path}'\n"

    @pytest.mark.parametrize("cut", ["empty", "truncated"])
    @pytest.mark.parametrize("kind", ["manifest", "tveg.json", "--tracks", "--spec"])
    def test_file_not_json_is_named(self, gauss8_tveg, tmp_path, capsys, kind, cut):
        """An empty or truncated input file (as an export that failed
        partway leaves) exits 2 with a message that names the file."""
        tveg_dir = os.path.dirname(gauss8_tveg)
        good = {
            "manifest": open(os.path.join(tveg_dir, "..", "d", "manifest.json")).read(),
            "tveg.json": open(gauss8_tveg).read(),
            "--tracks": json.dumps({"tracks": [{"nodes": [[1, self.A], [2, self.B]],
                                                "arcs": [[self.A, self.B]]}]}),
            "--spec": json.dumps({"kind": "window-events", "window": [1, 2]}),
        }[kind]
        text = "" if cut == "empty" else good[: len(good) // 2]
        path = tmp_path / "bad.json"
        path.write_text(text)
        argv = {
            "manifest": ["tveg", "--manifest", str(path), "-o", str(tmp_path / "o")],
            "tveg.json": ["events", "--tveg", str(path)],
            "--tracks": ["query", "--tveg", gauss8_tveg, "--kind", "length-threshold",
                         "--tracks", str(path)],
            "--spec": ["query", "--tveg", gauss8_tveg, "--spec", str(path)],
        }[kind]
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(text)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: not JSON: {exc.value}\n"

    def test_unknown_time_step_fails(self, tmp_path, capsys):
        series = generate_gauss8((8, 8, 8), steps=2, sigma=0.2)
        manifest = save_series(series, str(tmp_path / "d"))
        code = main(
            ["eg", "--manifest", manifest, "--theta", "0", "--t", "9", "-o", str(tmp_path)]
        )
        assert code == 2


def _degenerate_series(case):
    """Three steps of a degenerate field, or Gauss8 for the theta cases."""
    if case.startswith("theta"):
        return generate_gauss8((8, 8, 8), steps=4)
    dims = {"constant": (4, 4, 4), "1x1x1": (1, 1, 1), "1x6x5": (1, 6, 5), "7x1x1": (7, 1, 1)}
    rng = np.random.default_rng(7)
    fields = [random_field(rng, dims[case], time_index=t) for t in (1, 2, 3)]
    if case == "constant":
        for f in fields:
            f.values = np.full(f.num_voxels, 0.5)
    return FieldSeries(fields)


class TestDegenerateFields:
    """Every subcommand exits 0 on a constant field, on grids one voxel
    thick along some axes, and with theta at or above the value range."""

    @pytest.mark.parametrize("case, theta", [
        ("constant", "0.05r"),
        ("1x1x1", "0.05r"),
        ("1x6x5", "0.05r"),
        ("7x1x1", "0.05r"),
        ("theta 2r", "2r"),
        ("theta 1e9", "1e9"),
    ])
    def test_every_command_exits_0(self, tmp_path, capsys, case, theta):
        series = _degenerate_series(case)
        manifest = save_series(series, str(tmp_path / "d"))
        out = str(tmp_path / "o")
        tveg, last = os.path.join(out, "tveg.json"), str(series.times[-1])
        seed = str(series.times[0] << 32)  # the first maximum of the first step
        query = ["query", "--tveg", tveg, "-o", str(tmp_path / "q.json"), "--kind"]
        for argv in (
            ["tveg", "--manifest", manifest, "--theta", theta, "-o", out],
            ["eg", "--manifest", manifest, "--theta", theta, "-o", out],
            ["events", "--tveg", tveg, "-o", str(tmp_path / "events.json")],
            ["tracks", "--tveg", tveg, "-o", str(tmp_path / "paths.json")],
            ["tracks", "--tveg", tveg, "--mode", "components", "-o", str(tmp_path / "c.json")],
            ["tracks", "--tveg", tveg, "--refine", "--manifest", manifest, "--min-len", "1",
             "-o", str(tmp_path / "refined.json")],
            query + ["length-threshold", "--k", "1"],
            query + ["least-deviation", "--n", "2"],
            query + ["region", "--box", "-100", "-100", "-100", "100", "100", "100",
                     "--window", "1", last],
            query + ["window-events", "--window", "1", last],
            query + ["neighborhood", "--seeds", seed, "--hops", "1"],
            ["export", "--tveg", tveg, "-o", str(tmp_path / "x.vtk")],
            ["export", "--tveg", tveg, "--spatial-arcs", "-o", str(tmp_path / "xs.vtk")],
            ["export", "--what", "segmentation", "--manifest", manifest, "--theta", theta,
             "--t", "2", "-o", str(tmp_path / "seg")],
        ):
            assert main(argv) == 0, argv
        copy = str(tmp_path / "copy.json")
        tvio.export_tveg_json(tvio.load_tveg_json(tveg), copy)
        assert_same_text(open(copy, "rb").read(), open(tveg, "rb").read())
        capsys.readouterr()


class TestRefineCli:
    """`tvex tracks --refine` refines the arcs of --tveg with the volumes
    of --manifest."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("refine")
        series = generate_gauss8((16, 16, 16), steps=8, sigma=0.15)
        manifest = save_series(series, str(tmp / "d"))
        argv = ["tveg", "--manifest", manifest, "--theta", "0.05r", "-o", str(tmp)]
        assert main(argv) == 0
        return tmp, series, manifest, str(tmp / "tveg.json")

    def refine(self, tveg_path, manifest, out, isovalue="0.1"):
        return main(["tracks", "--refine", "--tveg", tveg_path, "--manifest", manifest,
                     f"--isovalue={isovalue}", "--min-len", "2", "-o", out])

    @pytest.mark.parametrize("isovalue", ["0.1", "0.8"])
    def test_matches_refinement_in_memory(self, run, isovalue, capsys):
        tmp, series, manifest, tveg_path = run
        out, want_path = tmp / f"refined_{isovalue}.json", tmp / "want.json"
        assert self.refine(tveg_path, manifest, str(out), isovalue) == 0
        theta = resolve_theta("0.05r", series)
        tveg = compute_tveg(series, theta, ScoreWeights())
        want = refine_by_overlap(tveg, series, float(isovalue), min_len=2)
        assert want
        tvio.export_tracks_json(want, str(want_path))
        assert_same_text(out.read_text(), want_path.read_text())
        capsys.readouterr()

    def test_loaded_series_gives_the_same_tracks(self, run):
        tmp, series, manifest, tveg_path = run
        tveg = tvio.load_tveg_json(tveg_path)
        want = oracle.tracks_to_dict(refine_by_overlap(tveg, series, 0.1, min_len=2))
        assert want["tracks"]
        got = refine_by_overlap(tveg, load_series(manifest), 0.1, min_len=2)
        assert oracle.tracks_to_dict(got) == want

    def test_mismatched_manifest_is_named(self, run, capsys):
        tmp, series, manifest, tveg_path = run
        other = save_series(
            generate_gauss8((16, 16, 16), steps=8, sigma=0.15, amplitude=2.0),
            str(tmp / "other"),
        )
        doc = json.loads((tmp / "tveg.json").read_text())
        doc["theta"] = 1.5  # keeps only the global maximum of each step
        high = tmp / "high.json"
        high.write_text(json.dumps(doc))
        short = json.loads((tmp / "d" / "manifest.json").read_text())
        short["steps"] = short["steps"][:-1]
        short_path = tmp / "d" / "short.json"
        short_path.write_text(json.dumps(short))
        out = str(tmp / "x.json")
        for path, series_path, err in [
            (tveg_path, other, "step 1: the series does not give the graph's maxima"),
            (str(high), manifest, "step 1: the series does not give the graph's maxima"
             " at theta 1.5"),
            (tveg_path, str(short_path), "no time step 8 in series"),
        ]:
            assert self.refine(path, series_path, out) == 2
            assert err in capsys.readouterr().err
        assert main(["tracks", "--refine", "--tveg", tveg_path, "-o", out]) == 2
        assert "--refine needs --manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_isovalue_is_named(self, run, capsys, value):
        """A NaN isovalue clips every region away (no voxel compares
        true), which gave an empty tracks file and exit 0."""
        tmp, series, manifest, tveg_path = run
        out = tmp / f"iso_{value}.json"
        assert self.refine(tveg_path, manifest, str(out), value) == 2
        err = capsys.readouterr().err
        assert f"argument --isovalue: must be a finite number, got {value!r}" in err
        assert not out.exists()
