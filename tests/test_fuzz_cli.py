"""Hypothesis fuzzing of every JSON input the CLI reads, and hostile
volumes through every command that reads a series.

Each case starts from a valid document and replaces or deletes up to
three of its values (containers included), or draws a JSON document of
its own. Tracks files (`query --tracks`, `export --tracks`), query files
(`query --spec`), manifests (`tveg --manifest`) and `tveg.json` files
(`events`) go through `cli.main`, which must return 0, 2 or 3 and raise
nothing. Every mutated `tveg.json` the loader accepts must reach a fixed
point in one round: load -> export -> load -> export gives the bytes of
the first export. Inputs stay small: a manifest's dims are checked
against the size of its (tiny) volumes before one is read.

The hostile volumes are small manifests whose raw files are a value short
or long, hold a NaN or an infinity, lie on degenerate grids, hold a
constant field, or form one step, and a theta above the value range;
each command must exit 0, 2 or 3 and name the error of a nonzero exit.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tvex import io as tvio
from tvex.cli import main
from tvex.field import generate_gauss8, save_series

from conftest import assert_same_text

FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
KINDS = ["length-threshold", "least-deviation", "region", "window-events", "neighborhood"]
DELETE = object()

scalars = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
           | st.sampled_from([0, -1, 1, 2, 2**63, 2**64, -0.0, 0.0, 0.5, 1.0, 1e-320, 1e308])
           | st.text(max_size=4))
json_values = st.recursive(
    scalars, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                                        max_size=3),
    max_leaves=8)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding a Gauss8 8^3 x 4 series, its `tveg.json` and
    `tracks.json`, and four tiny volumes: three of 2^3 float32 voxels (one
    all NaN) and one of 3 bytes."""
    d = tmp_path_factory.mktemp("fuzz")
    manifest = save_series(generate_gauss8((8, 8, 8), steps=4), str(d / "series"))
    assert main(["tveg", "--manifest", manifest, "--theta", "0.05r", "-o", str(d)]) == 0
    assert main(["tracks", "--tveg", str(d / "tveg.json"), "-o", str(d / "tracks.json")]) == 0
    for name, data in (("a.raw", np.linspace(0, 1, 8)), ("b.raw", np.linspace(1, 0, 8)),
                       ("nan.raw", np.full(8, np.nan))):
        data.astype("<f4").tofile(d / name)
    (d / "short.raw").write_bytes(b"\0\0\0")
    return d


@pytest.fixture(scope="module")
def ids(work):
    """The node ids of the fixture's tveg."""
    doc = json.loads((work / "tveg.json").read_text())
    return [n["id"] for step in doc["steps"] for n in step["nodes"]]


def paths(doc, path=()):
    """(path, value) of every value inside `doc`, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc if type(doc) is list else ())
    for key, value in items:
        yield path + (key,), value
        yield from paths(value, path + (key,))


def mutate(data, doc, where, values):
    """Replace the values at up to three drawn paths of `where` in `doc` by
    drawn `values`, or delete them (DELETE)."""
    for path, value in data.draw(st.lists(st.tuples(st.sampled_from(where), values), max_size=3)):
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):  # an earlier mutation moved the path
            pass
    return doc


def mutated(data, doc, extra):
    """`doc` with up to three of its values replaced by a JSON value or one
    of `extra`, or deleted; one case in ten is a drawn JSON document instead."""
    if data.draw(st.integers(0, 9)) == 0:
        return data.draw(json_values)
    where = sorted((p for p, _ in paths(doc)), key=repr)
    return mutate(data, doc, where, json_values | extra | st.just(DELETE))


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv):
    code = main(argv)
    assert code in (0, 2, 3), argv
    return code


@FUZZ
@given(data=st.data())
def test_tracks_files(work, ids, data):
    doc = json.loads((work / "tracks.json").read_text())
    path = write(work / "fuzz-tracks.json", mutated(data, doc, st.sampled_from(ids)))
    tveg = str(work / "tveg.json")
    run(["query", "--tveg", tveg, "--kind", "least-deviation", "--n", "2", "--tracks", path,
         "-o", str(work / "q.json")])
    run(["export", "--tveg", tveg, "--tracks", path, "--spatial-arcs",
         "-o", str(work / "t.vtk")])


@FUZZ
@given(data=st.data())
def test_query_files(work, ids, data):
    doc = {"kind": data.draw(st.sampled_from(KINDS)), "k": 2, "n": 2, "hops": 1,
           "seeds": ids[:2], "window": [1, 3], "box": [[-1, -1, -1], [1, 1, 1]]}
    path = write(work / "query.json", mutated(data, doc, st.sampled_from(KINDS + ids)))
    run(["query", "--tveg", str(work / "tveg.json"), "--spec", path,
         "-o", str(work / "a.json")])


@FUZZ
@given(data=st.data())
def test_manifests(work, data):
    doc = {"dims": [2, 2, 2], "origin": [0, 0, 0], "spacing": [1, 1, 1],
           "steps": [{"t": 1, "file": "a.raw"}, {"t": 2, "file": "b.raw"}]}
    files = ["nan.raw", "short.raw", "missing.raw", "", ".", str(work / "a.raw")]
    path = write(work / "manifest.json",
                 mutated(data, doc, st.sampled_from(files) | st.integers(2**31, 2**65)))
    run(["tveg", "--manifest", path, "-o", str(work / "out")])


@FUZZ
@given(data=st.data())
def test_tveg_value_mutations(work, ids, data):
    """Up to three float values are replaced by -0.0 or another finite
    float, then up to three values of any kind are replaced or deleted."""
    doc = json.loads((work / "tveg.json").read_text())
    floats = sorted((p for p, v in paths(doc) if type(v) is float), key=repr)
    mutate(data, doc, floats, st.just(-0.0) | st.floats(allow_nan=False, allow_infinity=False))
    path = write(work / "mutated.json", mutated(data, doc, st.sampled_from(ids)))
    if run(["events", "--tveg", path, "-o", str(work / "events.json")]) == 0:
        once, twice = str(work / "once.json"), str(work / "twice.json")
        tvio.export_tveg_json(tvio.load_tveg_json(path), once)
        tvio.export_tveg_json(tvio.load_tveg_json(once), twice)
        with open(once, "rb") as a, open(twice, "rb") as b:
            assert_same_text(a.read(), b.read())


RNG = np.random.default_rng(0)


def noise(n):
    return RNG.uniform(0.0, 1.0, n)


def spiked(value):
    """A 4^3 volume of noise holding one `value`."""
    values = noise(64)
    values[13] = value
    return values


# name: (dims, the values of each step, theta, the exit of `tvex tveg`)
HOSTILE_VOLUMES = {
    "one value short": ((4, 4, 4), [noise(63), noise(64)], "0", 2),
    "one value long": ((4, 4, 4), [noise(64), noise(65)], "0", 2),
    "nan": ((4, 4, 4), [noise(64), spiked(np.nan)], "0", 2),
    "+inf": ((4, 4, 4), [spiked(np.inf), noise(64)], "0", 2),
    "-inf": ((4, 4, 4), [noise(64), spiked(-np.inf)], "0", 2),
    "1x1x1": ((1, 1, 1), [noise(1), noise(1)], "0", 0),
    "1x5x5": ((1, 5, 5), [noise(25), noise(25)], "0", 0),
    "7x1x1": ((7, 1, 1), [noise(7), noise(7)], "0", 0),
    "constant": ((4, 4, 4), [np.ones(64), np.ones(64)], "0", 0),
    "theta 2r": ((4, 4, 4), [noise(64), noise(64)], "2r", 0),
    "one step": ((4, 4, 4), [noise(64)], "0", 2),
}


@pytest.mark.parametrize("dims, volumes, theta, code", HOSTILE_VOLUMES.values(),
                         ids=HOSTILE_VOLUMES)
def test_hostile_volumes(tmp_path, capsys, dims, volumes, theta, code):
    """`tvex tveg` on the manifest gives the expected exit; where it
    succeeds, so do `events`, `tracks` (plain and refined) and both
    exports. A nonzero exit prints an `error:` line."""
    steps = []
    for t, values in enumerate(volumes, 1):
        np.asarray(values, "<f4").tofile(tmp_path / f"v{t}.raw")
        steps.append({"t": t, "file": f"v{t}.raw"})
    manifest = write(tmp_path / "manifest.json", {"dims": list(dims), "steps": steps})
    tveg, tracks = str(tmp_path / "tveg.json"), str(tmp_path / "tracks.json")

    def cli(*argv):
        got = run(list(argv))
        err = capsys.readouterr().err
        assert not got or err.startswith(("error: ", "i/o error: ")), (argv, err)
        return got

    assert cli("tveg", "--manifest", manifest, "--theta", theta, "-o", str(tmp_path)) == code
    if code == 0:
        assert cli("events", "--tveg", tveg, "-o", str(tmp_path / "events.json")) == 0
        assert cli("tracks", "--tveg", tveg, "-o", tracks) == 0
        assert cli("tracks", "--tveg", tveg, "--refine", "--manifest", manifest,
                   "--min-len", "1", "-o", str(tmp_path / "refined.json")) == 0
        assert cli("export", "--tveg", tveg, "--tracks", tracks, "--spatial-arcs",
                   "-o", str(tmp_path / "tracks.vtk")) == 0
        assert cli("export", "--what", "segmentation", "--manifest", manifest,
                   "--theta", theta, "-o", str(tmp_path / "seg")) == 0


@pytest.mark.parametrize("argv, msg", [
    (["gen", "--gauss8", "--dims", "1,2", "-o", "g"], "argument --dims: dims must be N or NX,NY,NZ"),
    (["gen", "--gauss8", "--sigma", "wide", "-o", "g"],
     "argument --sigma: invalid float value: 'wide'"),
], ids=["two dims", "sigma not a number"])
def test_gen_argument_diagnostics(tmp_path, capsys, monkeypatch, argv, msg):
    """argparse names the option and exits 2 before anything is written."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"tvex gen: error: {msg}"
    assert not any(tmp_path.iterdir())
