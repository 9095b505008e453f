"""Shared fixtures: small random fields and a tiny synthetic series."""

import dataclasses

import numpy as np
import pytest

from tvex import morse
from tvex.exgraph import ExtremumGraph
from tvex.field import FieldSeries, ScalarField3D
from tvex.temporal import ScoreWeights, Tveg, link_pair


def random_field(rng, dims, time_index=0):
    n = dims[0] * dims[1] * dims[2]
    return ScalarField3D(
        dims=dims,
        origin=np.zeros(3),
        spacing=np.ones(3),
        values=rng.uniform(0.0, 1.0, n),
        time_index=time_index,
    )


def raw_segmentation(f):
    """The raw segmentation `morse_step` simplifies: labels, maxima,
    region pairs and saddles, all on one voxel order."""
    order = morse.vertex_order(f)
    return morse.compute_saddles(morse.compute_segmentation(f, order), order)


def voxel_ids(seg):
    """A copy of a segmentation whose labels and pairs name each maximum
    by its voxel id, not by its row, as the reference implementations
    under tests/ keep them."""
    return dataclasses.replace(
        seg, labels=seg.maxima[seg.labels], pairs=seg.maxima[seg.pairs]
    )


def adjacency(seg) -> dict[tuple[int, int], int]:
    """A segmentation's region pairs as {(lo, hi): saddle voxel}, each
    maximum named by its voxel id."""
    return dict(zip(map(tuple, seg.maxima[seg.pairs].tolist()), seg.saddles.tolist()))


def maxima_graph(t, coords, value, pers, eta):
    """Extremum graph of maxima only, one row per maximum."""
    n = len(value)
    return ExtremumGraph(
        t=t,
        n_max=n,
        vertex=np.arange(n, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
        pers=np.asarray(pers, dtype=np.float64),
        eta=np.asarray(eta, dtype=np.float64),
        coords=np.asarray(coords, dtype=np.float64).reshape(n, 3),
    )


def random_maxima(rng, n, t):
    """Synthetic maxima with plausible attribute ranges, drawn one
    maximum at a time."""
    cols = {"coords": [], "value": [], "pers": [], "eta": []}
    for _ in range(n):
        cols["coords"].append(rng.uniform(-1.0, 1.0, 3))
        cols["value"].append(float(rng.uniform(0.5, 2.0)))
        cols["pers"].append(float(rng.uniform(0.05, 1.0)))
        cols["eta"].append(float(rng.uniform(0.1, 3.0)))
    return maxima_graph(t, **cols)


def linked(graphs, w=ScoreWeights(), theta=0.0):
    """A Tveg of `graphs`, each consecutive pair linked by `link_pair`."""
    links = [link_pair(g0, g1, w) for g0, g1 in zip(graphs, graphs[1:])]
    return Tveg(graphs, links, w, theta)


def two_blob_series(steps=4, dims=(12, 12, 12)):
    """Two Gaussian blobs drifting toward each other; used for smoke tests."""
    nx, ny, nz = dims
    origin = np.array([-1.0, -1.0, -1.0])
    spacing = np.array([2.0 / (nx - 1), 2.0 / (ny - 1), 2.0 / (nz - 1)])
    xs = origin[0] + spacing[0] * np.arange(nx)
    ys = origin[1] + spacing[1] * np.arange(ny)
    zs = origin[2] + spacing[2] * np.arange(nz)
    Z, Y, X = np.meshgrid(zs, ys, xs, indexing="ij")
    fields = []
    for t in range(1, steps + 1):
        sep = 0.6 - 0.1 * (t - 1)
        vals = np.zeros_like(X)
        for cy in (-sep, sep):
            d2 = X**2 + (Y - cy) ** 2 + Z**2
            vals += np.exp(-d2 / (2 * 0.25**2))
        fields.append(
            ScalarField3D(
                dims=dims,
                origin=origin,
                spacing=spacing,
                values=vals.ravel(),
                time_index=t,
            )
        )
    return FieldSeries(fields=fields)


def assert_same_text(got, want) -> None:
    """got == want (two str or two bytes), failing with the text around
    the first difference: pytest's own diff of two long one-line texts
    can take minutes."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        lo = max(i - 60, 0)
        pytest.fail(f"texts differ at offset {i} (lengths {len(got)}, {len(want)}): "
                    f"{got[lo:i + 60]!r} != {want[lo:i + 60]!r}")


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criterion lines at the end of the run."""
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "CRITERION_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


@pytest.fixture(scope="session")
def small_series():
    return two_blob_series()
