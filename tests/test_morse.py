"""Maxima, segmentation, saddles, persistence, and simplification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tvex.field import ScalarField3D
from tvex.morse import (
    NEIGHBOR_OFFSETS,
    _steepest_neighbor,
    compute_persistence,
    compute_saddles,
    compute_segmentation,
    merge_tree_oracle,
    morse_step,
    simplify,
    vertex_order,
)

from conftest import adjacency, random_field, raw_segmentation


def grid_index(f: ScalarField3D, v: int) -> tuple[int, int, int]:
    """Grid indices (ix, iy, iz) of the x-fastest voxel id v."""
    nx, ny, _ = f.dims
    return v % nx, (v // nx) % ny, v // (nx * ny)


def segmentation_maxima(f: ScalarField3D) -> list[int]:
    """Voxel ids of the maxima compute_segmentation finds."""
    return compute_segmentation(f, vertex_order(f)).maxima.tolist()


def brute_force_maxima(f: ScalarField3D) -> list[int]:
    """Reference maxima scan: explicit 26-neighbor loops per voxel."""
    nx, ny, nz = f.dims
    rank, _ = vertex_order(f)
    out = []
    for v in range(f.num_voxels):
        ix, iy, iz = grid_index(f, v)
        is_max = True
        for dz, dy, dx in NEIGHBOR_OFFSETS:
            jx, jy, jz = ix + dx, iy + dy, iz + dz
            if 0 <= jx < nx and 0 <= jy < ny and 0 <= jz < nz:
                u = jx + nx * (jy + ny * jz)
                if rank[u] > rank[v]:
                    is_max = False
                    break
        if is_max:
            out.append(v)
    return out


small_fields = arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)
    ),
    elements=st.floats(0.0, 1.0, allow_nan=False, width=32),
)


def as_field(a: np.ndarray) -> ScalarField3D:
    nz, ny, nx = a.shape
    return ScalarField3D(
        dims=(nx, ny, nz),
        origin=np.zeros(3),
        spacing=np.ones(3),
        values=a.ravel(),
    )


class TestVertexOrder:
    def test_is_a_permutation(self, rng):
        f = random_field(rng, (4, 4, 4))
        r, voxel = vertex_order(f)
        assert sorted(r.tolist()) == list(range(f.num_voxels))
        assert r.dtype == np.int32
        assert np.array_equal(r[voxel], np.arange(f.num_voxels))

    def test_orders_by_value_then_id(self):
        f = ScalarField3D(
            dims=(4, 1, 1),
            origin=np.zeros(3),
            spacing=np.ones(3),
            values=[0.5, 0.2, 0.5, 0.1],
        )
        r, _ = vertex_order(f)
        # 0.1 < 0.2 < 0.5(id 0) < 0.5(id 2)
        assert r.tolist() == [2, 1, 3, 0]

    @given(arrays(np.float64, st.integers(1, 200), elements=st.integers(0, 3)))
    @settings(max_examples=40, deadline=None)
    def test_matches_lexsort_with_ties(self, values):
        f = ScalarField3D(
            dims=(values.size, 1, 1),
            origin=np.zeros(3),
            spacing=np.ones(3),
            values=values,
        )
        order = np.lexsort((np.arange(values.size), values))
        rank, voxel = vertex_order(f)
        assert np.array_equal(rank, np.argsort(order))
        assert np.array_equal(voxel, order)


class TestFindMaxima:
    def test_constant_field_single_maximum(self):
        f = ScalarField3D(
            dims=(3, 3, 3), origin=np.zeros(3), spacing=np.ones(3), values=np.ones(27)
        )
        # ties break by voxel id, so the last voxel wins everywhere
        assert segmentation_maxima(f) == [26]

    def test_matches_brute_force_random(self, rng):
        for _ in range(20):
            dims = tuple(int(d) for d in rng.integers(2, 7, 3))
            f = random_field(rng, dims)
            assert segmentation_maxima(f) == brute_force_maxima(f)

    @given(small_fields)
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_property(self, a):
        f = as_field(a)
        assert segmentation_maxima(f) == brute_force_maxima(f)


# shapes with one-voxel-thick axes, float and few-valued (tied) fields
thin_shapes = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
thin_float_fields = arrays(
    np.float64, thin_shapes, elements=st.floats(0.0, 1.0, allow_nan=False, width=32)
)
thin_integer_fields = arrays(np.float64, thin_shapes, elements=st.integers(0, 3))


def brute_force_steepest(f: ScalarField3D) -> list[int]:
    """next[v] by an explicit 26-neighbor loop per voxel."""
    nx, ny, nz = f.dims
    rank, _ = vertex_order(f)
    out = []
    for v in range(f.num_voxels):
        ix, iy, iz = grid_index(f, v)
        best, best_u = rank[v], v
        for dz, dy, dx in NEIGHBOR_OFFSETS:
            jx, jy, jz = ix + dx, iy + dy, iz + dz
            if 0 <= jx < nx and 0 <= jy < ny and 0 <= jz < nz:
                u = jx + nx * (jy + ny * jz)
                if rank[u] > best:
                    best, best_u = rank[u], u
        out.append(best_u)
    return out


class TestSteepestNeighbor:
    @given(thin_float_fields)
    @settings(max_examples=60, deadline=None)
    def test_float_fields(self, a):
        f = as_field(a)
        assert _steepest_neighbor(f, vertex_order(f)).tolist() == brute_force_steepest(f)

    @given(thin_integer_fields)
    @settings(max_examples=60, deadline=None)
    def test_integer_fields(self, a):
        f = as_field(a)
        assert _steepest_neighbor(f, vertex_order(f)).tolist() == brute_force_steepest(f)


class TestSegmentation:
    def test_labels_are_maxima(self, rng):
        f = random_field(rng, (6, 6, 6))
        seg = compute_segmentation(f, vertex_order(f))
        maxima = set(brute_force_maxima(f))
        assert set(np.unique(seg.maxima[seg.labels])) == maxima

    def test_maxima_label_themselves(self, rng):
        f = random_field(rng, (6, 6, 6))
        seg = compute_segmentation(f, vertex_order(f))
        for row, m in enumerate(seg.maxima.tolist()):
            assert seg.labels[m] == row

    def test_steepest_path_reaches_label(self, rng):
        """Following the steepest 26-neighbor from any voxel preserves its label."""
        f = random_field(rng, (5, 5, 5))
        seg = compute_segmentation(f, vertex_order(f))
        rank, _ = vertex_order(f)
        nx, ny, nz = f.dims
        for v in rng.integers(0, f.num_voxels, 30):
            v = int(v)
            while True:
                ix, iy, iz = grid_index(f, v)
                best, best_u = rank[v], v
                for dz, dy, dx in NEIGHBOR_OFFSETS:
                    jx, jy, jz = ix + dx, iy + dy, iz + dz
                    if 0 <= jx < nx and 0 <= jy < ny and 0 <= jz < nz:
                        u = jx + nx * (jy + ny * jz)
                        if rank[u] > best:
                            best, best_u = rank[u], u
                if best_u == v:
                    break
                assert seg.labels[best_u] == seg.labels[v]
                v = best_u

    def test_region_partition_covers_domain(self, rng):
        f = random_field(rng, (5, 5, 5))
        seg = compute_segmentation(f, vertex_order(f))
        total = sum(int(np.count_nonzero(seg.labels == row)) for row in range(len(seg.maxima)))
        assert total == f.num_voxels


class TestSaddles:
    def test_one_saddle_per_adjacent_pair(self, rng):
        f = random_field(rng, (6, 6, 6))
        seg = raw_segmentation(f)
        assert len(seg.saddles) == len(adjacency(seg))

    def test_adjacency_pairs_are_labels(self, rng):
        f = random_field(rng, (6, 6, 6))
        seg = raw_segmentation(f)
        labels = set(seg.maxima.tolist())
        for (la, lb) in adjacency(seg):
            assert la < lb
            assert la in labels and lb in labels

    def test_saddle_below_both_maxima(self, rng):
        f = random_field(rng, (6, 6, 6))
        seg = raw_segmentation(f)
        rank, _ = vertex_order(f)
        for (la, lb), s in adjacency(seg).items():
            assert rank[s] < rank[la]
            assert rank[s] < rank[lb]

    def test_saddle_is_highest_crossing_edge(self, rng):
        """Brute-force the best crossing edge for every adjacent pair."""
        f = random_field(rng, (4, 4, 4))
        seg = raw_segmentation(f)
        rank, _ = vertex_order(f)
        labels = seg.maxima[seg.labels]
        nx, ny, nz = f.dims
        best: dict[tuple[int, int], int] = {}
        for v in range(f.num_voxels):
            ix, iy, iz = grid_index(f, v)
            for dz, dy, dx in NEIGHBOR_OFFSETS:
                jx, jy, jz = ix + dx, iy + dy, iz + dz
                if not (0 <= jx < nx and 0 <= jy < ny and 0 <= jz < nz):
                    continue
                u = jx + nx * (jy + ny * jz)
                la, lb = labels[v], labels[u]
                if la == lb:
                    continue
                key = (min(la, lb), max(la, lb))
                lo = v if rank[v] < rank[u] else u
                if key not in best or rank[lo] > rank[best[key]]:
                    best[key] = lo
        assert adjacency(seg) == best


class TestPersistence:
    def test_matches_oracle_random(self, rng):
        for _ in range(25):
            dims = tuple(int(d) for d in rng.integers(3, 9, 3))
            f = random_field(rng, dims)
            pers = compute_persistence(raw_segmentation(f), vertex_order(f)[0])
            assert pers == merge_tree_oracle(f)

    @given(small_fields)
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle_property(self, a):
        f = as_field(a)
        pers = compute_persistence(raw_segmentation(f), vertex_order(f)[0])
        assert pers == merge_tree_oracle(f)

    def test_global_max_gets_essential_value(self, rng):
        f = random_field(rng, (5, 5, 5))
        seg = raw_segmentation(f)
        pers = compute_persistence(seg, vertex_order(f)[0])
        top = max(seg.maxima.tolist(), key=lambda m: (f.values[m], m))
        assert pers[top] == f.values[top] - float(f.values.min())

    def test_persistence_positive(self, rng):
        f = random_field(rng, (6, 6, 6))
        seg = raw_segmentation(f)
        pers = compute_persistence(seg, vertex_order(f)[0])
        assert all(p > 0 for p in pers.values())

    def test_two_peak_field_exact(self):
        """1D-like ridge: two peaks with a known col between them."""
        vals = np.zeros((1, 1, 7))
        vals[0, 0, :] = [0.1, 0.9, 0.3, 0.2, 0.4, 1.0, 0.5]
        f = ScalarField3D(
            dims=(7, 1, 1), origin=np.zeros(3), spacing=np.ones(3), values=vals.ravel()
        )
        seg = raw_segmentation(f)
        pers = compute_persistence(seg, vertex_order(f)[0])
        # peak 0.9 dies at the 0.2 col; peak 1.0 is essential
        assert pers == {1: pytest.approx(0.7), 5: pytest.approx(0.9)}


class TestSimplify:
    def test_theta_zero_is_identity(self, rng):
        f = random_field(rng, (5, 5, 5))
        seg = raw_segmentation(f)
        out = simplify(seg, 0.0, vertex_order(f)[0])
        assert set(out.maxima.tolist()) == set(seg.maxima.tolist())

    def test_rejects_negative_theta(self, rng):
        f = random_field(rng, (4, 4, 4))
        seg = raw_segmentation(f)
        with pytest.raises(ValueError):
            simplify(seg, -0.1, vertex_order(f)[0])

    def test_survivors_exceed_threshold(self, rng):
        f = random_field(rng, (6, 6, 6))
        seg = raw_segmentation(f)
        theta = 0.3
        out = simplify(seg, theta, vertex_order(f)[0])
        assert all(p >= theta for p in out.pers.tolist())

    def test_global_max_survives_any_threshold(self, rng):
        f = random_field(rng, (6, 6, 6))
        seg = raw_segmentation(f)
        out = simplify(seg, 1e9, vertex_order(f)[0])
        top = max(seg.maxima.tolist(), key=lambda m: (f.values[m], m))
        assert out.maxima.tolist() == [top]
        assert np.all(out.maxima[out.labels] == top)

    def test_labels_remain_partition(self, rng):
        f = random_field(rng, (6, 6, 6))
        seg = raw_segmentation(f)
        out = simplify(seg, 0.25, vertex_order(f)[0])
        assert set(np.unique(out.labels)) == set(range(len(out.maxima)))

    def test_canceled_region_joins_pairing_neighbor(self):
        vals = np.zeros((1, 1, 7))
        vals[0, 0, :] = [0.1, 0.9, 0.3, 0.2, 0.4, 1.0, 0.5]
        f = ScalarField3D(
            dims=(7, 1, 1), origin=np.zeros(3), spacing=np.ones(3), values=vals.ravel()
        )
        seg = raw_segmentation(f)
        out = simplify(seg, 0.8, vertex_order(f)[0])  # cancels the 0.9 peak (pers 0.7)
        assert out.maxima.tolist() == [5]
        assert np.all(out.maxima[out.labels] == 5)

    def test_no_per_point_objects(self, rng):
        """A segmentation holds its field and arrays, nothing per point."""
        f = random_field(rng, (6, 6, 6))
        seg = morse_step(f, 0.1)
        for name, value in vars(seg).items():
            assert value is f or isinstance(value, np.ndarray), name

    def test_leaves_its_input_and_earlier_results_alone(self):
        """No stage writes to its input: every column of the segmentation
        given to compute_saddles, compute_persistence and simplify stays
        as it was. Simplifying one raw segmentation at two thresholds:
        the first result keeps its own columns."""
        f = random_field(np.random.default_rng(1), (6, 6, 6))
        order = vertex_order(f)
        rank = order[0]

        def columns(seg):
            return {k: v.copy() for k, v in vars(seg).items() if isinstance(v, np.ndarray)}

        def assert_unchanged(seg, before):
            for k, v in before.items():
                now = getattr(seg, k)
                assert now.dtype == v.dtype and np.array_equal(now, v), k

        seg = compute_segmentation(f, order)
        before = columns(seg)
        raw = compute_saddles(seg, order)
        assert_unchanged(seg, before)
        before = columns(raw)
        compute_persistence(raw, rank)
        assert_unchanged(raw, before)
        out1 = simplify(raw, 0.1, rank)
        first = columns(out1)
        simplify(raw, 0.5, rank)
        assert_unchanged(out1, first)
        assert_unchanged(raw, before)
