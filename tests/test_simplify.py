"""One-sweep simplification against the iterative reference loop."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tvex.field import ScalarField3D
from tvex.morse import compute_persistence, merge_tree_oracle, simplify, vertex_order

from conftest import adjacency, raw_segmentation, voxel_ids
from iterative_simplify import iterative_simplify, manifolds


def as_field(a: np.ndarray) -> ScalarField3D:
    nz, ny, nx = a.shape
    return ScalarField3D(
        dims=(nx, ny, nz), origin=np.zeros(3), spacing=np.ones(3), values=a.ravel()
    )


def sweep(f: ScalarField3D, theta: float):
    """`simplify` on the raw segmentation, as `morse_step` runs it."""
    return simplify(raw_segmentation(f), theta, vertex_order(f)[0])


def reference(f: ScalarField3D, theta: float):
    """The iterative loop on the raw segmentation; it names each maximum
    by its voxel id."""
    return iterative_simplify(voxel_ids(raw_segmentation(f)), theta)


def assert_same(got, want):
    """Every column bit for bit, and the manifolds of both by a voxel
    scan; `got` names each maximum by its row, `want` by its voxel id."""
    got = voxel_ids(got)
    for name in ("labels", "maxima", "pers", "pairs", "saddles"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    got_mf, want_mf = manifolds(got), manifolds(want)
    assert len(got_mf) == len(want_mf)
    for a, b in zip(got_mf, want_mf):
        assert np.array_equal(a, b)


shapes = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(2, 6))
float_fields = arrays(
    dtype=np.float64,
    shape=shapes,
    elements=st.floats(0.0, 1.0, allow_nan=False, width=32),
)
# few distinct values: many equal-valued voxels and shared saddle voxels
integer_fields = arrays(dtype=np.float64, shape=shapes, elements=st.integers(0, 3))
theta_fractions = st.floats(0.0, 1.2, allow_nan=False)


class TestSweepMatchesIterative:
    @given(float_fields, theta_fractions)
    @settings(max_examples=80, deadline=None)
    def test_float_fields(self, a, frac):
        f = as_field(a)
        theta = frac * float(np.ptp(f.values))
        assert_same(sweep(f, theta), reference(f, theta))

    @given(integer_fields, theta_fractions)
    @settings(max_examples=80, deadline=None)
    def test_integer_fields(self, a, frac):
        f = as_field(a)
        theta = frac * float(np.ptp(f.values))
        assert_same(sweep(f, theta), reference(f, theta))

    def test_random_fields_and_thresholds(self, rng):
        for i in range(30):
            dims = tuple(int(d) for d in rng.integers(3, 8, 3))
            values = rng.normal(size=dims[0] * dims[1] * dims[2])
            if i % 2:
                values = np.round(values, 1)
            f = ScalarField3D(
                dims=dims, origin=np.zeros(3), spacing=np.ones(3), values=values
            )
            span = float(np.ptp(values))
            for theta in (0.0, 0.1 * span, 0.4 * span, 2.0 * span):
                assert_same(sweep(f, theta), reference(f, theta))

    @given(float_fields, theta_fractions)
    @settings(max_examples=40, deadline=None)
    def test_kept_maxima_are_those_above_theta(self, a, frac):
        """Survivors are the maxima whose raw persistence reaches theta,
        with that persistence (elder rule)."""
        f = as_field(a)
        theta = frac * float(np.ptp(f.values))
        pers = merge_tree_oracle(f)
        top = max(pers, key=lambda v: (f.values[v], v))
        out = sweep(f, theta)
        want = {v: p for v, p in pers.items() if p >= theta or v == top}
        assert dict(zip(out.maxima.tolist(), out.pers.tolist())) == want

    @given(st.one_of(float_fields, integer_fields), theta_fractions)
    @settings(max_examples=80, deadline=None)
    def test_survivors_keep_the_persistence_of_a_new_pairing(self, a, frac):
        """The sweep's persistence equals pairing the simplified graph
        again, bit for bit."""
        f = as_field(a)
        out = sweep(f, frac * float(np.ptp(f.values)))
        again = compute_persistence(out, vertex_order(f)[0])
        assert list(again) == out.maxima.tolist()
        assert np.array_equal(np.array(list(again.values())), out.pers)


# nx=5, ny=3, nz=1; voxel id = x + 5 * y. Peaks A (id 0, value 10),
# B (id 4, value 9) and C (id 12, value 6). Voxel 7 (value 2) ascends to C
# and borders A's voxel 1 and B's voxel 3, so the highest A-C and B-C
# crossings share the one saddle voxel 7; A and B meet lower, at voxel 2.
SHARED_SADDLE = [
    [10.0, 5.0, 0.0, 5.5, 9.0],
    [0.2, 0.1, 2.0, 0.15, 0.3],
    [0.05, 0.06, 6.0, 0.07, 0.08],
]


class TestSharedSaddleVoxel:
    def field(self):
        return as_field(np.array([SHARED_SADDLE]))

    def test_raw_graph(self):
        seg = raw_segmentation(self.field())
        assert seg.maxima.tolist() == [0, 4, 12]
        assert adjacency(seg) == {(0, 4): 2, (0, 12): 7, (4, 12): 7}

    def test_canceled_region_joins_the_greater_saddle_row(self):
        """C's two saddle edges tie in rank; (4, 12) has the greater raw
        row, so C joins B there although A is the higher peak."""
        f = self.field()
        out = sweep(f, 5.0)  # pers: C 4, B 7, A 10
        assert out.maxima.tolist() == [0, 4]
        # C's region (voxels 7, 11, 12, 13) is relabeled to B
        assert out.maxima[out.labels].tolist() == [0, 0, 4, 4, 4, 0, 0, 4, 4, 4, 0, 4, 4, 4, 4]
        # A and B now meet at voxel 7 through the former A-C saddle
        assert adjacency(out) == {(0, 4): 7}
        assert out.pers.tolist() == [10.0, 7.0]
        assert_same(out, reference(f, 5.0))

    def test_partner_chain_resolves_to_the_survivor(self):
        """C's partner B is canceled too, so C's region ends up in A."""
        f = self.field()
        out = sweep(f, 8.0)
        assert out.maxima.tolist() == [0]
        assert np.all(out.maxima[out.labels] == 0)
        assert adjacency(out) == {}
        assert_same(out, reference(f, 8.0))
