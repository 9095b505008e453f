"""Field container, series I/O, and the synthetic Gauss8 generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvex.field import (
    FieldSeries,
    ScalarField3D,
    gauss8_centers,
    generate_gauss8,
    load_series,
    save_series,
)

from conftest import random_field


class TestScalarField3D:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            ScalarField3D(
                dims=(0, 4, 4),
                origin=np.zeros(3),
                spacing=np.ones(3),
                values=np.zeros(0),
            )

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            ScalarField3D(
                dims=(2, 2, 2),
                origin=np.zeros(3),
                spacing=np.ones(3),
                values=np.zeros(7),
            )

    def test_rejects_nonfinite(self):
        vals = np.zeros(8)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField3D(
                dims=(2, 2, 2), origin=np.zeros(3), spacing=np.ones(3), values=vals
            )

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            ScalarField3D(
                dims=(2, 2, 2),
                origin=np.zeros(3),
                spacing=[1.0, 0.0, 1.0],
                values=np.zeros(8),
            )

    def test_voxel_coords_roundtrip(self, rng):
        f = random_field(rng, (5, 3, 4))
        nx, ny, nz = f.dims
        for v in rng.integers(0, f.num_voxels, 20):
            ix, iy, iz = f.voxel_coords(int(v))
            assert ix + nx * (iy + ny * iz) == v

    def test_world_coords_many_matches_scalar(self, rng):
        f = random_field(rng, (4, 5, 6))
        ids = np.arange(f.num_voxels)
        many = f.world_coords_many(ids)
        for v in (0, 17, f.num_voxels - 1):
            assert np.array_equal(many[v], f.world_coords(v))


class TestFieldSeries:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FieldSeries(fields=[])

    def test_rejects_noncontiguous_times(self, rng):
        a = random_field(rng, (3, 3, 3), time_index=1)
        b = random_field(rng, (3, 3, 3), time_index=3)
        with pytest.raises(ValueError, match="time indices"):
            FieldSeries(fields=[a, b])

    def test_rejects_mixed_dims(self, rng):
        a = random_field(rng, (3, 3, 3), time_index=1)
        b = random_field(rng, (4, 3, 3), time_index=2)
        with pytest.raises(ValueError, match="dims"):
            FieldSeries(fields=[a, b])

    def test_global_range(self, rng):
        a = random_field(rng, (3, 3, 3), time_index=1)
        b = random_field(rng, (3, 3, 3), time_index=2)
        s = FieldSeries(fields=[a, b])
        lo = min(a.values.min(), b.values.min())
        hi = max(a.values.max(), b.values.max())
        assert s.global_range() == hi - lo


class TestSeriesIO:
    def test_roundtrip(self, rng, tmp_path):
        fields = [random_field(rng, (4, 4, 4), time_index=t) for t in (1, 2, 3)]
        # quantize to the on-disk precision so the round trip is exact
        for f in fields:
            f.values[:] = f.values.astype(np.float32).astype(np.float64)
        series = FieldSeries(fields=fields)
        manifest = save_series(series, str(tmp_path))
        back = load_series(manifest)
        assert len(back) == 3
        for a, b in zip(series.fields, back.fields):
            assert a.time_index == b.time_index
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.origin, b.origin)
            assert np.array_equal(a.spacing, b.spacing)

    def test_missing_volume_file(self, rng, tmp_path):
        series = FieldSeries(fields=[random_field(rng, (3, 3, 3), time_index=1)])
        manifest = save_series(series, str(tmp_path))
        (tmp_path / "vol_0001.raw").unlink()
        with pytest.raises(FileNotFoundError):
            load_series(manifest)

    def test_truncated_volume_file(self, rng, tmp_path):
        series = FieldSeries(fields=[random_field(rng, (3, 3, 3), time_index=1)])
        manifest = save_series(series, str(tmp_path))
        raw = tmp_path / "vol_0001.raw"
        raw.write_bytes(raw.read_bytes()[:-8])
        with pytest.raises(ValueError, match="size mismatch"):
            load_series(manifest)


class TestGauss8:
    def test_rejects_odd_steps(self):
        with pytest.raises(ValueError, match="even"):
            generate_gauss8((8, 8, 8), steps=5)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            generate_gauss8((8, 8, 8), steps=4, sigma=0.0)

    def test_time_reversal_exact(self):
        series = generate_gauss8((10, 10, 10), steps=6)
        T = 6
        for t in range(1, T + 1):
            assert np.array_equal(
                series[t - 1].values, series[T - t].values
            ), f"mirror mismatch at t={t}"

    def test_centers_in_x0_plane(self):
        for t in (1, 7, 13, 25, 50):
            c = gauss8_centers(t, 50)
            assert np.all(c[:, 0] == 0.0)

    def test_centers_evenly_spaced_on_circle(self):
        c = gauss8_centers(1, 50)
        radii = np.hypot(c[:, 1], c[:, 2])
        assert np.allclose(radii, 0.7)
        angles = np.unwrap(np.arctan2(c[:, 2], c[:, 1]))
        gaps = np.diff(angles)
        assert np.allclose(gaps, np.pi / 4)

    def test_radius_shrinks_linearly_to_min(self):
        c_mid = gauss8_centers(25, 50)
        assert np.allclose(np.hypot(c_mid[:, 1], c_mid[:, 2]), 0.15)
        c_q = gauss8_centers(13, 50)
        r_q = float(np.hypot(c_q[0, 1], c_q[0, 2]))
        assert np.isclose(r_q, 0.7 + (0.15 - 0.7) * (12 / 24))

    def test_values_match_analytic_sum(self):
        sigma = 0.1
        series = generate_gauss8((9, 9, 9), steps=4, amplitude=2.0, sigma=sigma)
        f = series[1]
        centers = gauss8_centers(2, 4)
        v = 100  # arbitrary voxel
        x = f.world_coords(v)
        expected = sum(
            2.0 * np.exp(-np.sum((x - c) ** 2) / (2 * sigma**2)) for c in centers
        )
        assert np.isclose(f.values[v], expected, rtol=1e-6)

    def test_values_are_float32_representable(self):
        series = generate_gauss8((8, 8, 8), steps=2)
        v = series[0].values
        assert np.array_equal(v, v.astype(np.float32).astype(np.float64))

    @given(steps=st.sampled_from([2, 4, 6, 8, 10]))
    @settings(max_examples=5, deadline=None)
    def test_mirror_invariant_any_even_steps(self, steps):
        series = generate_gauss8((6, 6, 6), steps=steps)
        for t in range(1, steps + 1):
            assert np.array_equal(series[t - 1].values, series[steps - t].values)
