"""Field container, series I/O, and the synthetic Gauss8 generator."""

import math
import os
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvex import pipeline
from tvex.cli import main
from tvex.field import (
    FieldSeries,
    ScalarField3D,
    Volumes,
    gauss8_centers,
    generate_gauss8,
    load_series,
    save_series,
)
from tvex.temporal import ScoreWeights

from conftest import random_field, two_blob_series


@pytest.fixture
def reads(monkeypatch):
    """Names of the files np.fromfile reads during the test."""
    names = []
    real = np.fromfile

    def fromfile(path, *args, **kwargs):
        names.append(os.path.basename(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(np, "fromfile", fromfile)
    return names


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
        f.origin, f.spacing = np.array([0.5, -1.0, 2.0]), np.array([0.5, 0.25, 2.0])
        nx, ny, nz = f.dims
        ids = rng.integers(0, f.num_voxels, 20)
        ix, iy, iz = ((f.world_coords_many(ids) - f.origin) / f.spacing).T
        assert np.array_equal(ix + nx * (iy + ny * iz), ids)

    def test_world_coords_many_matches_scalar(self, rng):
        f = random_field(rng, (4, 5, 6))
        nx, ny, _ = f.dims
        many = f.world_coords_many(np.arange(f.num_voxels))
        for v in (0, 17, f.num_voxels - 1):
            ijk = np.array([v % nx, (v // nx) % ny, v // (nx * ny)], dtype=np.float64)
            assert np.array_equal(many[v], f.origin + f.spacing * ijk)


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

    @pytest.mark.parametrize("key", ["origin", "spacing"])
    def test_rejects_mixed_origin_or_spacing(self, rng, key):
        a = random_field(rng, (3, 3, 3), time_index=1)
        b = random_field(rng, (3, 3, 3), time_index=2)
        setattr(b, key, np.full(3, 2.0))
        with pytest.raises(ValueError, match="^inconsistent origin/spacing$"):
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
        with pytest.raises(ValueError, match="vol_0001.raw: size mismatch"):
            load_series(manifest)


class TestLazyVolumes:
    """A loaded series reads a volume only when its step is used."""

    @pytest.fixture
    def manifest(self, tmp_path):
        return save_series(two_blob_series(steps=5, dims=(8, 8, 8)), str(tmp_path))

    def test_load_reads_no_volume(self, manifest, reads):
        series = load_series(manifest)
        assert reads == []
        assert (len(series), series.dims, series.times) == (5, (8, 8, 8), range(1, 6))

    def test_every_access_reads_again(self, manifest, reads):
        series = load_series(manifest)
        a, b = series.fields[2], series.at(3)
        assert a is not b and np.array_equal(a.values, b.values)
        assert a.time_index == 3 and a.values.dtype == np.float64
        assert reads == ["vol_0003.raw"] * 2

    def test_selected_steps_read_only_their_volumes(
        self, manifest, reads, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("TVEX_THREADS", "2")
        series = load_series(manifest)
        tveg = pipeline.compute_tveg(series, 0.0, ScoreWeights(), t_range=(2, 3))
        assert [g.t for g in tveg.graphs] == [2, 3]
        assert sorted(reads) == ["vol_0002.raw", "vol_0003.raw"]
        for argv in (
            ["eg", "--t", "4", "-o", str(tmp_path / "eg")],
            ["export", "--what", "segmentation", "--t", "4", "-o", str(tmp_path / "s")],
        ):
            reads.clear()
            assert main(argv + ["--manifest", manifest, "--theta", "0.01"]) == 0
            assert reads == ["vol_0004.raw"]
        capsys.readouterr()

    def test_nan_volume_fails_when_its_step_is_read(self, manifest):
        path = os.path.join(os.path.dirname(manifest), "vol_0002.raw")
        vals = np.fromfile(path, dtype="<f4")
        vals[5] = np.nan
        vals.tofile(path)
        series = load_series(manifest)
        series.at(1)
        with pytest.raises(ValueError, match="vol_0002.raw: non-finite"):
            series.at(2)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_compute_tveg_keeps_no_field_alive(self, manifest, monkeypatch, threads):
        """At most one field per worker (+1 while the next is read) is
        live while the graphs are built, and none once the tveg is made.
        With several workers each one reads its own volume."""
        monkeypatch.setenv("TVEX_THREADS", str(threads))
        refs, live, readers = [], [], set()
        read, build = Volumes.__getitem__, pipeline.build_extremum_graph

        def tracked_read(volumes, i):
            f = read(volumes, i)
            if not isinstance(i, slice):
                refs.append(weakref.ref(f))
                readers.add(threading.current_thread() is threading.main_thread())
            return f

        def counted_build(f, theta):
            live.append(sum(ref() is not None for ref in refs))
            return build(f, theta)

        monkeypatch.setattr(Volumes, "__getitem__", tracked_read)
        monkeypatch.setattr(pipeline, "build_extremum_graph", counted_build)
        series = load_series(manifest)
        tveg = pipeline.compute_tveg(series, 0.0, ScoreWeights())
        assert len(tveg.graphs) == len(refs) == len(live) == 5
        assert max(live) <= threads + 1
        assert [ref() for ref in refs] == [None] * 5
        assert readers == {threads == 1}


class TestGauss8:
    def test_rejects_odd_steps(self):
        with pytest.raises(ValueError, match="even"):
            generate_gauss8((8, 8, 8), steps=5)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            generate_gauss8((8, 8, 8), steps=4, sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_rejects_non_finite_sigma(self, sigma):
        """An infinite sigma would make every voxel the sum of the eight
        amplitudes, a constant series."""
        with pytest.raises(ValueError, match=f"^sigma must be positive and finite, got {sigma}$"):
            generate_gauss8((6, 6, 6), steps=2, sigma=sigma)

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
        x = f.world_coords_many(v)
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
