"""Regular-grid scalar fields and time series of them.

Volumes are stored x-fastest: linear index = ix + nx*(iy + ny*iz).
On disk a volume is little-endian 32-bit floats; in memory values are
widened to 64-bit.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass
class ScalarField3D:
    """One time step of a scalar field sampled on a regular 3D grid."""

    dims: tuple[int, int, int]
    origin: np.ndarray
    spacing: np.ndarray
    values: np.ndarray  # flat, x-fastest, float64
    time_index: int = 0

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"dims must be positive, got {self.dims}")
        self.origin = np.asarray(self.origin, dtype=np.float64)
        self.spacing = np.asarray(self.spacing, dtype=np.float64)
        if np.any(self.spacing <= 0):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        n = self.dims[0] * self.dims[1] * self.dims[2]
        if self.values.size != n:
            raise ValueError(
                f"size mismatch: expected {n} got {self.values.size}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite value in field")

    @property
    def num_voxels(self) -> int:
        return self.values.size

    def world_coords_many(self, voxels: np.ndarray) -> np.ndarray:
        """World coordinates for an array of voxel ids, shape (k, 3)."""
        voxels = np.asarray(voxels)
        nx, ny, _ = self.dims
        ix = voxels % nx
        iy = (voxels // nx) % ny
        iz = voxels // (nx * ny)
        ijk = np.stack([ix, iy, iz], axis=-1).astype(np.float64)
        return self.origin + self.spacing * ijk


class Volumes(Sequence):
    """The volumes a manifest names. Item i reads step i's file and
    widens it to float64, uncached; a slice reads nothing."""

    def __init__(self, paths, times, dims, origin, spacing):
        self.paths, self.times = paths, times
        self.dims, self.origin, self.spacing = dims, origin, spacing

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Volumes(self.paths[i], self.times[i], self.dims, self.origin, self.spacing)
        path = self.paths[i]
        raw = np.fromfile(path, dtype="<f4")
        try:
            return ScalarField3D(self.dims, self.origin, self.spacing, raw, self.times[i])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def check_step_times(first: int, last: int) -> None:
    """Refuse step times first..last outside [-2**31, 2**31), where node ids
    t << 32 | row (`exgraph.make_node_id`) fit int64."""
    if not -2**31 <= first <= last < 2**31:
        raise ValueError(f"step times must lie in [-2**31, 2**31), got {first}..{last}")


class FieldSeries:
    """Contiguous time series of fields sharing one grid: a list of
    fields in memory, or a manifest's `Volumes`. The grid and `times`
    are known without reading any volume."""

    def __init__(self, fields: Sequence[ScalarField3D]):
        if not len(fields):
            raise ValueError("series must contain at least one field")
        self.fields = fields
        if isinstance(fields, Volumes):
            grid, times = fields, list(fields.times)
        else:
            grid, times = fields[0], [f.time_index for f in fields]
            for f in fields:
                if f.dims != grid.dims:
                    raise ValueError("inconsistent dims")
                if not np.array_equal(f.origin, grid.origin) or not np.array_equal(
                    f.spacing, grid.spacing
                ):
                    raise ValueError("inconsistent origin/spacing")
        self.dims, self.origin, self.spacing = grid.dims, grid.origin, grid.spacing
        self.times = range(times[0], times[0] + len(times))
        if times != list(self.times):
            raise ValueError("time indices must increase by 1")
        check_step_times(self.times[0], self.times[-1])

    def __len__(self) -> int:
        return len(self.fields)

    def __getitem__(self, i: int) -> ScalarField3D:
        return self.fields[i]

    def at(self, t: int) -> ScalarField3D:
        """The field of step t; no other step is read."""
        if t not in self.times:
            raise ValueError(f"no time step {t} in series")
        return self.fields[self.times.index(t)]

    def global_range(self) -> float:
        lo, hi = np.inf, -np.inf
        for f in self.fields:  # one volume at a time
            lo, hi = min(lo, float(f.values.min())), max(hi, float(f.values.max()))
        return hi - lo


def _require(entry, keys: tuple[str, ...], where: str) -> None:
    for key in keys:
        if not isinstance(entry, dict) or key not in entry:
            raise ValueError(f"{where} has no {key!r} entry")


def finite_number(x) -> bool:
    """Whether x is an int or a float (not a bool) finite as a float64."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def _vector(manifest: dict, key: str, default: float, where: str) -> np.ndarray:
    """Manifest entry `key` (three `default`s if absent): three finite
    numbers, positive for 'spacing'."""
    v = manifest.get(key, [default] * 3)
    positive = key == "spacing"
    if not (isinstance(v, list) and len(v) == 3 and all(
            finite_number(x) and (x > 0 or not positive) for x in v)):
        need = "three finite numbers > 0" if positive else "three finite numbers"
        raise ValueError(f"{where}: {key!r} must be {need}, got {v!r}")
    return np.asarray(v, dtype=np.float64)


def read_json(path: str):
    """The JSON document in the file at `path`; a file that is not JSON
    (empty, truncated, not UTF-8) is a ValueError that names it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not JSON: {exc}") from None


def load_series(manifest_path: str) -> FieldSeries:
    """Open a series from a JSON manifest referencing raw volumes.

    Manifest schema:
    {"dims": [nx,ny,nz], "origin": [...], "spacing": [...],
     "steps": [{"t": 1, "file": "vol_0001.raw"}, ...]}
    Raw files hold nx*ny*nz little-endian 32-bit floats, x-fastest.
    Checks the manifest and the file sizes; reads no volume.
    """
    manifest = read_json(manifest_path)
    where = f"manifest {manifest_path}"
    _require(manifest, ("dims", "steps"), where)
    dims, steps = manifest["dims"], manifest["steps"]
    if not (isinstance(dims, list) and len(dims) == 3
            and all(type(d) is int and d > 0 for d in dims)):
        raise ValueError(f"{where}: 'dims' must be three positive integers, got {dims!r}")
    if not isinstance(steps, list):
        raise ValueError(f"{where}: 'steps' must be a list, got {steps!r}")
    origin = _vector(manifest, "origin", 0.0, where)
    spacing = _vector(manifest, "spacing", 1.0, where)
    # voxel coordinates lie between origin and the far corner, and rounded -,
    # squaring and + are monotone: the extent squared bounds every squared distance
    with np.errstate(over="ignore"):
        far = origin + spacing * (np.array(dims) - 1)
        square = (far - origin) ** 2
        square = square[0] + square[1] + square[2]  # in x, y, z order, as distances are
    if not (np.isfinite(far).all() and np.isfinite(square)):
        raise ValueError(f"{where}: the grid of dims {dims}, origin {origin.tolist()} and "
                         f"spacing {spacing.tolist()} is too large: its far corner or squared "
                         "extent overflows float64")
    nbytes = 4 * dims[0] * dims[1] * dims[2]
    base = os.path.dirname(os.path.abspath(manifest_path))
    paths, times = [], []
    for i, step in enumerate(steps):
        _require(step, ("file", "t"), f"{where}: step {i}")
        if not isinstance(step["file"], str):
            raise ValueError(f"{where}: step {i} 'file' must be a string, got {step['file']!r}")
        if type(step["t"]) is not int:
            raise ValueError(f"{where}: step {i} 't' must be an integer, got {step['t']!r}")
        path = os.path.join(base, step["file"])  # an absolute file stays as is
        size = os.path.getsize(path)
        if size != nbytes:
            raise ValueError(f"{path}: size mismatch: expected {nbytes} bytes got {size}")
        paths.append(path)
        times.append(step["t"])
    try:
        return FieldSeries(Volumes(paths, times, tuple(dims), origin, spacing))
    except ValueError as exc:  # no steps, or times that do not run on by 1
        raise ValueError(f"{where}: 'steps': {exc}") from None


def save_series(series: FieldSeries, out_dir: str) -> str:
    """Write raw volumes plus a manifest; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    steps = []
    for f in series.fields:
        name = f"vol_{f.time_index:04d}.raw"
        f.values.astype("<f4").tofile(os.path.join(out_dir, name))
        steps.append({"t": f.time_index, "file": name})
    manifest = {
        "dims": list(series.dims),
        "origin": [float(v) for v in series.origin],
        "spacing": [float(v) for v in series.spacing],
        "steps": steps,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest_path


def gauss8_centers(t: int, steps: int) -> np.ndarray:
    """Centers of the eight Gaussians at step t (1-based), shape (8, 3).

    All centers lie in the x=0 plane. They sit evenly spaced on a
    circle in the (y, z) plane, offset by pi/8 so the configuration is
    symmetric about the grid diagonals y = +-z (on even grids those
    reflections map voxel centers to voxel centers exactly). The radius
    shrinks linearly from 0.7 to 0.15 at t = steps/2, then the motion
    reverses in time.
    """
    half = steps // 2
    tt = min(t, steps + 1 - t)  # mirror the second half
    frac = 0.0 if half <= 1 else (tt - 1) / (half - 1)
    radius = 0.7 + (0.15 - 0.7) * frac
    angles = np.pi / 8.0 + 2.0 * np.pi * np.arange(8) / 8.0
    centers = np.zeros((8, 3))
    centers[:, 1] = radius * np.cos(angles)
    centers[:, 2] = radius * np.sin(angles)
    return centers


def generate_gauss8(
    dims: tuple[int, int, int],
    steps: int,
    amplitude: float = 1.0,
    sigma: float = 0.08,
) -> FieldSeries:
    """Synthesize the eight-moving-Gaussians series on [-1, 1]^3.

    f(x, t) = sum_k amplitude * exp(-||x - c_k(t)||^2 / (2 sigma^2)).
    The second half of the series is an exact time reversal of the
    first half (fields[t] == fields[steps+1-t] elementwise). Values are
    rounded to 32-bit float precision, matching the on-disk
    representation; this also collapses sub-ulp asymmetries, so voxels
    related by a symmetry of the center configuration carry exactly
    equal values.
    """
    if steps % 2 != 0 or steps < 2:
        raise ValueError(f"steps must be even and >= 2, got {steps}")
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    nx, ny, nz = dims
    origin = np.array([-1.0, -1.0, -1.0])
    spacing = np.array(
        [
            2.0 / (nx - 1) if nx > 1 else 1.0,
            2.0 / (ny - 1) if ny > 1 else 1.0,
            2.0 / (nz - 1) if nz > 1 else 1.0,
        ]
    )
    xs = origin[0] + spacing[0] * np.arange(nx)
    ys = origin[1] + spacing[1] * np.arange(ny)
    zs = origin[2] + spacing[2] * np.arange(nz)
    Z, Y, X = np.meshgrid(zs, ys, xs, indexing="ij")

    half = steps // 2
    half_values = []
    for t in range(1, half + 1):
        centers = gauss8_centers(t, steps)
        vals = np.zeros_like(X)
        for c in centers:
            d2 = (X - c[0]) ** 2 + (Y - c[1]) ** 2 + (Z - c[2]) ** 2
            vals += amplitude * np.exp(-d2 / (2.0 * sigma * sigma))
        half_values.append(vals.ravel().astype(np.float32).astype(np.float64))

    fields = []
    for t in range(1, steps + 1):
        vals = half_values[t - 1] if t <= half else half_values[steps - t]
        fields.append(
            ScalarField3D(
                dims=dims,
                origin=origin,
                spacing=spacing,
                values=vals.copy(),
                time_index=t,
            )
        )
    return FieldSeries(fields)
