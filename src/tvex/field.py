"""Regular-grid scalar fields and time series of them.

Volumes are stored x-fastest: linear index = ix + nx*(iy + ny*iz).
On disk a volume is little-endian 32-bit floats; in memory values are
widened to 64-bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

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

    def voxel_coords(self, voxel: int) -> tuple[int, int, int]:
        """Grid indices (ix, iy, iz) of a linear voxel id."""
        nx, ny, _ = self.dims
        ix = voxel % nx
        iy = (voxel // nx) % ny
        iz = voxel // (nx * ny)
        return ix, iy, iz

    def world_coords(self, voxel: int) -> np.ndarray:
        ix, iy, iz = self.voxel_coords(voxel)
        return self.origin + self.spacing * np.array([ix, iy, iz], dtype=np.float64)

    def world_coords_many(self, voxels: np.ndarray) -> np.ndarray:
        """World coordinates for an array of voxel ids, shape (k, 3)."""
        voxels = np.asarray(voxels)
        nx, ny, _ = self.dims
        ix = voxels % nx
        iy = (voxels // nx) % ny
        iz = voxels // (nx * ny)
        ijk = np.stack([ix, iy, iz], axis=-1).astype(np.float64)
        return self.origin + self.spacing * ijk


@dataclass
class FieldSeries:
    """Contiguous time series of fields sharing one grid; t runs 1..T."""

    fields: list[ScalarField3D] = field(default_factory=list)

    def __post_init__(self):
        if not self.fields:
            raise ValueError("series must contain at least one field")
        f0 = self.fields[0]
        for i, f in enumerate(self.fields):
            if f.dims != f0.dims:
                raise ValueError("inconsistent dims")
            if not np.array_equal(f.origin, f0.origin) or not np.array_equal(
                f.spacing, f0.spacing
            ):
                raise ValueError("inconsistent origin/spacing")
            if f.time_index != self.fields[0].time_index + i:
                raise ValueError("time indices must increase by 1")

    def __len__(self) -> int:
        return len(self.fields)

    def __getitem__(self, i: int) -> ScalarField3D:
        return self.fields[i]

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.fields[0].dims

    def global_range(self) -> float:
        lo = min(float(f.values.min()) for f in self.fields)
        hi = max(float(f.values.max()) for f in self.fields)
        return hi - lo


def _require(entry, keys: tuple[str, ...], where: str) -> None:
    for key in keys:
        if not isinstance(entry, dict) or key not in entry:
            raise ValueError(f"{where} has no {key!r} entry")


def load_series(manifest_path: str) -> FieldSeries:
    """Load a series from a JSON manifest referencing raw volumes.

    Manifest schema:
    {"dims": [nx,ny,nz], "origin": [...], "spacing": [...],
     "steps": [{"t": 1, "file": "vol_0001.raw"}, ...]}
    Raw files hold nx*ny*nz little-endian 32-bit floats, x-fastest.
    """
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    _require(manifest, ("dims", "steps"), f"manifest {manifest_path}")
    dims = tuple(int(d) for d in manifest["dims"])
    origin = manifest.get("origin", [0.0, 0.0, 0.0])
    spacing = manifest.get("spacing", [1.0, 1.0, 1.0])
    n = dims[0] * dims[1] * dims[2]
    base = os.path.dirname(os.path.abspath(manifest_path))
    fields = []
    for i, step in enumerate(manifest["steps"]):
        _require(step, ("file", "t"), f"manifest {manifest_path}: step {i}")
        path = step["file"]
        if not os.path.isabs(path):
            path = os.path.join(base, path)
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing file: {path}")
        raw = np.fromfile(path, dtype="<f4")
        if raw.size != n:
            raise ValueError(f"size mismatch: expected {n} got {raw.size}")
        fields.append(
            ScalarField3D(
                dims=dims,
                origin=origin,
                spacing=spacing,
                values=raw.astype(np.float64),
                time_index=int(step["t"]),
            )
        )
    return FieldSeries(fields=fields)


def save_series(series: FieldSeries, out_dir: str, prefix: str = "vol") -> str:
    """Write raw volumes plus a manifest; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    steps = []
    for f in series.fields:
        name = f"{prefix}_{f.time_index:04d}.raw"
        f.values.astype("<f4").tofile(os.path.join(out_dir, name))
        steps.append({"t": f.time_index, "file": name})
    manifest = {
        "dims": list(series.dims),
        "origin": [float(v) for v in series.fields[0].origin],
        "spacing": [float(v) for v in series.fields[0].spacing],
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
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
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
    return FieldSeries(fields=fields)
