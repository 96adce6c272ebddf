"""Dense 3D volumes, their raw + sidecar files, and tiling.

Axis order is (z, y, x) with z slowest (C order). Physical positions are in
micrometers; voxel (i, j, k) is centered at ((i + 0.5) * sz, (j + 0.5) * sy,
(k + 0.5) * sx).

On disk a volume is a pair: ``<base>.raw`` (little-endian float32) and a
``<base>.json`` sidecar holding its integer shape and positive finite voxel
size. A density-map regressor's dm, aleatoric and epistemic maps are one
such pair each.

Two tiling strategies are supported for patch-wise inference on large
volumes. Both lay overlapping windows out in the volume's own voxel frame;
an input window may overhang the volume by at most its padding, and a
patch reads only the part of its window that lies inside:

* ``m_conv``: the output window is exactly the region the regressor predicts
  (input shrunk by the convolutional margin). Detections at window borders
  may be duplicated in neighbouring patches.
* ``m_peak``: a supplementary margin is cropped off the predicted region so
  that border detections are attributed to exactly one patch.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import VolumeSizeMismatch, VolumeTooSmall, check_int, check_real

M_CONV = "m_conv"
M_PEAK = "m_peak"
STRATEGIES = (M_CONV, M_PEAK)


@dataclass(frozen=True, eq=False)
class Volume3D:
    """A dense scalar field on a regular 3D grid.

    data is float32 (canonical, matches the file format), float64 (in memory
    where rounding matters, e.g. distance transforms) or bool (a mask).
    """

    data: np.ndarray
    voxel_size: tuple[float, float, float]

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype not in (np.float32, np.float64, np.bool_):
            data = data.astype(np.float32)
        data = np.ascontiguousarray(data)
        if data.ndim != 3 or min(data.shape) < 1:
            raise ValueError("volume data must be a non-empty 3D array")
        vs = tuple(float(v) for v in check_real(self.voxel_size, "voxel_size", length=3))
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "voxel_size", vs)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def extent_um(self) -> np.ndarray:
        """Physical size per axis in micrometers."""
        return np.asarray(self.shape, dtype=np.float64) * np.asarray(self.voxel_size)

    @property
    def voxel_volume_um3(self) -> float:
        sz, sy, sx = self.voxel_size
        return sz * sy * sx

    def like(self, data: np.ndarray) -> "Volume3D":
        return Volume3D(data, self.voxel_size)


def voxel_centers_um(n: int, voxel: float) -> np.ndarray:
    return (np.arange(n, dtype=np.float64) + 0.5) * voxel


def um_to_voxel(coords_um: np.ndarray, voxel_size) -> np.ndarray:
    """Continuous voxel-index coordinates (center convention) of micrometer points."""
    vs = np.asarray(voxel_size, dtype=np.float64)
    return np.asarray(coords_um, dtype=np.float64) / vs - 0.5


def sample_trilinear(v: Volume3D, coords_um: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of the volume at micrometer positions, edge-clamped."""
    pts = um_to_voxel(np.asarray(coords_um, dtype=np.float64).reshape(-1, 3), v.voxel_size)
    return ndimage.map_coordinates(
        v.data.astype(np.float64, copy=False), pts.T, order=1, mode="nearest"
    )


@dataclass(frozen=True)
class TilingConfig:
    """Patch arithmetic for tiled inference.

    l_in is the input window size; conv_margin the one-sided size the
    regressor loses to convolutions; peak_margin the one-sided supplementary
    crop of the m_peak strategy (0 under m_conv). All in voxels.
    """

    l_in: tuple[int, int, int]
    conv_margin: tuple[int, int, int]
    peak_margin: tuple[int, int, int]
    strategy: str

    def __post_init__(self):
        for name, least in (("l_in", 1), ("conv_margin", 0), ("peak_margin", 0)):
            object.__setattr__(self, name, check_int(getattr(self, name), name, least, 3))
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {list(STRATEGIES)}, got {self.strategy!r}")
        if self.strategy == M_CONV and any(m != 0 for m in self.peak_margin):
            raise ValueError("m_conv uses no supplementary margin")
        if any(o < 1 for o in self.l_out):
            raise ValueError("l_out = l_in - 2*conv_margin must be >= 1 per axis")
        if any(o < 1 for o in self.l_out_tile):
            raise ValueError("l_out_tile = l_out - 2*peak_margin must be >= 1 per axis")

    @classmethod
    def m_conv(cls, l_in, conv_margin) -> "TilingConfig":
        return cls(tuple(l_in), tuple(conv_margin), (0, 0, 0), M_CONV)

    @classmethod
    def m_peak(cls, l_in, conv_margin, peak_margin=(4, 4, 4)) -> "TilingConfig":
        return cls(tuple(l_in), tuple(conv_margin), tuple(peak_margin), M_PEAK)

    @property
    def l_out(self) -> tuple[int, int, int]:
        return tuple(i - 2 * m for i, m in zip(self.l_in, self.conv_margin))

    @property
    def l_out_tile(self) -> tuple[int, int, int]:
        return tuple(o - 2 * m for o, m in zip(self.l_out, self.peak_margin))

    @property
    def l_pad(self) -> tuple[int, int, int]:
        return tuple(c + p for c, p in zip(self.conv_margin, self.peak_margin))

    @property
    def l_overlap(self) -> tuple[int, int, int]:
        return tuple(i - t for i, t in zip(self.l_in, self.l_out_tile))


@dataclass(frozen=True)
class Patch:
    """One tile. All boxes are (start, stop) voxel indices of the volume.

    in_box   input window, size l_in; may overhang [0, shape) by l_pad
    cnn_box  region the regressor predicts, size l_out; may overhang
             [0, shape) by peak_margin
    out_box  output window (core), size l_out_tile, inside [0, shape)
    keep_box region whose detections this patch owns under m_peak; equals
             out_box except where a trailing-border overlap would otherwise
             assign the same region to two patches
    """

    in_box: tuple[tuple[int, int, int], tuple[int, int, int]]
    cnn_box: tuple[tuple[int, int, int], tuple[int, int, int]]
    out_box: tuple[tuple[int, int, int], tuple[int, int, int]]
    keep_box: tuple[tuple[int, int, int], tuple[int, int, int]]


@dataclass(frozen=True)
class PatchGrid:
    patches: tuple[Patch, ...]


def _axis_starts(extent: int, tile: int) -> list[int]:
    """Tile starts covering [0, extent): adjacent, the last one clamped back."""
    n = max(1, -(-extent // tile))
    return [min(k * tile, extent - tile) for k in range(n)]


def plan_tiling(shape, cfg: TilingConfig) -> PatchGrid:
    """Lay out input/output windows over a volume of the given voxel shape.

    Output windows tile the volume; interior windows are disjoint and only
    the trailing window per axis may overlap its predecessor.
    """
    shape = check_int(shape, "shape", length=3)
    tile = cfg.l_out_tile
    for ax in range(3):
        if shape[ax] < tile[ax]:
            raise VolumeTooSmall(f"axis {ax}: shape {shape[ax]} < output tile {tile[ax]}")
    axis_starts = [_axis_starts(shape[ax], tile[ax]) for ax in range(3)]
    # keep regions partition [0, extent): the trailing patch hands its overlap
    # back to the previous one
    axis_keeps = []
    for ax in range(3):
        starts = axis_starts[ax]
        keeps = []
        for k, s in enumerate(starts):
            lo = s if k == 0 else max(s, starts[k - 1] + tile[ax])
            keeps.append((lo, s + tile[ax]))
        axis_keeps.append(keeps)
    patches = []
    for iz, sz in enumerate(axis_starts[0]):
        for iy, sy in enumerate(axis_starts[1]):
            for ix, sx in enumerate(axis_starts[2]):
                core_start = (sz, sy, sx)
                core_stop = tuple(c + t for c, t in zip(core_start, tile))
                cnn_start = tuple(c - m for c, m in zip(core_start, cfg.peak_margin))
                cnn_stop = tuple(c + m for c, m in zip(core_stop, cfg.peak_margin))
                in_start = tuple(c - m for c, m in zip(cnn_start, cfg.conv_margin))
                in_stop = tuple(c + m for c, m in zip(cnn_stop, cfg.conv_margin))
                keep = (axis_keeps[0][iz], axis_keeps[1][iy], axis_keeps[2][ix])
                patches.append(
                    Patch(
                        in_box=(in_start, in_stop),
                        cnn_box=(cnn_start, cnn_stop),
                        out_box=(core_start, core_stop),
                        keep_box=tuple(zip(*keep)),
                    )
                )
    return PatchGrid(patches=tuple(patches))


def raw_data(v: Volume3D) -> np.ndarray:
    """The array whose buffer is <base>.raw: little-endian float32, C order.

    A float32 volume's own data on a little-endian host, else one cast copy.
    """
    return v.data.astype("<f4", copy=False)


def save_volume(v: Volume3D, base_path) -> tuple[Path, Path]:
    """Write <base>.raw (raw_data's buffer, not copied) and <base>.json sidecar."""
    base = Path(base_path)
    raw_path = base.with_suffix(".raw")
    json_path = base.with_suffix(".json")
    raw_path.write_bytes(raw_data(v))
    sidecar = {
        "shape": [int(s) for s in v.shape],
        "voxel_size_um": [float(s) for s in v.voxel_size],
    }
    json_path.write_text(json.dumps(sidecar, sort_keys=True, allow_nan=False) + "\n")
    return raw_path, json_path


def load_volume(base_path) -> Volume3D:
    base = Path(base_path)
    raw_path = base.with_suffix(".raw")
    json_path = base.with_suffix(".json")
    try:
        sidecar = json.loads(json_path.read_text())
    except RecursionError as exc:
        raise ValueError(f"{json_path}: {exc}") from None
    shape = check_int(sidecar["shape"], f"{json_path}: shape", 1, 3)
    voxel_size = check_real(sidecar["voxel_size_um"], f"{json_path}: voxel_size_um", length=3)
    size = raw_path.stat().st_size
    expected = math.prod(shape) * 4
    if size != expected:
        raise VolumeSizeMismatch(
            f"{raw_path} holds {size} bytes; its sidecar shape {list(shape)} "
            f"needs {expected} (float32)"
        )
    # read once, straight into the array: no bytes object beside it
    data = np.fromfile(raw_path, dtype="<f4").reshape(shape)
    return Volume3D(data.astype(np.float32, copy=False), voxel_size)
