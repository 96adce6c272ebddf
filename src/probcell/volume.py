"""Dense 3D volumes, their raw + sidecar files, and tiling.

Axis order is (z, y, x) with z slowest (C order). Physical positions are in
micrometers; voxel (i, j, k) is centered at ((i + 0.5) * sz, (j + 0.5) * sy,
(k + 0.5) * sx).

On disk a volume is a pair: ``<base>.raw`` (little-endian float32) and a
``<base>.json`` sidecar holding its integer shape and positive finite voxel
size. A density-map regressor's dm, aleatoric and epistemic maps are one
such pair each.

Two tiling strategies are supported for patch-wise inference on large
volumes. Both pad the volume, extract overlapping input windows and map
model outputs back:

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

from .coords import CoordSet, concat_coordsets
from .errors import VolumeSizeMismatch, VolumeTooSmall

M_CONV = "m_conv"
M_PEAK = "m_peak"


@dataclass(frozen=True, eq=False)
class Volume3D:
    """A dense scalar field on a regular 3D grid.

    data is float32 (canonical, matches the file format) or float64 (used
    in-memory where rounding matters, e.g. distance transforms).
    """

    data: np.ndarray
    voxel_size: tuple[float, float, float]

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype not in (np.float32, np.float64):
            data = data.astype(np.float32)
        data = np.ascontiguousarray(data)
        if data.ndim != 3 or min(data.shape) < 1:
            raise ValueError("volume data must be a non-empty 3D array")
        vs = tuple(float(v) for v in self.voxel_size)
        if len(vs) != 3 or not all(0 < v < math.inf for v in vs):
            raise ValueError(f"voxel_size must be three positive finite values, got {vs}")
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
        for name in ("l_in", "conv_margin", "peak_margin"):
            val = tuple(int(x) for x in getattr(self, name))
            if len(val) != 3:
                raise ValueError(f"{name} must have three entries")
            object.__setattr__(self, name, val)
        if self.strategy not in (M_CONV, M_PEAK):
            raise ValueError(f"strategy must be {M_CONV!r} or {M_PEAK!r}")
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
    """One tile. All boxes are (start, stop) voxel indices in padded coordinates.

    in_box   input window, size l_in
    cnn_box  region the regressor predicts, size l_out
    out_box  output window (core), size l_out_tile
    keep_box region whose detections this patch owns under m_peak; equals
             out_box except where a trailing-border overlap would otherwise
             assign the same region to two patches
    """

    index: int
    in_box: tuple[tuple[int, int, int], tuple[int, int, int]]
    cnn_box: tuple[tuple[int, int, int], tuple[int, int, int]]
    out_box: tuple[tuple[int, int, int], tuple[int, int, int]]
    keep_box: tuple[tuple[int, int, int], tuple[int, int, int]]


@dataclass(frozen=True)
class PatchGrid:
    patches: tuple[Patch, ...]
    padded_shape: tuple[int, int, int]
    origin_offset: tuple[int, int, int]
    original_shape: tuple[int, int, int]


def _axis_starts(extent: int, tile: int) -> list[int]:
    """Tile starts covering [0, extent): adjacent, the last one clamped back."""
    n = max(1, -(-extent // tile))
    starts = [min(k * tile, extent - tile) for k in range(n)]
    return starts


def plan_tiling(shape, cfg: TilingConfig) -> PatchGrid:
    """Lay out input/output windows over a volume of the given voxel shape.

    Output windows tile the original volume; interior windows are disjoint
    and only the trailing window per axis may overlap its predecessor.
    """
    shape = tuple(int(s) for s in shape)
    pad = cfg.l_pad
    tile = cfg.l_out_tile
    for ax in range(3):
        if shape[ax] + 2 * pad[ax] < cfg.l_in[ax]:
            raise VolumeTooSmall(
                f"axis {ax}: shape {shape[ax]} + 2*{pad[ax]} padding < input size {cfg.l_in[ax]}"
            )
    padded = tuple(s + 2 * p for s, p in zip(shape, pad))
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
    index = 0
    for iz, sz in enumerate(axis_starts[0]):
        for iy, sy in enumerate(axis_starts[1]):
            for ix, sx in enumerate(axis_starts[2]):
                core_start = (sz + pad[0], sy + pad[1], sx + pad[2])
                core_stop = tuple(c + t for c, t in zip(core_start, tile))
                cnn_start = tuple(c - m for c, m in zip(core_start, cfg.peak_margin))
                cnn_stop = tuple(c + m for c, m in zip(core_stop, cfg.peak_margin))
                in_start = tuple(c - m for c, m in zip(cnn_start, cfg.conv_margin))
                in_stop = tuple(c + m for c, m in zip(cnn_stop, cfg.conv_margin))
                keep = [axis_keeps[0][iz], axis_keeps[1][iy], axis_keeps[2][ix]]
                keep_start = tuple(keep[ax][0] + pad[ax] for ax in range(3))
                keep_stop = tuple(keep[ax][1] + pad[ax] for ax in range(3))
                patches.append(
                    Patch(
                        index=index,
                        in_box=(in_start, in_stop),
                        cnn_box=(cnn_start, cnn_stop),
                        out_box=(core_start, core_stop),
                        keep_box=(keep_start, keep_stop),
                    )
                )
                index += 1
    return PatchGrid(
        patches=tuple(patches),
        padded_shape=padded,
        origin_offset=pad,
        original_shape=shape,
    )


def pad_volume(v: Volume3D, grid: PatchGrid) -> Volume3D:
    """Zero-pad to the grid's padded shape."""
    pad = grid.origin_offset
    out = np.zeros(grid.padded_shape, dtype=v.data.dtype)
    out[pad[0] : pad[0] + v.shape[0], pad[1] : pad[1] + v.shape[1], pad[2] : pad[2] + v.shape[2]] = v.data
    return v.like(out)


def extract_box(padded: Volume3D, box) -> Volume3D:
    (z0, y0, x0), (z1, y1, x1) = box
    return padded.like(padded.data[z0:z1, y0:y1, x0:x1].copy())


def reconstruct_coordinates(
    per_patch: list[CoordSet],
    grid: PatchGrid,
    cfg: TilingConfig,
    voxel_size=(1.0, 1.0, 1.0),
) -> CoordSet:
    """Merge per-patch detections back into original-volume coordinates.

    Each CoordSet holds micrometer coordinates local to its patch's output
    window origin (list order matches grid.patches). Under m_peak a
    coordinate is retained only by the patch whose keep region contains it;
    under m_conv everything is kept. Retained coordinates are shifted by the
    output window origin minus the padding offset, and anything falling
    outside the original volume is dropped.
    """
    if len(per_patch) != len(grid.patches):
        raise ValueError("need one CoordSet per patch")
    voxel = np.asarray(voxel_size, dtype=np.float64)
    offset = np.asarray(grid.origin_offset, dtype=np.float64)
    kept = []
    for cs, patch in zip(per_patch, grid.patches):
        if len(cs) == 0:
            continue
        out_start = np.asarray(patch.out_box[0], dtype=np.float64)
        if cfg.strategy == M_PEAK:
            keep_lo = (np.asarray(patch.keep_box[0]) - out_start) * voxel
            keep_hi = (np.asarray(patch.keep_box[1]) - out_start) * voxel
            mask = np.all((cs.coords >= keep_lo) & (cs.coords < keep_hi), axis=1)
            cs = cs.select(mask)
            if len(cs) == 0:
                continue
        shift = (out_start - offset) * voxel
        kept.append(cs.shifted(shift))
    merged = concat_coordsets(kept)
    if len(merged) == 0:
        return merged
    extent = np.asarray(grid.original_shape, dtype=np.float64) * voxel
    inside = np.all((merged.coords >= 0.0) & (merged.coords < extent), axis=1)
    return merged.select(inside)


def save_volume(v: Volume3D, base_path) -> tuple[Path, Path]:
    """Write <base>.raw (little-endian float32, C order) and <base>.json sidecar."""
    base = Path(base_path)
    raw_path = base.with_suffix(".raw")
    json_path = base.with_suffix(".json")
    data = np.ascontiguousarray(v.data.astype("<f4"))
    raw_path.write_bytes(data.tobytes())
    sidecar = {
        "shape": [int(s) for s in v.shape],
        "voxel_size_um": [float(s) for s in v.voxel_size],
    }
    json_path.write_text(json.dumps(sidecar, sort_keys=True) + "\n")
    return raw_path, json_path


def load_volume(base_path) -> Volume3D:
    base = Path(base_path)
    raw_path = base.with_suffix(".raw")
    json_path = base.with_suffix(".json")
    sidecar = json.loads(json_path.read_text())
    shape = tuple(sidecar["shape"])
    if not all(type(s) is int for s in shape):
        raise ValueError(f"{json_path}: shape {list(shape)} must hold JSON integers")
    raw = raw_path.read_bytes()
    expected = math.prod(shape) * 4
    if len(raw) != expected:
        raise VolumeSizeMismatch(
            f"{raw_path} holds {len(raw)} bytes; its sidecar shape {list(shape)} "
            f"needs {expected} (float32)"
        )
    data = np.frombuffer(raw, dtype="<f4").reshape(shape)
    return Volume3D(data.astype(np.float32), tuple(sidecar["voxel_size_um"]))
