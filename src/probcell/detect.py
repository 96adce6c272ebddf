"""Iterative non-maximum suppression on density maps.

Candidates are voxels that are >= all of their 26 neighbors and strictly
above both the threshold and zero (zero plateaus are never peaks, which
keeps threshold-0 proposal mode finite). The 3x3x3 neighborhood maximum is a
separable running max, one numpy pass per axis; a neighbor beyond the
border is simply not compared. It runs in haloed z-slabs on both cores
(probcell.cores). Candidates are processed in descending value order (ties
broken lexicographically by voxel index) and accepted unless a previously
accepted peak lies closer than the minimum distance. This is equivalent to
classic iterative NMS: a KD-tree lists every candidate pair closer than the
distance, and one greedy pass over the pairs, in priority order, suppresses
the later candidate of each pair whose earlier candidate was kept.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .coords import CoordSet
from .cores import on_two_cores
from .errors import NonFiniteInput, check_real
from .volume import Volume3D

# bytes of map per z-slab of local_maxima (8 planes of a float32 256^3 map),
# so that a slab's buffers stay in cache across the three passes
_SLAB_BYTES = 2 << 20


@dataclass(frozen=True)
class NmsConfig:
    min_distance_um: float = 4.0
    threshold: float = 0.0

    def __post_init__(self):
        check_real(self.min_distance_um, "min_distance_um")
        check_real(self.threshold, "threshold", ends="[)")


def local_maxima(dm: Volume3D, threshold: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) voxel indices and values of 26-neighborhood maxima above threshold."""
    data = dm.data
    nz, ny, nx = data.shape
    step = max(1, _SLAB_BYTES // (ny * nx * data.itemsize))
    n_slabs = -(-nz // step)
    mask = np.empty(data.shape, bool)
    # strictly above the threshold and zero is strictly above the larger; a
    # threshold beyond the dtype's range would overflow when cast to it, and
    # the largest finite value keeps the same peaks of finite data
    floor = max(min(threshold, float(np.finfo(data.dtype).max)), 0.0)

    def slabs(first: int, stop: int) -> None:
        # two copies of a slab with its halo planes, and its threshold test
        buffers = np.empty((2, min(step + 2, nz), ny, nx), data.dtype)
        above = np.empty((min(step, nz), ny, nx), bool)
        for s in range(first, stop):
            z0, z1 = s * step, min((s + 1) * step, nz)
            own, out = data[z0:z1], mask[z0:z1]
            np.isfinite(own, out=out)
            if not out.all():
                raise NonFiniteInput("density map must be finite-valued")
            # 3x3x3 max over the slab and one halo plane on each side inside
            # the map, one axis at a time: each voxel takes the larger of
            # itself and each neighbor along the axis, read from the previous
            # pass's copy
            h0, h1 = max(z0 - 1, 0), min(z1 + 1, nz)
            footprint_max, prev = buffers[:, : h1 - h0]
            np.copyto(footprint_max, data[h0:h1])
            for axis in range(3):
                lo = (slice(None),) * axis + (slice(None, -1),)
                hi = (slice(None),) * axis + (slice(1, None),)
                np.copyto(prev, footprint_max)
                np.maximum(footprint_max[lo], prev[hi], out=footprint_max[lo])
                np.maximum(footprint_max[hi], prev[lo], out=footprint_max[hi])
            np.greater_equal(own, footprint_max[z0 - h0 : z1 - h0], out=out)
            np.greater(own, floor, out=above[: z1 - z0])
            out &= above[: z1 - z0]

    on_two_cores(slabs, n_slabs, data.nbytes)
    # np.argwhere(mask) from one flat scan: the same int64 (n, 3) array, faster
    idx = np.stack(np.unravel_index(np.flatnonzero(mask), mask.shape), axis=1)
    return idx, data[mask]


def detect_peaks(dm: Volume3D, cfg: NmsConfig = NmsConfig()) -> CoordSet:
    """NMS peak coordinates (voxel centers, micrometers) with their DM values.

    Output is sorted by descending value, ties lexicographic by (z, y, x);
    every returned pair of peaks is at least ``min_distance_um`` apart.
    """
    idx, values = local_maxima(dm, cfg.threshold)
    order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0], -values))
    idx = idx[order]
    values = values[order]
    vs = np.asarray(dm.voxel_size, dtype=np.float64)
    coords = (idx.astype(np.float64) + 0.5) * vs
    r = cfg.min_distance_um
    # query a hair wider than r, so that rounding inside the tree loses no
    # pair that the strict squared test below counts as closer than r
    pairs = cKDTree(coords).query_pairs(r * (1 + 1e-9), output_type="ndarray")
    d = coords[pairs[:, 1]] - coords[pairs[:, 0]]
    close = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2] < r * r
    pairs = pairs[close]
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    # candidates are in priority order, so i < j means i wins; every pair
    # (k, i) with k < i is settled before keep[i] is read
    keep = np.ones(coords.shape[0], dtype=bool)
    for i, j in pairs.tolist():
        if keep[i]:
            keep[j] = False
    return CoordSet(coords[keep], dm_value=values[keep].astype(np.float64))
