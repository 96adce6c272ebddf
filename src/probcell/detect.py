"""Iterative non-maximum suppression on density maps.

Candidates are voxels that are >= all of their 26 neighbors and strictly
above zero (zero plateaus are never peaks, which keeps threshold-0 proposal
mode finite). The 3x3x3 neighborhood maximum is a separable running max,
one numpy pass per axis; a neighbor beyond the border is simply not
compared. It runs in haloed z-slabs on both cores (probcell.cores).
Candidates above the stopping threshold (``proposals_by_threshold``) are
processed in descending value order (ties broken lexicographically by voxel
index) and accepted unless a previously accepted peak lies closer than the
minimum distance: classic iterative NMS, whose test reads a bounded number
of peaks at any distance (coords.Separated).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coords import CoordSet, Separated
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


def local_maxima(dm: Volume3D) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) voxel indices and values of the 26-neighborhood maxima above zero."""
    data = dm.data
    nz, ny, nx = data.shape
    step = max(1, _SLAB_BYTES // (ny * nx * data.itemsize))
    n_slabs = -(-nz // step)
    mask = np.empty(data.shape, bool)

    def slabs(first: int, stop: int) -> None:
        # two copies of a slab with its halo planes, and its test against zero
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
            np.greater(own, 0, out=above[: z1 - z0])
            out &= above[: z1 - z0]

    on_two_cores(slabs, n_slabs, data.nbytes)
    # np.argwhere(mask) from one flat scan: the same int64 (n, 3) array, faster
    idx = np.stack(np.unravel_index(np.flatnonzero(mask), mask.shape), axis=1)
    return idx, data[mask]


def proposals_by_threshold(proposals: CoordSet, threshold: float) -> CoordSet:
    """The proposals whose float64 dm_value exceeds a stopping threshold t.
    NMS at t keeps exactly the threshold-0 peaks that pass (weaker candidates
    never suppress stronger ones), so a threshold sweep detects once."""
    if proposals.dm_value is None:
        raise ValueError("proposals need dm_value for threshold filtering")
    return proposals.select(proposals.dm_value > threshold)


def detect_peaks(dm: Volume3D, cfg: NmsConfig = NmsConfig()) -> CoordSet:
    """NMS peaks (voxel centers, um) and DM values of the candidates that
    ``proposals_by_threshold`` keeps.

    Output is sorted by descending value, ties lexicographic by (z, y, x);
    every returned pair of peaks is at least ``min_distance_um`` apart.
    """
    idx, values = local_maxima(dm)
    peaks = CoordSet((idx + 0.5) * dm.voxel_size, dm_value=values)
    del idx, values  # the candidates are held once, in float64
    peaks = proposals_by_threshold(peaks, cfg.threshold)
    order = np.argsort(-peaks.dm_value, kind="stable")  # ties keep (z, y, x) order
    coords = peaks.coords[order]
    sep = Separated(cfg.min_distance_um, coords.max(initial=0.0))
    return peaks.select(order[np.array([sep.take(p) for p in coords.tolist()], dtype=bool)])
