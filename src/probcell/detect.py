"""Iterative non-maximum suppression on density maps.

Candidates are voxels that are >= all of their 26 neighbors and strictly
above both the threshold and zero (zero plateaus are never peaks, which
keeps threshold-0 proposal mode finite). Candidates are processed in
descending value order (ties broken lexicographically by voxel index) and
accepted unless a previously accepted peak lies closer than the minimum
distance. This is equivalent to classic iterative NMS: a KD-tree lists
every candidate pair closer than the distance, and one greedy pass over the
pairs, in priority order, suppresses the later candidate of each pair whose
earlier candidate was kept.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .coords import CoordSet
from .errors import NonFiniteInput
from .volume import Volume3D


@dataclass(frozen=True)
class NmsConfig:
    min_distance_um: float = 4.0
    threshold: float = 0.0

    def __post_init__(self):
        # written so that NaN fails both checks
        if not self.min_distance_um > 0:
            raise ValueError("min_distance must be positive")
        if not self.threshold >= 0:
            raise ValueError("threshold must be >= 0 (0 selects proposal mode)")


def local_maxima(dm: Volume3D, threshold: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) voxel indices and values of 26-neighborhood maxima above threshold."""
    data = dm.data
    if not np.all(np.isfinite(data)):
        raise NonFiniteInput("density map must be finite-valued")
    footprint_max = ndimage.maximum_filter(data, size=3, mode="constant", cval=-np.inf)
    mask = (data >= footprint_max) & (data > threshold) & (data > 0)
    idx = np.argwhere(mask)
    return idx, data[mask]


def detect_peaks(dm: Volume3D, cfg: NmsConfig = NmsConfig()) -> CoordSet:
    """NMS peak coordinates (voxel centers, micrometers) with their DM values.

    Output is sorted by descending value, ties lexicographic by (z, y, x);
    every returned pair of peaks is at least ``min_distance_um`` apart.
    """
    idx, values = local_maxima(dm, cfg.threshold)
    if idx.shape[0] == 0:
        return CoordSet(np.zeros((0, 3)), dm_value=np.zeros(0))
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
