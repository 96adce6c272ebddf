"""Summary-statistics feature vectors around cell proposals.

For each proposal, cubes of several physical side lengths are clipped out
of every available map (density map and, when present, the two uncertainty
maps) and summarized by 5 percentiles (uniform between the 1st and 99th,
linear interpolation), the fraction of voxels above 5 per-map thresholds,
and the first 4 moments (mean, SD, skewness, kurtosis; the last two are the
standardized central moments and defined as 0 for constant windows).

Feature order is map-major, window-minor, statistic-innermost; window boxes
are voxel-aligned with side round(side / voxel_size) per axis and clipped at
volume borders.

The per-map threshold ranges are the reference values: dm in [1, 1.5],
u_a in [1, 10], u_e from 1 down to 0.2 (the descending direction is kept as
given; it spans the same value set as the ascending range). Only the window
sides are a setting (``FeatureSpec``).

Each window is gathered once into a contiguous copy in the map's dtype,
which is widened once to float64 for the moments and sorted in place for
every order statistic. Percentiles repeat numpy's "linear" method step by
step (virtual index (n - 1) * q, then a + (b - a) * g, or
b - (b - a) * (1 - g) where g >= 0.5), so they are bit-identical to
np.percentile; the fraction above t is
(n - searchsorted(s, t, side="right")) / n, bit-identical to
np.mean(values > t); mean and SD take np.mean's and np.std's own steps, so
they equal them bit for bit. Skewness and kurtosis are the means of
z^2 * z and z^2 * z^2 instead of z**3 and z**4, which agree to within
1e-12 * (1 + |value|). A window holding NaN or an infinity raises
NonFiniteInput instead of yielding NaN features.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coords import CoordSet
from .cores import on_two_processes
from .errors import NonFiniteInput, check_real
from .volume import Volume3D

N_PERCENTILES = 5
PERCENTILE_RANGE = (1.0, 99.0)
N_THRESHOLDS = 5
THRESHOLD_RANGES = {"dm": (1.0, 1.5), "u_a": (1.0, 10.0), "u_e": (1.0, 0.2)}
STATS_PER_BLOCK = N_PERCENTILES + N_THRESHOLDS + 4
PERCENTILES = np.linspace(*PERCENTILE_RANGE, N_PERCENTILES)


def thresholds_for(map_name: str) -> np.ndarray:
    """N_THRESHOLDS exceedance thresholds of a map, uniform over its range."""
    if map_name not in THRESHOLD_RANGES:
        raise KeyError(f"no threshold range configured for map {map_name!r}")
    return np.linspace(*THRESHOLD_RANGES[map_name], N_THRESHOLDS)


@dataclass(frozen=True)
class FeatureSpec:
    window_sides_um: tuple[float, ...] = (4.0, 8.0, 16.0, 32.0)

    def __post_init__(self):
        sides = tuple(self.window_sides_um)
        check_real(sides, "window sides", length=len(sides))
        if list(sides) != sorted(sides):
            raise ValueError(f"window sides must be ascending, got {sides}")
        object.__setattr__(self, "window_sides_um", tuple(float(s) for s in sides))

    def dimension(self, n_maps: int) -> int:
        return len(self.window_sides_um) * n_maps * STATS_PER_BLOCK


def feature_names(map_names, spec: FeatureSpec) -> list[str]:
    """Column names in extraction order."""
    names = []
    for map_name in map_names:
        thresholds = thresholds_for(map_name)
        for side in spec.window_sides_um:
            w = f"{map_name}_w{side:g}um"
            names.extend(f"{w}_p{q:g}" for q in PERCENTILES)
            names.extend(f"{w}_above{t:g}" for t in thresholds)
            names.extend(f"{w}_{m}" for m in ("mean", "sd", "skew", "kurt"))
    return names


def _window_stats(block: np.ndarray, pcts: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    # one strided gather in the map's own dtype: widened once for the
    # moments, then sorted in place for the order statistics (the same
    # sequence as sorting a float64 copy, at half the cost for float32)
    s = block.flatten()
    values = s.astype(np.float64)
    s.sort()
    n = s.size
    if not (math.isfinite(s[0]) and math.isfinite(s[-1])):
        raise NonFiniteInput("window contains NaN or infinite values")
    out = np.empty(pcts.size + thresholds.size + 4, dtype=np.float64)
    # numpy's "linear" percentile, read off the sorted copy
    virtual = (n - 1) * (pcts / 100)
    below = np.floor(virtual)
    gamma = virtual - below
    below = below.astype(np.intp)
    a = s[below].astype(np.float64)
    b = s[np.minimum(below + 1, n - 1)].astype(np.float64)
    out[: pcts.size] = np.where(gamma >= 0.5, b - (b - a) * (1 - gamma), a + (b - a) * gamma)
    base = pcts.size
    out[base : base + thresholds.size] = (n - np.searchsorted(s, thresholds, side="right")) / n
    base += thresholds.size
    # mean and SD by np.std's own steps, keeping d for z
    mean = np.add.reduce(values) / n
    d = np.subtract(values, mean, out=values)
    sd = math.sqrt(np.add.reduce(d * d) / n)
    out[base] = mean
    out[base + 1] = sd
    if sd == 0.0:
        out[base + 2] = 0.0
        out[base + 3] = 0.0
    else:
        z = np.divide(d, sd, out=d)
        z2 = z * z
        out[base + 2] = (z2 * z).sum() / n
        out[base + 3] = (z2 * z2).sum() / n
    return out


def extract_features(
    maps: list[tuple[str, Volume3D]],
    proposals: CoordSet,
    spec: FeatureSpec = FeatureSpec(),
) -> np.ndarray:
    """Feature matrix [n_proposals x d] over the given (name, volume) maps.

    All maps must share shape and voxel size; proposals must lie inside the
    volume. d = n_windows * n_maps * (percentiles + thresholds + 4).
    """
    if not maps:
        raise ValueError("need at least one map")
    shape = maps[0][1].shape
    vs = np.asarray(maps[0][1].voxel_size, dtype=np.float64)
    for name, vol in maps:
        if vol.shape != shape or tuple(vol.voxel_size) != tuple(maps[0][1].voxel_size):
            raise ValueError(f"map {name!r} does not share the common grid")
    n = len(proposals)
    d = spec.dimension(len(maps))
    centers = np.floor(proposals.coords / vs).astype(int)
    if np.any(centers < 0) or np.any(centers >= np.asarray(shape)):
        raise ValueError("proposals must lie inside the volume")
    boxes = []  # per window side, each row's window clipped at the volume's borders
    for side in spec.window_sides_um:
        w = np.maximum(np.round(side / vs).astype(int), 1)
        lo = centers - w // 2
        boxes.append([tuple(map(slice, a, b)) for a, b in
                      zip(np.clip(lo, 0, None).tolist(), np.minimum(lo + w, shape).tolist())])

    def rows(first: int, stop: int) -> np.ndarray:
        out = np.empty((stop - first, d), dtype=np.float64)
        col = 0
        for name, vol in maps:
            thresholds = thresholds_for(name)
            for box in boxes:
                for i in range(first, stop):
                    try:
                        out[i - first, col : col + STATS_PER_BLOCK] = _window_stats(
                            vol.data[box[i]], PERCENTILES, thresholds
                        )
                    except NonFiniteInput:
                        raise NonFiniteInput(f"map {name!r} has NaN or infinite values in "
                                             f"the window around proposal {i}") from None
                col += STATS_PER_BLOCK
        return out

    try:
        return np.concatenate(on_two_processes(rows, n, item_cost=len(maps)))
    except NonFiniteInput:  # raised again at the first bad window of the serial loop
        return rows(0, n)
