"""Spatial characterization of detected cells relative to tissue structures.

The empty-space distance (ESD) of a structure aggregates, over background
voxels inside the tissue mask, the exact Euclidean distance to the nearest
structure voxel; its CDF is the volume fraction available to cells within a
given distance. Cell patterns are read off by comparing the CDF of
cell-to-structure distances against the ESD CDF: above suggests attraction,
below avoidance.

Two analyses are provided. The deterministic one uses every proposal with
p >= 0.5 at full weight. The probabilistic one repeats the analysis T times,
each replicate keeping each proposal with probability p and resampling the
ESD pool with a Poisson-distributed count, then reports per-quantity
mean +- SD and pointwise min/max CDF envelopes (significance 2 / (T + 1)).
Envelope CDFs are smoothed with a Gaussian kernel density estimate using
Scott's bandwidth (SD * n^(-1/5)), evaluated in closed form on a shared
distance grid; ``cdf_mode="empirical"`` switches to raw step CDFs.

Both analyses read one prelude built by ``prepare_spatial``: the tissue
volume and, per structure, its EDT, its background bits and its ESD pool
sorted in place, so a run computes each EDT, sorts each pool and holds it once.
The prelude reads each mask, of any dtype, once into packed bits
(``PackedMask``, 8 voxels a byte along x), the one mask format of the EDT and
the pool, so no mask volume is alive while an EDT runs.

The EDT's voxel-by-voxel feature buffer, which its distances overwrite, is
explained in the README ("The exact EDT in one buffer").
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import ndimage
from scipy.special import kolmogorov, ndtr

from .coords import CoordSet
from .cores import on_two_processes
from .errors import (
    AllZeroDifferences,
    DegenerateESD,
    EmptyCells,
    EmptyStructure,
    NonFiniteInput,
    ShapeMismatch,
    check_int,
    check_real,
)
from .volume import Volume3D, sample_trilinear

ADJACENCY_UM = 4.0
CDF_MODES = ("kde", "empirical")
CDF_GRID_POINTS = 512
# the least replicate count: one replicate has no spread
MIN_REPLICATES = 2


class PackedMask(NamedTuple):
    """A mask on a grid of shape voxels of voxel_size um, its voxels packed
    8 a byte along x: ``np.packbits(mask, axis=-1)``."""

    bits: np.ndarray
    shape: tuple[int, int, int]
    voxel_size: tuple[float, float, float]


def _packed(v: Volume3D, name: str) -> tuple[PackedMask, int]:
    """v as packed bits and its count of ones, read a z-plane at a time; a
    ValueError naming the mask unless every voxel is 0 or 1."""
    bits = np.empty(v.shape[:2] + (-(-v.shape[2] // 8),), np.uint8)
    ones = 0
    for plane, out in zip(v.data, bits):
        one = plane == 1
        count = np.count_nonzero(one)
        if count + np.count_nonzero(plane == 0) != plane.size:  # NaN is neither
            raise ValueError(f"{name} mask must be binary")
        ones += count
        out[...] = np.packbits(one, axis=-1)
    return PackedMask(bits, v.shape, v.voxel_size), ones


def _exact_edt(mask: PackedMask) -> np.ndarray:
    """Exact Euclidean distance of every voxel of a 3-D grid to its nearest
    voxel of the mask, in the units of its voxel size; the mask needs one.

    Equal to ``ndimage.distance_transform_edt(mask == 0, voxel_size)``, bit
    for bit: C-order float64 on the buffer, 8 B per voxel, that held the
    features stored voxel by voxel.
    """
    sampling = np.asarray(mask.voxel_size, dtype=np.float64)
    shape, n = mask.shape, math.prod(mask.shape)
    # features (z, y, x, component) in C order, padded to whole float64s; its
    # first n bytes hold the input, the mask's complement, unpacked a plane at
    # a time, which scipy copies to int8 before it writes the features
    buffer = np.empty(3 * n + n % 2, np.int32)
    ft = buffer[: 3 * n].reshape(shape + (3,))
    background = buffer.view(bool)[:n].reshape(shape)
    for bits, plane in zip(mask.bits, background):
        np.logical_not(np.unpackbits(bits, axis=-1, count=shape[2]).view(bool), out=plane)
    ndimage.distance_transform_edt(background, sampling=sampling, return_distances=False,
                                   return_indices=True, indices=ft.transpose(3, 0, 1, 2))
    # scipy's own arithmetic (int32 offset, times sampling, squared, summed
    # z + y + x), z ascending: plane z's distances fill bytes [8Pz, 8P(z + 1)),
    # P voxels a plane, which end where plane z + 1's features (12 B a voxel)
    # begin and overlap plane z's own only for z < 2, once they are read
    edt = buffer.view(np.float64)[:n].reshape(shape)
    y = np.arange(shape[1], dtype=np.int32)[:, None]
    x = np.arange(shape[2], dtype=np.int32)
    offset = np.empty(shape[1:], np.int32)
    total, term = np.empty(offset.shape), np.empty(offset.shape)
    for z in range(shape[0]):
        total.fill(0.0)  # 0 + d^2 is d^2 exactly, so the sum stays scipy's
        for c, index in ((0, z), (1, y), (2, x)):
            np.subtract(ft[z, :, :, c], index, out=offset)
            np.multiply(offset, sampling[c], out=term)
            np.multiply(term, term, out=term)
            np.add(total, term, out=total)
        np.sqrt(total, out=edt[z])
    # no view of the buffer is left, so realloc may cut it to the distances
    del ft, edt, background
    buffer.resize(2 * n, refcheck=False)
    return buffer.view(np.float64).reshape(shape)


def distance_transform(structure: Volume3D | PackedMask) -> Volume3D:
    """Exact Euclidean distance (um) of every voxel to the nearest foreground
    voxel, by ``_exact_edt``; a mask volume is checked binary and packed first."""
    if isinstance(structure, Volume3D):
        structure = _packed(structure, "structure")[0]
    if not structure.bits.any():
        raise EmptyStructure("structure mask has no foreground voxels")
    return Volume3D(_exact_edt(structure), structure.voxel_size)


@dataclass
class DistanceCdf:
    """Empirical distance sample with closed-form KDE smoothing."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64).ravel()
        # kept if ascending (tested in blocks of 2**20 pairs that share their
        # ends; NaN fails), else copied sorted: NaN and +inf last, -inf first
        blocks = (s[i:i + (1 << 20) + 1] for i in range(0, s.size, 1 << 20))
        ascending = all((b[:-1] <= b[1:]).all() for b in blocks)
        self.samples = s if ascending else np.sort(s)
        if self.samples.size and not np.isfinite(self.samples[[0, -1]]).all():
            raise NonFiniteInput("distance samples must be finite")

    def evaluate(self, grid, mode: str = "empirical") -> np.ndarray:
        """The step CDF on grid; "kde" smooths it unless Scott's bandwidth is 0."""
        grid = np.asarray(grid, dtype=np.float64)
        if self.samples.size == 0:
            raise EmptyCells("cannot evaluate a CDF of zero samples")
        if mode not in CDF_MODES:
            raise ValueError(f"unknown cdf mode {mode!r}")
        h = scott_bandwidth(self.samples) if mode == "kde" else 0.0
        if h == 0.0:
            return np.searchsorted(self.samples, grid, side="right") / self.samples.size
        return ndtr((grid[:, None] - self.samples[None, :]) / h).mean(axis=1)


def scott_bandwidth(x: np.ndarray) -> float:
    """Scott's rule for 1-D data: sample SD times n^(-1/5)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        return 0.0
    return float(np.std(x, ddof=1) * x.size ** (-1.0 / 5.0))


def esd_pool(edt: Volume3D, background: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The EDT over a structure's background voxels, sorted, and each (z, y)
    row's first index into them in C order, the pool size last. background
    is ``np.packbits(tissue & ~structure, axis=-1)``, unpacked a z-plane at a time.
    """
    nz, ny, nx = edt.shape
    if background.shape != (nz, ny, -(-nx // 8)):
        raise ShapeMismatch("structure and tissue masks must share the grid")
    planes = (np.unpackbits(bits, axis=-1, count=nx).view(bool) for bits in background)
    starts = np.concatenate(([0], np.cumsum([np.count_nonzero(p, axis=1) for p in planes])))
    pool = np.empty(starts[-1])
    for z, (values, bits) in enumerate(zip(edt.data, background)):
        picked = np.unpackbits(bits, axis=-1, count=nx).view(bool)
        pool[starts[z * ny] : starts[(z + 1) * ny]] = values[picked]
    pool.sort()
    return pool, starts


def cell_distances(cells: CoordSet, edt: Volume3D) -> np.ndarray:
    """Per-cell distance to the structure by trilinear interpolation of the EDT (um)."""
    if len(cells) == 0:
        raise EmptyCells("no cells to measure")
    extent = edt.extent_um
    if np.any(cells.coords < 0) or np.any(cells.coords >= extent):
        raise ValueError("cells must lie inside the volume")
    return sample_trilinear(edt, cells.coords)


@dataclass
class StructureAnalysis:
    pct_cells_adjacent: float
    pct_volume_adjacent: float
    distance_grid: np.ndarray
    cell_cdf: np.ndarray | None
    esd_cdf: np.ndarray
    cell_envelope: tuple[np.ndarray, np.ndarray] | None = None
    esd_envelope: tuple[np.ndarray, np.ndarray] | None = None
    pct_cells_adjacent_sd: float | None = None
    pct_volume_adjacent_sd: float | None = None

    def to_dict(self) -> dict:
        out = {
            "pct_cells_adjacent": _opt(self.pct_cells_adjacent),
            "pct_volume_adjacent": _opt(self.pct_volume_adjacent),
            "distance_grid_um": self.distance_grid.tolist(),
            "cell_cdf": None if self.cell_cdf is None else self.cell_cdf.tolist(),
            "esd_cdf": self.esd_cdf.tolist(),
        }
        for curve in ("cell", "esd"):  # an envelope is None or (lower, upper)
            for bound, values in zip(("lower", "upper"), getattr(self, f"{curve}_envelope") or ()):
                out[f"{curve}_envelope_{bound}"] = values.tolist()
        for key in ("pct_cells_adjacent_sd", "pct_volume_adjacent_sd"):
            if getattr(self, key) is not None:
                out[key] = _opt(getattr(self, key))
        return out


def _replicate_mean_sd(pct: np.ndarray) -> tuple[float, float]:
    """Mean and SD over the replicates that were not empty (NaN entries);
    NaN, reported as null, when every replicate was empty."""
    if np.isnan(pct).all():
        return float("nan"), float("nan")
    return float(np.nanmean(pct)), float(np.nanstd(pct))


def _density(counts, tissue_mm3: float) -> tuple[float, float]:
    """The mean and SD of counts per mm^3 of tissue; a ValueError if either overflows."""
    with np.errstate(over="raise"):
        try:
            density = np.divide(counts, tissue_mm3)
            return float(np.mean(density)), float(np.std(density))
        except FloatingPointError:
            raise ValueError(f"voxel_size: {np.max(counts):g} cells in the tissue's "
                             f"{tissue_mm3:g} mm^3 overflow the density or its SD") from None


def _widen(envelope, other):
    """The pointwise (min, max) envelope of two envelopes, either of which
    may be None (no curve yet); one curve is the envelope (curve, curve)."""
    if envelope is None or other is None:
        return other if envelope is None else envelope
    return np.minimum(envelope[0], other[0]), np.maximum(envelope[1], other[1])


def _opt(x):
    x = float(x)
    return None if np.isnan(x) else x


@dataclass
class SpatialReport:
    mode: str
    density_cells_per_mm3: float
    n_cells: float
    structures: dict[str, StructureAnalysis]
    replicates: int | None = None
    alpha: float | None = None
    density_sd: float | None = None
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "density_cells_per_mm3": _opt(self.density_cells_per_mm3),
            "n_cells": self.n_cells,
            "structures": {k: v.to_dict() for k, v in self.structures.items()},
            "flags": list(self.flags),
        }
        if self.replicates is not None:
            out["replicates"] = self.replicates
            out["alpha"] = self.alpha
        if self.density_sd is not None:
            out["density_sd"] = _opt(self.density_sd)
        return out


@dataclass(frozen=True)
class PreparedStructure:
    """A structure's EDT, its background bits (``esd_pool``), each (z, y) row's
    first pool index (the pool size last) and the ESD CDF, whose samples are
    the pool, sorted."""

    edt: Volume3D
    background: np.ndarray
    row_starts: np.ndarray
    esd: DistanceCdf

    def pool_at(self, i: np.ndarray) -> np.ndarray:
        """``edt.data[background][i]`` read from the EDT: each index's row and rank
        there, then the row's voxel of that rank, with ~1 MiB of temporaries a chunk."""
        width = self.edt.shape[2]
        rows = self.background.reshape(-1, self.background.shape[2])
        out, step = np.empty(i.size), max(1, 2**20 // (10 * width))
        for first in range(0, i.size, step):
            j = i[first : first + step]
            row = np.searchsorted(self.row_starts, j, side="right") - 1
            bits = np.unpackbits(rows[row], axis=1, count=width)
            x = np.argmax(np.cumsum(bits, 1, np.int32) > (j - self.row_starts[row])[:, None], 1)
            out[first : first + step] = self.edt.data.reshape(-1, width)[row, x]
        return out


@dataclass(frozen=True)
class SpatialPrelude:
    """What both analyses share: the tissue volume and each structure's EDT."""

    tissue_mm3: float
    structures: dict[str, PreparedStructure]


def _checked_masks(structures: dict[str, Volume3D], tissue: PackedMask) -> tuple[dict, dict]:
    """Each structure packed and its background bits, tissue & ~structure.
    Structure by structure: ShapeMismatch on another grid than the tissue's
    (shape or voxel size), a non-binary mask, EmptyStructure, then DegenerateESD."""
    masks, backgrounds = {}, {}
    for name, structure in structures.items():
        if (structure.shape, structure.voxel_size) != (tissue.shape, tissue.voxel_size):
            raise ShapeMismatch(
                f"structure {name!r} is {structure.shape} voxels of {structure.voxel_size} um, "
                f"the tissue {tissue.shape} voxels of {tissue.voxel_size} um"
            )
        masks[name], ones = _packed(structure, "structure")
        if ones == 0:
            raise EmptyStructure("structure mask has no foreground voxels")
        backgrounds[name] = tissue.bits & ~masks[name].bits  # x's padding bits stay 0
        if not backgrounds[name].any():
            raise DegenerateESD("no background voxels remain inside the tissue")
    return masks, backgrounds


def prepare_spatial(structures: dict[str, Volume3D], tissue: Volume3D) -> SpatialPrelude:
    """Check every mask, then compute each structure's EDT and its ESD pool,
    sorted, for both analyses.

    Every error comes before the first EDT. First a voxel size where scipy's
    feature transform fails: it compares sums of products of three
    distances, each below 2 d^3 for d the grid's diagonal (um), so the
    smallest side cubed must be a normal float (at 1e-110 um a structure
    voxel's nearest is often not itself) and 4 d^3 finite (at 6e102 um 7^3
    grids got wrong distances). Then a non-binary or empty tissue, a tissue
    volume (mm^3), the density's divisor, that is not a normal float, and
    ``_checked_masks``'. So the background, tissue minus structure, is where
    the EDT is positive. Each mask, of any dtype, is read once, a z-plane at
    a time, into packed bits (``PackedMask``); the volumes are let go before
    the first EDT, the tissue's bits with them, and each structure's bits
    with its own EDT.
    """
    vs, normal = tissue.voxel_size, np.finfo(float).smallest_normal
    smallest = min(vs)
    if smallest * smallest * smallest < normal:
        raise ValueError(f"voxel_size {vs}: its smallest side cubed is not a normal float")
    d = math.hypot(*((n - 1) * s for n, s in zip(tissue.shape, vs)))
    if 4.0 * d * d * d > np.finfo(float).max:
        raise ValueError(f"voxel_size {vs}: four times the grid's diagonal cubed overflows a float")
    tissue, n_tissue = _packed(tissue, "tissue")
    if n_tissue == 0:
        raise ValueError("tissue mask is empty")
    tissue_mm3 = n_tissue * math.prod(vs) / 1e9  # a float product: inf, no warning
    if not normal <= tissue_mm3 < math.inf:
        raise ValueError(f"voxel_size {vs}: the tissue's {tissue_mm3:g} mm^3 is not a normal float")
    masks, backgrounds = _checked_masks(structures, tissue)
    del structures, tissue
    prepared = {}
    for name, background in backgrounds.items():
        edt = distance_transform(masks.pop(name))
        pool, starts = esd_pool(edt, background)
        prepared[name] = PreparedStructure(edt, background, starts, DistanceCdf(pool))
    return SpatialPrelude(tissue_mm3, prepared)


def _distance_grid(esd: DistanceCdf, dists: np.ndarray) -> np.ndarray:
    """Grid from 0 to the largest ESD or cell distance."""
    return np.linspace(0.0, max(esd.samples[-1], dists.max(initial=0.0)), CDF_GRID_POINTS)


def _curves(prep: PreparedStructure, grid: np.ndarray, dists: np.ndarray, cdf_mode: str) -> dict:
    """A structure's reported curves on grid: the CDF of the p >= 0.5 cells'
    distances dists in cdf_mode (None without such cells) and the ESD step CDF."""
    return {
        "distance_grid": grid,
        "cell_cdf": DistanceCdf(dists).evaluate(grid, mode=cdf_mode) if dists.size else None,
        "esd_cdf": prep.esd.evaluate(grid, mode="empirical"),
    }


def _check_analysis(adjacency_um: float, cdf_mode: str) -> None:
    """Both analyses' entry check: a finite adjacency_um > 0 and a known cdf_mode."""
    check_real(adjacency_um, "adjacency_um")
    if cdf_mode not in CDF_MODES:
        raise ValueError(f"cdf_mode must be one of {list(CDF_MODES)}, got {cdf_mode!r}")


def analyze_deterministic(
    cells: CoordSet,
    prelude: SpatialPrelude,
    adjacency_um: float = ADJACENCY_UM,
    cdf_mode: str = "kde",
) -> SpatialReport:
    """Single-pass analysis of all proposals with p >= 0.5 at full weight."""
    _check_analysis(adjacency_um, cdf_mode)
    kept = cells if cells.p is None else cells.select(cells.p >= 0.5)
    flags = [] if len(kept) else ["EmptyCells"]
    out = {}
    for name, prep in prelude.structures.items():
        dists = cell_distances(kept, prep.edt) if len(kept) else np.empty(0)
        pool = prep.esd.samples  # np.mean counts pool < adjacency_um as searchsorted does
        out[name] = StructureAnalysis(
            pct_cells_adjacent=(
                100.0 * float(np.mean(dists < adjacency_um)) if dists.size else float("nan")
            ),
            pct_volume_adjacent=100.0 * float(np.searchsorted(pool, adjacency_um) / pool.size),
            **_curves(prep, _distance_grid(prep.esd, dists), dists, cdf_mode),
        )
    return SpatialReport(
        mode="deterministic",
        density_cells_per_mm3=_density(len(kept), prelude.tissue_mm3)[0],
        n_cells=len(kept),
        structures=out,
        flags=flags,
    )


def analyze_probabilistic(
    cells: CoordSet,
    prelude: SpatialPrelude,
    replicates: int = 50,
    seed: int = 0,
    adjacency_um: float = ADJACENCY_UM,
    cdf_mode: str = "kde",
) -> SpatialReport:
    """Monte-Carlo analysis sampling each proposal by its probability.

    Replicate t draws its randomness from seed + t, so the two halves of the
    replicates run in two processes. ESD replicates resample the voxel-order
    pool (``pool_at``) with a Poisson(count of sampled cells) sample size. The
    envelopes are kept as a running pointwise min and max, which do not grow
    with the replicate count. The per-replicate counts and percentages do:
    one table row per replicate, 8 B plus 16 B per structure, allocated
    before the first replicate, since the reported means and SDs take
    np.nanmean's and np.nanstd's pairwise sums over its columns.
    """
    _check_analysis(adjacency_um, cdf_mode)
    replicates = check_int(replicates, "replicates", MIN_REPLICATES)
    seed = check_int(seed, "seed")
    if len(cells) == 0:
        raise EmptyCells("probabilistic analysis needs at least one proposal")
    p = cells.p if cells.p is not None else np.ones(len(cells))
    structures = prelude.structures
    all_dists = {name: cell_distances(cells, prep.edt) for name, prep in structures.items()}
    grids = {name: _distance_grid(prep.esd, all_dists[name]) for name, prep in structures.items()}

    def run(first: int, stop: int):
        # replicates [first, stop): a table row each (the count, then each
        # structure's cell and volume percentages, NaN for an empty sample),
        # the flags and the envelopes; sample i fills column i + 1
        table = np.full((stop - first, 1 + 2 * len(structures)), np.nan)
        flags = []
        envelopes = [None] * (2 * len(structures))
        for t in range(first, stop):
            rng = np.random.default_rng(seed + t)
            include = rng.random(len(cells)) < p
            row = table[t - first]
            row[0] = include.sum()
            for k, (name, prep) in enumerate(structures.items()):
                w = int(rng.poisson(row[0]))  # drawing no index takes nothing from rng
                esd = prep.pool_at(rng.integers(0, prep.esd.samples.size, size=w))
                samples = (("EmptyReplicate", all_dists[name][include]), ("EmptyESDReplicate", esd))
                for i, (flag, sample) in enumerate(samples, 2 * k):
                    if sample.size == 0:
                        flags.append(f"{flag}:{name}:{t}")
                        continue
                    row[i + 1] = 100.0 * float(np.mean(sample < adjacency_um))
                    curve = DistanceCdf(sample).evaluate(grids[name], mode=cdf_mode)
                    envelopes[i] = _widen(envelopes[i], (curve, curve))
        return table, flags, envelopes

    # the halves join in replicate order, and their envelopes merge exactly
    a, b = on_two_processes(run, replicates)
    table = np.concatenate([a[0], b[0]])
    envelopes = [_widen(x, y) for x, y in zip(a[2], b[2])]
    density, density_sd = _density(table[:, 0], prelude.tissue_mm3)
    out = {}
    for k, (name, prep) in enumerate(structures.items()):
        cells_mean, cells_sd = _replicate_mean_sd(table[:, 2 * k + 1])
        vol_mean, vol_sd = _replicate_mean_sd(table[:, 2 * k + 2])
        out[name] = StructureAnalysis(
            pct_cells_adjacent=cells_mean,
            pct_cells_adjacent_sd=cells_sd,
            pct_volume_adjacent=vol_mean,
            pct_volume_adjacent_sd=vol_sd,
            **_curves(prep, grids[name], all_dists[name][p >= 0.5], cdf_mode),
            cell_envelope=envelopes[2 * k],
            esd_envelope=envelopes[2 * k + 1],
        )
    return SpatialReport(
        mode="probabilistic",
        density_cells_per_mm3=density,
        density_sd=density_sd,
        n_cells=float(np.mean(table[:, 0])),
        structures=out,
        replicates=replicates,
        alpha=2.0 / (replicates + 1),
        flags=a[1] + b[1],
    )


# ---------------------------------------------------------------------------
# hypothesis tests
# ---------------------------------------------------------------------------

def ks_2sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic with asymptotic two-sided p."""
    a, b = DistanceCdf(a), DistanceCdf(b)
    n, m = a.samples.size, b.samples.size
    if n == 0 or m == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([a.samples, b.samples])
    stat = float(np.max(np.abs(a.evaluate(grid) - b.evaluate(grid))))
    return stat, float(kolmogorov(np.sqrt(n * m / (n + m)) * stat))


def wilcoxon_signed_rank(diffs) -> tuple[float, float]:
    """Two-sided signed-rank test on paired differences.

    Returns (W+, p) where W+ is the rank sum of positive differences over
    the nonzero differences (ties get average ranks, zeros are dropped).
    The p-value is exact (distribution of W+ over all sign assignments) for
    n <= 12 and a tie-corrected normal approximation otherwise.
    """
    d = np.asarray(diffs, dtype=np.float64).ravel()
    if not np.isfinite(d).all():
        raise NonFiniteInput("differences must be finite")
    d = d[d != 0.0]
    if d.size == 0:
        raise AllZeroDifferences("all differences are zero")
    # 1-based ranks of |d|, tied values sharing the mean of the ranks they span
    absd = np.abs(d)
    s = np.sort(absd)
    ranks = 0.5 * (np.searchsorted(s, absd, "left") + np.searchsorted(s, absd, "right") + 1)
    w_plus = float(ranks[d > 0].sum())
    n = d.size
    if n <= 12:
        # DP over the rank-sum distribution; doubled ranks are integers even
        # with .5 average ranks
        r2 = np.rint(2.0 * ranks).astype(np.int64)
        total = int(r2.sum())
        counts = np.zeros(total + 1, dtype=np.float64)
        counts[0] = 1.0
        for r in r2:
            shifted = np.zeros_like(counts)
            shifted[r:] = counts[: counts.size - r]
            counts = counts + shifted
        w2 = int(round(2.0 * w_plus))
        denom = 2.0**n
        p_le = counts[: w2 + 1].sum() / denom
        p_ge = counts[w2:].sum() / denom
        return w_plus, float(min(1.0, 2.0 * min(p_le, p_ge)))
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    var -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    z = (w_plus - mean) / np.sqrt(var)
    return w_plus, float(2.0 * ndtr(-abs(z)))
