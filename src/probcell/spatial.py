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
volume and, per structure, its EDT and ESD pool, so a run computes each
structure's EDT once.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.special import ndtr

from .coords import CoordSet
from .errors import (
    AllZeroDifferences,
    DegenerateESD,
    EmptyCells,
    EmptyStructure,
    ShapeMismatch,
)
from .volume import Volume3D, sample_trilinear

ADJACENCY_UM = 4.0
CDF_GRID_POINTS = 512


def _require_mask(v: Volume3D, name: str) -> np.ndarray:
    data = v.data
    if not ((data == 0.0) | (data == 1.0)).all():
        raise ValueError(f"{name} mask must be binary")
    return data > 0


def distance_transform(structure: Volume3D) -> Volume3D:
    """Exact Euclidean distance (um) of every voxel to the nearest foreground voxel."""
    fg = _require_mask(structure, "structure")
    if not fg.any():
        raise EmptyStructure("structure mask has no foreground voxels")
    edt = ndimage.distance_transform_edt(~fg, sampling=structure.voxel_size)
    return Volume3D(np.asarray(edt, dtype=np.float64), structure.voxel_size)


@dataclass
class DistanceCdf:
    """Empirical distance sample with closed-form KDE smoothing."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.sort(np.asarray(self.samples, dtype=np.float64).ravel())

    @property
    def n(self) -> int:
        return self.samples.size

    def evaluate(self, grid, mode: str = "empirical") -> np.ndarray:
        grid = np.asarray(grid, dtype=np.float64)
        if self.n == 0:
            raise EmptyCells("cannot evaluate a CDF of zero samples")
        if mode == "empirical":
            return np.searchsorted(self.samples, grid, side="right") / self.n
        if mode == "kde":
            h = scott_bandwidth(self.samples)
            if h == 0.0:
                return np.searchsorted(self.samples, grid, side="right") / self.n
            return ndtr((grid[:, None] - self.samples[None, :]) / h).mean(axis=1)
        raise ValueError(f"unknown cdf mode {mode!r}")


def scott_bandwidth(x: np.ndarray) -> float:
    """Scott's rule for 1-D data: sample SD times n^(-1/5)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        return 0.0
    return float(np.std(x, ddof=1) * x.size ** (-1.0 / 5.0))


def esd_pool(edt: Volume3D, tissue_mask: np.ndarray) -> np.ndarray:
    """EDT values over tissue background voxels (tissue minus structure).

    tissue_mask is the boolean tissue grid as ``prepare_spatial`` checked
    it. Structure voxels are exactly those at EDT 0, so the background is
    the tissue where the EDT is positive.
    """
    if edt.shape != tissue_mask.shape:
        raise ShapeMismatch("structure and tissue masks must share the grid")
    background = tissue_mask & (edt.data > 0)
    if not background.any():
        raise DegenerateESD("no background voxels remain inside the tissue")
    return edt.data[background]


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
    name: str
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
        if self.cell_envelope is not None:
            out["cell_envelope_lower"] = self.cell_envelope[0].tolist()
            out["cell_envelope_upper"] = self.cell_envelope[1].tolist()
        if self.esd_envelope is not None:
            out["esd_envelope_lower"] = self.esd_envelope[0].tolist()
            out["esd_envelope_upper"] = self.esd_envelope[1].tolist()
        if self.pct_cells_adjacent_sd is not None:
            out["pct_cells_adjacent_sd"] = _opt(self.pct_cells_adjacent_sd)
        if self.pct_volume_adjacent_sd is not None:
            out["pct_volume_adjacent_sd"] = _opt(self.pct_volume_adjacent_sd)
        return out


def _replicate_mean_sd(pct: np.ndarray) -> tuple[float, float]:
    """Mean and SD over the replicates that were not empty (NaN entries);
    NaN, reported as null, when every replicate was empty."""
    if np.isnan(pct).all():
        return float("nan"), float("nan")
    return float(np.nanmean(pct)), float(np.nanstd(pct))


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
    """A structure's EDT and the ESD pool read from it."""

    edt: Volume3D
    pool: np.ndarray


@dataclass(frozen=True)
class SpatialPrelude:
    """What both analyses share: the tissue volume and each structure's EDT."""

    tissue_mm3: float
    structures: dict[str, PreparedStructure]


def prepare_spatial(structures: dict[str, Volume3D], tissue: Volume3D) -> SpatialPrelude:
    """Check the tissue mask once, then compute each structure's EDT and ESD
    pool for both analyses."""
    n_tissue = int(_require_mask(tissue, "tissue").sum())
    if n_tissue == 0:
        raise ValueError("tissue mask is empty")
    tissue_mm3 = n_tissue * tissue.voxel_volume_um3 / 1e9
    prepared = {}
    for name, structure in structures.items():
        edt = distance_transform(structure)
        # the boolean mask is rebuilt after each EDT, not held across it:
        # at 256^3 it would add 16 MB to the EDT's peak memory
        prepared[name] = PreparedStructure(edt, esd_pool(edt, tissue.data > 0))
    return SpatialPrelude(tissue_mm3, prepared)


def _distance_grid(pool: np.ndarray, dists: np.ndarray, n_grid: int) -> np.ndarray:
    """Grid from 0 to the largest ESD or cell distance."""
    top = float(pool.max())
    if dists.size:
        top = max(top, float(dists.max()))
    return np.linspace(0.0, top, n_grid)


def analyze_deterministic(
    cells: CoordSet,
    prelude: SpatialPrelude,
    adjacency_um: float = ADJACENCY_UM,
    n_grid: int = CDF_GRID_POINTS,
    cdf_mode: str = "kde",
) -> SpatialReport:
    """Single-pass analysis of all proposals with p >= 0.5 at full weight."""
    kept = cells if cells.p is None else cells.select(cells.p >= 0.5)
    flags = [] if len(kept) else ["EmptyCells"]
    out = {}
    for name, prep in prelude.structures.items():
        dists = cell_distances(kept, prep.edt) if len(kept) else np.empty(0)
        grid = _distance_grid(prep.pool, dists, n_grid)
        out[name] = StructureAnalysis(
            name=name,
            pct_cells_adjacent=(
                100.0 * float(np.mean(dists < adjacency_um)) if dists.size else float("nan")
            ),
            pct_volume_adjacent=100.0 * float(np.mean(prep.pool < adjacency_um)),
            distance_grid=grid,
            cell_cdf=(
                DistanceCdf(dists).evaluate(grid, mode=cdf_mode) if dists.size else None
            ),
            esd_cdf=DistanceCdf(prep.pool).evaluate(grid, mode="empirical"),
        )
    return SpatialReport(
        mode="deterministic",
        density_cells_per_mm3=len(kept) / prelude.tissue_mm3,
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
    n_grid: int = CDF_GRID_POINTS,
    cdf_mode: str = "kde",
) -> SpatialReport:
    """Monte-Carlo analysis sampling each proposal by its probability.

    Replicate t draws its randomness from seed + t, so replicates are
    independent of execution order. ESD replicates resample the pooled
    distances with a Poisson(count of sampled cells) sample size.
    """
    if replicates < 2:
        raise ValueError("need at least two replicates")
    if len(cells) == 0:
        raise EmptyCells("probabilistic analysis needs at least one proposal")
    p = cells.p if cells.p is not None else np.ones(len(cells))
    structures = prelude.structures
    flags = []

    all_dists, grids = {}, {}
    for name, prep in structures.items():
        all_dists[name] = cell_distances(cells, prep.edt)
        grids[name] = _distance_grid(prep.pool, all_dists[name], n_grid)

    counts = np.empty(replicates)
    pct_cells = {name: np.full(replicates, np.nan) for name in structures}
    pct_vol = {name: np.full(replicates, np.nan) for name in structures}
    cell_curves = {name: [] for name in structures}
    esd_curves = {name: [] for name in structures}
    for t in range(replicates):
        rng = np.random.default_rng(seed + t)
        include = rng.random(len(cells)) < p
        counts[t] = include.sum()
        for name, prep in structures.items():
            dists = all_dists[name][include]
            if dists.size:
                pct_cells[name][t] = 100.0 * float(np.mean(dists < adjacency_um))
                cell_curves[name].append(
                    DistanceCdf(dists).evaluate(grids[name], mode=cdf_mode)
                )
            else:
                flags.append(f"EmptyReplicate:{name}:{t}")
            w = int(rng.poisson(counts[t]))
            if w == 0:
                flags.append(f"EmptyESDReplicate:{name}:{t}")
                continue
            sample = prep.pool[rng.integers(0, prep.pool.size, size=w)]
            pct_vol[name][t] = 100.0 * float(np.mean(sample < adjacency_um))
            esd_curves[name].append(
                DistanceCdf(sample).evaluate(grids[name], mode=cdf_mode)
            )

    out = {}
    for name, prep in structures.items():
        det_dists = all_dists[name][p >= 0.5]
        cell_stack = np.stack(cell_curves[name]) if cell_curves[name] else None
        esd_stack = np.stack(esd_curves[name]) if esd_curves[name] else None
        cells_mean, cells_sd = _replicate_mean_sd(pct_cells[name])
        vol_mean, vol_sd = _replicate_mean_sd(pct_vol[name])
        out[name] = StructureAnalysis(
            name=name,
            pct_cells_adjacent=cells_mean,
            pct_cells_adjacent_sd=cells_sd,
            pct_volume_adjacent=vol_mean,
            pct_volume_adjacent_sd=vol_sd,
            distance_grid=grids[name],
            cell_cdf=(
                DistanceCdf(det_dists).evaluate(grids[name], mode=cdf_mode)
                if det_dists.size
                else None
            ),
            esd_cdf=DistanceCdf(prep.pool).evaluate(grids[name], mode="empirical"),
            cell_envelope=(
                (cell_stack.min(axis=0), cell_stack.max(axis=0))
                if cell_stack is not None
                else None
            ),
            esd_envelope=(
                (esd_stack.min(axis=0), esd_stack.max(axis=0))
                if esd_stack is not None
                else None
            ),
        )
    return SpatialReport(
        mode="probabilistic",
        density_cells_per_mm3=float(np.mean(counts / prelude.tissue_mm3)),
        density_sd=float(np.std(counts / prelude.tissue_mm3)),
        n_cells=float(np.mean(counts)),
        structures=out,
        replicates=replicates,
        alpha=2.0 / (replicates + 1),
        flags=flags,
    )


# ---------------------------------------------------------------------------
# hypothesis tests
# ---------------------------------------------------------------------------

def ks_2sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic with asymptotic two-sided p."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    en = a.size * b.size / (a.size + b.size)
    return stat, _kolmogorov_sf(np.sqrt(en) * stat)


def _kolmogorov_sf(lam: float) -> float:
    if lam <= 0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * np.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return float(min(max(total, 0.0), 1.0))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def wilcoxon_signed_rank(diffs) -> tuple[float, float]:
    """Two-sided signed-rank test on paired differences.

    Returns (W+, p) where W+ is the rank sum of positive differences over
    the nonzero differences (ties get average ranks, zeros are dropped).
    The p-value is exact (distribution of W+ over all sign assignments) for
    n <= 12 and a tie-corrected normal approximation otherwise.
    """
    d = np.asarray(diffs, dtype=np.float64).ravel()
    d = d[d != 0.0]
    if d.size == 0:
        raise AllZeroDifferences("all differences are zero")
    ranks = _average_ranks(np.abs(d))
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
