"""Independent brute-force reference implementations.

Each oracle takes the slow, obviously-correct route (all-pairs evaluation,
exhaustive enumeration, finite differences) and stays independent of the
package code paths it checks.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


def naive_render_dm(coords, shape, voxel_size, sigma, cutoff, compounding, amplitude="unit_peak"):
    """Per-voxel, all-coordinates density map evaluation."""
    out = np.zeros(shape, dtype=np.float64)
    vs = np.asarray(voxel_size, dtype=np.float64)
    amp = 1.0 if amplitude == "unit_peak" else 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    for idx in np.ndindex(*shape):
        center = (np.asarray(idx, dtype=np.float64) + 0.5) * vs
        vals = []
        for c in np.asarray(coords, dtype=np.float64).reshape(-1, 3):
            d = float(np.linalg.norm(center - c))
            if d <= cutoff:
                vals.append(amp * math.exp(-(d * d) / (2.0 * sigma * sigma)))
        if not vals:
            continue
        out[idx] = sum(vals) if compounding == "sum" else max(vals)
    return out


def greedy_nms_oracle(data, voxel_size, min_distance, threshold):
    """O(V^2) iterative NMS: explicit neighbor checks, full pairwise suppression."""
    data = np.asarray(data, dtype=np.float64)
    shape = data.shape
    vs = np.asarray(voxel_size, dtype=np.float64)
    candidates = []
    for idx in np.ndindex(*shape):
        v = data[idx]
        if v <= threshold or v <= 0:
            continue
        is_max = True
        for dz in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dz == dy == dx == 0:
                        continue
                    nz, ny, nx = idx[0] + dz, idx[1] + dy, idx[2] + dx
                    if 0 <= nz < shape[0] and 0 <= ny < shape[1] and 0 <= nx < shape[2]:
                        if data[nz, ny, nx] > v:
                            is_max = False
                            break
                if not is_max:
                    break
            if not is_max:
                break
        if is_max:
            candidates.append((idx, v))
    candidates.sort(key=lambda t: (-t[1], t[0]))
    accepted = []
    for idx, v in candidates:
        pos = (np.asarray(idx, dtype=np.float64) + 0.5) * vs
        if all(np.linalg.norm(pos - q) >= min_distance for _, q in accepted):
            accepted.append(((idx, v), pos))
    return [(idx, v, pos) for (idx, v), pos in accepted]


def brute_force_edt(mask, voxel_size):
    """Min Euclidean distance from every voxel to any foreground voxel."""
    mask = np.asarray(mask, dtype=bool)
    vs = np.asarray(voxel_size, dtype=np.float64)
    fg = np.argwhere(mask).astype(np.float64) * vs
    out = np.zeros(mask.shape, dtype=np.float64)
    for idx in np.ndindex(*mask.shape):
        if mask[idx]:
            continue
        pos = np.asarray(idx, dtype=np.float64) * vs
        d = fg - pos
        out[idx] = math.sqrt(float(np.min(np.einsum("ij,ij->i", d, d))))
    return out


def brute_force_assignment_cost(gt, pred):
    """Optimal total distance over all one-to-one partial assignments."""
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    pred = np.asarray(pred, dtype=np.float64).reshape(-1, 3)
    n, m = len(gt), len(pred)
    if n == 0 or m == 0:
        return 0.0
    dist = np.linalg.norm(gt[:, None, :] - pred[None, :, :], axis=2)
    best = math.inf
    if n <= m:
        for perm in itertools.permutations(range(m), n):
            best = min(best, float(sum(dist[i, perm[i]] for i in range(n))))
    else:
        for perm in itertools.permutations(range(n), m):
            best = min(best, float(sum(dist[perm[j], j] for j in range(m))))
    return best


def central_difference_gradient(f, x, h=1e-6):
    """Elementwise central difference of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        step = h * max(1.0, abs(flat[i]))
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        g[i] = (hi - lo) / (2.0 * step)
    return grad


def exhaustive_best_split(X, y):
    """All (feature, midpoint threshold) splits; min weighted gini.

    Gini scores are exact rationals so ties break by lowest feature index,
    then lowest threshold, independent of float rounding. Returns
    (impurity_fraction, feature, threshold) or None when no feature varies.
    """
    from fractions import Fraction

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    best = None
    for f in range(X.shape[1]):
        uniq = np.unique(X[:, f])
        for a, b in zip(uniq[:-1], uniq[1:]):
            thr = 0.5 * (a + b)
            if thr >= b:
                thr = a
            left = X[:, f] <= thr
            nl, nr = int(left.sum()), int((~left).sum())
            pos_l, pos_r = int(y[left].sum()), int(y[~left].sum())
            # weighted child gini = 2/n * (posL*negL/nL + posR*negR/nR)
            weighted = Fraction(2, n) * (
                Fraction(pos_l * (nl - pos_l), nl) + Fraction(pos_r * (nr - pos_r), nr)
            )
            if best is None or weighted < best[0]:
                best = (weighted, f, thr)
    return best


def wilcoxon_enumeration(diffs):
    """Exact two-sided p over all 2^n sign assignments of the realized ranks."""
    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0]
    n = d.size
    absd = np.abs(d)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(n)
    sa = absd[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sa[j + 1] == sa[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    w_obs = ranks[d > 0].sum()
    n_le = 0
    n_ge = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= w_obs + 1e-12:
            n_le += 1
        if w >= w_obs - 1e-12:
            n_ge += 1
    total = 2**n
    return w_obs, min(1.0, 2.0 * min(n_le / total, n_ge / total))


def ks_statistic_sweep(a, b):
    """Max |F_a - F_b| evaluated at every sample point of both samples."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    stat = 0.0
    for x in np.concatenate([a, b]):
        fa = np.mean(a <= x)
        fb = np.mean(b <= x)
        stat = max(stat, abs(fa - fb))
    return float(stat)


def two_pass_sd(stack):
    """Population SD along axis 0, textbook two-pass formula."""
    stack = np.asarray(stack, dtype=np.float64)
    mean = stack.sum(axis=0) / stack.shape[0]
    return np.sqrt(((stack - mean) ** 2).sum(axis=0) / stack.shape[0])


def reference_window_stats(values, pcts, thresholds):
    """Window statistics as first implemented: np.percentile (linear), one
    comparison pass per threshold, and moments through the generic pow."""
    out = np.empty(pcts.size + thresholds.size + 4, dtype=np.float64)
    out[: pcts.size] = np.percentile(values, pcts, method="linear")
    base = pcts.size
    for k, t in enumerate(thresholds):
        out[base + k] = np.mean(values > t)
    base += thresholds.size
    mean = values.mean()
    sd = values.std()
    out[base] = mean
    out[base + 1] = sd
    if sd == 0.0:
        out[base + 2] = 0.0
        out[base + 3] = 0.0
    else:
        z = (values - mean) / sd
        out[base + 2] = np.mean(z**3)
        out[base + 3] = np.mean(z**4)
    return out


# ---------------------------------------------------------------------------
# spatial analyses as first implemented: each analysis recomputes every
# structure's EDT, and the ESD pool computes it once more. The shared
# primitives (EDT, CDF evaluation, cell distances, report types) are the
# package's own; only the per-call prelude is frozen here.
# ---------------------------------------------------------------------------

def _reference_esd_pool(structure, tissue):
    from probcell.errors import DegenerateESD, ShapeMismatch
    from probcell.spatial import _require_mask, distance_transform

    if structure.shape != tissue.shape:
        raise ShapeMismatch("structure and tissue masks must share the grid")
    fg = _require_mask(structure, "structure")
    ts = _require_mask(tissue, "tissue")
    if not ts.any():
        raise ValueError("tissue mask is empty")
    edt = distance_transform(structure)
    background = ts & ~fg
    if not background.any():
        raise DegenerateESD("no background voxels remain inside the tissue")
    return edt.data[background]


def _reference_tissue_volume_mm3(tissue):
    from probcell.spatial import _require_mask

    ts = _require_mask(tissue, "tissue")
    return float(ts.sum()) * tissue.voxel_volume_um3 / 1e9


def _reference_shared_grid(pools, dists, n_grid):
    grids = {}
    for name, pool in pools.items():
        top = float(pool.max()) if pool.size else 1.0
        if name in dists and dists[name].size:
            top = max(top, float(dists[name].max()))
        grids[name] = np.linspace(0.0, top, n_grid)
    return grids


def reference_analyze_deterministic(
    cells, structures, tissue, adjacency_um=4.0, n_grid=512, cdf_mode="kde",
):
    from probcell.spatial import (
        DistanceCdf, SpatialReport, StructureAnalysis, cell_distances, distance_transform,
    )

    flags = []
    if cells.p is not None:
        kept = cells.select(cells.p >= 0.5)
    else:
        kept = cells
    tissue_mm3 = _reference_tissue_volume_mm3(tissue)
    density = len(kept) / tissue_mm3
    if len(kept) == 0:
        flags.append("EmptyCells")
    out = {}
    for name, structure in structures.items():
        edt = distance_transform(structure)
        pool = _reference_esd_pool(structure, tissue)
        dists = cell_distances(kept, edt) if len(kept) else np.empty(0)
        grid = _reference_shared_grid({name: pool}, {name: dists}, n_grid)[name]
        esd_curve = DistanceCdf(pool).evaluate(grid, mode="empirical")
        cell_curve = (
            DistanceCdf(dists).evaluate(grid, mode=cdf_mode) if dists.size else None
        )
        out[name] = StructureAnalysis(
            name=name,
            pct_cells_adjacent=(
                100.0 * float(np.mean(dists < adjacency_um)) if dists.size else float("nan")
            ),
            pct_volume_adjacent=100.0 * float(np.mean(pool < adjacency_um)),
            distance_grid=grid,
            cell_cdf=cell_curve,
            esd_cdf=esd_curve,
        )
    return SpatialReport(
        mode="deterministic",
        density_cells_per_mm3=density,
        n_cells=len(kept),
        structures=out,
        flags=flags,
    )


def reference_analyze_probabilistic(
    cells, structures, tissue, replicates=50, seed=0, adjacency_um=4.0, n_grid=512,
    cdf_mode="kde",
):
    from probcell.errors import EmptyCells
    from probcell.spatial import (
        DistanceCdf, SpatialReport, StructureAnalysis, cell_distances, distance_transform,
    )

    if replicates < 2:
        raise ValueError("need at least two replicates")
    if len(cells) == 0:
        raise EmptyCells("probabilistic analysis needs at least one proposal")
    p = cells.p if cells.p is not None else np.ones(len(cells))
    tissue_mm3 = _reference_tissue_volume_mm3(tissue)
    flags = []

    edts = {}
    pools = {}
    all_dists = {}
    for name, structure in structures.items():
        edts[name] = distance_transform(structure)
        pools[name] = _reference_esd_pool(structure, tissue)
        all_dists[name] = cell_distances(cells, edts[name])
    grids = _reference_shared_grid(pools, all_dists, n_grid)

    counts = np.empty(replicates)
    pct_cells = {name: np.full(replicates, np.nan) for name in structures}
    pct_vol = {name: np.full(replicates, np.nan) for name in structures}
    cell_curves = {name: [] for name in structures}
    esd_curves = {name: [] for name in structures}
    for t in range(replicates):
        rng = np.random.default_rng(seed + t)
        include = rng.random(len(cells)) < p
        counts[t] = include.sum()
        for name in structures:
            dists = all_dists[name][include]
            if dists.size:
                pct_cells[name][t] = 100.0 * float(np.mean(dists < adjacency_um))
                cell_curves[name].append(
                    DistanceCdf(dists).evaluate(grids[name], mode=cdf_mode)
                )
            else:
                flags.append(f"EmptyReplicate:{name}:{t}")
            pool = pools[name]
            w = int(rng.poisson(counts[t]))
            if w == 0:
                flags.append(f"EmptyESDReplicate:{name}:{t}")
                continue
            sample = pool[rng.integers(0, pool.size, size=w)]
            pct_vol[name][t] = 100.0 * float(np.mean(sample < adjacency_um))
            esd_curves[name].append(
                DistanceCdf(sample).evaluate(grids[name], mode=cdf_mode)
            )

    out = {}
    for name in structures:
        det_dists = all_dists[name][p >= 0.5]
        cell_stack = np.stack(cell_curves[name]) if cell_curves[name] else None
        esd_stack = np.stack(esd_curves[name]) if esd_curves[name] else None
        out[name] = StructureAnalysis(
            name=name,
            pct_cells_adjacent=float(np.nanmean(pct_cells[name])),
            pct_cells_adjacent_sd=float(np.nanstd(pct_cells[name])),
            pct_volume_adjacent=float(np.nanmean(pct_vol[name])),
            pct_volume_adjacent_sd=float(np.nanstd(pct_vol[name])),
            distance_grid=grids[name],
            cell_cdf=(
                DistanceCdf(det_dists).evaluate(grids[name], mode=cdf_mode)
                if det_dists.size
                else None
            ),
            esd_cdf=DistanceCdf(pools[name]).evaluate(grids[name], mode="empirical"),
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
        density_cells_per_mm3=float(np.mean(counts / tissue_mm3)),
        density_sd=float(np.std(counts / tissue_mm3)),
        n_cells=float(np.mean(counts)),
        structures=out,
        replicates=replicates,
        alpha=2.0 / (replicates + 1),
        flags=flags,
    )
