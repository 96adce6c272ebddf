"""Independent brute-force reference implementations.

Each oracle takes the slow, obviously-correct route (all-pairs evaluation,
exhaustive enumeration, finite differences) and stays independent of the
package code paths it checks.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import ndimage


def naive_render_dm(coords, shape, voxel_size, sigma, cutoff, compounding, amplitude="unit_peak",
                    scales=None):
    """Per-voxel, all-coordinates density map evaluation; scales multiply
    each coordinate's kernel."""
    out = np.zeros(shape, dtype=np.float64)
    vs = np.asarray(voxel_size, dtype=np.float64)
    amp = 1.0 if amplitude == "unit_peak" else 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    scales = np.ones(len(coords)) if scales is None else np.asarray(scales, dtype=np.float64)
    for idx in np.ndindex(*shape):
        center = (np.asarray(idx, dtype=np.float64) + 0.5) * vs
        vals = []
        for c, scale in zip(coords, scales):
            d = float(np.linalg.norm(center - c))
            if d <= cutoff:
                vals.append(scale * amp * math.exp(-(d * d) / (2.0 * sigma * sigma)))
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


def reference_local_maxima(data):
    """local_maxima as it stood before its numpy running max: scipy's 3x3x3
    maximum_filter, -inf beyond the border."""
    footprint_max = ndimage.maximum_filter(data, size=3, mode="constant", cval=-np.inf)
    mask = (data >= footprint_max) & (data > 0)
    return np.argwhere(mask), data[mask]


def whole_volume_local_maxima(data):
    """local_maxima as it stood before its z-slabs: the separable running max
    on two whole-volume copies of the map, then three whole-volume masks."""
    from probcell.errors import NonFiniteInput

    if not np.all(np.isfinite(data)):
        raise NonFiniteInput("density map must be finite-valued")
    footprint_max = data.copy()
    prev = np.empty_like(data)
    for axis in range(data.ndim):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        np.copyto(prev, footprint_max)
        np.maximum(footprint_max[lo], prev[hi], out=footprint_max[lo])
        np.maximum(footprint_max[hi], prev[lo], out=footprint_max[hi])
    del prev
    mask = data >= footprint_max
    del footprint_max
    mask &= data > 0
    idx = np.argwhere(mask)
    return idx, data[mask]


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


def scipy_assignment(cost):
    """linear_sum_assignment as the package called it before its numpy port:
    scipy's rectangular_lsap."""
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(cost)


def scipy_distances(a, b):
    """The pair distances as the package took them before its numpy port:
    scipy's cdist."""
    from scipy.spatial.distance import cdist

    return cdist(a, b)


def scipy_hungarian_match(gt, pred):
    """hungarian_match as it stood on scipy's cdist and linear_sum_assignment,
    far pairs (an overflowing square) solved at a cost above any min(n, m)
    finite pairs and reported inf apart."""
    dist = scipy_distances(gt.coords, pred.coords)
    far = np.isinf(dist)
    dist[far] = dist.max(initial=1.0, where=~far) * (min(dist.shape) + 1)
    rows, cols = scipy_assignment(dist)
    dist[far] = np.inf
    return sorted((int(r), int(c), float(dist[r, c])) for r, c in zip(rows, cols))


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


def gini_best_split(values: np.ndarray, labels: np.ndarray):
    """Best split along one feature as an exact rational impurity, or None.

    The forest's split search as it stood before it searched a node's
    features in one pass. The weighted child gini equals
    2/n * (posL*negL/nL + posR*negR/nR), so splits are compared through the
    integer fraction (num, den) of the bracketed term; exact arithmetic keeps
    the documented tie-break (lowest threshold, then lowest feature index at
    the caller) independent of float rounding. Thresholds are midpoints
    between consecutive distinct sorted values. Returns (num, den, threshold).
    """
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sy = labels[order].astype(np.int64)
    boundary = np.nonzero(sv[:-1] < sv[1:])[0]
    if boundary.size == 0:
        return None
    n = sv.size
    pos_prefix = np.cumsum(sy)
    n_left = boundary.astype(np.int64) + 1
    n_right = n - n_left
    pos_left = pos_prefix[boundary]
    pos_right = pos_prefix[-1] - pos_left
    neg_left = n_left - pos_left
    neg_right = n_right - pos_right
    num = pos_left * neg_left * n_right + pos_right * neg_right * n_left
    den = n_left * n_right
    score = num / den
    near = np.nonzero(score <= score.min() + 1e-9 * (1.0 + abs(score.min())))[0]
    best_k = None
    for k in near:  # exact fraction comparison over the float near-minimum set
        if best_k is None or int(num[k]) * int(den[best_k]) < int(num[best_k]) * int(den[k]):
            best_k = k
    b = boundary[best_k]
    thr = 0.5 * (sv[b] + sv[b + 1])
    if thr >= sv[b + 1]:  # adjacent floats: keep the split between the two values
        thr = sv[b]
    return int(num[best_k]), int(den[best_k]), float(thr)


def loop_build_tree(X, y, rng, n_sub):
    """One forest tree grown with gini_best_split called feature by feature."""
    from probcell.classifier import Tree

    feature, threshold, left, right, n_pos, n_total = [], [], [], [], [], []

    def new_node():
        for column, value in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1),
                              (n_pos, 0.0), (n_total, 0.0)):
            column.append(value)
        return len(feature) - 1

    d = X.shape[1]
    stack = [(new_node(), np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        labels = y[idx]
        pos = float(labels.sum())
        tot = float(idx.size)
        n_pos[node] = pos
        n_total[node] = tot
        if tot < 2 or pos == 0.0 or pos == tot:
            continue
        feats = np.sort(rng.choice(d, size=min(n_sub, d), replace=False))
        best = None
        for f in feats:
            found = gini_best_split(X[idx, f], labels)
            if found is None:
                continue
            num, den, thr = found
            if best is None or num * best[1] < best[0] * den:
                best = (num, den, int(f), thr)
        if best is None:
            continue
        _, _, f, thr = best
        go_left = X[idx, f] <= thr
        li, ri = new_node(), new_node()
        feature[node] = f
        threshold[node] = thr
        left[node] = li
        right[node] = ri
        stack.append((ri, idx[~go_left]))
        stack.append((li, idx[go_left]))
    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        n_pos=np.asarray(n_pos, dtype=np.float64),
        n_total=np.asarray(n_total, dtype=np.float64),
    )


def loop_average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks by a walk over the stably sorted values, each run of
    ties given the mean of the ranks it spans."""
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


def wilcoxon_enumeration(diffs):
    """Exact two-sided p over all 2^n sign assignments of the realized ranks."""
    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0]
    n = d.size
    ranks = loop_average_ranks(np.abs(d))
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


def step_cdf_ks_2sample(a, b):
    """Two-sample KS (statistic, p) with its own sorted samples and two
    searchsorted step CDFs on the pooled points, as first implemented."""
    from scipy.special import kolmogorov

    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    en = a.size * b.size / (a.size + b.size)
    return stat, float(kolmogorov(np.sqrt(en) * stat))


def series_kolmogorov_sf(lam: float) -> float:
    """Kolmogorov survival function by its alternating series,
    2 sum_k (-1)^(k-1) exp(-2 k^2 lam^2), truncated once a term drops below
    1e-12 (at most 100 terms) and clipped to [0, 1]. Accurate for lam >= 0.5;
    below about 0.2 the truncation leaves it far from the true value 1."""
    if lam <= 0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * np.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return float(min(max(total, 0.0), 1.0))


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


def sort_once_window_stats(block: np.ndarray, pcts: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """The sort-once window kernel before its single gather: a float64 copy
    of the block for the moments and a second, sorted copy in the block's
    dtype for the order statistics; np.mean and np.std for mean and SD."""
    from probcell.errors import NonFiniteInput

    values = np.asarray(block, dtype=np.float64).ravel()
    # sorting in the map's own dtype and widening afterwards gives the same
    # sequence as sorting the float64 copy, at half the cost for float32
    s = np.sort(block, axis=None).astype(np.float64, copy=False)
    n = s.size
    if not (math.isfinite(s[0]) and math.isfinite(s[-1])):
        raise NonFiniteInput("window contains NaN or infinite values")
    out = np.empty(pcts.size + thresholds.size + 4, dtype=np.float64)
    # numpy's "linear" percentile, read off the sorted copy
    virtual = (n - 1) * (pcts / 100)
    below = np.floor(virtual)
    gamma = virtual - below
    below = below.astype(np.intp)
    a = s[below]
    b = s[np.minimum(below + 1, n - 1)]
    out[: pcts.size] = np.where(gamma >= 0.5, b - (b - a) * (1 - gamma), a + (b - a) * gamma)
    base = pcts.size
    out[base : base + thresholds.size] = (n - np.searchsorted(s, thresholds, side="right")) / n
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
        z2 = z * z
        out[base + 2] = (z2 * z).sum() / n
        out[base + 3] = (z2 * z2).sum() / n
    return out


# ---------------------------------------------------------------------------
# spatial analyses as first implemented: each analysis recomputes every
# structure's EDT, and the ESD pool computes it once more. The shared
# primitives (EDT, CDF evaluation, cell distances, report types) are the
# package's own; only the per-call prelude is frozen here.
# ---------------------------------------------------------------------------

def _require_mask(v, name):
    """The spatial masks' check as first written: binary, then foreground."""
    data = v.data
    if not ((data == 0.0) | (data == 1.0)).all():
        raise ValueError(f"{name} mask must be binary")
    return data > 0


def _reference_esd_pool(structure, tissue):
    from probcell.errors import DegenerateESD, ShapeMismatch
    from probcell.spatial import distance_transform

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


# ---------------------------------------------------------------------------
# The surrogate regressor and the tube mask as they stood before they were
# rewritten to bound their memory (one z-plane of map_coordinates at a time,
# draws built in place, the tube EDT on the centerline's padded bounding box).
# Each builds whole-volume float64 temporaries; the rewrite must match them
# bit for bit.
# ---------------------------------------------------------------------------

def reference_smooth_field(shape, rng, lo, hi):
    """Trilinear upsampling of a 4^3 random grid, all voxels in one call."""
    coarse = rng.random((4, 4, 4))
    axes = [np.linspace(0.0, 3.0, n) for n in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    field = ndimage.map_coordinates(coarse, [m.ravel() for m in mesh], order=1)
    return (lo + (hi - lo) * field).reshape(shape)


def _reference_smooth_noise(shape, rng, voxel_size):
    noise = rng.standard_normal(shape)
    sigmas = 2.0 / np.asarray(voxel_size, dtype=np.float64)
    noise = ndimage.gaussian_filter(noise, sigma=sigmas)
    sd = noise.std()
    if sd > 0:
        noise /= sd
    return noise


def reference_oracle_regress(coords, spec):
    """(dm, aleatoric, epistemic) float32 arrays of the surrogate regressor:
    both clean maps as float64, then each draw as c + a * (n - b)."""
    from probcell.coords import CoordSet
    from probcell.densitymap import render_dm
    from probcell.synth import _sample_separated

    rng = np.random.default_rng([spec.seed, 1])
    cell_amps = rng.uniform(*spec.cell_amp_range, size=len(coords))
    lo = np.full(3, spec.margin_um)
    hi = spec.extent_um - spec.margin_um
    distractors = _sample_separated(
        rng, spec.n_distractors, lo, hi, spec.min_separation_um, existing=coords.coords
    )
    distractor_amps = [
        rng.uniform(*spec.distractor_amp_range, size=spec.n_distractors)
        for _ in range(2)
    ]
    amp_field = reference_smooth_field(spec.shape, rng, *spec.amp_field_range) * spec.noise_sd
    noise = [_reference_smooth_noise(spec.shape, rng, spec.voxel_size) for _ in range(2)]
    all_coords = np.concatenate([coords.coords, distractors], axis=0)
    cleans = []
    for t in range(2):
        scales = np.concatenate([cell_amps, distractor_amps[t]])
        cleans.append(
            render_dm(CoordSet(all_coords), spec.shape, spec.voxel_size, spec.kernel(),
                      scales=scales).data.astype(np.float64)
        )
    if spec.background_bias_sd > 0 and len(all_coords):
        support = (cleans[0] > 0.1).astype(np.float64)
        sigmas = 2.0 / np.asarray(spec.voxel_size, dtype=np.float64)
        env = np.clip(ndimage.gaussian_filter(support, sigma=sigmas) * 4.0, 0.0, 1.0)
        bias = spec.background_bias_sd * (1.0 - env)
    else:
        bias = 0.0
    draws = [c + amp_field * (n - bias) for c, n in zip(cleans, noise)]
    dm = np.maximum(draws[0], 0.0)
    epistemic = np.abs(draws[1] - draws[0]) / np.sqrt(2.0)
    return dm.astype(np.float32), amp_field.astype(np.float32), epistemic.astype(np.float32)


def reference_generate_structures(spec):
    """(structure, tissue) boolean masks, the tube mask thresholding a
    full-volume EDT of the random-walk centerline."""
    rng = np.random.default_rng([spec.seed, 2])
    shape = spec.shape
    vs = np.asarray(spec.voxel_size, dtype=np.float64)
    extent = spec.extent_um
    centers = [(np.arange(n, dtype=np.float64) + 0.5) * v for n, v in zip(shape, vs)]
    half = extent / 2.0
    zz = ((centers[0] - half[0]) / half[0]) ** 2
    yy = ((centers[1] - half[1]) / half[1]) ** 2
    xx = ((centers[2] - half[2]) / half[2]) ** 2
    tissue = (zz[:, None, None] + yy[None, :, None] + xx[None, None, :]) <= 1.0
    centerline = np.zeros(shape, dtype=bool)
    length = (
        spec.tube_length_um if spec.tube_length_um is not None else 0.8 * float(extent.max())
    )
    step = float(vs.min())
    for _ in range(spec.n_tubes):
        pos = half + (rng.random(3) - 0.5) * extent * 0.5
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        for _ in range(int(length / step)):
            idx = np.floor(pos / vs).astype(int)
            if np.all(idx >= 0) and np.all(idx < shape):
                centerline[idx[0], idx[1], idx[2]] = True
            direction = direction + 0.25 * rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            pos = pos + direction * step
            pos = np.clip(pos, 0.0, extent - 1e-9)
    if not centerline.any():
        return np.zeros(shape, dtype=bool), tissue
    dist = ndimage.distance_transform_edt(~centerline, sampling=tuple(vs))
    return (dist <= spec.tube_radius_um) & tissue, tissue


def reference_tiled_detect(dm, tiling, nms):
    """(coords, dm_value) of tiled detection as it merged patches in
    micrometres: one point set per patch at (voxel + 0.5) * voxel_size, kept
    under m_peak where it lies in the patch's keep box scaled by the voxel
    size, then concatenated in patch order."""
    from probcell.detect import detect_peaks
    from probcell.volume import M_PEAK, plan_tiling, um_to_voxel

    vs = np.asarray(dm.voxel_size, dtype=np.float64)
    coords, values = [], []
    for patch in plan_tiling(dm.shape, tiling).patches:
        lo = np.maximum(patch.cnn_box[0], 0)
        hi = np.minimum(patch.cnn_box[1], dm.shape)
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        peaks = detect_peaks(dm.like(dm.data[box]), nms)
        c = (np.rint(um_to_voxel(peaks.coords, vs)) + lo + 0.5) * vs
        keep = np.ones(len(c), dtype=bool)
        if tiling.strategy == M_PEAK:
            keep = np.all(
                (c >= np.multiply(patch.keep_box[0], vs)) & (c < np.multiply(patch.keep_box[1], vs)),
                axis=1,
            )
        coords.append(c[keep])
        values.append(peaks.dm_value[keep])
    return np.concatenate(coords), np.concatenate(values)


# ---------------------------------------------------------------------------
# The two separation tests as they stood before coords.Separated served both:
# NMS listed every close candidate pair with a KD-tree and walked the list,
# and placement kept a dict of buckets min_sep wide and read the 27 around
# each draw. Both keep a point unless a kept one lies closer than r.
# ---------------------------------------------------------------------------

def pair_walk_detect_peaks(dm, cfg):
    """(coords, dm_value) of detect_peaks by the pair walk: a KD-tree lists
    every candidate pair closer than r, and a pass over the pairs in
    priority order suppresses the later candidate of each pair whose earlier
    one was kept; the candidates are the local maxima whose float64 value
    exceeds the threshold. Quadratic in time and memory at a radius that
    spans the map."""
    from scipy.spatial import cKDTree

    from probcell.detect import local_maxima

    idx, values = local_maxima(dm)
    above = values.astype(np.float64) > cfg.threshold
    idx, values = idx[above], values[above]
    order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0], -values))
    idx, values = idx[order], values[order]
    coords = (idx.astype(np.float64) + 0.5) * np.asarray(dm.voxel_size, dtype=np.float64)
    r = cfg.min_distance_um
    pairs = cKDTree(coords).query_pairs(r * (1 + 1e-9), output_type="ndarray")
    d = coords[pairs[:, 1]] - coords[pairs[:, 0]]
    close = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2] < r * r
    pairs = pairs[close]
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    keep = np.ones(coords.shape[0], dtype=bool)
    for i, j in pairs.tolist():
        if keep[i]:
            keep[j] = False
    return coords[keep], values[keep].astype(np.float64)


def dict_grid_sample_separated(rng, n, lo, hi, min_sep, existing=None):
    """_sample_separated's draws after its packing bound, as first written:
    existing points registered in a dict of buckets min_sep wide, and each
    draw tested against the 27 buckets around it, within 200 n + 1000
    attempts. A tiny min_sep overflows the int64 keys into one bucket, which
    stays correct."""
    from probcell.errors import PackingInfeasible

    if n == 0:
        return np.zeros((0, 3))
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    grid = {}

    def key(pt):
        with np.errstate(all="ignore"):
            return tuple(np.floor(pt / min_sep).astype(np.int64).tolist())

    def clear(pt):
        kz, ky, kx = key(pt)
        for b in itertools.product((kz - 1, kz, kz + 1), (ky - 1, ky, ky + 1), (kx - 1, kx, kx + 1)):
            for q in grid.get(b, ()):
                d = q - pt
                if d @ d < min_sep * min_sep:
                    return False
        return True

    for pt in np.asarray([] if existing is None else existing, dtype=np.float64).reshape(-1, 3):
        grid.setdefault(key(pt), []).append(pt)
    placed, attempts = [], 0
    while len(placed) < n:
        if attempts >= 200 * n + 1000:
            raise PackingInfeasible(f"placed {len(placed)}/{n} points after {attempts} attempts")
        attempts += 1
        pt = lo + rng.random(3) * (hi - lo)
        if clear(pt):
            grid.setdefault(key(pt), []).append(pt)
            placed.append(pt)
    return np.asarray(placed)


def reference_select_threshold(values, gt, t_match_um, n_grid):
    """select_threshold's grid loop as first written: every point of
    np.linspace(0, 0.95 * top, n_grid) scored, the first best F1 kept."""
    from probcell.evalmetrics import score_detection
    from probcell.pipeline import proposals_by_threshold

    if len(values) == 0:
        return 0.0, 0.0
    top = float(proposals_by_threshold(values, -np.inf).dm_value.max())
    best = (0.0, -1.0)
    for t in np.linspace(0.0, 0.95 * top, n_grid):
        report = score_detection(gt, proposals_by_threshold(values, t), t_match_um)
        if report.f1 > best[1]:
            best = (float(t), report.f1)
    return best


def reference_train_mlp(X, labels, seed, epochs, hidden, lr=1e-3, betas=(0.9, 0.999), batch=32):
    """(weights, biases) of the MLP training loop written out layer by layer:
    He-normal init, a stratified 20% validation split, a forward and backward
    pass per minibatch and separate adaptive moments for weights and biases,
    keeping the epoch with the best validation accuracy."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    rng = np.random.default_rng(seed)
    sizes = [X.shape[1], *hidden, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))

    def sigmoid(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def forward(a):
        acts = [a]
        for W, b in zip(weights[:-1], biases[:-1]):
            a = np.maximum(a @ W + b, 0.0)
            acts.append(a)
        return acts, (a @ weights[-1] + biases[-1]).ravel()

    rng = np.random.default_rng(seed)
    val_idx = []
    for cls in (0, 1):
        cls_idx = np.nonzero(y == cls)[0]
        cls_idx = cls_idx[rng.permutation(cls_idx.size)]
        take = int(round(0.2 * cls_idx.size))
        if cls_idx.size >= 2:
            take = max(take, 1)
        val_idx.extend(cls_idx[:take].tolist())
    val_mask = np.zeros(y.size, dtype=bool)
    val_mask[val_idx] = True
    X_tr, y_tr = X[~val_mask], y[~val_mask]
    X_val, y_val = X[val_mask], y[val_mask]

    b1, b2 = betas
    m_w = [np.zeros_like(W) for W in weights]
    v_w = [np.zeros_like(W) for W in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    step, best_acc, best = 0, -1.0, None
    n = X_tr.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            acts, z = forward(X_tr[idx])
            delta = ((sigmoid(z) - y_tr[idx]) / idx.size)[:, None]
            grad_w, grad_b = [None] * len(weights), [None] * len(biases)
            grad_w[-1] = acts[-1].T @ delta
            grad_b[-1] = delta.sum(axis=0)
            back = delta @ weights[-1].T
            for layer in range(len(weights) - 2, -1, -1):
                back = back * (acts[layer + 1] > 0)
                grad_w[layer] = acts[layer].T @ back
                grad_b[layer] = back.sum(axis=0)
                if layer > 0:
                    back = back @ weights[layer].T
            step += 1
            corr1, corr2 = 1.0 - b1**step, 1.0 - b2**step
            for k in range(len(weights)):
                m_w[k] = b1 * m_w[k] + (1 - b1) * grad_w[k]
                v_w[k] = b2 * v_w[k] + (1 - b2) * grad_w[k] ** 2
                weights[k] -= lr * (m_w[k] / corr1) / (np.sqrt(v_w[k] / corr2) + 1e-8)
                m_b[k] = b1 * m_b[k] + (1 - b1) * grad_b[k]
                v_b[k] = b2 * v_b[k] + (1 - b2) * grad_b[k] ** 2
                biases[k] -= lr * (m_b[k] / corr1) / (np.sqrt(v_b[k] / corr2) + 1e-8)
        acc = float(np.mean((sigmoid(forward(X_val)[1]) >= 0.5) == (y_val == 1)))
        if acc > best_acc:
            best_acc = acc
            best = ([W.copy() for W in weights], [b.copy() for b in biases])
    return best
