"""Optimal matching of predictions to ground truth and the derived metrics.

Matching minimizes the total Euclidean distance over one-to-one pairs
(linear sum assignment on the full rectangular distance matrix, no distance
gating) and is thresholded afterwards: pairs within t_match are true
positives, pairs beyond it count one false positive and one false negative,
and unmatched coordinates count per side. The distances and the solver are
numpy ports of scipy's ``cdist`` and ``linear_sum_assignment`` with the same
results bit for bit, ties included, so importing the package loads neither
scipy.spatial nor scipy.optimize (23 MB resident).

Calibration scores (Brier, NLL) run over the union of scored terms:
matched ground truth contributes (1, p of its prediction), ground truth
without a usable match contributes (1, 0), and surplus predictions
contribute (0, p). Deterministic detectors are scored with p = 1.
Probabilities are clipped to [NLL_EPS, 1 - NLL_EPS] for the NLL so
deterministic mistakes stay finite.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .coords import CoordSet
from .errors import check_real

NLL_EPS = 1e-7
DEFAULT_T_MATCH_UM = 4.0
DIST_BLOCK = 1 << 16  # pairs per block of distance rows: a 512 KiB temporary


@dataclass
class MatchReport:
    t_match_um: float
    pairs: list[tuple[int, int, float]]
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    brier: float
    nll: float
    zero_prediction_precision: bool = False

    def to_dict(self) -> dict:
        """Every field but the pairs, with the ground-truth and prediction counts."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "pairs"}
        return dict(out, n_gt=self.tp + self.fn, n_pred=self.tp + self.fp)


def linear_sum_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a minimum-cost one-to-one assignment, as
    ``scipy.optimize.linear_sum_assignment`` returns them, ties included.

    A port of scipy's ``rectangular_lsap``, Crouse's shortest augmenting
    path (IEEE TAES 52(4):1679-1696, 2016): a tall matrix is solved as its
    transpose; each row's search takes columns from ``remaining``, filled in
    reverse and emptied by swapping the taken column with the last one; among
    equal lowest path costs it takes the last unassigned column in that
    order, else the first; path costs are ``((min_val + c) - u[i]) - v[j]``.
    The search runs over whole rows, a taken column's cost forced to inf.
    """
    cost = np.asarray(cost, dtype=np.float64)
    transpose = cost.shape[1] < cost.shape[0]
    cost = cost.T if transpose else cost
    nr, nc = cost.shape
    if not cost.min(initial=np.inf) > -np.inf:  # NaN propagates through min
        raise ValueError("matrix contains invalid numeric entries")
    u, v = np.zeros(nr), np.zeros(nc)
    col4row, row4col = np.full(nr, -1, np.intp), np.full(nc, -1, np.intp)
    path = np.full(nc, -1, np.intp)
    start = np.arange(nc)[::-1]  # remaining's start, and each column's position in it
    remaining, pos = start.copy(), start.copy()
    short, r, better = np.empty(nc), np.empty(nc), np.empty(nc, bool)
    for cur in range(nr):
        short.fill(np.inf)
        vw = v.copy()  # -inf once a column is taken, so its path cost is inf
        remaining[:], pos[:] = start, start
        i, min_val, n_left = cur, 0.0, nc
        taken, taken_short = [], []
        while True:
            np.add(cost[i], min_val, out=r)
            np.subtract(r, u[i], out=r)
            np.subtract(r, vw, out=r)
            np.less(r, short, out=better)
            np.copyto(short, r, where=better)
            np.copyto(path, i, where=better)
            min_val = short.min()
            if min_val == np.inf:
                raise ValueError("cost matrix is infeasible")
            ties = np.flatnonzero(short == min_val)
            if len(ties) > 1:  # the last free column in remaining's order, else the first
                ties = ties[[np.argmax(np.where(row4col[ties] < 0, nc + pos[ties], -pos[ties]))]]
            j = ties[0]
            n_left -= 1  # remaining[pos[j]] = remaining[n_left]
            last = remaining[n_left]
            remaining[pos[j]], pos[last] = last, pos[j]
            taken.append(j)
            taken_short.append(short[j])
            short[j], vw[j] = np.inf, -np.inf
            if row4col[j] < 0:
                break
            i = row4col[j]
        taken, gain = np.asarray(taken), min_val - np.asarray(taken_short)
        u[cur] += min_val
        u[row4col[taken[:-1]]] += gain[:-1]
        v[taken] -= gain
        i, j = -1, taken[-1]
        while i != cur:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    if transpose:
        return np.sort(col4row), np.argsort(col4row)
    return np.arange(nr), col4row


def pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances of each row of a to each row of b, equal bit for
    bit to ``scipy.spatial.distance.cdist``: sqrt((dz*dz + dy*dy) + dx*dx),
    inf where the square overflows. Built a block of rows at a time, so the
    temporaries stay small beside the n x m result."""
    out = np.empty((len(a), len(b)))
    step = max(1, DIST_BLOCK // max(len(b), 1))
    with np.errstate(over="ignore"):
        for s in range(0, len(a), step):
            block = out[s:s + step]
            d = np.subtract(a[s:s + step, None, 0], b[:, 0])
            np.multiply(d, d, out=block)
            for k in (1, 2):
                np.subtract(a[s:s + step, None, k], b[:, k], out=d)
                block += np.multiply(d, d, out=d)
    return np.sqrt(out, out=out)


def hungarian_match(gt: CoordSet, pred: CoordSet) -> list[tuple[int, int, float]]:
    """One-to-one assignment of min(|gt|, |pred|) pairs minimizing summed distance.

    Returns (gt_index, pred_index, distance_um) sorted by gt index. Either
    side may be empty. A pair whose squared distance overflows float64 is inf
    apart, a far pair at every radius; the solve pairs as few of those as it can.
    """
    dist = pair_distances(gt.coords, pred.coords)
    far = np.isinf(dist)  # solved at a cost above any min(n, m) finite pairs
    dist[far] = dist.max(initial=1.0, where=~far) * (min(dist.shape) + 1)
    rows, cols = linear_sum_assignment(dist)
    dist[far] = np.inf
    pairs = [(int(r), int(c), float(dist[r, c])) for r, c in zip(rows, cols)]
    pairs.sort()
    return pairs


def score_probability_terms(targets, probs) -> tuple[float, float]:
    """Brier and NLL of binary targets under predicted probabilities.

    Normalization is by the number of scored terms; probabilities are
    clipped to [NLL_EPS, 1 - NLL_EPS] for the NLL only.
    """
    targets = np.asarray(targets, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if targets.shape != probs.shape:
        raise ValueError("targets and probs must have equal length")
    if targets.size == 0:
        return 0.0, 0.0
    brier = float(np.mean((targets - probs) ** 2))
    q = np.clip(probs, NLL_EPS, 1.0 - NLL_EPS)
    nll = float(-np.mean(targets * np.log(q) + (1.0 - targets) * np.log1p(-q)))
    return brier, nll


def score_calibration(
    gt: CoordSet, pred: CoordSet, t_match_um: float = DEFAULT_T_MATCH_UM
) -> tuple[float, float]:
    """(brier, nll) of a prediction set against ground truth, as
    ``score_detection`` reports them.

    Predictions without probabilities are treated as deterministic (p = 1).
    """
    report = score_detection(gt, pred, t_match_um)
    return report.brier, report.nll


def aggregate_reports(reports: list[MatchReport]) -> dict:
    """Mean and SD of each metric across per-sample reports."""
    if not reports:
        raise ValueError("need at least one report")
    out = {"n_samples": len(reports)}
    for key in ("precision", "recall", "f1", "brier", "nll"):
        values = np.asarray([getattr(r, key) for r in reports], dtype=np.float64)
        out[key] = {"mean": float(values.mean()), "sd": float(values.std())}
    for key in ("tp", "fp", "fn"):
        out[key] = int(sum(getattr(r, key) for r in reports))
    return out


def score_detection(
    gt: CoordSet, pred: CoordSet, t_match_um: float = DEFAULT_T_MATCH_UM
) -> MatchReport:
    """Full detection + calibration report at the given match radius."""
    check_real(t_match_um, "t_match_um")
    pairs = hungarian_match(gt, pred)
    tp_pairs = [pair for pair in pairs if pair[2] <= t_match_um]
    far_pred = [pj for _, pj, dist in pairs if dist > t_match_um]
    matched_pred = {pj for _, pj, _ in pairs}
    un_pred = [pj for pj in range(len(pred)) if pj not in matched_pred]
    n_un_gt = len(gt) - len(pairs)
    tp = len(tp_pairs)
    fp = len(far_pred) + len(un_pred)
    fn = len(far_pred) + n_un_gt
    zero_pred = (tp + fp) == 0
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 0.0 if tp == 0 else 2.0 * precision * recall / (precision + recall)
    # scored terms, in the order that fixes the means' rounding: matched
    # ground truth (1, p); a pair too far to count, a missed annotation
    # (1, 0) and a surplus prediction (0, p); unmatched ground truth (1, 0);
    # unmatched predictions (0, p)
    p_pred = pred.p if pred.p is not None else np.ones(len(pred))
    targets = [1.0] * tp + [1.0, 0.0] * len(far_pred) + [1.0] * n_un_gt + [0.0] * len(un_pred)
    probs = (
        [p_pred[pj] for _, pj, _ in tp_pairs]
        + [q for pj in far_pred for q in (0.0, p_pred[pj])]
        + [0.0] * n_un_gt
        + [p_pred[pj] for pj in un_pred]
    )
    brier, nll = score_probability_terms(targets, probs)
    return MatchReport(
        t_match_um=t_match_um,
        pairs=tp_pairs,
        tp=tp,
        fp=fp,
        fn=fn,
        precision=precision,
        recall=recall,
        f1=f1,
        brier=brier,
        nll=nll,
        zero_prediction_precision=zero_pred,
    )
