import warnings

import numpy as np
import pytest

from probcell import (
    CoordSet,
    analyze_deterministic,
    analyze_probabilistic,
    cell_distances,
    distance_transform,
    esd_pool,
    ks_2sample,
    prepare_spatial,
    save_coords,
    save_volume,
    scott_bandwidth,
    wilcoxon_signed_rank,
)
from probcell.cli import main
from probcell.errors import AllZeroDifferences, DegenerateESD, EmptyCells, EmptyStructure
from probcell.pipeline import run_pipeline
from probcell.spatial import DistanceCdf

from conftest import vol
from oracles import (
    brute_force_edt,
    ks_statistic_sweep,
    reference_analyze_deterministic,
    reference_analyze_probabilistic,
    wilcoxon_enumeration,
)


def mask(data, voxel_size=(1.0, 1.0, 1.0)):
    return vol(np.asarray(data, dtype=np.float32), voxel_size)


class TestDistanceTransform:
    def test_single_center_voxel(self):
        m = np.zeros((3, 3, 3))
        m[1, 1, 1] = 1
        edt = distance_transform(mask(m))
        assert edt.data[1, 1, 1] == 0.0
        assert edt.data[0, 0, 0] == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert edt.data[1, 1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_all_foreground_all_zero(self):
        edt = distance_transform(mask(np.ones((4, 4, 4))))
        assert not edt.data.any()

    def test_empty_structure_raises(self):
        with pytest.raises(EmptyStructure):
            distance_transform(mask(np.zeros((3, 3, 3))))

    def test_matches_brute_force(self, rng):
        for trial in range(10):
            shape = tuple(int(s) for s in rng.integers(3, 17, 3))
            m = (rng.random(shape) < 0.1).astype(np.float32)
            if not m.any():
                m[0, 0, 0] = 1
            voxel = (1.0, 1.0, 1.0) if trial % 2 == 0 else (2.0, 1.0, 0.5)
            edt = distance_transform(mask(m, voxel))
            ref = brute_force_edt(m > 0, voxel)
            assert np.max(np.abs(edt.data - ref)) < 1e-6


class TestEsd:
    def test_structure_equals_tissue_degenerate(self):
        m = np.ones((3, 3, 3))
        with pytest.raises(DegenerateESD):
            esd_pool(distance_transform(mask(m)), m > 0)

    def test_slab_gives_linear_cdf(self):
        shape = (4, 4, 32)
        m = np.zeros(shape)
        m[:, :, 0] = 1.0
        tissue = np.ones(shape)
        cdf = DistanceCdf(esd_pool(distance_transform(mask(m)), tissue > 0))
        # distances over background are x = 1..31 um, uniform
        grid = np.arange(1, 32, dtype=float)
        values = cdf.evaluate(grid, mode="empirical")
        assert np.allclose(values, grid / 31.0)

    def test_pool_counts_volume_fraction(self):
        shape = (8, 8, 8)
        m = np.zeros(shape)
        m[4, 4, 4] = 1.0
        tissue = np.ones(shape)
        pool = esd_pool(distance_transform(mask(m)), tissue > 0)
        assert pool.size == 8**3 - 1
        target = 3.0
        direct = (brute_force_edt(m > 0, (1, 1, 1)) < target) & (m == 0)
        assert np.mean(pool < target) == pytest.approx(direct.sum() / pool.size)


class TestCellDistances:
    def test_cells_on_foreground_centers_step_at_zero(self):
        m = np.zeros((6, 6, 6))
        m[2, 3, 4] = 1.0
        m[1, 1, 1] = 1.0
        edt = distance_transform(mask(m))
        cells = CoordSet(np.array([[2.5, 3.5, 4.5], [1.5, 1.5, 1.5]]))
        cdf = DistanceCdf(cell_distances(cells, edt))
        assert np.array_equal(cdf.samples, [0.0, 0.0])
        assert cdf.evaluate(np.array([0.0]))[0] == 1.0

    def test_known_offset_from_slab(self):
        shape = (4, 4, 16)
        m = np.zeros(shape)
        m[:, :, 0] = 1.0
        edt = distance_transform(mask(m))
        # 5 voxel steps from the slab, then between the centers at EDT 4 and 5
        cells = CoordSet(np.array([[2.0, 2.0, 5.5], [2.0, 2.0, 5.1]]))
        d = cell_distances(cells, edt)
        assert d == pytest.approx([5.0, 4.6])

    def test_empty_cells_raise(self):
        m = np.zeros((3, 3, 3))
        m[0, 0, 0] = 1
        edt = distance_transform(mask(m))
        with pytest.raises(EmptyCells):
            cell_distances(CoordSet.empty(), edt)

    def test_uniform_cells_match_esd(self, rng):
        shape = (24, 24, 24)
        m = np.zeros(shape)
        m[10:14, 10:14, :] = 1.0
        tissue = np.ones(shape)
        edt = distance_transform(mask(m))
        pool = esd_pool(edt, tissue > 0)
        bg = np.argwhere((m == 0))
        take = bg[rng.integers(0, len(bg), size=400)]
        cells = CoordSet((take + 0.5).astype(float))
        dists = cell_distances(cells, edt)
        stat, p = ks_2sample(dists, pool)
        assert p > 0.01


def _scene(rng, shape=(32, 32, 32), n_cells=30, p=None):
    m = np.zeros(shape)
    m[:, 14:18, 14:18] = 1.0  # axis-aligned square tube
    tissue = np.ones(shape)
    cells = []
    while len(cells) < n_cells:
        c = rng.random(3) * (np.asarray(shape) - 1) + 0.5
        cells.append(c)
    coords = CoordSet(np.asarray(cells), p=p)
    return mask(m), mask(tissue), coords


class TestDeterministicAnalysis:
    def test_density_unit_conversion(self):
        tissue = mask(np.ones((100, 100, 100)))  # 1e6 um^3 = 1e-3 mm^3
        structure = np.zeros((100, 100, 100))
        structure[0, 0, 0] = 1
        cells = CoordSet(
            np.asarray([[50.0 + 8 * k, 50.0, 50.0] for k in range(-5, 5)]),
            p=np.ones(10),
        )
        report = analyze_deterministic(cells, prepare_spatial({"s": mask(structure)}, tissue))
        assert report.density_cells_per_mm3 == pytest.approx(1e4)

    def test_no_cells_near_structure_zero_adjacency(self):
        shape = (24, 24, 24)
        structure = np.zeros(shape)
        structure[:, 0, 0] = 1
        cells = CoordSet(np.array([[12.5, 20.5, 20.5]]), p=np.array([1.0]))
        report = analyze_deterministic(
            cells, prepare_spatial({"s": mask(structure)}, mask(np.ones(shape)))
        )
        assert report.structures["s"].pct_cells_adjacent == 0.0

    def test_all_below_half_flags_empty(self, rng):
        structure, tissue, cells = _scene(rng, p=np.full(30, 0.49))
        report = analyze_deterministic(cells, prepare_spatial({"s": structure}, tissue))
        assert report.density_cells_per_mm3 == 0.0
        assert "EmptyCells" in report.flags


class TestProbabilisticAnalysis:
    def test_alpha_and_replicates(self, rng):
        structure, tissue, cells = _scene(rng, p=np.full(30, 0.8))
        report = analyze_probabilistic(
            cells, prepare_spatial({"s": structure}, tissue), replicates=50, seed=1
        )
        assert report.replicates == 50
        assert report.alpha == pytest.approx(2.0 / 51.0)
        assert report.alpha == pytest.approx(0.04, abs=0.001)

    def test_certain_cells_collapse_envelopes(self, rng):
        structure, tissue, cells = _scene(rng, p=np.ones(30))
        report = analyze_probabilistic(
            cells, prepare_spatial({"s": structure}, tissue), replicates=10, seed=3
        )
        sa = report.structures["s"]
        lower, upper = sa.cell_envelope
        assert np.array_equal(lower, upper)
        assert np.array_equal(lower, sa.cell_cdf)
        assert report.density_sd == 0.0
        assert report.structures["s"].pct_cells_adjacent_sd == 0.0

    def test_half_probability_counts_binomial(self, rng):
        n = 60
        structure, tissue, cells = _scene(rng, n_cells=n, p=np.full(n, 0.5))
        report = analyze_probabilistic(
            cells, prepare_spatial({"s": structure}, tissue), replicates=50, seed=7
        )
        assert abs(report.n_cells - n / 2) <= 3.0 * np.sqrt(n / 4.0)

    def test_envelopes_contain_replicate_curves(self, rng):
        structure, tissue, cells = _scene(rng, p=rng.uniform(0.3, 1.0, 30))
        report = analyze_probabilistic(
            cells, prepare_spatial({"s": structure}, tissue), replicates=20, seed=5
        )
        sa = report.structures["s"]
        assert np.all(sa.cell_envelope[0] <= sa.cell_envelope[1])
        assert np.all(sa.esd_envelope[0] <= sa.esd_envelope[1])

    def test_low_confidence_near_structure_direction(self, rng):
        # near-structure proposals at p in [0.5, 0.7): full weight
        # deterministically, fractional under sampling
        shape = (32, 32, 32)
        m = np.zeros(shape)
        m[:, 14:18, 14:18] = 1.0
        structure, tissue = mask(m), mask(np.ones(shape))
        edt = distance_transform(structure)
        for seed in range(3):
            g = np.random.default_rng(seed)
            near, far = [], []
            while len(near) < 40 or len(far) < 40:
                c = g.random(3) * 31 + 0.5
                d = cell_distances(CoordSet(c.reshape(1, 3)), edt)[0]
                if d < 4.0 and len(near) < 40:
                    near.append(c)
                elif d > 6.0 and len(far) < 40:
                    far.append(c)
            coords = np.vstack([near, far])
            p = np.concatenate([g.uniform(0.5, 0.7, 40), g.uniform(0.9, 0.99, 40)])
            cells = CoordSet(coords, p=p)
            prelude = prepare_spatial({"s": structure}, tissue)
            det = analyze_deterministic(cells, prelude)
            prob = analyze_probabilistic(cells, prelude, replicates=50, seed=seed)
            assert (
                prob.structures["s"].pct_cells_adjacent
                < det.structures["s"].pct_cells_adjacent
            )

    def test_all_empty_replicates_report_null_without_warnings(self):
        shape = (16, 16, 16)
        line = np.zeros(shape)
        line[:, 8, 8] = 1.0
        cells = CoordSet(
            np.array([[4.5, 4.5, 4.5], [8.5, 3.5, 12.5], [12.5, 12.5, 2.5]]),
            p=np.full(3, 0.05),
        )
        prelude = prepare_spatial({"line": mask(line)}, mask(np.ones(shape)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = analyze_probabilistic(cells, prelude, replicates=12, seed=1).to_dict()
        line_report = report["structures"]["line"]
        for key in ("pct_cells_adjacent", "pct_cells_adjacent_sd",
                    "pct_volume_adjacent", "pct_volume_adjacent_sd"):
            assert line_report[key] is None
        for kind in ("EmptyReplicate", "EmptyESDReplicate"):
            assert sum(f.startswith(kind + ":line:") for f in report["flags"]) == 12


def _oracle_case(case):
    """Cells, structures, tissue and keyword arguments for one oracle case."""
    rng = np.random.default_rng(40)
    voxel = (2.0, 1.0, 0.5) if case == "anisotropic" else (1.0, 1.0, 1.0)
    shape = (20, 18, 26)
    tube = np.zeros(shape)
    tube[:, 7:10, 11:14] = 1.0
    slab = np.zeros(shape)
    slab[4:6, :, 19:21] = 1.0
    tissue = np.zeros(shape)
    tissue[1:-1, 2:, :] = 1.0
    structures = {"tube": mask(tube, voxel)}
    if case == "two_structures":
        structures["slab"] = mask(slab, voxel)
    n = 3 if case == "empty_replicates" else 40
    extent = np.asarray(shape) * np.asarray(voxel)
    coords = rng.random((n, 3)) * extent * 0.98
    if case == "empty_kept":
        p = rng.uniform(0.05, 0.49, n)
    elif case == "empty_replicates":
        p = np.full(n, 0.25)
    else:
        p = rng.uniform(0.2, 1.0, n)
    kwargs = {"cdf_mode": "empirical"} if case == "empirical" else {}
    return CoordSet(coords, p=p), structures, mask(tissue, voxel), kwargs


class TestPreparedPrelude:
    CASES = [
        "two_structures", "anisotropic", "empty_kept", "empirical", "empty_replicates",
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_per_call_reference(self, case):
        cells, structures, tissue, kwargs = _oracle_case(case)
        prelude = prepare_spatial(structures, tissue)
        assert analyze_deterministic(cells, prelude, **kwargs).to_dict() == (
            reference_analyze_deterministic(cells, structures, tissue, **kwargs).to_dict()
        )
        prob = analyze_probabilistic(cells, prelude, replicates=12, seed=9, **kwargs)
        ref = reference_analyze_probabilistic(
            cells, structures, tissue, replicates=12, seed=9, **kwargs
        )
        assert prob.to_dict() == ref.to_dict()
        if case == "empty_kept":
            assert "EmptyCells" in analyze_deterministic(cells, prelude).flags
        if case == "empty_replicates":
            assert any(f.startswith("EmptyReplicate:") for f in ref.flags)

    def test_one_edt_per_structure(self, monkeypatch, tmp_path):
        import probcell.spatial as spatial

        calls = []
        real = spatial.distance_transform

        def counting(structure):
            calls.append(structure.shape)
            return real(structure)

        monkeypatch.setattr(spatial, "distance_transform", counting)
        cells, structures, tissue, _ = _oracle_case("two_structures")
        prepare_spatial(structures, tissue)
        assert len(calls) == 2

        calls.clear()
        run_pipeline({
            "seed": 2,
            "test_scene": {"shape": [40, 40, 40], "n_cells": 8, "n_distractors": 3, "n_tubes": 1},
            "train_scenes": 1,
            "train_scene": {"shape": [40, 40, 40], "n_cells": 8, "n_distractors": 3},
            "classifier": {"type": "forest", "n_trees": 8},
            "spatial": {"replicates": 4, "adjacency_um": 4.0, "cdf_mode": "kde"},
            "threshold_grid": 4,
        })
        assert len(calls) == 1

        calls.clear()
        save_coords(cells, tmp_path / "cells.csv")
        save_volume(structures["tube"], tmp_path / "structure")
        save_volume(tissue, tmp_path / "tissue")
        rc = main([
            "spatial", "--mode", "both", "--cells", str(tmp_path / "cells.csv"),
            "--structure", str(tmp_path / "structure"), "--tissue", str(tmp_path / "tissue"),
            "--replicates", "4", "--out-dir", str(tmp_path / "sp"),
        ])
        assert rc == 0
        assert len(calls) == 1


class TestKdeCdf:
    def test_scott_bandwidth_formula(self, rng):
        x = rng.normal(size=200)
        assert scott_bandwidth(x) == pytest.approx(np.std(x, ddof=1) * 200 ** (-0.2))
        assert scott_bandwidth(np.array([1.0])) == 0.0

    def test_kde_cdf_is_smooth_and_bounded(self, rng):
        samples = rng.uniform(0, 10, 100)
        grid = np.linspace(-2, 14, 257)
        values = DistanceCdf(samples).evaluate(grid, mode="kde")
        assert np.all(np.diff(values) >= 0)
        assert values[0] >= 0 and values[-1] <= 1
        assert values[-1] > 0.99

    def test_degenerate_sample_falls_back_to_step(self):
        values = DistanceCdf(np.array([2.0, 2.0])).evaluate(np.array([1.0, 2.0, 3.0]), mode="kde")
        assert np.array_equal(values, [0.0, 1.0, 1.0])


class TestKs2Sample:
    def test_identical_samples_zero(self, rng):
        a = rng.random(40)
        stat, p = ks_2sample(a, a.copy())
        assert stat == 0.0
        assert p == 1.0

    def test_disjoint_supports_one(self, rng):
        stat, _ = ks_2sample(rng.random(30), rng.random(25) + 2.0)
        assert stat == 1.0

    def test_statistic_matches_sweep_oracle(self, rng):
        for _ in range(50):
            a = rng.normal(size=int(rng.integers(2, 30)))
            b = rng.normal(size=int(rng.integers(2, 30)))
            stat, _ = ks_2sample(a, b)
            assert stat == pytest.approx(ks_statistic_sweep(a, b), abs=1e-12)

    def test_p_value_direction(self, rng):
        same_a = rng.normal(size=300)
        same_b = rng.normal(size=300)
        shifted = rng.normal(size=300) + 1.5
        _, p_same = ks_2sample(same_a, same_b)
        _, p_diff = ks_2sample(same_a, shifted)
        assert p_diff < 1e-6 < p_same


class TestWilcoxon:
    def test_antisymmetric_diffs_p_one(self):
        w, p = wilcoxon_signed_rank([-1.0, 1.0, -2.0, 2.0])
        assert p == 1.0

    def test_all_positive_n6(self):
        w, p = wilcoxon_signed_rank([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        assert w == 21.0
        assert p == pytest.approx(1.0 / 32.0)

    def test_zeros_dropped(self):
        w1, p1 = wilcoxon_signed_rank([0.0, 0.5, 1.0, -0.3])
        w2, p2 = wilcoxon_signed_rank([0.5, 1.0, -0.3])
        assert (w1, p1) == (w2, p2)

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroDifferences):
            wilcoxon_signed_rank([0.0, 0.0])

    def test_exact_matches_enumeration(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            d = np.round(rng.normal(size=n), 2)
            d[d == 0] = 0.11
            if rng.random() < 0.3:  # force tied magnitudes
                d[0] = -d[1] if n >= 2 else d[0]
            w_got, p_got = wilcoxon_signed_rank(d)
            w_want, p_want = wilcoxon_enumeration(d)
            assert w_got == pytest.approx(w_want)
            assert p_got == pytest.approx(p_want, abs=1e-12)

    def test_large_n_normal_approximation(self, rng):
        d = rng.normal(0.0, 1.0, size=40)
        d[d == 0] = 0.5
        _, p = wilcoxon_signed_rank(d)
        assert 0.0 < p <= 1.0
        shifted = np.abs(rng.normal(2.0, 0.2, size=40))
        _, p_shift = wilcoxon_signed_rank(shifted)
        assert p_shift < 1e-6
