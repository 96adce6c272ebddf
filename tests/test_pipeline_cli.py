import hashlib
import json
import math
import os
import time
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probcell import (
    CoordSet,
    KernelSpec,
    NmsConfig,
    SynthSpec,
    TilingConfig,
    Volume3D,
    detect_peaks,
    extract_features,
    generate_coords,
    load_coords,
    load_volume,
    oracle_regress,
    plan_tiling,
    render_dm,
    save_coords,
    save_model,
    save_volume,
    train_forest,
)
from probcell import cli as cli_mod
from probcell import cores
from probcell import pipeline as pipeline_mod
from probcell.cli import main
from probcell.errors import (
    EmptyStructure,
    InvalidConfig,
    ProbcellError,
    SingleClass,
    VolumeTooSmall,
)
from probcell.pipeline import (
    DEFAULT_CONFIG,
    _tiling_config,
    label_proposals,
    merge_config,
    proposals_by_threshold,
    run_pipeline,
    select_threshold,
    tiled_detect,
)
from probcell.volume import M_CONV, M_PEAK

from conftest import no_child_left
from oracles import reference_select_threshold, reference_tiled_detect


class TestTiledDetect:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        strategy=st.sampled_from([M_CONV, M_PEAK]),
        conv=st.tuples(*[st.integers(0, 3)] * 3),
        peak=st.tuples(*[st.integers(1, 3)] * 3),
        tile=st.tuples(*[st.integers(2, 9)] * 3),
        extra=st.tuples(*[st.integers(0, 14)] * 3),
        voxel=st.tuples(*[st.floats(0.1, 3.0)] * 3),
        min_distance=st.floats(0.5, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_micrometre_merge_byte_for_byte(
        self, strategy, conv, peak, tile, extra, voxel, min_distance, seed
    ):
        """Ownership decided on voxel indices keeps exactly the peaks that
        the keep boxes scaled to micrometres kept, in the same order."""
        peak = peak if strategy == M_PEAK else (0, 0, 0)
        l_in = tuple(t + 2 * (c + p) for t, c, p in zip(tile, conv, peak))
        tiling = TilingConfig(l_in, conv, peak, strategy)
        shape = tuple(t + e for t, e in zip(tile, extra))
        dm = Volume3D(np.random.default_rng(seed).random(shape, dtype=np.float32), voxel)
        nms = NmsConfig(min_distance, 0.0)
        tiled = tiled_detect(dm, tiling, nms)
        coords, dm_value = reference_tiled_detect(dm, tiling, nms)
        assert tiled.coords.tobytes() == coords.tobytes()
        assert tiled.dm_value.tobytes() == dm_value.tobytes()

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        strategy=st.sampled_from([M_CONV, M_PEAK]),
        shape=st.tuples(*[st.integers(8, 24)] * 3),
        seed=st.integers(0, 2**32 - 1),
        pick=st.integers(0, 2**32 - 1),
        step=st.sampled_from(["0.1", "float64 below", "at", "float64 above", "float32 below",
                              "float32 above"]),
    )
    def test_threshold_filters_the_threshold_zero_peaks(self, strategy, shape, seed, pick, step):
        """Under either strategy the tiled peaks at t are the tiled
        threshold-0 peaks that proposals_by_threshold keeps at t, the
        baseline's rule, with t on the float32 rounding boundaries of 0.1
        and of a peak's value."""
        tiling = (TilingConfig.m_peak((12, 12, 12), (2, 2, 2), (2, 2, 2)) if strategy == M_PEAK
                  else TilingConfig.m_conv((12, 12, 12), (2, 2, 2)))
        data = np.random.default_rng(seed).random(shape, dtype=np.float32)
        dm = Volume3D(data, (1.0, 0.7, 1.3))
        base = tiled_detect(dm, tiling, NmsConfig(2.0, 0.0))
        value = np.float32(base.dm_value[pick % len(base)] if len(base) else 0.1)
        t = float({
            "0.1": 0.1, "at": float(value),
            "float64 below": np.nextafter(float(value), 0.0),
            "float64 above": np.nextafter(float(value), np.inf),
            "float32 below": np.nextafter(value, np.float32(0.0)),
            "float32 above": np.nextafter(value, np.float32(np.inf)),
        }[step])
        tiled = tiled_detect(dm, tiling, NmsConfig(2.0, t))
        filtered = proposals_by_threshold(base, t)
        assert tiled.coords.tobytes() == filtered.coords.tobytes()
        assert tiled.dm_value.tobytes() == filtered.dm_value.tobytes()

    def test_offsets_cancel_when_the_input_window_overhangs(self):
        # the input window starts l_pad before the map, yet peaks need no
        # shift: every box is in the map's own frame
        cfg = TilingConfig.m_peak((16, 16, 16), (2, 2, 2), (2, 2, 2))
        (patch,) = plan_tiling(cfg.l_out_tile, cfg).patches
        assert patch.in_box[0] == (-4, -4, -4) and patch.out_box[0] == (0, 0, 0)
        vs = (1.5, 1.0, 0.5)
        cell = (np.asarray([[4, 3, 2]]) + 0.5) * vs
        dm = render_dm(CoordSet(cell), cfg.l_out_tile, vs, KernelSpec(2.0))
        assert np.array_equal(tiled_detect(dm, cfg, NmsConfig(4.0, 0.0)).coords, cell)

    def test_m_peak_one_patch_owns_a_margin_peak(self):
        cfg = TilingConfig.m_peak((16, 16, 16), (2, 2, 2), (2, 2, 2))
        shape = (8, 8, 16)
        patches = plan_tiling(shape, cfg).patches
        assert len(patches) == 2
        cell = np.asarray([[4.5, 4.5, 8.5]])  # in patch 1's core, patch 0's margin
        dm = render_dm(CoordSet(cell), shape, (1, 1, 1), KernelSpec(2.0))
        nms = NmsConfig(4.0, 0.0)
        for patch in patches:  # each patch finds the peak
            box = tuple(slice(max(a, 0), b) for a, b in zip(*patch.cnn_box))
            assert len(detect_peaks(dm.like(dm.data[box]), nms)) == 1
        assert np.array_equal(tiled_detect(dm, cfg, nms).coords, cell)

    def test_m_peak_equals_untiled_with_boundary_cells(self):
        cfg = TilingConfig.m_peak((32, 32, 32), (4, 4, 4), (4, 4, 4))
        shape = (32, 32, 48)
        cells = CoordSet(np.asarray([
            [8.5, 8.5, 14.5], [8.5, 8.5, 22.5], [20.5, 20.5, 17.5],
            [16.5, 8.5, 33.5], [8.5, 24.5, 40.5],
        ]))
        dm = render_dm(cells, shape, (1, 1, 1), KernelSpec(2.0))
        nms = NmsConfig(4.0, 0.0)
        untiled = detect_peaks(dm, nms)
        tiled = tiled_detect(dm, cfg, nms)
        assert set(map(tuple, tiled.coords)) == set(map(tuple, untiled.coords))

    def test_m_peak_equals_untiled_bit_for_bit_on_anisotropic_grid(self):
        spec = SynthSpec(shape=(70, 90, 83), voxel_size=(1.5, 1.0, 0.7), n_cells=40,
                         n_distractors=10, n_tubes=0, seed=0)
        dm = oracle_regress(generate_coords(spec), spec).dm
        nms = NmsConfig(4.0, 0.0)
        tiled = tiled_detect(dm, TilingConfig.m_peak((48, 48, 48), (8, 8, 8)), nms)
        untiled = detect_peaks(dm, nms)

        def ordered(cs):
            order = np.lexsort(cs.coords.T[::-1])
            return cs.coords[order], cs.dm_value[order]

        (tc, tv), (uc, uv) = ordered(tiled), ordered(untiled)
        assert len(untiled) > 100
        assert np.array_equal(tc, uc) and np.array_equal(tv, uv)

    def test_m_conv_duplicates_near_boundaries(self):
        cfg = TilingConfig.m_conv((24, 24, 24), (4, 4, 4))
        shape = (32, 32, 48)
        cells = CoordSet(np.asarray([[8.5, 8.5, 14.5]]))  # 1.5 um from a tile edge
        dm = render_dm(cells, shape, (1, 1, 1), KernelSpec(2.0))
        tiled = tiled_detect(dm, cfg, NmsConfig(4.0, 0.0))
        assert len(tiled) > 1
        d = np.linalg.norm(tiled.coords[:, None, :] - tiled.coords[None, :, :], axis=2)
        d[np.diag_indices(len(tiled))] = np.inf
        assert d.min() < 4.0

    def test_peak_free_map_keeps_dm_value(self):
        dm = render_dm(CoordSet.empty(), (40, 40, 40), (1, 1, 1), KernelSpec(2.0))
        tiled = tiled_detect(dm, TilingConfig.m_peak((24, 24, 24), (4, 4, 4), (4, 4, 4)),
                             NmsConfig(4.0, 0.0))
        assert len(tiled) == 0
        assert tiled.dm_value.dtype == np.float64 and tiled.dm_value.shape == (0,)


class TestHelpers:
    def test_threshold_filter_equals_direct_detection(self, rng):
        from conftest import vol

        data = rng.normal(0, 1, size=(18, 18, 18)).astype(np.float32)
        v = vol(data)
        base = detect_peaks(v, NmsConfig(3.0, 0.0))
        for t in (0.1, 0.5, 1.0):
            direct = detect_peaks(v, NmsConfig(3.0, t))
            filtered = proposals_by_threshold(base, t)
            assert np.array_equal(direct.coords, filtered.coords)

    def test_label_proposals(self):
        gt = CoordSet(np.asarray([[5.0, 5.0, 5.0], [20.0, 5.0, 5.0]]))
        proposals = CoordSet(np.asarray([
            [5.0, 5.0, 6.0],    # matches gt 0
            [20.0, 5.0, 30.0],  # far from everything
        ]))
        labels = label_proposals(proposals, gt, 4.0)
        assert labels.tolist() == [1, 0]

    def test_select_threshold_picks_best_f1(self):
        gt = CoordSet(np.asarray([[5.0, 5.0, 5.0], [5.0, 5.0, 15.0]]))
        proposals = CoordSet(
            np.asarray([[5.0, 5.0, 5.0], [5.0, 5.0, 15.0], [5.0, 5.0, 25.0]]),
            dm_value=np.asarray([1.0, 0.9, 0.2]),
        )
        thr, f1 = select_threshold(proposals, gt, 4.0, n_grid=20)
        assert f1 == 1.0
        assert 0.2 < thr < 0.9

    def test_select_threshold_empty_and_missing_dm_value(self):
        gt = CoordSet(np.asarray([[5.0, 5.0, 5.0]]))
        assert select_threshold(CoordSet.empty(), gt, 4.0, n_grid=5) == (0.0, 0.0)
        empty = CoordSet(np.zeros((0, 3)), dm_value=np.zeros(0))
        assert select_threshold(empty, gt, 4.0, n_grid=5) == (0.0, 0.0)
        with pytest.raises(ValueError, match="dm_value"):
            select_threshold(CoordSet(gt.coords), gt, 4.0, n_grid=5)

    @pytest.mark.parametrize("n_grid", [0, -3, 2.5])
    def test_select_threshold_rejects_empty_grid(self, n_grid):
        """An empty grid has no threshold to pick; it raises instead of
        returning a placeholder score as if it were a result."""
        gt = CoordSet(np.asarray([[5.0, 5.0, 5.0]]))
        proposals = CoordSet(
            np.asarray([[5.0, 5.0, 5.0], [5.0, 5.0, 25.0]]), dm_value=np.asarray([1.0, 0.2])
        )
        for values in (proposals, CoordSet.empty()):
            with pytest.raises(ValueError, match="at least one"):
                select_threshold(values, gt, 4.0, n_grid=n_grid)

    @settings(max_examples=200, deadline=None)
    @given(
        n_grid=st.one_of(st.integers(1, 40), st.sampled_from([1, 2, 3, 97, 400])),
        dm=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 5e-322, 0.25, 1.0]),
                              st.floats(-2.0, 2.0)), max_size=8),
        matched=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    @example(n_grid=15, dm=[0.0] * 5, matched=[True] * 8)
    @example(n_grid=2, dm=[5e-324, 0.0], matched=[False, True] * 4)
    # a step that underflows to 0: np.linspace scales i / (n - 1) instead
    @example(n_grid=400, dm=[9e-322, 5e-322, 1e-322, 0.0], matched=[True] + [False] * 7)
    def test_select_threshold_equals_grid_loop(self, n_grid, dm, matched):
        """Scoring each kept set once at its first grid point picks what
        scoring every grid point picked, threshold sign of zero included."""
        proposals = CoordSet(
            np.asarray([[5.0, 5.0, 5.0 + 10.0 * i] for i in range(len(dm))]).reshape(-1, 3),
            dm_value=np.asarray(dm),
        )
        gt = CoordSet(np.asarray(
            [[5.0, 5.0, 5.0 + 10.0 * i] for i, hit in enumerate(matched) if hit]
            + [[40.0, 40.0, 40.0]]
        ))
        got = select_threshold(proposals, gt, 4.0, n_grid)
        want = reference_select_threshold(proposals, gt, 4.0, n_grid)
        assert (repr(got[0]), got[1]) == (repr(want[0]), want[1])

    def test_select_threshold_grid_of_2_31_points(self):
        """The work follows the 50 distinct dm_values, not the 2^31 - 1 grid
        points, of which np.linspace alone would need 17 GB."""
        rng = np.random.default_rng(3)
        coords = rng.uniform(0.0, 200.0, (50, 3))
        proposals = CoordSet(coords, dm_value=rng.uniform(0.0, 1.0, 50))
        gt = CoordSet(coords[::2] + 1.0)
        start = time.perf_counter()
        thr, f1 = select_threshold(proposals, gt, 4.0, 2**31 - 1)
        assert time.perf_counter() - start < 1.0
        assert 0.0 <= thr < 0.95 and f1 > 0.0

    @pytest.mark.parametrize("t_match", [math.nan, 0.0, math.inf])
    def test_select_threshold_checks_radius_before_empty_set(self, t_match):
        """An empty validation set returned (0.0, 0.0) before the radius
        was checked, so a NaN radius was never reported."""
        gt = CoordSet(np.asarray([[5.0, 5.0, 5.0]]))
        with pytest.raises(ValueError, match="t_match_um"):
            select_threshold(CoordSet.empty(), gt, t_match, n_grid=5)


PIPE_CFG = {
    "seed": 1,
    "test_scene": {"shape": [48, 48, 48], "n_cells": 12, "n_distractors": 5, "n_tubes": 1},
    "train_scenes": 1,
    "train_scene": {"shape": [48, 48, 48], "n_cells": 12, "n_distractors": 5},
    "classifier": {"type": "forest", "n_trees": 32},
    "spatial": {"replicates": 8, "adjacency_um": 4.0, "cdf_mode": "kde"},
    "threshold_grid": 8,
}


class TestRunPipeline:
    def test_smoke_and_report_shape(self, tmp_path):
        report = run_pipeline(PIPE_CFG, out_dir=tmp_path)
        assert report["classifier"]["test_detection"]["f1"] > 0.7
        assert 0.0 <= report["classifier"]["test_brier"] <= 1.0
        assert report["spatial"]["probabilistic"]["alpha"] == pytest.approx(2 / 9)
        assert (tmp_path / "report.json").exists()
        assert set(report["artifacts"]) == {"model.json", "proposals.csv"}

    def test_rerun_is_byte_identical(self, tmp_path):
        run_pipeline(PIPE_CFG, out_dir=tmp_path / "a")
        run_pipeline(PIPE_CFG, out_dir=tmp_path / "b")
        for name in ("report.json", "model.json", "proposals.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_mlp_classifier_path(self, tmp_path):
        cfg = dict(PIPE_CFG)
        cfg["classifier"] = {"type": "mlp", "epochs": 10}
        report = run_pipeline(cfg)
        assert report["classifier"]["type"] == "mlp"
        assert 0.0 <= report["classifier"]["test_brier"] <= 1.0

    @pytest.mark.parametrize("field", ["conv_margin", "peak_margin"])
    def test_negative_tiling_margin_raises_before_the_first_scene(self, monkeypatch, field):
        def no_scene(spec):
            raise AssertionError("a scene was generated")

        monkeypatch.setattr(pipeline_mod, "generate_coords", no_scene)
        with pytest.raises(InvalidConfig, match=field):
            run_pipeline({"tiling": {field: [-2, -2, -2]}})


# a test scene smaller than an output tile (24^3), with no tube to analyse
_TINY_TEST_SCENE = {**PIPE_CFG["test_scene"], "shape": [20, 20, 20], "n_cells": 2,
                    "n_distractors": 1, "n_tubes": 0}


class TestSceneFork:
    """run_pipeline runs the validation and test scenes in a forked child
    while it trains on the training scenes and prepares the spatial analysis."""

    @pytest.mark.parametrize("classifier", [{"type": "forest", "n_trees": 8},
                                            {"type": "mlp", "epochs": 10}])
    def test_artifacts_equal_without_fork(self, tmp_path, monkeypatch, classifier):
        cfg = dict(PIPE_CFG, classifier=classifier)
        log = tmp_path / "scenes.log"
        scene = pipeline_mod._scene

        def logged(spec, *args):
            with open(log, "a") as f:
                f.write(f"{spec.seed} {os.getpid()}\n")
            return scene(spec, *args)

        monkeypatch.setattr(pipeline_mod, "_scene", logged)
        run_pipeline(cfg, out_dir=tmp_path / "forked")
        no_child_left()
        pids = dict(line.split() for line in log.read_text().splitlines())
        here = str(os.getpid())
        assert pids.pop("1001") == here  # the training scene
        assert set(pids) == {"1", "2001"} and here not in pids.values()
        monkeypatch.delattr(os, "fork")
        run_pipeline(cfg, out_dir=tmp_path / "serial")
        for name in ("report.json", "model.json", "proposals.csv"):
            assert (tmp_path / "forked" / name).read_bytes() == (
                tmp_path / "serial" / name).read_bytes(), name

    def test_maps_die_with_their_scene(self, monkeypatch):
        # in order without os.fork: the caller's two training scenes, then the child's
        monkeypatch.delattr(os, "fork")
        refs, alive = [], []
        regress, train = pipeline_mod.oracle_regress, pipeline_mod.train_forest

        def regress_tracked(gt, spec):
            alive.append((spec.seed, [ref() is not None for ref in refs]))
            ro = regress(gt, spec)
            refs.extend(weakref.ref(v.data) for v in (ro.dm, ro.aleatoric, ro.epistemic))
            return ro

        def train_tracked(*args, **kwargs):
            alive.append(("train_forest", [ref() is not None for ref in refs]))
            return train(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "oracle_regress", regress_tracked)
        monkeypatch.setattr(pipeline_mod, "train_forest", train_tracked)
        run_pipeline(dict(PIPE_CFG, train_scenes=2))
        assert alive == [(1001, []), (1002, [False] * 3), ("train_forest", [False] * 6),
                         (2001, [False] * 6), (1, [False] * 9)]

    @pytest.mark.parametrize("fork", [True, False])
    @pytest.mark.parametrize("test_scene, train_scene, error", [
        # the test scene fails its tiling before its empty structure is met
        (_TINY_TEST_SCENE, {}, VolumeTooSmall),
        # the training scenes fail before the test scene
        (_TINY_TEST_SCENE, {"n_cells": 0}, SingleClass),
        # the test scene tiles, so the prelude's held error is raised after the join
        ({**PIPE_CFG["test_scene"], "n_tubes": 0}, {}, EmptyStructure),
    ], ids=["tiny-test-scene", "no-training-cells", "no-tube"])
    def test_errors_in_scene_order(self, monkeypatch, fork, test_scene, train_scene, error):
        if not fork:
            monkeypatch.delattr(os, "fork")
        cfg = dict(PIPE_CFG, test_scene=test_scene,
                   train_scene={**PIPE_CFG["train_scene"], **train_scene})
        with pytest.raises(error):
            run_pipeline(cfg)
        no_child_left()


_NAMES = st.sampled_from(["n_tres", "n_cell", "seed", "epochs"]) | st.text(max_size=4)


def _nest(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(_NAMES, inner, max_size=3)


_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.integers(min_value=2**1024)
    | st.floats() | st.text(max_size=4),
    _nest,
    max_leaves=6,
)


def _near(default):
    """Overrides shaped like a setting's default: often of its kind, at
    times with a misspelt key, a wrong length, a wrong type or junk."""
    if isinstance(default, dict):
        optional = {key: _near(value) for key, value in default.items()}
        optional["n_tres"] = _VALUES
        return st.fixed_dictionaries({}, optional=optional) | _VALUES
    if isinstance(default, list):
        n = len(default)
        return st.lists(_near(default[0]), min_size=n - 1, max_size=n + 1) | _VALUES
    if isinstance(default, str):
        kind = st.sampled_from(["kde", "empirical", "m_conv", "m_peak", "forest", "mlp", "svm"])
    else:
        kind = st.integers(-2, 300) | st.floats()
    return st.just(default) | kind | _VALUES


# DEFAULT_CONFIG with some of the SynthSpec fields a scene also takes and
# the MLP's epochs, as lists where run_pipeline reads JSON
_TEMPLATE = json.loads(json.dumps(DEFAULT_CONFIG))
for _scene in ("test_scene", "train_scene"):
    _TEMPLATE[_scene].update(voxel_size=[1.0, 1.0, 1.0], tube_length_um=10.0)
_TEMPLATE["classifier"]["epochs"] = 10
_OVERRIDES = _near(_TEMPLATE)


def _of_kind(value, default) -> bool:
    """value has the JSON kind of a template value: known keys, the same list
    length, an integer for an integer, a string for a string, otherwise a
    finite number or (where the default is null) null."""
    if isinstance(default, dict):
        return isinstance(value, dict) and all(
            key in default and _of_kind(item, default[key]) for key, item in value.items()
        )
    if isinstance(default, list):
        return isinstance(value, (list, tuple)) and len(value) == len(default) and all(
            _of_kind(item, d) for item, d in zip(value, default)
        )
    if isinstance(default, str):
        return isinstance(value, str)
    if isinstance(default, int):
        return type(value) is int
    return value is None or type(value) is int or (type(value) is float and math.isfinite(value))


class TestMergeConfig:
    @pytest.mark.parametrize("overrides", [
        {"classifier": {"n_tres": 8}},
        {"test_scene": {"n_cell": 5}},
        {"test_scene": {"seed": 5}},
        {"classifier": {"n_trees": 12.7}},
        {"classifier": {"type": "svm"}},
        {"spatial": {"cdf_mode": "step"}},
        {"t_match_um": float("nan")},
        {"tiling": {"l_in": [48, 48]}},
        {"nms": 4.0},
        {"seed": True},
        {"unknown": 1},
        {"classifier": {"n_trees": 0}},
        {"classifier": {"n_trees": -2}},
        {"threshold_grid": 0},
        {"train_scenes": 0},
        {"spatial": {"replicates": 1}},
        {"spatial": {"replicates": 0}},
    ])
    def test_rejects(self, overrides):
        with pytest.raises(InvalidConfig):
            merge_config(overrides)

    def test_accepts_least_values(self):
        cfg = merge_config({"classifier": {"n_trees": 1}, "threshold_grid": 1,
                            "spatial": {"replicates": 2}})
        assert cfg["classifier"]["n_trees"] == 1 and cfg["threshold_grid"] == 1
        assert cfg["spatial"]["replicates"] == 2

    def test_accepts_spec_fields_and_epochs(self):
        cfg = merge_config({
            "test_scene": {"voxel_size": [2.0, 1.0, 1.0], "tube_length_um": None},
            "train_scene": {"background_bias_sd": 1, "tube_length_um": 30.0},
            "classifier": {"type": "mlp", "epochs": 10},
        })
        assert cfg["test_scene"]["n_cells"] == DEFAULT_CONFIG["test_scene"]["n_cells"]
        assert cfg["classifier"] == {"type": "mlp", "n_trees": 128, "epochs": 10}

    @settings(max_examples=300, deadline=None)
    @given(_OVERRIDES)
    def test_random_overrides_valid_or_probcell_error(self, overrides):
        """Any override gives a ProbcellError or a config whose every value is
        of its setting's kind and from which run_pipeline's settings objects
        build without a TypeError or KeyError (a range check's ValueError is
        fine)."""
        try:
            cfg = merge_config(overrides)
        except ProbcellError:
            return
        assert _of_kind(cfg, _TEMPLATE)
        json.dumps(cfg, allow_nan=False)
        builders = [
            lambda: SynthSpec(seed=cfg["seed"], **cfg["test_scene"]),
            lambda: SynthSpec(seed=cfg["seed"] + 1000, **cfg["train_scene"]),
            lambda: _tiling_config(cfg["tiling"]),
            lambda: NmsConfig(**cfg["nms"]),
            lambda: range(cfg["train_scenes"]),
            lambda: range(cfg["spatial"]["replicates"] + cfg["threshold_grid"]),
        ]
        for build in builders:
            try:
                build()
            except ValueError:
                pass


class TestCli:
    def test_synth_detect_eval_round_trip(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        rc = main([
            "synth", "--out", str(scene), "--shape", "48", "48", "48",
            "--n-cells", "10", "--n-distractors", "0", "--n-tubes", "1", "--seed", "5",
        ])
        assert rc == 0
        files = json.loads((scene / "manifest.json").read_text())["files"]
        assert {"dm.raw", "aleatoric.raw", "epistemic.raw"} <= set(files)
        rc = main([
            "detect", "--volume", str(scene / "dm"),
            "--out", str(tmp_path / "peaks.csv"),
        ])
        assert rc == 0
        rc = main([
            "eval", "--gt", str(scene / "gt.csv"), "--pred", str(tmp_path / "peaks.csv"),
            "--out", str(tmp_path / "metrics.json"),
        ])
        assert rc == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["recall"] == 1.0

    def test_synth_manifest_lists_exactly_its_outputs(self, tmp_path):
        scene = tmp_path / "scene"
        scene.mkdir()
        (scene / "old.raw").write_bytes(b"stale")
        (scene / "notes.csv").write_text("a,b\n")
        rc = main(["synth", "--out", str(scene), "--shape", "24", "24", "24",
                   "--n-cells", "3", "--n-distractors", "0", "--n-tubes", "1"])
        assert rc == 0
        files = json.loads((scene / "manifest.json").read_text())["files"]
        assert list(files) == ["aleatoric.raw", "dm.raw", "epistemic.raw", "gt.csv",
                               "structure.raw", "tissue.raw"]
        for name, digest in files.items():
            assert digest == hashlib.sha256((scene / name).read_bytes()).hexdigest()

    def test_synth_manifest_is_the_same_forked_or_not(self, tmp_path, monkeypatch):
        """Above the size rule the surrogate's threads run and a worker hashes
        while the caller writes; below it all runs in order. Neither forks."""
        digests = []
        for least in (0, 1 << 62):
            monkeypatch.setattr(cores, "SPLIT_MIN_BYTES", least)
            scene = tmp_path / str(least)
            with mock.patch.object(os, "fork", wraps=os.fork) as fork:
                assert main(["synth", "--out", str(scene), "--shape", "24", "20", "16",
                             "--n-cells", "4", "--n-distractors", "2", "--n-tubes", "2",
                             "--seed", "4"]) == 0
            assert fork.call_count == 0
            no_child_left()
            digests.append(json.loads((scene / "manifest.json").read_text())["files"])
        assert digests[0] == digests[1] and len(digests[0]) == 6

    @pytest.mark.parametrize("least", [0, 1 << 62])
    @pytest.mark.parametrize("oracle_fails, want", [(True, "FloatingPointError"),
                                                    (False, "EmptyStructure")])
    def test_synth_raises_the_surrogates_error_first(self, tmp_path, monkeypatch, capsys,
                                                      least, oracle_fails, want):
        def no_structures(spec):
            raise EmptyStructure("structures")

        monkeypatch.setattr(cores, "SPLIT_MIN_BYTES", least)
        monkeypatch.setattr(cli_mod, "generate_structures", no_structures)
        noise_sd = "1e300" if oracle_fails else "0.05"
        assert main(["synth", "--out", str(tmp_path / "s"), "--shape", "24", "20", "16",
                     "--n-cells", "4", "--n-distractors", "2", "--noise-sd", noise_sd]) == 1
        no_child_left()
        assert json.loads(capsys.readouterr().err)["error"]["type"] == want

    def test_every_csv_ends_lines_with_crlf_and_loads_back(self, tmp_path):
        scene = tmp_path / "scene"
        maps = ["--dm", str(scene / "dm"), "--u-a", str(scene / "aleatoric"),
                "--u-e", str(scene / "epistemic"), "--proposals", str(tmp_path / "peaks.csv")]
        commands = [
            ["synth", "--out", str(scene), "--shape", "40", "40", "40", "--n-cells", "8",
             "--n-distractors", "4", "--n-tubes", "1", "--seed", "3"],
            ["detect", "--volume", str(scene / "dm"), "--out", str(tmp_path / "peaks.csv")],
            ["features", *maps, "--out", str(tmp_path / "features.csv")],
            ["train-classifier", *maps, "--gt", str(scene / "gt.csv"),
             "--out", str(tmp_path / "model.json")],
            ["classify", "--model", str(tmp_path / "model.json"), *maps,
             "--out", str(tmp_path / "classified.csv")],
            ["spatial", "--cells", str(tmp_path / "classified.csv"),
             "--structure", str(scene / "structure"), "--tissue", str(scene / "tissue"),
             "--replicates", "4", "--out-dir", str(tmp_path / "sp")],
        ]
        for argv in commands:
            assert main(argv) == 0

        def crlf_rows(path):
            data = path.read_bytes()
            assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n")
            header, *rows = data.decode().split("\r\n")[:-1]
            return header.split(","), [[float(v) for v in row.split(",")] for row in rows]

        for path in (scene / "gt.csv", tmp_path / "peaks.csv", tmp_path / "classified.csv"):
            crlf_rows(path)
            save_coords(load_coords(path), tmp_path / "again.csv")
            assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
        names, rows = crlf_rows(tmp_path / "features.csv")
        X = extract_features(
            [(n, load_volume(scene / f)) for n, f in
             (("dm", "dm"), ("u_a", "aleatoric"), ("u_e", "epistemic"))],
            load_coords(tmp_path / "peaks.csv"),
        )
        assert len(names) == X.shape[1] and np.array_equal(np.asarray(rows), X)
        curves = json.loads((tmp_path / "sp" / "report.json").read_text())
        curves = curves["probabilistic"]["structures"]["structure"]
        names, rows = crlf_rows(tmp_path / "sp" / "curves_structure.csv")
        assert names[:2] == ["distance_um", "cell_cdf"] and len(rows) > 0
        assert np.array_equal(np.asarray(rows)[:, 0], curves["distance_grid_um"])
        assert np.array_equal(np.asarray(rows)[:, 1], curves["cell_cdf"])

    def test_train_and_classify(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        main(["synth", "--out", str(scene), "--shape", "48", "48", "48",
              "--n-cells", "12", "--n-distractors", "6", "--seed", "2"])
        main(["detect", "--volume", str(scene / "dm"), "--out", str(tmp_path / "p.csv")])
        rc = main([
            "train-classifier", "--dm", str(scene / "dm"),
            "--u-a", str(scene / "aleatoric"), "--u-e", str(scene / "epistemic"),
            "--proposals", str(tmp_path / "p.csv"), "--gt", str(scene / "gt.csv"),
            "--out", str(tmp_path / "model.json"), "--seed", "0",
        ])
        assert rc == 0
        rc = main([
            "classify", "--model", str(tmp_path / "model.json"), "--dm", str(scene / "dm"),
            "--u-a", str(scene / "aleatoric"), "--u-e", str(scene / "epistemic"),
            "--proposals", str(tmp_path / "p.csv"), "--out", str(tmp_path / "c.csv"),
        ])
        assert rc == 0
        classified = load_coords(tmp_path / "c.csv")
        assert classified.p is not None

    def test_spatial_subcommand(self, tmp_path):
        scene = tmp_path / "scene"
        main(["synth", "--out", str(scene), "--shape", "40", "40", "40",
              "--n-cells", "10", "--n-tubes", "1", "--seed", "7"])
        cells = load_coords(scene / "gt.csv")
        save_coords(CoordSet(cells.coords, p=np.full(len(cells), 0.9)), tmp_path / "cells.csv")
        rc = main([
            "spatial", "--cells", str(tmp_path / "cells.csv"),
            "--structure", str(scene / "structure"), "--tissue", str(scene / "tissue"),
            "--replicates", "8", "--out-dir", str(tmp_path / "sp"),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "sp" / "report.json").read_text())
        assert report["probabilistic"]["alpha"] == pytest.approx(2 / 9)
        assert (tmp_path / "sp" / "curves_structure.csv").exists()

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--no-such-flag"])
        assert exc.value.code == 2

    def test_domain_error_exit_1_with_json(self, tmp_path, capsys):
        from conftest import vol

        save_volume(vol(np.full((4, 4, 4), 2.0)), tmp_path / "flat")
        save_coords(CoordSet.empty(), tmp_path / "empty.csv")
        rc = main([
            "spatial", "--cells", str(tmp_path / "empty.csv"),
            "--structure", str(tmp_path / "flat"), "--tissue", str(tmp_path / "flat"),
            "--out-dir", str(tmp_path / "sp"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert "error" in payload and payload["error"]["type"]

    def test_truncated_volume_exit_1_with_json(self, tmp_path, capsys):
        from conftest import vol

        save_volume(vol(np.ones((4, 4, 4))), tmp_path / "dm")
        raw = tmp_path / "dm.raw"
        raw.write_bytes(raw.read_bytes()[:-8])
        rc = main(["detect", "--volume", str(tmp_path / "dm"), "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "VolumeSizeMismatch"

    def test_peak_free_map_keeps_dm_value_column(self, tmp_path):
        from conftest import vol

        save_volume(vol(np.zeros((6, 6, 6))), tmp_path / "dm")
        rc = main(["detect", "--volume", str(tmp_path / "dm"), "--out", str(tmp_path / "p.csv")])
        assert rc == 0
        assert (tmp_path / "p.csv").read_text() == "z_um,y_um,x_um,dm_value\n"

    def test_nan_threshold_exit_1_with_json(self, tmp_path, capsys):
        from conftest import vol

        save_volume(vol(np.ones((4, 4, 4))), tmp_path / "dm")
        rc = main(["detect", "--volume", str(tmp_path / "dm"), "--threshold", "nan",
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ValueError"
        assert not (tmp_path / "p.csv").exists()

    def test_nan_t_match_exit_1_with_json(self, tmp_path, capsys):
        save_coords(CoordSet(np.arange(15.0).reshape(5, 3)), tmp_path / "gt.csv")
        rc = main(["eval", "--gt", str(tmp_path / "gt.csv"), "--pred", str(tmp_path / "gt.csv"),
                   "--t-match-um", "nan", "--out", str(tmp_path / "eval.json")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ValueError"
        assert not (tmp_path / "eval.json").exists()

    def test_empty_coordinate_file_exit_1_with_json(self, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "header_only.csv").write_text("z_um,y_um,x_um\n")
        rc = main(["eval", "--gt", str(tmp_path / "empty.csv"),
                   "--pred", str(tmp_path / "header_only.csv"),
                   "--out", str(tmp_path / "eval.json")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ValueError"
        assert "empty.csv" in payload["error"]["message"]
        assert not (tmp_path / "eval.json").exists()

    def test_nan_dm_value_exit_1_with_json(self, tmp_path, capsys):
        save_coords(CoordSet(np.arange(6.0).reshape(2, 3)), tmp_path / "gt.csv")
        (tmp_path / "pred.csv").write_text("z_um,y_um,x_um,dm_value\n0.0,1.0,2.0,nan\n")
        rc = main(["eval", "--gt", str(tmp_path / "gt.csv"), "--pred", str(tmp_path / "pred.csv"),
                   "--out", str(tmp_path / "eval.json")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "NonFiniteInput"
        assert not (tmp_path / "eval.json").exists()

    def test_nan_sigma_render_dm_exit_1_with_json(self, tmp_path, capsys):
        save_coords(CoordSet(np.asarray([[8.5, 8.5, 8.5]])), tmp_path / "c.csv")
        rc = main(["render-dm", "--coords", str(tmp_path / "c.csv"), "--shape", "16", "16", "16",
                   "--sigma-um", "nan", "--out", str(tmp_path / "dm")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ValueError"
        assert not (tmp_path / "dm.raw").exists()

    def test_overflowing_sigma_exit_1_with_json(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "s"), "--shape", "32", "32", "32",
                   "--n-cells", "5", "--n-tubes", "0", "--sigma-um", "1e300"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        # KernelSpec rejects a sigma whose 2 sigma^2 overflows, before any arithmetic
        assert payload["error"]["type"] == "ValueError"
        assert "sigma" in payload["error"]["message"]
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("key, value", [
        ("voxel_size_um", [float("nan"), 1.0, 1.0]),
        ("shape", [4, 4, 4.7]),
        ("voxel_size_um", [1, 1, True]),
    ])
    def test_bad_sidecar_exit_1_with_json(self, tmp_path, capsys, key, value):
        from conftest import vol

        save_volume(vol(np.zeros((4, 4, 4))), tmp_path / "dm")
        sidecar = json.loads((tmp_path / "dm.json").read_text())
        sidecar[key] = value
        (tmp_path / "dm.json").write_text(json.dumps(sidecar))
        rc = main(["detect", "--volume", str(tmp_path / "dm"), "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ValueError"

    def test_classify_non_finite_map_exit_1_with_json(self, tmp_path, capsys):
        from probcell import load_volume

        scene = tmp_path / "scene"
        main(["synth", "--out", str(scene), "--shape", "40", "40", "40",
              "--n-cells", "8", "--seed", "1"])
        main(["detect", "--volume", str(scene / "dm"), "--out", str(tmp_path / "p.csv")])
        rc = main([
            "train-classifier", "--dm", str(scene / "dm"), "--u-a", str(scene / "aleatoric"),
            "--proposals", str(tmp_path / "p.csv"), "--gt", str(scene / "gt.csv"),
            "--out", str(tmp_path / "model.json"),
        ])
        assert rc == 0
        u_a = load_volume(scene / "aleatoric")
        data = u_a.data.copy()
        data[tuple(load_coords(tmp_path / "p.csv").coords[0].astype(int))] = np.nan
        save_volume(u_a.like(data), tmp_path / "u_a_nan")
        capsys.readouterr()
        rc = main([
            "classify", "--model", str(tmp_path / "model.json"), "--dm", str(scene / "dm"),
            "--u-a", str(tmp_path / "u_a_nan"), "--proposals", str(tmp_path / "p.csv"),
            "--out", str(tmp_path / "c.csv"),
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "NonFiniteInput"
        assert not (tmp_path / "c.csv").exists()

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        cfg = {"shape": [40, 40, 40], "n_cells": 6, "n_tubes": 0, "seed": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "s"),
                   "--n-cells", "4"])
        assert rc == 0
        gt = load_coords(tmp_path / "s" / "gt.csv")
        assert len(gt) == 4  # CLI wins over the config file

    def test_render_dm_subcommand(self, tmp_path):
        save_coords(CoordSet(np.asarray([[8.5, 8.5, 8.5]])), tmp_path / "c.csv")
        rc = main([
            "render-dm", "--coords", str(tmp_path / "c.csv"), "--shape", "16", "16", "16",
            "--sigma-um", "2.0", "--out", str(tmp_path / "dm"),
        ])
        assert rc == 0
        from probcell import load_volume

        dm = load_volume(tmp_path / "dm")
        assert dm.data.max() == pytest.approx(1.0, abs=0.05)

    def test_pipeline_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "pipe.json"
        cfg_path.write_text(json.dumps(PIPE_CFG))
        rc = main(["pipeline", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 <= summary["classifier_brier"] <= 1.0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["seed"] == PIPE_CFG["seed"]
        assert "spatial" in report and "artifacts" in report

    def test_features_subcommand(self, tmp_path):
        scene = tmp_path / "scene"
        main(["synth", "--out", str(scene), "--shape", "40", "40", "40",
              "--n-cells", "8", "--seed", "1"])
        main(["detect", "--volume", str(scene / "dm"), "--out", str(tmp_path / "p.csv")])
        rc = main([
            "features", "--dm", str(scene / "dm"), "--u-a", str(scene / "aleatoric"),
            "--u-e", str(scene / "epistemic"), "--proposals", str(tmp_path / "p.csv"),
            "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 0
        header = (tmp_path / "f.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 168


def _record(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _error(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


class TestCliConfig:
    @pytest.fixture
    def dm(self, tmp_path):
        from conftest import vol

        save_volume(vol(np.zeros((6, 6, 6))), tmp_path / "dm")
        return str(tmp_path / "dm")

    def test_threshold_precedence(self, tmp_path, capsys, dm):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": 0.5}))
        out = ["--out", str(tmp_path / "p.csv")]
        assert main(["detect", "--volume", dm, *out]) == 0
        assert _record(capsys)["config"]["threshold"] == 0.0
        assert main(["detect", "--config", str(cfg), "--volume", dm, *out]) == 0
        assert _record(capsys)["config"]["threshold"] == 0.5
        assert main(["detect", "--config", str(cfg), "--volume", dm, "--threshold", "0.7",
                     *out]) == 0
        assert _record(capsys)["config"]["threshold"] == 0.7

    def test_pipeline_seed_flag_wins_over_file(self, tmp_path, capsys):
        cfg = tmp_path / "pipe.json"
        cfg.write_text(json.dumps(PIPE_CFG))
        rc = main(["pipeline", "--config", str(cfg), "--seed", "4",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert json.loads((tmp_path / "out" / "report.json").read_text())["seed"] == 4

    @pytest.mark.parametrize("content, error", [
        (None, "FileNotFoundError"),
        ("{not json", "JSONDecodeError"),
        ("[0.5]", "InvalidConfig"),
        ('{"detect_x": 1}', "InvalidConfig"),
        ('{"func": 1}', "InvalidConfig"),
        ('{"command": "synth"}', "InvalidConfig"),
        ('{"background_bias_sd": 1.0}', "InvalidConfig"),
        ('{"threshold": "abc"}', "InvalidConfig"),
    ])
    def test_bad_config_exit_1_with_json(self, tmp_path, capsys, dm, content, error):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        rc = main(["detect", "--config", str(cfg), "--volume", dm,
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        assert _error(capsys)["type"] == error
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("overrides", [
        {"classifier": {"n_tres": 8}},
        {"test_scene": {"n_cell": 5}},
        {"classifier": {"n_trees": 12.7}},
        {"classifier": {"n_trees": 0}},
        {"threshold_grid": 0},
        {"spatial": {"replicates": 1}},
        {"tiling": {"peak_margin": [-2, -2, -2]}},
    ])
    def test_pipeline_nested_config_exit_1(self, tmp_path, capsys, overrides):
        cfg = tmp_path / "pipe.json"
        cfg.write_text(json.dumps(overrides))
        rc = main(["pipeline", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert _error(capsys)["type"] == "InvalidConfig"
        assert not (tmp_path / "out").exists()

    def test_synth_takes_spec_fields_only(self, tmp_path, capsys):
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps({"shape": [24, 24, 24], "n_cells": 2, "n_distractors": 0,
                                   "n_tubes": 0, "margin_um": 4.0, "background_bias_sd": 1.0}))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        spec = json.loads((tmp_path / "s" / "manifest.json").read_text())["spec"]
        assert spec["background_bias_sd"] == 1.0 and spec["margin_um"] == 4.0
        cfg.write_text(json.dumps({"shape": [24, 24, 24], "n_cell": 2}))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 1
        assert _error(capsys)["type"] == "InvalidConfig"

    def test_classify_peak_free_map_keeps_p_column(self, tmp_path, dm):
        assert main(["detect", "--volume", dm, "--out", str(tmp_path / "p.csv")]) == 0
        rng = np.random.default_rng(0)
        model = train_forest(rng.random((20, 56)), np.array([0, 1] * 10), seed=0, n_trees=4)
        save_model(model, tmp_path / "model.json")
        rc = main(["classify", "--model", str(tmp_path / "model.json"), "--dm", dm,
                   "--proposals", str(tmp_path / "p.csv"), "--out", str(tmp_path / "c.csv")])
        assert rc == 0
        assert (tmp_path / "c.csv").read_text() == "z_um,y_um,x_um,p,dm_value\n"
