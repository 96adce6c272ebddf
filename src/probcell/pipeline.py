"""End-to-end orchestration on synthetic scenes.

Chains the surrogate regressor, tiled threshold-free peak detection,
proposal classification, detection/calibration scoring, and the two spatial
analyses into one seeded, reproducible run. Also provides the
threshold-based deterministic baseline (stopping threshold selected on a
validation scene) that the probabilistic route is compared against.

Detection on a predicted map happens per tile: each patch is the part of
the regressor's output box that lies inside the map, sliced from the map
itself; its peaks are placed in the map's frame and merged according to the
tiling strategy.

A config is checked before the first scene: ``_check_setting`` (also run
on the CLI's ``--config`` files) checks each value's kind, then every
settings object is built and checks its own ranges; either error is an
``InvalidConfig``.
"""
from __future__ import annotations

import bisect
import copy
import hashlib
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .classifier import (MIN_EPOCHS, MIN_TREES, MLP_EPOCHS, predict_proba, save_model,
                         train_forest, train_mlp)
from .coords import CoordSet, save_coords
from .cores import fork_join
from .detect import NmsConfig, detect_peaks, proposals_by_threshold
from .densitymap import AMPLITUDES, COMPOUNDINGS
from .errors import InvalidConfig, ProbcellError, check_int, check_real
from .evalmetrics import score_calibration, score_detection
from .features import extract_features
from .spatial import (
    CDF_MODES,
    MIN_REPLICATES,
    _check_analysis,
    analyze_deterministic,
    analyze_probabilistic,
    prepare_spatial,
)
from .synth import SynthSpec, generate_coords, generate_structures, oracle_regress
from .volume import M_PEAK, STRATEGIES, TilingConfig, Volume3D, plan_tiling, um_to_voxel

DEFAULT_CONFIG = {
    "seed": 0,
    "t_match_um": 4.0,
    "test_scene": {
        "shape": [96, 96, 96],
        "n_cells": 60,
        "n_distractors": 20,
        "sigma_um": 2.0,
        "noise_sd": 0.05,
        "cell_amp_range": [0.75, 1.25],
        "distractor_amp_range": [0.35, 0.8],
        "n_tubes": 2,
        "tube_radius_um": 5.0,
        "margin_um": 4.0,
    },
    "train_scenes": 2,
    "train_scene": {
        "shape": [80, 80, 80],
        "n_cells": 40,
        "n_distractors": 16,
        "sigma_um": 2.0,
        "noise_sd": 0.05,
        "cell_amp_range": [0.75, 1.25],
        "distractor_amp_range": [0.35, 0.8],
        "n_tubes": 0,
        "margin_um": 4.0,
    },
    "tiling": {
        "l_in": [48, 48, 48],
        "conv_margin": [8, 8, 8],
        "peak_margin": [4, 4, 4],
        "strategy": M_PEAK,
    },
    "nms": {"min_distance_um": 4.0, "threshold": 0.0},
    "classifier": {"type": "forest", "n_trees": 128},
    "threshold_grid": 15,
    "spatial": {"replicates": 50, "adjacency_um": 4.0, "cdf_mode": "kde"},
}


# Every setting with a value of its type: DEFAULT_CONFIG, plus any SynthSpec
# field in a scene (the run sets the seed) and the MLP's epochs.
_SCENE_FIELDS = {
    f.name: f.default for f in fields(SynthSpec) if f.default is not MISSING and f.name != "seed"
}
_SCHEMA = {
    **DEFAULT_CONFIG,
    "test_scene": {**_SCENE_FIELDS, **DEFAULT_CONFIG["test_scene"]},
    "train_scene": {**_SCENE_FIELDS, **DEFAULT_CONFIG["train_scene"]},
    "classifier": {**DEFAULT_CONFIG["classifier"], "epochs": MLP_EPOCHS},
}
# The values of each string setting, here and in the CLI; a path takes any.
_CHOICES = {
    "strategy": STRATEGIES,
    "type": ("forest", "mlp"),
    "cdf_mode": CDF_MODES,
    "compounding": COMPOUNDINGS,
    "amplitude": AMPLITUDES,
    "mode": ("deterministic", "probabilistic", "both"),
}
_CHOICES["model_type"] = _CHOICES["type"]
# The least value of each integer setting that has one, checked before the first scene.
_MINIMA = {
    "config.classifier.n_trees": MIN_TREES,
    "config.classifier.epochs": MIN_EPOCHS,
    "config.threshold_grid": 1,
    "config.train_scenes": 1,
    "config.spatial.replicates": MIN_REPLICATES,
}


def _check_setting(value, template, name: str) -> None:
    """InvalidConfig unless value is of its template's kind: an object with
    known keys, a list of the same length, an integer for an integer, a
    finite number for a float (or null where the default is null), one of
    its _CHOICES for a string, and no less than its entry in _MINIMA."""
    if isinstance(template, dict):
        if not isinstance(value, dict):
            raise InvalidConfig(f"{name} must be an object, got {value!r}")
        unknown = [key for key in value if key not in template]
        if unknown:
            raise InvalidConfig(f"{name} has no setting {unknown}")
        for key, item in value.items():
            _check_setting(item, template[key], f"{name}.{key}")
        return
    if isinstance(template, (list, tuple)):
        if not isinstance(value, (list, tuple)) or len(value) != len(template):
            raise InvalidConfig(f"{name} must be {len(template)} values, got {value!r}")
        for item, item_template in zip(value, template):
            _check_setting(item, item_template, name)
        return
    if isinstance(template, str):
        choices = _CHOICES.get(name.rsplit(".", 1)[-1])
        if not isinstance(value, str) or choices is not None and value not in choices:
            raise InvalidConfig(f"{name} = {value!r} is not a string in {choices or 'any'}")
        return
    if isinstance(value, bool):
        ok = False
    elif isinstance(template, int):
        ok = isinstance(value, int)
    else:
        # the comparison is False for NaN and for integers beyond float range
        ok = (value is None and template is None) or (
            isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
        )
    if not ok:
        raise InvalidConfig(f"{name} = {value!r} does not fit its default {template!r}")
    least = _MINIMA.get(name)
    if least is not None and value < least:
        raise InvalidConfig(f"{name} = {value!r} must be at least {least}")


def merge_config(overrides: dict | None) -> dict:
    """DEFAULT_CONFIG with the overrides applied, sections merged key by key.

    An unknown key at any level, or a value of the wrong kind, raises
    InvalidConfig before anything runs.
    """
    overrides = {} if overrides is None else overrides
    _check_setting(overrides, _SCHEMA, "config")
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def _tiling_config(cfg: dict) -> TilingConfig:
    peak_margin = cfg["peak_margin"] if cfg["strategy"] == M_PEAK else (0, 0, 0)
    return TilingConfig(cfg["l_in"], cfg["conv_margin"], peak_margin, cfg["strategy"])


def tiled_detect(dm: Volume3D, tiling: TilingConfig, nms: NmsConfig) -> CoordSet:
    """Patch-wise NMS over a full-volume map, in the map's frame.

    A patch's predicted box may overhang the map. Zeros there would be no
    candidates (a candidate is > 0) and would suppress none (0 never exceeds
    a candidate), so each patch reads only the part of its box in the map.
    Under m_peak a patch keeps the peaks whose map voxel lies in its keep
    box, so each peak has one owner; under m_conv it keeps all its peaks.
    """
    vs = np.asarray(dm.voxel_size, dtype=np.float64)
    voxels, values = [], []
    for patch in plan_tiling(dm.shape, tiling).patches:
        lo = np.maximum(patch.cnn_box[0], 0)
        hi = np.minimum(patch.cnn_box[1], dm.shape)
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        peaks = detect_peaks(dm.like(dm.data[box]), nms)
        # each peak's voxel index in the map, placed as detect_peaks places it
        g = np.rint(um_to_voxel(peaks.coords, vs)) + lo
        value = peaks.dm_value
        if tiling.strategy == M_PEAK:
            own = np.all((g >= patch.keep_box[0]) & (g < patch.keep_box[1]), axis=1)
            g, value = g[own], value[own]
        voxels.append(g)
        values.append(value)
    return CoordSet((np.concatenate(voxels) + 0.5) * vs, dm_value=np.concatenate(values))


def label_proposals(proposals: CoordSet, gt: CoordSet, t_match_um: float) -> np.ndarray:
    """1 for proposals that score_detection counts as true positives, else 0."""
    labels = np.zeros(len(proposals), dtype=np.int64)
    for _, pj, _ in score_detection(gt, proposals, t_match_um).pairs:
        labels[pj] = 1
    return labels


def _scene(spec: SynthSpec, tiling: TilingConfig, nms: NmsConfig, features: bool):
    """(gt, proposals, X) of one synthetic scene, X its feature matrix if
    features else None; its maps are freed when it returns."""
    gt = generate_coords(spec)
    ro = oracle_regress(gt, spec)
    proposals = tiled_detect(ro.dm, tiling, nms)
    maps = [("dm", ro.dm), ("u_a", ro.aleatoric), ("u_e", ro.epistemic)]
    return gt, proposals, extract_features(maps, proposals) if features else None


def select_threshold(values: CoordSet, gt: CoordSet, t_match_um: float, n_grid: int):
    """Best-F1 stopping threshold on a validation scene: the first point of
    ``np.linspace(0.0, 0.95 * top, n_grid)`` at the highest F1, top the
    largest dm_value.

    Both settings are checked first; then an empty set gives (0.0, 0.0) and
    any other set needs dm_value. The proposals kept at a threshold change
    only where it passes a dm_value, so each kept set is scored once, at the
    first grid point that keeps it, found by one binary search per distinct
    dm_value: the work grows with the distinct dm_values, not with n_grid.
    """
    n_grid = check_int(n_grid, "n_grid (at least one threshold)", _MINIMA["config.threshold_grid"])
    check_real(t_match_um, "t_match_um")
    if len(values) == 0:
        return 0.0, 0.0
    dm = proposals_by_threshold(values, -np.inf).dm_value
    levels, stop, last = np.unique(dm).tolist(), 0.95 * float(dm.max()), n_grid - 1

    def point(i: int) -> float:
        # np.linspace's own arithmetic: i * step below the last point, which
        # is stop itself, and i / last * stop when step underflows to 0
        if i == last:
            return stop if last else 0.0
        step = stop / last
        return (float(i) * step if step != 0.0 else float(i) / last * stop) + 0.0

    # a kept set begins at the first point past a dm level from point 0 (the
    # points rise or fall with i)
    firsts = {bisect.bisect_left(range(n_grid), True, key=lambda i: (point(i) >= v) != (0.0 >= v))
              for v in levels}
    best = (0.0, -1.0)
    for i in sorted(({0} | firsts) - {n_grid}):
        t = point(i)
        f1 = score_detection(gt, proposals_by_threshold(values, t), t_match_um).f1
        if f1 > best[1]:
            best = (t, f1)
    return best


def run_pipeline(config: dict | None = None, out_dir=None) -> dict:
    """Run the full synthetic pipeline; returns (and optionally writes) the report.

    The scenes run in two processes (probcell.cores). Errors come in scene
    order: the training scenes' and classifier's first, then the child's,
    then the prelude's.

    When out_dir is given, writes model.json, proposals.csv, report.json and
    records content hashes of the artifacts in the report. Identical config
    and seed produce byte-identical artifacts.
    """
    cfg = merge_config(config)
    seed = cfg["seed"]
    t_match = float(cfg["t_match_um"])  # float: the radius is written into the report
    spatial_cfg = cfg["spatial"]
    try:
        train = cfg["train_scene"]
        train_specs = [SynthSpec(seed=seed + 1000 + i, **train) for i in range(cfg["train_scenes"])]
        val_spec = SynthSpec(seed=seed + 2000, **train)
        test_spec = SynthSpec(seed=seed, **cfg["test_scene"])
        tiling = _tiling_config(cfg["tiling"])
        nms = NmsConfig(**cfg["nms"])
        check_real(t_match, "t_match_um")
        _check_analysis(spatial_cfg["adjacency_um"], spatial_cfg["cdf_mode"])
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from None
    cls_cfg = cfg["classifier"]

    def scenes_apart():
        # the validation scene's threshold and the test scene, no maps
        val_gt, val_proposals, _ = _scene(val_spec, tiling, nms, False)
        threshold, val_f1 = select_threshold(val_proposals, val_gt, t_match, cfg["threshold_grid"])
        return threshold, val_f1, _scene(test_spec, tiling, nms, True)

    def scenes_here():
        # the classifier (its BLAS calls stay here) and the spatial prelude
        scenes = [_scene(spec, tiling, nms, True) for spec in train_specs]
        y_parts = [label_proposals(proposals, gt, t_match) for gt, proposals, _ in scenes]
        train_stats = [{"n_gt": len(gt), "n_proposals": len(proposals), "n_positive": int(y.sum())}
                       for (gt, proposals, _), y in zip(scenes, y_parts)]
        X_train = np.concatenate([X for _, _, X in scenes], axis=0)
        y_train = np.concatenate(y_parts)
        if cls_cfg["type"] == "forest":
            model = train_forest(X_train, y_train, seed=seed, n_trees=cls_cfg["n_trees"])
        else:
            model = train_mlp(X_train, y_train, seed=seed, epochs=cls_cfg.get("epochs", MLP_EPOCHS))
        try:
            # popped into the call: the prelude holds the masks alone and frees them
            masks = list(generate_structures(test_spec))
            prelude = prepare_spatial({"structure": masks.pop(0)}, masks.pop())
        except (ProbcellError, ValueError) as exc:  # raised after the child's, in scene order
            prelude = exc
        return train_stats, len(X_train), model, prelude

    apart, here = fork_join(scenes_apart, scenes_here)
    threshold, val_f1, (test_gt, test_proposals, X_test) = apart
    train_stats, n_train, model, prelude = here
    if isinstance(prelude, Exception):
        raise prelude
    # classify_proposals on the child's features
    classified = CoordSet(test_proposals.coords, predict_proba(model, X_test),
                          test_proposals.dm_value)

    positives = classified.select(classified.p >= 0.5)
    det_report = score_detection(test_gt, CoordSet(positives.coords), t_match)
    brier, nll = score_calibration(test_gt, classified, t_match)

    baseline_pred = proposals_by_threshold(test_proposals, threshold)
    baseline_report = score_detection(test_gt, CoordSet(baseline_pred.coords), t_match)

    settings = {"adjacency_um": spatial_cfg["adjacency_um"], "cdf_mode": spatial_cfg["cdf_mode"]}
    det_spatial = analyze_deterministic(classified, prelude, **settings)
    prob_spatial = analyze_probabilistic(
        classified, prelude, replicates=spatial_cfg["replicates"], seed=seed + 3000, **settings
    )

    report = {
        "config": cfg,
        "seed": seed,
        "train": train_stats,
        "threshold_baseline": {
            "threshold": threshold,
            "val_f1": val_f1,
            "test": baseline_report.to_dict(),
        },
        "classifier": {
            "type": cls_cfg["type"],
            "n_train": n_train,
            "test_detection": det_report.to_dict(),
            "test_brier": brier,
            "test_nll": nll,
            "n_proposals": len(classified),
        },
        "spatial": {
            "deterministic": det_spatial.to_dict(),
            "probabilistic": prob_spatial.to_dict(),
        },
    }

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_model(model, out_dir / "model.json")
        save_coords(classified, out_dir / "proposals.csv")
        report["artifacts"] = {
            name: sha256_file(out_dir / name) for name in ("model.json", "proposals.csv")
        }
        write_json(out_dir / "report.json", report)
    return report


def sha256_file(path: Path) -> str:
    """Hex SHA-256 of a file's bytes, as recorded in reports and run summaries."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_json(path: Path, payload: dict) -> None:
    """A report as indented, key-sorted, strict JSON with a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
