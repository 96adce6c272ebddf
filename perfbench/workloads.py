"""The benchmark's workloads: their inputs, the timed call, and output checks.

Every input is written out here rather than imported from the package or the
tests, so that an edit to ``DEFAULT_CONFIG`` or to the acceptance tests cannot
silently change what a workload measures. The workload seed replaces the
configured ``seed``; everything else is fixed.

Functions here run inside ``worker.py`` processes, never in ``run.py``.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import math
from pathlib import Path

# run_pipeline's built-in defaults, as they stand when this benchmark was defined.
DEFAULT96 = {
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
        "strategy": "m_peak",
    },
    "nms": {"min_distance_um": 4.0, "threshold": 0.0},
    "classifier": {"type": "forest", "n_trees": 128},
    "threshold_grid": 15,
    "spatial": {"replicates": 50, "adjacency_um": 4.0, "cdf_mode": "kde"},
}

# Acceptance criterion c12's PERF_CFG applied to the defaults above.
PERF256 = copy.deepcopy(DEFAULT96)
PERF256["seed"] = 7
PERF256["test_scene"].update(
    {"shape": [256, 256, 256], "n_cells": 500, "n_distractors": 125,
     "n_tubes": 3, "tube_radius_um": 5.0}
)
PERF256["train_scene"].update({"shape": [128, 128, 128], "n_cells": 62, "n_distractors": 30})

# cli-sparse256: a 256^3 scene with few objects and a strongly negative far
# background, so proposals stay near 90 and the volume-sized work (I/O, EDTs)
# dominates. The model is trained on 128^3 scenes with the same background.
SPARSE_BIAS_SD = 5.0
SPARSE_SCENE = dict(
    DEFAULT96["test_scene"],
    shape=[256, 256, 256], n_cells=60, n_distractors=15, n_tubes=3,
    background_bias_sd=SPARSE_BIAS_SD,
)
SPARSE_TRAIN = dict(
    DEFAULT96["train_scene"],
    shape=[128, 128, 128], n_cells=62, n_distractors=30,
    background_bias_sd=SPARSE_BIAS_SD,
)
T_MATCH_UM = 4.0
REPLICATES = 50
# Seconds after which a run kills what is still running and reports a failure;
# the benchmark's contract is that a run ends within 180 s.
DEADLINE_S = 170.0


def _voxels(shape) -> int:
    return math.prod(int(s) for s in shape)


class Pipeline:
    """``run_pipeline`` on a full config, writing its artifacts to ``out``."""

    def __init__(self, name: str, config: dict, deadline_s: float = DEADLINE_S):
        self.name = name
        self.config = config
        self.deadline_s = deadline_s
        self.voxels = _voxels(config["test_scene"]["shape"])
        self.artifacts = ("report.json", "model.json", "proposals.csv")

    def run(self, work: Path, out: Path, seed: int):
        from probcell.pipeline import run_pipeline

        return run_pipeline(dict(self.config, seed=seed), out_dir=out)

    def quality(self, work: Path, out: Path, seed: int, report) -> dict:
        cls = report["classifier"]
        return {
            "f1": cls["test_detection"]["f1"],
            "brier": cls["test_brier"],
            "nll": cls["test_nll"],
            "baseline_f1": report["threshold_baseline"]["test"]["f1"],
            "proposals": cls["n_proposals"],
        }


class CliSparse:
    """The inference route of a user with an external regressor.

    Set-up writes the scene's maps, masks and ground truth to disk and trains
    ``model.json`` on two 128^3 scenes; a third picks the stopping threshold of
    the threshold baseline, scored from the timed run's own peaks. The timed
    region is four ``cli.main`` calls: detect, classify, eval, spatial.
    """

    name = "cli-sparse256"
    voxels = _voxels(SPARSE_SCENE["shape"])
    deadline_s = DEADLINE_S
    artifacts = ("classified.csv", "spatial/report.json")

    def prepare(self, work: Path, seed: int) -> None:
        import numpy as np

        from probcell import cli
        from probcell.classifier import save_model, train_forest
        from probcell.detect import NmsConfig, detect_peaks
        from probcell.features import FeatureSpec, extract_features
        from probcell.pipeline import label_proposals, select_threshold
        from probcell.synth import SynthSpec, generate_coords, oracle_regress

        scene_cfg = work / "scene.json"
        scene_cfg.write_text(json.dumps(dict(SPARSE_SCENE, seed=seed)))
        _cli(cli, ["synth", "--config", str(scene_cfg), "--out", str(work / "scene")])

        nms = NmsConfig(DEFAULT96["nms"]["min_distance_um"], DEFAULT96["nms"]["threshold"])

        def scene(scene_seed):
            kwargs = dict(SPARSE_TRAIN, seed=scene_seed)
            for key in ("shape", "cell_amp_range", "distractor_amp_range"):
                kwargs[key] = tuple(kwargs[key])
            spec = SynthSpec(**kwargs)
            gt = generate_coords(spec)
            ro = oracle_regress(gt, spec)
            return gt, ro, detect_peaks(ro.dm, nms)

        xs, ys = [], []
        for i in range(2):
            gt, ro, proposals = scene(seed + 1000 + i)
            maps = [("dm", ro.dm), ("u_a", ro.aleatoric), ("u_e", ro.epistemic)]
            xs.append(extract_features(maps, proposals, FeatureSpec()))
            ys.append(label_proposals(proposals, gt, T_MATCH_UM))
        model = train_forest(np.concatenate(xs), np.concatenate(ys), seed=seed,
                             n_trees=DEFAULT96["classifier"]["n_trees"])
        save_model(model, work / "model.json")

        val_gt, _, val_proposals = scene(seed + 2000)
        threshold, _ = select_threshold(val_proposals, val_gt, T_MATCH_UM,
                                        DEFAULT96["threshold_grid"])
        (work / "threshold.json").write_text(json.dumps({"threshold": threshold}))

    def run(self, work: Path, out: Path, seed: int):
        from probcell import cli

        scene = work / "scene"
        out.mkdir(parents=True, exist_ok=True)
        _cli(cli, ["detect", "--volume", str(scene / "dm"), "--out", str(out / "peaks.csv")])
        _cli(cli, ["classify", "--model", str(work / "model.json"),
                   "--dm", str(scene / "dm"), "--u-a", str(scene / "aleatoric"),
                   "--u-e", str(scene / "epistemic"),
                   "--proposals", str(out / "peaks.csv"),
                   "--out", str(out / "classified.csv")])
        _cli(cli, ["eval", "--gt", str(scene / "gt.csv"),
                   "--pred", str(out / "classified.csv"), "--out", str(out / "eval.json")])
        _cli(cli, ["spatial", "--cells", str(out / "classified.csv"),
                   "--structure", str(scene / "structure"), "--tissue", str(scene / "tissue"),
                   "--replicates", str(REPLICATES), "--seed", str(seed + 3000),
                   "--out-dir", str(out / "spatial")])

    def quality(self, work: Path, out: Path, seed: int, report) -> dict:
        from probcell.coords import CoordSet, load_coords
        from probcell.evalmetrics import score_calibration, score_detection
        from probcell.pipeline import proposals_by_threshold

        gt = load_coords(work / "scene" / "gt.csv")
        classified = load_coords(out / "classified.csv")
        positives = CoordSet(classified.coords[classified.p >= 0.5])
        brier, nll = score_calibration(gt, classified, T_MATCH_UM)
        evaluated = json.loads((out / "eval.json").read_text())
        if (evaluated["brier"], evaluated["nll"]) != (brier, nll):
            raise RuntimeError("eval's brier/nll differ from score_calibration on its inputs")
        threshold = json.loads((work / "threshold.json").read_text())["threshold"]
        baseline = proposals_by_threshold(load_coords(out / "peaks.csv"), threshold)
        return {
            "f1": score_detection(gt, positives, T_MATCH_UM).f1,
            "brier": brier,
            "nll": nll,
            "baseline_f1": score_detection(gt, CoordSet(baseline.coords), T_MATCH_UM).f1,
            "proposals": len(classified),
        }


def _cli(cli, argv) -> None:
    """One CLI invocation with its stdout record swallowed; non-zero exit raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"probcell {argv[0]} exited with {code}")


def check_quality(q: dict) -> list[str]:
    """Problems with a run's quality figures; empty when all are finite and in range."""
    problems = []
    for key in ("f1", "baseline_f1", "brier"):
        if not (math.isfinite(q[key]) and 0.0 <= q[key] <= 1.0):
            problems.append(f"{key}={q[key]!r} is not in [0, 1]")
    if not (math.isfinite(q["nll"]) and q["nll"] >= 0.0):
        problems.append(f"nll={q['nll']!r} is not finite and >= 0")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        # What `probcell pipeline` runs by default: per-proposal features take
        # about 80% of run_s and every per-voxel layer stays under 10%, so a
        # per-voxel change should predict no change here.
        Pipeline("default96", DEFAULT96),
        # Paper scale (c12), every layer visible. About two minutes and 2 GB per
        # repetition, too long for the regression runs, so it is run by hand.
        Pipeline("perf256", PERF256, deadline_s=900.0),
        # The external-regressor route: volume/model I/O, untiled NMS and the
        # structure EDTs dominate; features stay under 10%.
        CliSparse(),
    )
}
