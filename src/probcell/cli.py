"""Batch command-line front-end.

Every subcommand takes ``--config FILE`` (a flat JSON object of the same
keys as the flags) with precedence CLI > file > built-in defaults. Domain
errors exit with status 1 and a machine-readable JSON payload on stderr;
usage errors exit with status 2.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline as pipeline_mod
from .bayescore import save_regressor_output
from .classifier import (
    classify_proposals,
    load_model,
    save_model,
    train_forest,
    train_mlp,
)
from .coords import load_coords, save_coords
from .densitymap import KernelSpec, render_dm
from .detect import NmsConfig, detect_peaks
from .errors import ProbcellError
from .evalmetrics import aggregate_reports, score_detection
from .features import FeatureSpec, extract_features, feature_names
from .spatial import analyze_deterministic, analyze_probabilistic, prepare_spatial
from .synth import SynthSpec, generate_coords, generate_structures, oracle_regress
from .volume import Volume3D, load_volume, save_volume


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _summary(cfg: dict, outputs: dict, extra: dict | None = None) -> int:
    """Print the run record: effective config, output hashes, extras."""
    payload = {
        "config": cfg,
        "outputs": {name: {"path": str(path), "sha256": pipeline_mod.sha256_file(path)}
                    for name, path in outputs.items()},
    }
    payload.update(extra or {})
    print(json.dumps(payload, sort_keys=True))
    return 0


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """Config precedence: CLI flag > config file entry > default."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        cfg.update(json.loads(Path(args.config).read_text()))
    for key, value in vars(args).items():
        if key in ("config", "command", "func") or value is None:
            continue
        cfg[key] = value
    return cfg


def _load_maps(cfg) -> list[tuple[str, Volume3D]]:
    maps = [("dm", load_volume(cfg["dm"]))]
    if cfg.get("u_a"):
        maps.append(("u_a", load_volume(cfg["u_a"])))
    if cfg.get("u_e"):
        maps.append(("u_e", load_volume(cfg["u_e"])))
    return maps


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    defaults = {
        "shape": [96, 96, 96],
        "voxel_size": [1.0, 1.0, 1.0],
        "n_cells": 60,
        "n_distractors": 20,
        "n_tubes": 2,
        "sigma_um": 2.0,
        "noise_sd": 0.05,
        "seed": 0,
        "out": "scene",
    }
    cfg = _merged(args, defaults)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    spec_kwargs = {k: v for k, v in cfg.items() if k not in ("out",)}
    spec_kwargs["shape"] = tuple(spec_kwargs["shape"])
    spec_kwargs["voxel_size"] = tuple(spec_kwargs["voxel_size"])
    spec = SynthSpec(**spec_kwargs)
    gt = generate_coords(spec)
    ro = oracle_regress(gt, spec)
    structure, tissue = generate_structures(spec)
    save_regressor_output(ro, out)
    save_volume(structure, out / "structure")
    save_volume(tissue, out / "tissue")
    save_coords(gt, out / "gt.csv")
    files = sorted(
        str(p.relative_to(out)) for p in out.iterdir() if p.suffix in (".raw", ".csv")
    )
    manifest = {
        "spec": {k: (list(v) if isinstance(v, tuple) else v) for k, v in spec_kwargs.items()},
        "files": {name: pipeline_mod.sha256_file(out / name) for name in files},
    }
    _write_json(out / "manifest.json", manifest)
    return _summary(manifest["spec"], {"manifest": out / "manifest.json"},
                    {"n_cells": len(gt)})


def cmd_render_dm(args) -> int:
    defaults = {
        "voxel_size": [1.0, 1.0, 1.0],
        "sigma_um": 2.0,
        "cutoff_um": 16.0,
        "compounding": "max",
        "amplitude": "unit_peak",
        "out": "dm",
    }
    cfg = _merged(args, defaults)
    coords = load_coords(cfg["coords"])
    kernel = KernelSpec(
        sigma_um=float(cfg["sigma_um"]),
        cutoff_um=float(cfg["cutoff_um"]),
        compounding=cfg["compounding"],
        amplitude=cfg["amplitude"],
    )
    dm = render_dm(coords, tuple(cfg["shape"]), tuple(cfg["voxel_size"]), kernel)
    raw_path, _ = save_volume(dm, cfg["out"])
    return _summary(cfg, {"volume": raw_path}, {"max": float(dm.data.max(initial=0.0))})


def cmd_detect(args) -> int:
    defaults = {"min_distance_um": 4.0, "threshold": 0.0, "out": "peaks.csv"}
    cfg = _merged(args, defaults)
    dm = load_volume(cfg["volume"])
    peaks = detect_peaks(
        dm, NmsConfig(float(cfg["min_distance_um"]), float(cfg["threshold"]))
    )
    save_coords(peaks, cfg["out"])
    return _summary(cfg, {"peaks": cfg["out"]}, {"n_peaks": len(peaks)})


def cmd_features(args) -> int:
    defaults = {"out": "features.csv"}
    cfg = _merged(args, defaults)
    maps = _load_maps(cfg)
    proposals = load_coords(cfg["proposals"])
    spec = FeatureSpec()
    X = extract_features(maps, proposals, spec)
    names = feature_names([name for name, _ in maps], spec)
    with open(cfg["out"], "w") as f:
        f.write(",".join(names) + "\n")
        for row in X:
            f.write(",".join(repr(float(v)) for v in row) + "\n")
    return _summary(cfg, {"features": cfg["out"]},
                    {"n_rows": int(X.shape[0]), "d": int(X.shape[1])})


def cmd_train_classifier(args) -> int:
    defaults = {"model_type": "forest", "seed": 0, "t_match_um": 4.0, "out": "model.json"}
    cfg = _merged(args, defaults)
    maps = _load_maps(cfg)
    proposals = load_coords(cfg["proposals"])
    gt = load_coords(cfg["gt"])
    X = extract_features(maps, proposals, FeatureSpec())
    labels = pipeline_mod.label_proposals(proposals, gt, float(cfg["t_match_um"]))
    if cfg["model_type"] == "forest":
        model = train_forest(X, labels, seed=int(cfg["seed"]))
    else:
        model = train_mlp(X, labels, seed=int(cfg["seed"]))
    save_model(model, cfg["out"])
    return _summary(cfg, {"model": cfg["out"]},
                    {"n_train": int(X.shape[0]), "n_positive": int(labels.sum())})


def cmd_classify(args) -> int:
    defaults = {"out": "classified.csv"}
    cfg = _merged(args, defaults)
    model = load_model(cfg["model"])
    maps = _load_maps(cfg)
    proposals = load_coords(cfg["proposals"])
    classified = classify_proposals(model, maps, proposals, FeatureSpec())
    save_coords(classified, cfg["out"])
    n_pos = int((classified.p >= 0.5).sum()) if len(classified) else 0
    return _summary(cfg, {"classified": cfg["out"]},
                    {"n_proposals": len(classified), "n_positive": n_pos})


def cmd_eval(args) -> int:
    defaults = {"t_match_um": 4.0, "out": None}
    cfg = _merged(args, defaults)
    gt_paths = cfg["gt"] if isinstance(cfg["gt"], list) else [cfg["gt"]]
    pred_paths = cfg["pred"] if isinstance(cfg["pred"], list) else [cfg["pred"]]
    if len(gt_paths) != len(pred_paths):
        raise ValueError("need one prediction file per ground-truth file")
    reports = [
        score_detection(load_coords(g), load_coords(p), float(cfg["t_match_um"]))
        for g, p in zip(gt_paths, pred_paths)
    ]
    if len(reports) == 1:
        report = reports[0].to_dict()
    else:
        report = {
            "samples": [r.to_dict() for r in reports],
            "aggregate": aggregate_reports(reports),
        }
    if cfg.get("out"):
        _write_json(Path(cfg["out"]), report)
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_spatial(args) -> int:
    defaults = {
        "mode": "both",
        "replicates": 50,
        "seed": 0,
        "adjacency_um": 4.0,
        "cdf_mode": "kde",
        "out_dir": "spatial_out",
    }
    cfg = _merged(args, defaults)
    cells = load_coords(cfg["cells"])
    prelude = prepare_spatial(
        {"structure": load_volume(cfg["structure"])}, load_volume(cfg["tissue"])
    )
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {}
    if cfg["mode"] in ("deterministic", "both"):
        report["deterministic"] = analyze_deterministic(
            cells, prelude,
            adjacency_um=float(cfg["adjacency_um"]), cdf_mode=cfg["cdf_mode"],
        ).to_dict()
    if cfg["mode"] in ("probabilistic", "both"):
        prob = analyze_probabilistic(
            cells, prelude,
            replicates=int(cfg["replicates"]), seed=int(cfg["seed"]),
            adjacency_um=float(cfg["adjacency_um"]), cdf_mode=cfg["cdf_mode"],
        )
        report["probabilistic"] = prob.to_dict()
        for name, sa in prob.structures.items():
            rows = [sa.distance_grid]
            header = ["distance_um"]
            if sa.cell_cdf is not None:
                rows.append(sa.cell_cdf)
                header.append("cell_cdf")
            if sa.cell_envelope is not None:
                rows.extend(sa.cell_envelope)
                header.extend(["cell_lower", "cell_upper"])
            rows.append(sa.esd_cdf)
            header.append("esd_cdf")
            if sa.esd_envelope is not None:
                rows.extend(sa.esd_envelope)
                header.extend(["esd_lower", "esd_upper"])
            with open(out_dir / f"curves_{name}.csv", "w") as f:
                f.write(",".join(header) + "\n")
                for vals in zip(*rows):
                    f.write(",".join(repr(float(v)) for v in vals) + "\n")
    _write_json(out_dir / "report.json", report)
    return _summary(cfg, {"report": out_dir / "report.json"})


def cmd_pipeline(args) -> int:
    overrides = {}
    if getattr(args, "config", None):
        overrides = json.loads(Path(args.config).read_text())
    if args.seed is not None:
        overrides["seed"] = args.seed
    out_dir = args.out_dir or "pipeline_out"
    report = pipeline_mod.run_pipeline(overrides, out_dir=out_dir)
    summary = {
        "out": str(Path(out_dir) / "report.json"),
        "classifier_f1": report["classifier"]["test_detection"]["f1"],
        "classifier_brier": report["classifier"]["test_brier"],
        "classifier_nll": report["classifier"]["test_nll"],
        "baseline_f1": report["threshold_baseline"]["test"]["f1"],
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probcell",
        description="Probabilistic 3D cell detection and spatial analysis on density maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, flags):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON file of flag defaults")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    add("synth", cmd_synth, {
        "--out": {},
        "--shape": {"nargs": 3, "type": int},
        "--voxel-size": {"nargs": 3, "type": float, "dest": "voxel_size"},
        "--n-cells": {"type": int, "dest": "n_cells"},
        "--n-distractors": {"type": int, "dest": "n_distractors"},
        "--n-tubes": {"type": int, "dest": "n_tubes"},
        "--sigma-um": {"type": float, "dest": "sigma_um"},
        "--noise-sd": {"type": float, "dest": "noise_sd"},
        "--seed": {"type": int},
    })
    add("render-dm", cmd_render_dm, {
        "--coords": {"required": True},
        "--shape": {"nargs": 3, "type": int, "required": True},
        "--voxel-size": {"nargs": 3, "type": float, "dest": "voxel_size"},
        "--sigma-um": {"type": float, "dest": "sigma_um"},
        "--cutoff-um": {"type": float, "dest": "cutoff_um"},
        "--compounding": {"choices": ["sum", "max"]},
        "--amplitude": {"choices": ["normalized", "unit_peak"]},
        "--out": {},
    })
    add("detect", cmd_detect, {
        "--volume": {"required": True},
        "--min-distance-um": {"type": float, "dest": "min_distance_um"},
        "--threshold": {"type": float},
        "--out": {},
    })
    add("features", cmd_features, {
        "--dm": {"required": True},
        "--u-a": {"dest": "u_a"},
        "--u-e": {"dest": "u_e"},
        "--proposals": {"required": True},
        "--out": {},
    })
    add("train-classifier", cmd_train_classifier, {
        "--dm": {"required": True},
        "--u-a": {"dest": "u_a"},
        "--u-e": {"dest": "u_e"},
        "--proposals": {"required": True},
        "--gt": {"required": True},
        "--model-type": {"choices": ["forest", "mlp"], "dest": "model_type"},
        "--t-match-um": {"type": float, "dest": "t_match_um"},
        "--seed": {"type": int},
        "--out": {},
    })
    add("classify", cmd_classify, {
        "--model": {"required": True},
        "--dm": {"required": True},
        "--u-a": {"dest": "u_a"},
        "--u-e": {"dest": "u_e"},
        "--proposals": {"required": True},
        "--out": {},
    })
    add("eval", cmd_eval, {
        "--gt": {"required": True, "nargs": "+"},
        "--pred": {"required": True, "nargs": "+"},
        "--t-match-um": {"type": float, "dest": "t_match_um"},
        "--out": {},
    })
    add("spatial", cmd_spatial, {
        "--cells": {"required": True},
        "--structure": {"required": True},
        "--tissue": {"required": True},
        "--mode": {"choices": ["deterministic", "probabilistic", "both"]},
        "--replicates": {"type": int},
        "--seed": {"type": int},
        "--adjacency-um": {"type": float, "dest": "adjacency_um"},
        "--cdf-mode": {"choices": ["kde", "empirical"], "dest": "cdf_mode"},
        "--out-dir": {"dest": "out_dir"},
    })
    add("pipeline", cmd_pipeline, {
        "--seed": {"type": int},
        "--out-dir": {"dest": "out_dir"},
    })
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProbcellError, OSError, ValueError, KeyError, TypeError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
