"""Batch command-line front-end.

Each subcommand's flags and their defaults are written once, in the flag
table of ``build_parser``; string choices come from ``pipeline._CHOICES``.
``--config FILE`` names a JSON object keyed by flag destinations
(``min_distance_um`` for ``--min-distance-um``); its values replace the flag
defaults and a flag on the command line still wins (CLI > file > default);
a required flag may come from the file alone.
``synth`` also takes any ``SynthSpec`` field and ``pipeline`` any
``run_pipeline`` config key. The file goes through ``run_pipeline``'s own
kind check, ``pipeline._check_setting``; ranges are checked by the objects
the values build (``SynthSpec``, ``NmsConfig``, ...). Domain errors,
arithmetic that overflows on a given value and volumes too large to
allocate exit with status 1 and a JSON payload on stderr; usage errors 2.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import pipeline as pipeline_mod
from .classifier import (
    classify_proposals,
    load_model,
    save_model,
    train_forest,
    train_mlp,
)
from .coords import load_coords, save_coords, write_csv
from .cores import side_by_side
from .densitymap import KernelSpec, render_dm
from .detect import NmsConfig, detect_peaks
from .errors import InvalidConfig, ProbcellError
from .evalmetrics import aggregate_reports, score_detection
from .features import FeatureSpec, extract_features, feature_names
from .spatial import _binary, analyze_deterministic, analyze_probabilistic, prepare_spatial
from .synth import SynthSpec, generate_coords, generate_structures, oracle_regress
from .volume import Volume3D, load_volume, raw_data, save_volume


def _summary(cfg: dict, outputs: dict, extra: dict | None = None) -> int:
    """Print the run record: effective config, output hashes, extras."""
    payload = {
        "config": cfg,
        "outputs": {name: {"path": str(path), "sha256": pipeline_mod.sha256_file(path)}
                    for name, path in outputs.items()},
    }
    payload.update(extra or {})
    print(json.dumps(payload, sort_keys=True, allow_nan=False))
    return 0


def _load_maps(cfg) -> list[tuple[str, Volume3D]]:
    return [(name, load_volume(cfg[name])) for name in ("dm", "u_a", "u_e") if cfg.get(name)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(cfg) -> int:
    out = Path(cfg.pop("out"))
    spec = SynthSpec(**cfg)
    gt = generate_coords(spec)
    ro = oracle_regress(gt, spec)
    structure, tissue = generate_structures(spec)
    volumes = {"dm": ro.dm, "aleatoric": ro.aleatoric, "epistemic": ro.epistemic,
               "structure": structure, "tissue": tissue}
    out.mkdir(parents=True, exist_ok=True)
    # the six files' bytes, each written and hashed from one buffer
    written = {f"{name}.raw": raw_data(v) for name, v in volumes.items()}
    save_coords(gt, out / "gt.csv")
    written["gt.csv"] = (out / "gt.csv").read_bytes()

    def save_volumes():
        for name, v in volumes.items():
            save_volume(v.like(written[f"{name}.raw"]), out / name)

    # a worker hashes while the caller writes
    digests, _ = side_by_side(
        lambda: {name: hashlib.sha256(buf).hexdigest() for name, buf in written.items()},
        save_volumes, 8 * ro.dm.data.size)  # the scene's float64 volume
    manifest = {"spec": cfg, "files": digests}  # written with sorted keys
    pipeline_mod.write_json(out / "manifest.json", manifest)
    return _summary(cfg, {"manifest": out / "manifest.json"}, {"n_cells": len(gt)})


def cmd_render_dm(cfg) -> int:
    coords = load_coords(cfg["coords"])
    kernel = KernelSpec(cfg["sigma_um"], cfg["cutoff_um"], cfg["compounding"], cfg["amplitude"])
    dm = render_dm(coords, cfg["shape"], cfg["voxel_size"], kernel)
    raw_path, _ = save_volume(dm, cfg["out"])
    return _summary(cfg, {"volume": raw_path}, {"max": float(dm.data.max(initial=0.0))})


def cmd_detect(cfg) -> int:
    dm = load_volume(cfg["volume"])
    peaks = detect_peaks(dm, NmsConfig(cfg["min_distance_um"], cfg["threshold"]))
    save_coords(peaks, cfg["out"])
    return _summary(cfg, {"peaks": cfg["out"]}, {"n_peaks": len(peaks)})


def cmd_features(cfg) -> int:
    maps = _load_maps(cfg)
    proposals = load_coords(cfg["proposals"])
    spec = FeatureSpec()
    X = extract_features(maps, proposals, spec)
    names = feature_names([name for name, _ in maps], spec)
    write_csv(cfg["out"], names, X)
    return _summary(cfg, {"features": cfg["out"]},
                    {"n_rows": int(X.shape[0]), "d": int(X.shape[1])})


def cmd_train_classifier(cfg) -> int:
    maps = _load_maps(cfg)
    proposals = load_coords(cfg["proposals"])
    gt = load_coords(cfg["gt"])
    X = extract_features(maps, proposals, FeatureSpec())
    labels = pipeline_mod.label_proposals(proposals, gt, cfg["t_match_um"])
    train = train_forest if cfg["model_type"] == "forest" else train_mlp
    model = train(X, labels, seed=cfg["seed"])
    save_model(model, cfg["out"])
    return _summary(cfg, {"model": cfg["out"]},
                    {"n_train": int(X.shape[0]), "n_positive": int(labels.sum())})


def cmd_classify(cfg) -> int:
    model = load_model(cfg["model"])
    maps = _load_maps(cfg)
    proposals = load_coords(cfg["proposals"])
    classified = classify_proposals(model, maps, proposals, FeatureSpec())
    save_coords(classified, cfg["out"])
    return _summary(cfg, {"classified": cfg["out"]},
                    {"n_proposals": len(classified),
                     "n_positive": int((classified.p >= 0.5).sum())})


def cmd_eval(cfg) -> int:
    if len(cfg["gt"]) != len(cfg["pred"]):
        raise ValueError("need one prediction file per ground-truth file")
    # float: the radius is written into the report
    reports = [
        score_detection(load_coords(g), load_coords(p), float(cfg["t_match_um"]))
        for g, p in zip(cfg["gt"], cfg["pred"])
    ]
    if len(reports) == 1:
        report = reports[0].to_dict()
    else:
        report = {
            "samples": [r.to_dict() for r in reports],
            "aggregate": aggregate_reports(reports),
        }
    if cfg.get("out"):
        pipeline_mod.write_json(Path(cfg["out"]), report)
    print(json.dumps(report, sort_keys=True, allow_nan=False))
    return 0


def _load_mask(path, name: str) -> Volume3D:
    """The mask at path as booleans if binary, else as read for prepare_spatial to reject."""
    v = load_volume(path)
    try:
        return _binary(v, name)
    except ValueError:
        return v


def cmd_spatial(cfg) -> int:
    cells = load_coords(cfg["cells"])
    prelude = prepare_spatial(
        {"structure": _load_mask(cfg["structure"], "structure")},
        _load_mask(cfg["tissue"], "tissue"),
    )
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {}
    settings = {"adjacency_um": cfg["adjacency_um"], "cdf_mode": cfg["cdf_mode"]}
    if cfg["mode"] in ("deterministic", "both"):
        report["deterministic"] = analyze_deterministic(cells, prelude, **settings).to_dict()
    if cfg["mode"] in ("probabilistic", "both"):
        prob = analyze_probabilistic(
            cells, prelude, replicates=cfg["replicates"], seed=cfg["seed"], **settings
        )
        report["probabilistic"] = prob.to_dict()
        for name, sa in prob.structures.items():
            cols = {"distance_um": sa.distance_grid}
            if sa.cell_cdf is not None:
                cols["cell_cdf"] = sa.cell_cdf
            if sa.cell_envelope is not None:
                cols["cell_lower"], cols["cell_upper"] = sa.cell_envelope
            cols["esd_cdf"] = sa.esd_cdf
            if sa.esd_envelope is not None:
                cols["esd_lower"], cols["esd_upper"] = sa.esd_envelope
            write_csv(out_dir / f"curves_{name}.csv", list(cols), zip(*cols.values()))
    pipeline_mod.write_json(out_dir / "report.json", report)
    return _summary(cfg, {"report": out_dir / "report.json"})


def cmd_pipeline(cfg) -> int:
    out_dir = Path(cfg.pop("out_dir"))
    report = pipeline_mod.run_pipeline(cfg, out_dir=out_dir)
    summary = {
        "out": str(out_dir / "report.json"),
        "classifier_f1": report["classifier"]["test_detection"]["f1"],
        "classifier_brier": report["classifier"]["test_brier"],
        "classifier_nll": report["classifier"]["test_nll"],
        "baseline_f1": report["threshold_baseline"]["test"]["f1"],
    }
    print(json.dumps(summary, sort_keys=True, allow_nan=False))
    return 0


# ---------------------------------------------------------------------------
# parser and config files
# ---------------------------------------------------------------------------

class _Once(argparse.Action):
    """Store a flag's values; a second use on one command line is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not self.default:  # a --config list is the default
            parser.error(f"{option_string} given twice")
        setattr(namespace, self.dest, values)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="probcell",
        description="Probabilistic 3D cell detection and spatial analysis on density maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    choices = pipeline_mod._CHOICES

    def add(name, func, flags):
        p = commands[name] = sub.add_parser(name)
        p.add_argument("--config", help="JSON file of flag defaults")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)

    maps = {"--dm": {"required": True}, "--u-a": {}, "--u-e": {},
            "--proposals": {"required": True}}
    add("synth", cmd_synth, {
        "--out": {"default": "scene"},
        "--shape": {"nargs": 3, "type": int, "default": [96, 96, 96]},
        "--voxel-size": {"nargs": 3, "type": float, "default": [1.0, 1.0, 1.0]},
        "--n-cells": {"type": int, "default": 60},
        "--n-distractors": {"type": int, "default": 20},
        "--n-tubes": {"type": int, "default": 2},
        "--sigma-um": {"type": float, "default": 2.0},
        "--noise-sd": {"type": float, "default": 0.05},
        "--seed": {"type": int, "default": 0},
    })
    add("render-dm", cmd_render_dm, {
        "--coords": {"required": True},
        "--shape": {"nargs": 3, "type": int, "required": True},
        "--voxel-size": {"nargs": 3, "type": float, "default": [1.0, 1.0, 1.0]},
        "--sigma-um": {"type": float, "default": 2.0},
        "--cutoff-um": {"type": float, "default": 16.0},
        "--compounding": {"choices": choices["compounding"], "default": "max"},
        "--amplitude": {"choices": choices["amplitude"], "default": "unit_peak"},
        "--out": {"default": "dm"},
    })
    add("detect", cmd_detect, {
        "--volume": {"required": True},
        "--min-distance-um": {"type": float, "default": 4.0},
        "--threshold": {"type": float, "default": 0.0},
        "--out": {"default": "peaks.csv"},
    })
    add("features", cmd_features, {**maps, "--out": {"default": "features.csv"}})
    add("train-classifier", cmd_train_classifier, {
        **maps,
        "--gt": {"required": True},
        "--model-type": {"choices": choices["model_type"], "default": "forest"},
        "--t-match-um": {"type": float, "default": 4.0},
        "--seed": {"type": int, "default": 0},
        "--out": {"default": "model.json"},
    })
    add("classify", cmd_classify, {
        "--model": {"required": True}, **maps, "--out": {"default": "classified.csv"},
    })
    add("eval", cmd_eval, {
        "--gt": {"required": True, "nargs": "+", "action": _Once},
        "--pred": {"required": True, "nargs": "+", "action": _Once},
        "--t-match-um": {"type": float, "default": 4.0},
        "--out": {},
    })
    add("spatial", cmd_spatial, {
        "--cells": {"required": True},
        "--structure": {"required": True},
        "--tissue": {"required": True},
        "--mode": {"choices": choices["mode"], "default": "both"},
        "--replicates": {"type": int, "default": 50},
        "--seed": {"type": int, "default": 0},
        "--adjacency-um": {"type": float, "default": 4.0},
        "--cdf-mode": {"choices": choices["cdf_mode"], "default": "kde"},
        "--out-dir": {"default": "spatial_out"},
    })
    add("pipeline", cmd_pipeline, {
        "--seed": {"type": int},
        "--out-dir": {"default": "pipeline_out"},
    })
    return parser, commands


# Settings a subcommand takes beyond its flags, with values of their kind.
_EXTRA_SETTINGS = {"synth": pipeline_mod._SCENE_FIELDS, "pipeline": pipeline_mod._SCHEMA}
_NOT_SETTINGS = ("config", "command", "func")


def _read_config(args: argparse.Namespace, command: argparse.ArgumentParser) -> dict:
    """The --config file's object, checked by pipeline._check_setting against
    a value of each flag's type and nargs (a string flag's choices are found
    by its name)."""
    try:
        file = json.loads(Path(args.config).read_text())
    except RecursionError as exc:
        raise InvalidConfig(f"config {args.config}: {exc}") from None
    given = file if isinstance(file, dict) else {}
    template = dict(_EXTRA_SETTINGS.get(args.command, {}))
    for action in command._actions[2:]:  # after --help and --config
        kind, n = (action.type or str)(), action.nargs
        if n == "+":  # as many values as the file gives
            n = len(given[action.dest]) if isinstance(given.get(action.dest), list) else 1
        template[action.dest] = kind if n is None else [kind] * n
    pipeline_mod._check_setting(file, template, "config")
    return file


def main(argv=None) -> int:
    parser, commands = build_parser()
    required = [a for command in commands.values() for a in command._actions if a.required]
    for command in commands.values():  # usage as built, required flags unbracketed
        command.usage = command.format_usage().removeprefix("usage: ").rstrip()
    for action in required:  # a --config file may give it: checked after the merge
        action.required = False
    args = parser.parse_args(argv)
    command = commands[args.command]
    try:
        if args.config:
            command.set_defaults(**_read_config(args, command))
            args = parser.parse_args(argv)  # CLI > file > default
        missing = [a for a in command._actions if a in required and getattr(args, a.dest) is None]
        if missing:
            command.error("the following arguments are required: "
                          + ", ".join("/".join(a.option_strings) for a in missing))
        cfg = {k: v for k, v in vars(args).items() if k not in _NOT_SETTINGS and v is not None}
        return args.func(cfg)
    except (ProbcellError, OSError, ValueError, KeyError, TypeError, ArithmeticError,
            MemoryError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
