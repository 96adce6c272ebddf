"""probcell benchmark: one workload, closed loop, one repetition per fresh process.

    python3 perfbench/run.py --workload default96 --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
Repetitions run one at a time, each in a new interpreter with
``PROBCELL_THREADS`` unset (serial tiled detection) and BLAS/OpenMP pools
capped at the core count. At least two repetitions run, then more while fewer
than ``--seconds`` have passed since the first one started. Every repetition
of a run uses the same seed, so their artifacts must be byte-identical; that
and the range of the quality figures are checked, and any repetition that
raises, exits non-zero, times out or fails a check is counted in ``failed``.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones;
``trace.overhead_s`` is traced minus untraced ``run_s``. Human-readable lines
go first; the last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORK_ROOT = ROOT / ".perfbench_work"

MIN_REPS = 2
STARTUP_PROBES = 1

END_TO_END_UNITS = {
    "run_s": "s",
    "mvox_per_s": "Mvox/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "f1": "ratio",
    "baseline_f1": "ratio",
    "one_minus_brier": "ratio",
    "exp_neg_nll": "ratio",
}
LAYER_UNITS = dict(
    {name: "s" for name in spans.TIME_METRICS},
    **{name: "count" for name in spans.COUNTS},
    **{"features.us_per_window": "us", "detect.accept_ratio": "ratio", "trace.overhead_s": "s"},
)


class RepFailed(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("PROBCELL_THREADS", None)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cores
    env["PYTHONPATH"] = str(SRC)
    return env


def src_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in (SRC / "probcell").glob("*.py"))


def spawn(mode: str, result: Path, env: dict, deadline: float, *extra: str) -> tuple[dict, float, float]:
    """Run one worker; returns its record, its spawn reading and its wall seconds."""
    cmd = [sys.executable, str(WORKER), mode, "--result", str(result), *extra]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{mode} worker killed at the run's deadline") from None
    wall = time.monotonic() - t_spawn
    if proc.returncode != 0:
        raise RepFailed(f"{mode} worker exited with {proc.returncode}")
    record = json.loads(result.read_text())
    if not Path(record["probcell"]).is_relative_to(SRC):
        raise RepFailed(f"imported probcell from {record['probcell']}, not from {SRC}")
    return record, t_spawn, wall


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    env = pinned_env()
    deadline = time.monotonic() + workload.deadline_s
    args = ["--workload", workload.name, "--seed", str(seed), "--work", str(work)]
    attempted = failed = 0
    problems = []
    startups = []
    versions = {}

    def attempt(mode, *extra):
        nonlocal attempted, failed
        attempted += 1
        result = work / f"{mode}-{attempted}.json"
        try:
            record, t_spawn, wall = spawn(mode, result, env, deadline, *extra)
        except (RepFailed, OSError, ValueError, KeyError) as exc:
            failed += 1
            problems.append(f"{mode}: {exc}")
            return None, 0.0
        startups.append(record["ready"] - t_spawn)
        versions.update(record["versions"])
        return record, wall

    for _ in range(STARTUP_PROBES):
        attempt("probe")
    prepare_s = 0.0
    prepared = True
    if hasattr(workload, "prepare"):
        record, prepare_s = attempt("prepare", *args)
        prepared = record is not None

    reps = []
    t_start = time.monotonic()
    last = 0.0
    while prepared and (len(reps) < MIN_REPS or time.monotonic() - t_start < seconds):
        if len(reps) >= MIN_REPS and time.monotonic() + last > deadline:
            break
        traced = trace and len(reps) % 2 == 1
        out = work / f"rep{len(reps)}"
        record, last = attempt("run", *args, "--out", str(out), *(["--trace"] if traced else []))
        shutil.rmtree(out, ignore_errors=True)
        if record is None:
            reps.append(None)
            continue
        bad = workloads.check_quality(record["quality"])
        if traced:
            covered = sum(record["layers"][k] for k in spans.TIME_METRICS)
            if covered < 0.99 * record["run_s"]:
                bad.append(f"spans cover {covered:.3f} s of the traced run_s {record['run_s']:.3f} s")
        if bad:
            failed += 1
            problems.extend(bad)
            reps.append(None)
            continue
        record["traced"] = traced
        reps.append(record)

    done = [r for r in reps if r is not None]
    # same code and seed: every repetition must write the same bytes
    for r in done[1:]:
        if r["artifacts"] != done[0]["artifacts"] or r["quality"] != done[0]["quality"]:
            failed += 1
            problems.append("artifacts or quality differ between repetitions of one seed: "
                            f"{r['artifacts']} vs {done[0]['artifacts']}")

    context = dict(
        workload=workload.name, seed=seed, nproc=len(os.sched_getaffinity(0)),
        src_probcell_lines=src_lines(), repetitions=len(done), **versions,
    )
    print("context " + json.dumps(context, sort_keys=True))
    for p in problems:
        print("FAILED " + p)
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    print(f"{'error_rate':<16} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    end_to_end = {}
    if untraced:
        end_to_end = end_to_end_metrics(workload, untraced, startups, prepare_s)
    layers = layer_metrics(untraced, traced) if untraced and traced else {}
    metrics = layers if trace else end_to_end
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def end_to_end_metrics(workload, untraced, startups, prepare_s) -> dict:
    run_s = statistics.median(r["run_s"] for r in untraced)
    q = untraced[0]["quality"]
    values = {
        "run_s": run_s,
        "mvox_per_s": workload.voxels / run_s / 1e6,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "setup_s": statistics.median(startups) + prepare_s,
        "f1": q["f1"],
        "baseline_f1": q["baseline_f1"],
        "one_minus_brier": 1.0 - q["brier"],
        "exp_neg_nll": math.exp(-q["nll"]),
    }
    for k, u in END_TO_END_UNITS.items():
        print(f"{k:<16} {values[k]:.6g} {u}")
    print(f"{'brier':<16} {q['brier']:.6g} ratio")
    print(f"{'nll':<16} {q['nll']:.6g} nats")
    print(f"{'proposals':<16} {q['proposals']} count")
    print(f"{'run_s samples':<16} " + " ".join(f"{r['run_s']:.3f}" for r in untraced))
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def layer_metrics(untraced, traced) -> dict:
    run_s = statistics.median(r["run_s"] for r in untraced)
    traced_s = statistics.median(r["run_s"] for r in traced)
    values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    values["trace.overhead_s"] = traced_s - run_s

    print(f"untraced run_s {run_s:.3f} s, traced run_s {traced_s:.3f} s")
    print(f"{'layer':<12} {'self_s':>9} {'share':>7}  (self time as a share of traced run_s)")
    by_layer = {}
    for name in spans.TIME_METRICS:
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + values[name]
    for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"{layer:<12} {s:9.3f} {100.0 * s / traced_s:6.1f}%")
    total = sum(by_layer.values())
    print(f"self times sum to {total:.3f} s; minus trace.overhead_s {values['trace.overhead_s']:.3f} s "
          f"gives {total - values['trace.overhead_s']:.3f} s against untraced run_s {run_s:.3f} s")
    for name, unit in LAYER_UNITS.items():
        v = values[name]
        shown = str(v) if unit == "count" else f"{v:.6g}"
        print(f"{name:<36} {shown} {unit}")
    return {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "probcell" / "__init__.py").is_file():
        print(f"no probcell sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
