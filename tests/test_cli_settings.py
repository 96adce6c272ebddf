"""One settings check for both front ends.

A ``--config`` file goes through ``pipeline._check_setting``, the walk
``run_pipeline`` applies to its config, and each range is checked by the
object that uses it. Bad numbers must end as exit 1 with the JSON payload and
no output, never as a result.
"""
import contextlib
import io
import json
import math
import signal
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from probcell import (
    CoordSet,
    NmsConfig,
    SynthSpec,
    Volume3D,
    analyze_deterministic,
    analyze_probabilistic,
    load_coords,
    prepare_spatial,
    save_coords,
    save_volume,
)
from probcell import pipeline as pipeline_mod
from probcell.cli import build_parser, main
from probcell.errors import check_int, check_real
from probcell.evalmetrics import aggregate_reports, score_detection

# run_pipeline on two 32^3 scenes: a second or less
TINY_PIPE = {
    "test_scene": {"shape": [32, 32, 32], "n_cells": 6, "n_distractors": 3, "n_tubes": 1},
    "train_scenes": 1,
    "train_scene": {"shape": [32, 32, 32], "n_cells": 6, "n_distractors": 3},
    "classifier": {"n_trees": 4},
    "threshold_grid": 3,
    "spatial": {"replicates": 3},
}


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A 24^3 synthetic scene with its threshold-0 peaks."""
    root = tmp_path_factory.mktemp("scene")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(root), "--shape", "24", "24", "24",
                     "--n-cells", "6", "--n-distractors", "3", "--n-tubes", "1",
                     "--seed", "1"]) == 0
        assert main(["detect", "--volume", str(root / "dm"),
                     "--out", str(root / "peaks.csv")]) == 0
    assert np.fromfile(root / "structure.raw", dtype="<f4").any()
    return root


def _base(command: str, scene: Path, out: Path) -> dict[str, list[str]]:
    """Flags that make one subcommand run on the scene, writing under out."""
    maps = {"--dm": [scene / "dm"], "--proposals": [scene / "peaks.csv"]}
    flags = {
        "synth": {"--shape": [16, 16, 16], "--n-cells": [2], "--n-distractors": [1],
                  "--n-tubes": [1], "--out": [out / "scene"]},
        "render-dm": {"--coords": [scene / "gt.csv"], "--shape": [16, 16, 16],
                      "--out": [out / "dm"]},
        "detect": {"--volume": [scene / "dm"], "--out": [out / "peaks.csv"]},
        "features": {**maps, "--out": [out / "features.csv"]},
        "train-classifier": {**maps, "--gt": [scene / "gt.csv"], "--out": [out / "model.json"]},
        "eval": {"--gt": [scene / "gt.csv"], "--pred": [scene / "peaks.csv"],
                 "--out": [out / "eval.json"]},
        "spatial": {"--cells": [scene / "gt.csv"], "--structure": [scene / "structure"],
                    "--tissue": [scene / "tissue"], "--replicates": [4],
                    "--out-dir": [out / "spatial"]},
        "pipeline": {"--out-dir": [out / "pipeline"]},
    }[command]
    return {flag: [str(v) for v in values] for flag, values in flags.items()}


def _run(command, flags: dict, file: dict | None, out: Path):
    """Exit status, stdout and stderr of one CLI call writing under out; the
    file, if any, is written beside out and passed as --config."""
    out.mkdir(parents=True)
    argv = [command]
    if command == "pipeline":
        file = {**TINY_PIPE, **(file or {})}
    if file is not None:
        config = out.parent / "config.json"
        config.write_text(json.dumps(file))
        argv += ["--config", str(config)]
    for flag, values in flags.items():
        argv += [flag, *values]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, stdout.getvalue(), stderr.getvalue()


def _files(out: Path) -> list[Path]:
    return sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []


def _error(stderr: str) -> dict:
    return json.loads(stderr.strip().splitlines()[-1])["error"]


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def _no_scene(*args, **kwargs):
    raise AssertionError("a pipeline config error must stop the run before any scene")


# (subcommand, --config object or None, extra flags, error type): each exited
# 0, or failed without InvalidConfig, before settings were checked once
REPRODUCTIONS = [
    ("spatial", {"replicates": 2.7, "seed": 1.9}, {}, "InvalidConfig"),
    ("spatial", {"mode": "neither"}, {}, "InvalidConfig"),
    ("detect", {"threshold": True}, {}, "InvalidConfig"),
    ("synth", {"cell_amp_range": [1]}, {}, "InvalidConfig"),
    ("synth", {"tube_radius_um": -3}, {}, "ValueError"),
    ("synth", None, {"--noise-sd": ["nan"]}, "ValueError"),
    ("detect", None, {"--min-distance-um": ["inf"]}, "ValueError"),
    ("detect", None, {"--threshold": ["inf"]}, "ValueError"),
    ("spatial", None, {"--adjacency-um": ["nan"]}, "ValueError"),
    ("spatial", None, {"--adjacency-um": ["-5"]}, "ValueError"),
    ("eval", None, {"--t-match-um": ["inf"]}, "ValueError"),
    ("train-classifier", None, {"--t-match-um": ["inf"]}, "ValueError"),
    ("pipeline", {"spatial": {"adjacency_um": -1}}, {}, "InvalidConfig"),
    ("pipeline", {"t_match_um": 0}, {}, "InvalidConfig"),
    ("pipeline", {"test_scene": {"noise_sd": -1}}, {}, "InvalidConfig"),
    ("pipeline", {"test_scene": {"sigma_um": 1e300}}, {}, "InvalidConfig"),
    ("pipeline", {"classifier": {"type": "mlp", "epochs": -1}}, {}, "InvalidConfig"),
]


@pytest.mark.parametrize("command, file, extra, error", REPRODUCTIONS)
def test_bad_setting_exit_1_without_output(
    tmp_path, scene, monkeypatch, command, file, extra, error
):
    monkeypatch.setattr(pipeline_mod, "generate_coords", _no_scene)
    out = tmp_path / "out"
    rc, stdout, stderr = _run(command, {**_base(command, scene, out), **extra}, file, out)
    assert rc == 1, stdout
    assert _error(stderr)["type"] == error
    assert _files(out) == []


@pytest.mark.parametrize("flags, name", [
    ({"--sigma-um": ["5e-324"]}, "sigma"),  # 2 sigma^2 underflows to 0
    ({"--sigma-um": ["1e300"]}, "sigma"),  # 2 sigma^2 overflows
    ({"--voxel-size": ["5e-324", "1", "1"]}, "voxel_size"),  # the cutoff box overflows
])
def test_render_dm_names_the_setting_without_warnings(tmp_path, scene, flags, name):
    """Each exited 1 with an arithmetic error (ZeroDivisionError, OverflowError
    after a RuntimeWarning) that named no setting."""
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, stdout, stderr = _run("render-dm", {**_base("render-dm", scene, out), **flags},
                                  None, out)
    assert rc == 1 and stdout == "" and _files(out) == []
    assert stderr.count("\n") == 1 and _error(stderr)["type"] == "ValueError"
    assert name in _error(stderr)["message"]


@pytest.mark.parametrize("command", ["spatial", "train-classifier"])
def test_negative_seed_names_the_setting(tmp_path, scene, command):
    """Exited 1 with numpy's "expected non-negative integer", which named no
    setting."""
    out = tmp_path / "out"
    rc, stdout, stderr = _run(command, {**_base(command, scene, out), "--seed": ["-1"]},
                              None, out)
    assert rc == 1 and stdout == "" and _files(out) == []
    assert _error(stderr)["type"] == "ValueError"
    assert "seed" in _error(stderr)["message"]


def test_synth_names_a_subnormal_voxel_size(tmp_path):
    """Exited 1 with FloatingPointError from the noise smoothing's sigma
    (NOISE_SMOOTH_UM / voxel_size overflows), which named no setting."""
    out = tmp_path / "out"
    flags = {"--shape": ["8", "8", "8"], "--n-cells": ["1"], "--n-distractors": ["0"],
             "--voxel-size": ["5e-324", "1", "1"], "--n-tubes": ["0"], "--out": [str(out / "s")]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, stdout, stderr = _run("synth", flags, None, out)
    assert rc == 1 and stdout == "" and _files(out) == []
    assert _error(stderr)["type"] == "ValueError"
    assert "voxel_size" in _error(stderr)["message"]


# (subcommand, flag) -> its argparse action, for every flag of every subcommand
_ACTIONS = {
    (name, action.option_strings[0]): action
    for name, command in build_parser()[1].items()
    for action in command._actions
}
NUMERIC_FLAGS = [flag for flag, action in _ACTIONS.items() if action.type in (int, float)]
# the large counts must fail fast or finish fast: no flag may buy hours of
# work, except a shape (numpy would allocate gigabytes) or replicates (time
# linear in what was asked for)
LARGE_VALUES = [10**6, 2**31 - 1]
EDGE_VALUES = [math.nan, math.inf, -math.inf, 0, -1, 1e300, 5e-324, *LARGE_VALUES]
UNBOUNDED_FLAGS = ("--shape", "--replicates")
BUDGET_S = 20


@contextlib.contextmanager
def _wall_budget(seconds: int):
    """Fail the test from a SIGALRM once the block has run for seconds; an
    OSError such as TimeoutError would end as the CLI's exit 1."""
    def expire(signum, frame):
        pytest.fail(f"over the {seconds} s wall budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=200, deadline=None)
@given(
    flag=st.sampled_from(NUMERIC_FLAGS),
    value=st.sampled_from(EDGE_VALUES),
    route=st.sampled_from(["cli", "file"]),
)
@example(flag=("detect", "--min-distance-um"), value=math.inf, route="cli")
@example(flag=("synth", "--n-cells"), value=2**31 - 1, route="cli")
@example(flag=("synth", "--n-tubes"), value=10**6, route="cli")
def test_edge_value_is_a_result_or_a_json_error(scene, flag, value, route):
    """Any numeric flag of any subcommand at an edge value (_edge_draw)."""
    command, option = flag
    assume(value not in LARGE_VALUES or option not in UNBOUNDED_FLAGS)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        _edge_draw(_base(command, scene, out), command, option, value, route, out)


def _edge_draw(flags: dict, command: str, option: str, value, route: str, out: Path) -> None:
    """One numeric setting of one subcommand at an edge value, on the command
    line or in a --config file, on a tiny scene (flags):
    - exit 0 writes only strict JSON and finite volumes;
    - exit 1 prints the JSON payload and writes nothing, and a file value
      that is not finite, or not an integer for an integer setting, is
      InvalidConfig;
    - exit 2 (argparse's usage error) only for a command-line string that
      argparse itself rejects ("nan" for an integer, "-inf" among nargs);
    - anything else, a traceback or a warning included, fails the test;
    - so does a call that runs over BUDGET_S seconds.
    An option without a flag is a SynthSpec field only a file sets."""
    action = _ACTIONS.get((command, option))
    kind = float if action is None else action.type
    values = [value]
    if action is not None and action.nargs:  # the first of its values
        others = flags.get(option) or [str(v) for v in action.default]
        values += [action.type(v) for v in others[1:]]
    file = None
    if route == "cli":
        flags[option] = [str(v) for v in values]
    else:
        flags.pop(option, None)
        dest = option if action is None else action.dest
        file = {dest: values if action is not None and action.nargs else value}
    with _wall_budget(BUDGET_S):
        rc, stdout, stderr = _run(command, flags, file, out)
    assert "Traceback" not in stderr
    fits = math.isfinite(value) and (kind is float or type(value) is int)
    if route == "file" and not fits:
        assert rc == 1 and _error(stderr)["type"] == "InvalidConfig", (rc, stderr)
    if rc == 2:
        assert route == "cli" and "usage:" in stderr
        return
    _assert_result_or_json_error(rc, stdout, stderr, out)


# SynthSpec fields that synth takes from a --config file only. At 1e300 the
# tube radius's pad overflowed its int cast, which left the structure empty,
# and at 5e-324 the separation's bucket keys overflowed: each warned.
CONFIG_ONLY = ["tube_radius_um", "min_separation_um", "tube_length_um", "cutoff_um",
               "margin_um", "background_bias_sd"]


@pytest.mark.parametrize("value", EDGE_VALUES)
@pytest.mark.parametrize("field", CONFIG_ONLY)
def test_config_only_edge_value_is_a_result_or_a_json_error(scene, tmp_path, field, value):
    out = tmp_path / "out"
    _edge_draw(_base("synth", scene, out), "synth", field, value, "file", out)


@pytest.fixture(scope="module")
def dense_dm(tmp_path_factory):
    """64^3 noise: about 10,000 NMS candidates, all within a wide radius."""
    path = tmp_path_factory.mktemp("dense") / "dm"
    data = np.random.default_rng(0).normal(size=(64, 64, 64)).astype(np.float32)
    save_volume(Volume3D(data, (1.0, 1.0, 1.0)), path)
    return path


@pytest.mark.parametrize("route", ["cli", "file"])
@pytest.mark.parametrize("value", EDGE_VALUES)
def test_min_distance_edge_value_on_dense_candidates(scene, dense_dm, tmp_path, value, route):
    out = tmp_path / "out"
    flags = {**_base("detect", scene, out), "--volume": [str(dense_dm)]}
    _edge_draw(flags, "detect", "--min-distance-um", value, route, out)


def _assert_result_or_json_error(rc, stdout, stderr, out: Path) -> None:
    """Exit 1 wrote nothing; exit 0 wrote only strict JSON and finite volumes."""
    if rc == 1:
        assert _files(out) == [], _error(stderr)
        return
    assert rc == 0
    for line in stdout.strip().splitlines():
        _strict_json(line)
    for path in _files(out):
        if path.suffix == ".json":
            _strict_json(path.read_text())
        elif path.suffix == ".raw":
            assert np.isfinite(np.fromfile(path, dtype="<f4")).all(), path


def _int_settings(template, path=()):
    """The path of every integer setting in a config template."""
    if isinstance(template, dict):
        for key, item in template.items():
            yield from _int_settings(item, path + (key,))
    elif isinstance(template, int) and not isinstance(template, bool):
        yield path


# pipeline settings whose work is linear in the count asked for, so a large
# one may run long, as --replicates may
LINEAR_SETTINGS = {
    ("train_scenes",): "one training scene each",
    ("classifier", "n_trees"): "one tree each",
    ("classifier", "epochs"): "one pass over the training rows each",
    ("spatial", "replicates"): "one Monte-Carlo replicate each",
}
PIPELINE_COUNTS = [p for p in _int_settings(pipeline_mod._SCHEMA) if p not in LINEAR_SETTINGS]


@pytest.mark.parametrize("value", LARGE_VALUES)
@pytest.mark.parametrize("setting", PIPELINE_COUNTS, ids=".".join)
def test_pipeline_large_count_is_a_result_or_a_json_error(tmp_path, setting, value):
    """One integer setting of a tiny `probcell pipeline --config` run at a
    large value ends within BUDGET_S seconds as a result or a JSON error."""
    file = json.loads(json.dumps(TINY_PIPE))
    section = file
    for key in setting[:-1]:
        section = section.setdefault(key, {})
    section[setting[-1]] = value
    out = tmp_path / "out"
    with _wall_budget(BUDGET_S):
        rc, stdout, stderr = _run("pipeline", _base("pipeline", tmp_path, out), file, out)
    assert "Traceback" not in stderr
    _assert_result_or_json_error(rc, stdout, stderr, out)


# each built a SynthSpec (2.5 cells, a NaN seed) before the shared checks
_ACCEPTED_BEFORE_SHARED_CHECKS = [
    {"n_cells": 2.5}, {"n_cells": math.nan}, {"n_cells": True},
    {"seed": math.nan}, {"seed": 1.5}, {"shape": (True, 8, 8)},
]


@pytest.mark.parametrize("overrides", [
    {"shape": (16, 16, 0)},
    {"shape": (16, 16, 4.5)},
    {"voxel_size": (1.0, 1.0, math.nan)},
    {"voxel_size": (1e300, 1.0, 1.0)},
    {"noise_sd": math.inf},
    {"margin_um": -1.0},
    {"background_bias_sd": math.nan},
    {"tube_radius_um": 0.0},
    {"min_separation_um": math.inf},
    {"tube_length_um": -2.0},
    {"sigma_um": math.inf},
    {"cutoff_um": math.nan},
    {"cell_amp_range": (1.2, 1.0)},
    {"distractor_amp_range": (0.2, math.inf)},
    {"amp_field_range": (-0.5, 1.0)},
    {"seed": -1},
    *_ACCEPTED_BEFORE_SHARED_CHECKS,
])
def test_synth_spec_checks_its_ranges(overrides):
    """Each bad value raises a ValueError that names its field."""
    with pytest.raises(ValueError) as info:
        SynthSpec(**{"shape": (16, 16, 16), "n_cells": 2, **overrides})
    assert next(iter(overrides)) in str(info.value)


def test_synth_spec_holds_tuples():
    spec = SynthSpec(shape=[16, 16, 16], n_cells=2, voxel_size=[1, 1, 2],
                     cell_amp_range=[0.5, 1.0], tube_length_um=None)
    assert spec.shape == (16, 16, 16) and spec.voxel_size == (1, 1, 2)
    assert spec.cell_amp_range == (0.5, 1.0)


@pytest.mark.parametrize("kwargs", [
    {"min_distance_um": math.inf}, {"threshold": math.inf},
])
def test_nms_config_rejects_infinity(kwargs):
    with pytest.raises(ValueError):
        NmsConfig(**kwargs)


@pytest.mark.parametrize("analyze", [analyze_deterministic, analyze_probabilistic])
@pytest.mark.parametrize("kwargs, match", [
    ({"cdf_mode": "step"}, "cdf_mode"),
    ({"adjacency_um": math.nan}, "adjacency_um"),
    ({"adjacency_um": math.inf}, "adjacency_um"),
])
def test_analyses_check_settings_without_kept_cells(analyze, kwargs, match):
    """The settings are checked on entry, also when no cell is kept and no
    CDF is ever evaluated."""
    from conftest import vol

    structure = np.zeros((8, 8, 8))
    structure[4, 4, 4] = 1.0
    prelude = prepare_spatial({"s": vol(structure)}, vol(np.ones((8, 8, 8))))
    cells = CoordSet(np.asarray([[1.5, 1.5, 1.5]]), p=np.asarray([1e-9]))
    with pytest.raises(ValueError, match=match):
        analyze(cells, prelude, **kwargs)


@pytest.mark.parametrize("kwargs", [{"replicates": 2.5}, {"seed": 1.5}])
def test_probabilistic_analysis_takes_integer_counts(kwargs):
    """Each failed in numpy with a TypeError that named no setting."""
    from conftest import vol

    structure = np.zeros((8, 8, 8))
    structure[4, 4, 4] = 1.0
    prelude = prepare_spatial({"s": vol(structure)}, vol(np.ones((8, 8, 8))))
    cells = CoordSet(np.asarray([[1.5, 1.5, 1.5]]), p=np.asarray([0.5]))
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        analyze_probabilistic(cells, prelude, **kwargs)


def test_shared_checks():
    """check_int takes numpy integers and returns Python ints, refuses bool
    and floats; check_real returns its input and refuses bool, NaN lies in no
    interval whichever its ends, and an infinite end is inside only when
    closed."""
    n = check_int(np.int64(3), "n", 3)
    assert n == 3 and type(n) is int
    assert check_int((np.int32(1), 2, 3), "l_in", 1, 3) == (1, 2, 3)
    for bad in (True, np.bool_(False), 2.0, "2", None):
        with pytest.raises(ValueError, match="^n must be an integer"):
            check_int(bad, "n")
    with pytest.raises(ValueError, match="^l_in must be integers"):
        check_int((1, True, 3), "l_in", 1, 3)
    with pytest.raises(ValueError, match="^n must be >= 3, got 2"):
        check_int(2, "n", 3)
    with pytest.raises(ValueError, match="^l_in must be 3 values"):
        check_int((1, 2), "l_in", 1, 3)

    one = check_real(1, "x", 0, 2, "[]")
    assert one == 1 and type(one) is int
    for ends in ("()", "[]", "[)", "(]"):
        for lo, hi in ((0, 1), (-math.inf, math.inf)):
            with pytest.raises(ValueError, match="^x must lie in"):
                check_real(math.nan, "x", lo, hi, ends)
    assert check_real(0.0, "x", 0, 1, "[)") == 0.0
    assert check_real(-math.inf, "x", -math.inf, 0, "[)") == -math.inf
    assert check_real(math.inf, "x", 0, math.inf, "(]") == math.inf
    for value, lo, hi, ends in ((0.0, 0, 1, "(]"), (1.0, 0, 1, "[)"), (math.inf, 0, math.inf, "()"),
                                (-math.inf, -math.inf, 0, "(]"), ("1", 0, 2, "[]"),
                                (True, 0, 2, "[]")):
        with pytest.raises(ValueError, match="^x must lie in"):
            check_real(value, "x", lo, hi, ends)
    assert check_real((1e300, 2.0), "pair", length=2) == (1e300, 2.0)
    with pytest.raises(ValueError, match=r"^pair must lie in \(0, inf\), got \(1.0, nan\)"):
        check_real((1.0, math.nan), "pair", length=2)


def _assert_json_error(rc, stdout, stderr, out: Path, error: str) -> None:
    """Exit 1 with the JSON payload of error's type, no traceback, nothing written."""
    assert "Traceback" not in stderr
    assert rc == 1 and stdout == "" and _files(out) == []
    assert _error(stderr)["type"] == error


@pytest.mark.parametrize("source, error", [
    ("config", "InvalidConfig"), ("model", "InvalidModel"), ("sidecar", "ValueError"),
])
def test_deep_json_exit_1_without_output(tmp_path, scene, source, error):
    """JSON nested deeper than Python's recursion limit raised RecursionError
    from json.loads, which ended in a traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    (tmp_path / "deep.raw").write_bytes((scene / "dm.raw").read_bytes())  # the sidecar's volume
    out = tmp_path / "out"
    command, flags = {
        "config": ("detect", {"--config": deep, "--volume": scene / "dm"}),
        "model": ("classify", {"--model": deep, "--dm": scene / "dm",
                               "--proposals": scene / "peaks.csv"}),
        "sidecar": ("detect", {"--volume": tmp_path / "deep"}),
    }[source]
    flags = {flag: [str(v)] for flag, v in {**flags, "--out": out / "result.csv"}.items()}
    _assert_json_error(*_run(command, flags, None, out), out, error)


def test_oversized_csv_field_names_the_file(tmp_path, scene):
    """A field over csv's 131,072-character limit raised _csv.Error, which
    ended in a traceback."""
    big = tmp_path / "big.csv"
    big.write_text("z_um,y_um,x_um\n" + "1" * 200_000 + ",1,1\n")
    out = tmp_path / "out"
    rc, stdout, stderr = _run("eval", {**_base("eval", scene, out), "--pred": [str(big)]},
                              None, out)
    _assert_json_error(rc, stdout, stderr, out, "ValueError")
    assert str(big) in _error(stderr)["message"]


# 10^15 voxels, 7.1 PiB of float64: beyond a 47-bit address space, so numpy's
# allocation fails at once, whatever memory the host has
HUGE_SHAPE = [100_000] * 3


@pytest.mark.parametrize("command", ["render-dm", "synth", "pipeline"])
def test_unallocatable_shape_exit_1_without_output(tmp_path, scene, command):
    """numpy's MemoryError ended in a traceback."""
    out = tmp_path / "out"
    flags, file = _base(command, scene, out), None
    if command == "pipeline":
        file = {"test_scene": {**TINY_PIPE["test_scene"], "shape": HUGE_SHAPE}}
    else:
        flags["--shape"] = [str(n) for n in HUGE_SHAPE]
    _assert_json_error(*_run(command, flags, file, out), out, "MemoryError")


def _run_strict(command, flags: dict, out: Path):
    """_run with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _run(command, flags, None, out)


@pytest.mark.parametrize("command", ["eval", "train-classifier"])
def test_overflowing_squared_distance_is_a_far_pair(tmp_path, scene, command):
    """A cell at 1.4e154 um has no prediction whose squared distance float64
    holds: matching warned of overflow, then scipy found the cost matrix
    infeasible, an exit 1 whose message named no file. It is a far pair now."""
    gt, pred = tmp_path / "gt.csv", tmp_path / "pred.csv"
    if command == "eval":
        save_coords(CoordSet([(0.0, 0.0, 0.0), (1.4e154, 0.0, 0.0)]), gt)
        save_coords(CoordSet([(0.0, 0.0, 0.0), (-1.4e154, 0.0, 0.0)]), pred)
        rc, stdout, stderr = _run_strict("eval", {"--gt": [str(gt)], "--pred": [str(pred)]},
                                         tmp_path / "out")
        assert rc == 0, stderr
        report = json.loads(stdout)
        assert (report["tp"], report["fp"], report["fn"]) == (1, 1, 1)
        return
    cells = load_coords(scene / "gt.csv").coords
    assert len(cells) < len(load_coords(scene / "peaks.csv"))  # a spare peak for the far cell
    save_coords(CoordSet(np.concatenate([cells, [(1.4e154, 0.0, 0.0)]])), gt)
    models = []
    for name, cells_csv in (("far", gt), ("plain", scene / "gt.csv")):
        out = tmp_path / name
        flags = {**_base(command, scene, out), "--gt": [str(cells_csv)]}
        rc, _, stderr = _run_strict(command, flags, out)
        assert rc == 0, stderr
        models.append((out / "model.json").read_bytes())
    assert models[0] == models[1]  # the same labels: the far cell matched no peak


def test_far_proposal_exit_1_without_warnings(tmp_path, scene):
    """A proposal at 1e308 um was cast to int before the range check, which
    warned "invalid value encountered in cast"."""
    out = tmp_path / "model"
    assert _run("train-classifier", _base("train-classifier", scene, out), None, out)[0] == 0
    far = tmp_path / "far.csv"
    save_coords(CoordSet([(1e308, 1.0, 1.0)]), far)
    flags = {"--model": [str(out / "model.json")], "--dm": [str(scene / "dm")],
             "--proposals": [str(far)], "--out": [str(tmp_path / "classified" / "c.csv")]}
    rc, stdout, stderr = _run_strict("classify", flags, tmp_path / "classified")
    _assert_json_error(rc, stdout, stderr, tmp_path / "classified", "ValueError")
    assert _error(stderr)["message"] == "proposals must lie inside the volume"


def test_eval_reports_each_pair_and_their_aggregate(tmp_path, scene):
    """Several --gt and --pred files: one report per pair under "samples" and
    aggregate_reports of them under "aggregate"; unequal counts exit 1."""
    gt, peaks = str(scene / "gt.csv"), str(scene / "peaks.csv")
    pairs = [(gt, peaks), (peaks, gt), (gt, gt)]
    singles = []
    for i, (g, p) in enumerate(pairs):
        rc, stdout, _ = _run("eval", {"--gt": [g], "--pred": [p]}, None, tmp_path / str(i))
        assert rc == 0
        singles.append(json.loads(stdout))
    out = tmp_path / "all"
    flags = {"--gt": [g for g, _ in pairs], "--pred": [p for _, p in pairs],
             "--out": [str(out / "eval.json")]}
    rc, stdout, _ = _run("eval", flags, None, out)
    assert rc == 0
    report = json.loads(stdout)
    assert report == json.loads((out / "eval.json").read_text())
    assert report["samples"] == singles and len({json.dumps(r) for r in singles}) == 3
    reports = [score_detection(load_coords(g), load_coords(p)) for g, p in pairs]
    assert report["aggregate"] == aggregate_reports(reports)
    out = tmp_path / "unequal"
    flags = {"--gt": [gt, gt], "--pred": [peaks], "--out": [str(out / "eval.json")]}
    _assert_json_error(*_run("eval", flags, None, out), out, "ValueError")


@pytest.mark.parametrize("config", [False, True])
@pytest.mark.parametrize("flag", ["--gt", "--pred"])
def test_eval_repeated_flag_is_a_usage_error(tmp_path, scene, capsys, flag, config):
    """A second --gt or --pred used to replace the first one's files: exit 0
    with one report of the last pair."""
    gt, peaks = str(scene / "gt.csv"), str(scene / "peaks.csv")
    argv = ["eval", "--gt", gt, "--pred", peaks, flag, peaks, "--out", str(tmp_path / "e.json")]
    if config:
        (tmp_path / "config.json").write_text(json.dumps({"gt": [gt], "pred": [gt]}))
        argv += ["--config", str(tmp_path / "config.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and f"{flag} given twice" in captured.err
    assert captured.out == "" and not (tmp_path / "e.json").exists()


def test_eval_config_lists_and_the_command_line(tmp_path, scene):
    """A --config file's gt and pred lists are read and kind-checked; one
    --gt and one --pred on the command line replace them (CLI > file)."""
    gt, peaks = str(scene / "gt.csv"), str(scene / "peaks.csv")
    out = tmp_path / "bad"
    _assert_json_error(*_run("eval", {"--gt": [gt], "--pred": [peaks]},
                             {"gt": [gt, 3], "pred": [peaks]}, out), out, "InvalidConfig")
    single = _run("eval", {"--gt": [peaks], "--pred": [gt]}, None, tmp_path / "single")
    file = {"gt": [gt, gt], "pred": [peaks, gt]}
    replaced = _run("eval", {"--gt": [peaks], "--pred": [gt]}, file, tmp_path / "replaced")
    assert replaced == single and single[0] == 0
    assert set(json.loads(single[1])) >= {"f1", "tp"}  # one report, no "samples"


def test_eval_repeated_csv_column_exit_1(tmp_path, scene):
    """A coordinate CSV that names a column twice used to load its last copy."""
    twice = tmp_path / "twice.csv"
    twice.write_text("z_um,y_um,x_um,z_um\n1,2,3,4\n")
    out = tmp_path / "eval"
    flags = {"--gt": [str(scene / "gt.csv")], "--pred": [str(twice)],
             "--out": [str(out / "eval.json")]}
    rc, stdout, stderr = _run("eval", flags, None, out)
    _assert_json_error(rc, stdout, stderr, out, "ValueError")
    assert _error(stderr)["message"] == f"coordinate CSV {twice} names column 'z_um' more than once"


# subcommand -> its required flags, for each subcommand that has one
REQUIRED = {
    name: [action for action in command._actions if action.required]
    for name, command in build_parser()[1].items()
    if any(action.required for action in command._actions)
}


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_required_flags_from_the_config_file(tmp_path, scene, command):
    """A required flag that only the --config file gave used to exit 2, "the
    following arguments are required": argparse checked the command line
    before the file was read. Given by the file, the flags now give the
    command line's result; given by neither, they still exit 2 with
    argparse's message, which names only those missing."""
    def flags(out):
        if command != "classify":
            return _base(command, scene, out)
        return {"--model": [str(tmp_path / "model" / "model.json")],
                **_base("features", scene, out), "--out": [str(out / "classified.csv")]}

    if command == "classify":
        model = tmp_path / "model"
        assert _run("train-classifier", _base("train-classifier", scene, model), None, model)[0] == 0
    cli = _run(command, flags(tmp_path / "cli"), None, tmp_path / "cli")
    assert cli[0] == 0, cli[2]
    rest = flags(tmp_path / "file")
    file = {}
    for action in REQUIRED[command]:
        values = [(action.type or str)(v) for v in rest.pop(action.option_strings[0])]
        file[action.dest] = values if action.nargs else values[0]
    rc, stdout, stderr = _run(command, rest, file, tmp_path / "file")
    assert rc == 0, stderr
    assert stdout.replace(str(tmp_path / "file"), "OUT") == cli[1].replace(str(tmp_path / "cli"), "OUT")

    names = [action.option_strings[0] for action in REQUIRED[command]]
    for out, given in ((tmp_path / "none", None), (tmp_path / "part", dict(list(file.items())[1:]))):
        rc, stdout, stderr = _run(command, rest, given, out)
        missing = names if given is None else names[:1]
        assert rc == 2 and stdout == "" and _files(out) == []
        assert stderr.startswith(f"usage: probcell {command} [-h] [--config CONFIG] {names[0]} ")
        assert stderr.endswith(f"error: the following arguments are required: {', '.join(missing)}\n")
