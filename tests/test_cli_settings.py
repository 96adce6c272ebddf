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
    analyze_deterministic,
    analyze_probabilistic,
    prepare_spatial,
)
from probcell import pipeline as pipeline_mod
from probcell.cli import build_parser, main
from probcell.errors import check_int, check_real

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
    """One numeric setting of one subcommand at an edge value, on the command
    line or in a --config file, on a tiny scene:
    - exit 0 writes only strict JSON and finite volumes;
    - exit 1 prints the JSON payload and writes nothing, and a file value
      that is not finite, or not an integer for an integer setting, is
      InvalidConfig;
    - exit 2 (argparse's usage error) only for a command-line string that
      argparse itself rejects ("nan" for an integer, "-inf" among nargs);
    - anything else, a traceback included, fails the test;
    - so does a call that runs over BUDGET_S seconds."""
    command, option = flag
    assume(value not in LARGE_VALUES or option not in UNBOUNDED_FLAGS)
    action = _ACTIONS[flag]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        flags = _base(command, scene, out)
        values = [value]
        if action.nargs:  # the first of its values
            others = flags.get(option) or [str(v) for v in action.default]
            values += [action.type(v) for v in others[1:]]
        file = None
        if route == "cli":
            flags[option] = [str(v) for v in values]
        else:  # a required flag stays on the command line, which wins
            if not action.required:
                flags.pop(option, None)
            file = {action.dest: values if action.nargs else value}
        with _wall_budget(BUDGET_S):
            rc, stdout, stderr = _run(command, flags, file, out)
        assert "Traceback" not in stderr
        fits = math.isfinite(value) and (action.type is float or type(value) is int)
        if route == "file" and not fits:
            assert rc == 1 and _error(stderr)["type"] == "InvalidConfig", (rc, stderr)
        if rc == 2:
            assert route == "cli" and "usage:" in stderr
            return
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
