"""The benchmark's tracer wraps package functions by name and reads some of
their arguments by name; a rename or a removed parameter would break
``perfbench/run.py --trace 1`` without failing anything else."""
import importlib
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_namespace() -> dict:
    """spans.py executed from its source, so no bytecode is written beside it."""
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


TARGETS = _spans_namespace()["TARGETS"]

# Arguments the count callbacks in TARGETS read from a call's bound arguments.
COUNTED_ARGUMENTS = {
    ("features", "extract_features"): {"maps", "proposals", "spec"},
    ("classifier", "train_forest"): {"X"},
    ("spatial", "analyze_probabilistic"): {"replicates"},
}


@pytest.mark.parametrize("module, function", sorted(TARGETS))
def test_target_exists(module, function):
    assert callable(getattr(importlib.import_module(f"probcell.{module}"), function, None))


@pytest.mark.parametrize("module, function", sorted(COUNTED_ARGUMENTS))
def test_counted_arguments_are_parameters(module, function):
    assert TARGETS.get((module, function)) is not None
    fn = getattr(importlib.import_module(f"probcell.{module}"), function)
    assert COUNTED_ARGUMENTS[module, function] <= set(inspect.signature(fn).parameters)
