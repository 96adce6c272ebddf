"""The benchmark's tracer wraps package functions by name and reads some of
their arguments by name, and its workloads import package names; a rename or
a removed parameter would break ``perfbench/run.py`` without failing anything
else."""
import ast
import importlib
import importlib.util
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


def _package_imports() -> list[tuple[str, str, str | None]]:
    """(file, module, name) of each ``from probcell... import name`` in
    perfbench/*.py, and (file, module, None) of each ``import probcell...``,
    read with ast: nothing there is imported or compiled to bytecode."""
    found = []
    for path in sorted(SPANS.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "probcell":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "probcell"]
    return found


PACKAGE_IMPORTS = _package_imports()


def test_package_imports_are_found():
    names = {(module, name) for _, module, name in PACKAGE_IMPORTS}
    pipeline = {"proposals_by_threshold", "label_proposals", "select_threshold"}
    assert {("probcell.pipeline", name) for name in pipeline} | {("probcell", None)} <= names


@pytest.mark.parametrize("path, module, name", PACKAGE_IMPORTS)
def test_package_import_resolves(path, module, name):
    """What ``from module import name`` finds: an attribute, or a package's submodule."""
    found = importlib.import_module(module)
    if name is not None and not hasattr(found, name):
        assert hasattr(found, "__path__") and importlib.util.find_spec(f"{module}.{name}")
