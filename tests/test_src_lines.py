"""``tools/src_lines.py`` puts every source line in exactly one class."""
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "src_lines.py"


def _tool() -> dict:
    """src_lines.py executed from its source, so no bytecode is written beside it."""
    namespace = {"__name__": "src_lines"}
    exec(compile(TOOL.read_text(), str(TOOL), "exec"), namespace)
    return namespace


SRC_LINES = _tool()


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "probcell").glob("*.py")), ids=lambda p: p.name)
def test_classes_sum_to_file_lines(path):
    source = path.read_text()
    assert sum(SRC_LINES["classify"](source).values()) == source.count("\n")


def test_each_class():
    source = (
        '"""Module\n'
        "\n"
        'docstring."""\n'
        "# a comment\n"
        "x = 1  # code with a trailing comment\n"
        "\n"
        "\n"
        "def f():\n"
        '    """One line."""\n'
        "    s = '''not\n"
        "    a docstring'''\n"
        "    return s\n"
    )
    assert SRC_LINES["classify"](source) == {
        "code": 5, "docstrings": 4, "comments": 1, "blank": 2
    }
