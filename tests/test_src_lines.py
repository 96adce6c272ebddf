"""``tools/src_lines.py`` puts every source line in exactly one class, and
its module lines sum to its total."""
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "src_lines.py"


def _tool() -> dict:
    """src_lines.py executed from its source, so no bytecode is written beside it."""
    namespace = {"__name__": "src_lines", "__file__": str(TOOL)}
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


def test_module_lines_sum_to_the_total(capsys):
    """The first line is the total; one line per module follows, and each
    column of the module lines sums to it."""
    assert SRC_LINES["main"]([]) == 0
    total, *modules = [
        [int(n.replace(",", "")) for n in re.findall(r"[\d,]+", out.split(": ", 1)[1])]
        for out in capsys.readouterr().out.splitlines()
    ]
    assert len(modules) == len(list((ROOT / "src" / "probcell").glob("*.py"))) > 1
    assert [sum(column) for column in zip(*modules)] == total
    assert total[0] == sum(total[1:])
