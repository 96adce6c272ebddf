"""``tools/src_lines.py`` puts every source line in exactly one class, and
its module lines sum to its total."""
import re
import subprocess
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


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=cwd,
                   check=True, capture_output=True)


def test_against_a_revision(tmp_path, capsys):
    """--against REV reads REV's files with git show: against HEAD a clean
    package shows zero change, and after an edit, a new module and a deleted
    one, the change per module and class, its sum first."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text('"""A."""\nx = 1\n\n# note\ny = 2\n')
    (pkg / "gone.py").write_text("z = 3\n")
    (pkg / "data.txt").write_text("not counted\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")

    def change():
        capsys.readouterr()
        assert SRC_LINES["main"]([str(pkg), "--against", "HEAD"]) == 0
        out = capsys.readouterr().out.splitlines()
        return out[out.index(next(o for o in out if " against HEAD: " in o)):]

    assert change() == [f"{pkg} against HEAD: +0 lines = +0 code, +0 docstrings, +0 comments, +0 blank"]
    (pkg / "a.py").write_text('"""A."""\nx = 1\n# note\n# more\n')
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text("w = 4\n\n")
    assert change() == [
        f"{pkg} against HEAD: +0 lines = -1 code, +0 docstrings, +1 comments, +0 blank",
        "  a.py: -1 lines = -1 code, +0 docstrings, +1 comments, -1 blank",
        "  gone.py: -1 lines = -1 code, +0 docstrings, +0 comments, +0 blank",
        "  new.py: +2 lines = +1 code, +0 docstrings, +0 comments, +1 blank",
    ]


def test_max_is_a_line_budget(tmp_path, capsys):
    """--max LINES passes at the package's total and fails one line below it."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text('"""B."""\n')
    assert SRC_LINES["main"]([str(pkg), "--max", "4"]) == 0
    assert SRC_LINES["main"]([str(pkg), "--max", "40"]) == 0
    capsys.readouterr()
    assert SRC_LINES["main"]([str(pkg), "--max", "3"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"{pkg}: 4 lines exceed the budget of 3"
