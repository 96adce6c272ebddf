"""Line report of the package source: total, code, docstrings, comments, blank.

    python3 tools/src_lines.py [DIR]

DIR defaults to ``src/probcell`` beside this script's directory; every
``*.py`` file directly in it is counted. The report's first line sums them
all, and one line per module follows with the same split. Each source line
falls in one class: docstrings are the lines of string-expression
statements (found with ``ast``), comments are lines holding only a ``#``
comment (found with ``tokenize``), blank lines hold only whitespace, and
every other line is code, including a code line with a trailing comment.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstrings", "comments", "blank")


def classify(source: str) -> dict[str, int]:
    """The number of lines of source in each of KINDS."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstring.update(range(node.lineno, node.end_lineno + 1))
    comment = {
        tok.start[0]
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT and not lines[tok.start[0] - 1][: tok.start[1]].strip()
    }
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        if number in docstring:
            counts["docstrings"] += 1
        elif number in comment:
            counts["comments"] += 1
        elif not line.strip():
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def report(root: Path) -> dict[str, dict[str, int]]:
    """Total lines and KINDS of each of root's ``*.py`` files, by file name."""
    modules = {}
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        modules[path.name] = {"total": len(source.splitlines()), **classify(source)}
    return modules


def line(label, counts: dict[str, int]) -> str:
    """One report line: the label, its total, then KINDS."""
    return f"{label}: {counts['total']:,} lines = " + " + ".join(f"{counts[k]:,} {k}" for k in KINDS)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "probcell"
    modules = report(root)
    print(line(root, {k: sum(m[k] for m in modules.values()) for k in ("total",) + KINDS}))
    for name, counts in modules.items():
        print(line(f"  {name}", counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
