"""Line report of the package source: total, code, docstrings, comments, blank.

    python3 tools/src_lines.py [DIR] [--against REV] [--max LINES]

DIR defaults to ``src/probcell`` beside this script's directory; every
``*.py`` file directly in it is counted. The report's first line sums them
all, and one line per module follows with the same split. Each source line
falls in one class: docstrings are the lines of string-expression
statements (found with ``ast``), comments are lines holding only a ``#``
comment (found with ``tokenize``), blank lines hold only whitespace, and
every other line is code, including a code line with a trailing comment.

``--against REV`` then prints the net change from git revision REV, whose
files are read with ``git show REV:path``, in the same lines: the sum first,
then each module that changed, one added or deleted included.

``--max LINES`` exits 1, after the report, when DIR holds more than LINES
lines in all: a line budget checked in one command.
"""
from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def counts(source: str) -> dict[str, int]:
    """Total lines and KINDS of one file's source."""
    return {"total": len(source.splitlines()), **classify(source)}


def report(root: Path) -> dict[str, dict[str, int]]:
    """Total lines and KINDS of each of root's ``*.py`` files, by file name."""
    return {path.name: counts(path.read_text()) for path in sorted(root.glob("*.py"))}


def report_at(root: Path, rev: str) -> dict[str, dict[str, int]]:
    """``report(root)`` of the files as they were at git revision rev."""
    def git(*args) -> str:
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              check=True).stdout

    names = git("ls-tree", "--name-only", rev, "./").split()
    return {name: counts(git("show", f"{rev}:./{name}")) for name in sorted(names)
            if name.endswith(".py")}


def line(label, n: dict[str, int], sign: str = "") -> str:
    """One report line: the label, its total, then KINDS; sign "+" signs them."""
    return f"{label}: {n['total']:{sign},} lines = " + (", " if sign else " + ").join(
        f"{n[k]:{sign},} {k}" for k in KINDS)


def total(modules: dict[str, dict[str, int]]) -> dict[str, int]:
    """The modules' lines summed, total and KINDS."""
    return {k: sum(m[k] for m in modules.values()) for k in ("total",) + KINDS}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", nargs="?", type=Path,
                    default=Path(__file__).resolve().parent.parent / "src" / "probcell")
    ap.add_argument("--against", metavar="REV", help="also print the net change from git revision REV")
    ap.add_argument("--max", type=int, metavar="LINES", help="exit 1 above LINES lines in all")
    args = ap.parse_args(argv)
    modules = report(args.dir)
    lines = total(modules)
    print(line(args.dir, lines))
    for name, n in modules.items():
        print(line(f"  {name}", n))
    if args.against:
        old, zero = report_at(args.dir, args.against), dict.fromkeys(("total",) + KINDS, 0)
        change = {name: {k: modules.get(name, zero)[k] - old.get(name, zero)[k] for k in zero}
                  for name in sorted(modules.keys() | old.keys())}
        print(line(f"{args.dir} against {args.against}", total(change), "+"))
        for name, n in change.items():
            if any(n.values()):
                print(line(f"  {name}", n, "+"))
    if args.max is not None and lines["total"] > args.max:
        print(f"{args.dir}: {lines['total']:,} lines exceed the budget of {args.max:,}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
