"""Threads and forked processes start in ``probcell.cores`` only."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "probcell"
CONCURRENCY_MODULES = ("threading", "concurrent", "multiprocessing", "_thread")
PROCESS_CALLS = ("fork", "forkpty", "waitpid", "kill", "_exit")


def concurrency_uses(source: str) -> list[str]:
    """The concurrency imports and os process calls in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.module == "os":
                modules = [f"os.{alias.name}" for alias in node.names
                           if alias.name in PROCESS_CALLS]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "os" and node.attr in PROCESS_CALLS):
            modules = [f"os.{node.attr}"]
        else:
            continue
        found += [f"line {node.lineno}: {m}" for m in modules
                  if m.split(".")[0] in CONCURRENCY_MODULES or m.startswith("os.")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_concurrency_lives_in_cores(path):
    uses = concurrency_uses(path.read_text())
    if path.name == "cores.py":
        assert uses  # the scan sees what it looks for
    else:
        assert uses == []


def test_the_scan_finds_each_form():
    source = (
        "import threading\n"
        "import concurrent.futures as cf\n"
        "from multiprocessing import Pool\n"
        "from os import fork\n"
        "import os\n"
        "os.waitpid(os.getpid(), 0)\n"
        "os.kill(1, 9)\n"
        "os._exit(0)\n"
    )
    assert concurrency_uses(source) == [
        "line 1: threading", "line 2: concurrent.futures", "line 3: multiprocessing",
        "line 4: os.fork", "line 6: os.waitpid", "line 7: os.kill", "line 8: os._exit",
    ]
