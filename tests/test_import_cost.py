"""``tools/import_cost.py`` measures ``import probcell`` in one fresh
interpreter and names the scipy subpackages it loaded."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "import_cost.py"


def _tool() -> dict:
    """import_cost.py executed from its source, so no bytecode is written beside it."""
    namespace = {"__name__": "import_cost", "__file__": str(TOOL)}
    exec(compile(TOOL.read_text(), str(TOOL), "exec"), namespace)
    return namespace


def test_one_interpreter(capsys):
    assert _tool()["main"](["-n", "1"]) == 0
    cost, loaded = capsys.readouterr().out.splitlines()
    match = re.fullmatch(r"import probcell from (.+), median of 1: ([\d.]+) s, ru_maxrss ([\d.]+) MB",
                         cost)
    assert match and Path(match[1]) == ROOT / "src"
    assert float(match[2]) > 0 and float(match[3]) > 0
    subpackages = loaded.removeprefix("scipy subpackages loaded: ").split(", ")
    assert "ndimage" in subpackages and "optimize" not in subpackages
