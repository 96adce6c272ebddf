"""Cost of ``import probcell`` in fresh interpreters: wall seconds, peak RSS
and the scipy subpackages it loads.

    python3 tools/import_cost.py [-n N] [SRC]

SRC defaults to ``src`` beside this script's directory; it goes first on
``sys.path``, so any checkout's package can be measured. N interpreters
(default 11) start one after another; each times the import alone
(``time.perf_counter`` around it, interpreter start excluded) and reports
its ``ru_maxrss`` after it. The report prints the medians of both and the
public scipy subpackages in ``sys.modules`` after the import.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import probcell
seconds = time.perf_counter() - start
scipy = sorted(name.split(".")[1] for name, module in sys.modules.items()
               if name.startswith("scipy.") and name.count(".") == 1
               and not name.split(".")[1].startswith("_") and hasattr(module, "__path__"))
print(json.dumps({"import_s": seconds, "scipy": scipy,
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def measure(src: Path, n: int) -> dict:
    """Median import seconds and ru_maxrss (MB) over n fresh interpreters,
    and the scipy subpackages the first one loaded."""
    runs = [
        json.loads(subprocess.run([sys.executable, "-c", CHILD, str(src)], capture_output=True,
                                  text=True, check=True).stdout)
        for _ in range(n)
    ]
    return {
        "import_s": statistics.median(r["import_s"] for r in runs),
        "maxrss_mb": statistics.median(r["maxrss_mb"] for r in runs),
        "scipy": runs[0]["scipy"],
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Cost of import probcell in fresh interpreters.")
    parser.add_argument("-n", type=int, default=11, help="interpreters to start (default 11)")
    parser.add_argument("src", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("-n must be at least 1")
    cost = measure(args.src, args.n)
    print(f"import probcell from {args.src}, median of {args.n}: "
          f"{cost['import_s']:.3f} s, ru_maxrss {cost['maxrss_mb']:.1f} MB")
    print("scipy subpackages loaded: " + ", ".join(cost["scipy"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
