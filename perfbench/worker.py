"""One fresh process of the benchmark: a start-up probe, a set-up, or a timed run.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``. It writes
one JSON record to ``--result``. ``ready`` is the ``time.monotonic()`` reading
(system-wide on Linux) once ``probcell`` is imported, so the parent can take
interpreter start plus import as the gap from its own spawn reading.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import probcell  # first, because its import is part of the measured start-up

READY = time.monotonic()

import spans  # noqa: E402
import workloads  # noqa: E402


def _hashes(out: Path, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["probe", "prepare", "run"])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--work")
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    record = {
        "ready": READY,
        "probcell": str(Path(probcell.__file__).resolve()),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }

    if args.mode != "probe":
        workload = workloads.WORKLOADS[args.workload]
        work = Path(args.work)
    if args.mode == "prepare":
        workload.prepare(work, args.seed)
    elif args.mode == "run":
        out = Path(args.out)
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
        t0 = time.perf_counter()
        report = workload.run(work, out, args.seed)
        record["run_s"] = time.perf_counter() - t0
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            record["layers"] = tracer.metrics()
        record["quality"] = workload.quality(work, out, args.seed, report)
        record["artifacts"] = _hashes(out, workload.artifacts)
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
