"""Call-time spans around probcell's public functions, installed from outside.

The package is not edited. ``install`` replaces each target function in every
loaded ``probcell`` module namespace that refers to it, so calls that a module
looks up at call time (``pipeline`` calling ``extract_features``, ``spatial``
calling ``distance_transform`` from ``esd_pool``, ``cli`` calling
``load_volume``) go through a timing wrapper. Each span's self time is its
duration minus the time of the spans it caused; counts are read from the
arguments and return values of the wrapped calls.

The span stack assumes one thread of calls into the package, which holds while
``PROBCELL_THREADS`` is unset (the serial default).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

def _features(a, r):
    rows = len(a["proposals"])
    return {
        "features.rows": rows,
        "features.windows": rows * len(a["maps"]) * len(a["spec"].window_sides_um),
    }


# (module, function) -> counts taken from the bound arguments ``a`` and the
# return value ``r`` of one call; None when the call only contributes time.
TARGETS = {
    ("cli", "main"): None,
    ("pipeline", "run_pipeline"): None,
    ("pipeline", "tiled_detect"): None,
    ("pipeline", "select_threshold"): None,
    ("volume", "plan_tiling"): lambda a, r: {"volume.patches": len(r.patches)},
    ("volume", "load_volume"): lambda a, r: {"volume.load_volume_bytes": r.data.nbytes},
    ("coords", "load_coords"): None,
    ("coords", "save_coords"): None,
    ("synth", "generate_coords"): None,
    ("synth", "oracle_regress"): None,
    ("synth", "generate_structures"): None,
    ("densitymap", "render_dm"): None,
    ("detect", "local_maxima"): lambda a, r: {"detect.candidates": len(r[0])},
    ("detect", "detect_peaks"): lambda a, r: {"detect.peaks": len(r)},
    ("features", "extract_features"): _features,
    ("classifier", "train_forest"): lambda a, r: {"classifier.train_rows": len(a["X"])},
    ("classifier", "classify_proposals"): None,
    ("classifier", "predict_proba"): None,
    ("classifier", "save_model"): None,
    ("classifier", "load_model"): None,
    ("evalmetrics", "hungarian_match"): None,
    ("evalmetrics", "score_detection"): None,
    ("evalmetrics", "score_calibration"): None,
    ("spatial", "distance_transform"): lambda a, r: {"spatial.edt_calls": 1},
    ("spatial", "esd_pool"): None,
    ("spatial", "analyze_deterministic"): lambda a, r: {"spatial.flags": len(r.flags)},
    ("spatial", "analyze_probabilistic"): lambda a, r: {
        "spatial.flags": len(r.flags),
        "spatial.replicates": a["replicates"],
    },
}

# Span names whose metric name differs from "<module>.<function>_s": the
# self time of detect_peaks is the NMS loop once local_maxima is taken out.
RENAMED = {"detect.detect_peaks": "detect.nms_s"}

COUNTS = (
    "volume.patches", "volume.load_volume_bytes", "detect.candidates",
    "detect.peaks", "features.rows", "features.windows",
    "classifier.train_rows", "spatial.edt_calls", "spatial.flags",
    "spatial.replicates",
)


def time_metric(span: str) -> str:
    return RENAMED.get(span, span + "_s")


TIME_METRICS = tuple(time_metric(f"{m}.{f}") for m, f in TARGETS)


class Tracer:
    """In-memory span totals: self seconds per span name, and counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child_s = []  # one accumulator per open span

    def wrap(self, name, fn, count):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.self_s[name] += dt - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dt
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, n in count(bound.arguments, result).items():
                    self.counts[key] += int(n)
            return result

        return traced

    def metrics(self) -> dict:
        """Self seconds under their metric names, plus counts and ratios."""
        out = {time_metric(f"{m}.{f}"): self.self_s.get(f"{m}.{f}", 0.0) for m, f in TARGETS}
        out.update({key: self.counts.get(key, 0) for key in COUNTS})
        windows = out["features.windows"]
        out["features.us_per_window"] = (
            1e6 * out["features.extract_features_s"] / windows if windows else 0.0
        )
        cands = out["detect.candidates"]
        out["detect.accept_ratio"] = out["detect.peaks"] / cands if cands else 0.0
        return out


def install(tracer: Tracer) -> None:
    """Route every probcell-namespace reference to a target through a span."""
    for mod, _ in TARGETS:
        importlib.import_module(f"probcell.{mod}")
    namespaces = [m for n, m in sys.modules.items() if n == "probcell" or n.startswith("probcell.")]
    for (mod, fn_name), count in TARGETS.items():
        orig = getattr(sys.modules[f"probcell.{mod}"], fn_name)
        traced = tracer.wrap(f"{mod}.{fn_name}", orig, count)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, attr, traced)
