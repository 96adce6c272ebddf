"""The benchmark tracer's count callbacks read return values
(``plan_tiling(...).patches``, ``local_maxima(...)[0]``, ``.flags``,
``load_volume(...).data``), so a change to a return type would break
``perfbench/run.py --trace 1`` without failing a name check. This runs a small
traced pipeline, one volume load and cli-sparse256's route to the spatial
prelude (`probcell synth`, then `probcell spatial` on the scene's masks) in a
fresh interpreter and reads every count back."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.dont_write_bytecode = True  # nothing is written under perfbench/
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import spans
tracer = spans.Tracer()
spans.install(tracer)
from probcell import cli, pipeline, volume
pipeline.run_pipeline({
    "test_scene": {"shape": [48, 48, 48], "n_cells": 10, "n_distractors": 4},
    "train_scene": {"shape": [40, 40, 40], "n_cells": 8, "n_distractors": 4},
    "classifier": {"n_trees": 4},
    "spatial": {"replicates": 3},
})
base = sys.argv[3] + "/vol"
volume.save_volume(volume.Volume3D(np.zeros((4, 4, 4), np.float32), (1, 1, 1)), base)
volume.load_volume(base)
scene = sys.argv[3] + "/scene"
cli.main(["synth", "--out", scene, "--shape", "32", "32", "32", "--n-cells", "6",
          "--n-distractors", "2", "--seed", "1"])
cli.main(["spatial", "--cells", scene + "/gt.csv", "--structure", scene + "/structure",
          "--tissue", scene + "/tissue", "--replicates", "3", "--out-dir", sys.argv[3] + "/sp"])
print(json.dumps({"counts": list(spans.COUNTS), "metrics": tracer.metrics()}))
"""


def test_traced_run_fills_every_count(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"), str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    assert set(result["counts"]) <= set(metrics)
    for key in ("volume.patches", "detect.candidates", "features.windows",
                "spatial.edt_calls", "volume.load_volume_bytes"):
        assert metrics[key] > 0, key
    # one structure EDT in the pipeline's prelude and one in the CLI's, each
    # through spatial.distance_transform; the CLI read both float32 masks
    assert metrics["spatial.edt_calls"] == 2
    assert metrics["volume.load_volume_bytes"] == 4 * 4**3 + 2 * 4 * 32**3
