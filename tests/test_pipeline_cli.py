import json

import numpy as np
import pytest

from probcell import (
    CoordSet,
    KernelSpec,
    NmsConfig,
    TilingConfig,
    detect_peaks,
    load_coords,
    render_dm,
    save_coords,
    save_volume,
)
from probcell.cli import main
from probcell.pipeline import (
    label_proposals,
    proposals_by_threshold,
    run_pipeline,
    select_threshold,
    tiled_detect,
)

class TestTiledDetect:
    def test_m_peak_equals_untiled_with_boundary_cells(self):
        cfg = TilingConfig.m_peak((32, 32, 32), (4, 4, 4), (4, 4, 4))
        shape = (32, 32, 48)
        cells = CoordSet(np.asarray([
            [8.5, 8.5, 14.5], [8.5, 8.5, 22.5], [20.5, 20.5, 17.5],
            [16.5, 8.5, 33.5], [8.5, 24.5, 40.5],
        ]))
        dm = render_dm(cells, shape, (1, 1, 1), KernelSpec(2.0))
        nms = NmsConfig(4.0, 0.0)
        untiled = detect_peaks(dm, nms)
        tiled = tiled_detect(dm, cfg, nms)
        assert set(map(tuple, tiled.coords)) == set(map(tuple, untiled.coords))

    def test_m_conv_duplicates_near_boundaries(self):
        cfg = TilingConfig.m_conv((24, 24, 24), (4, 4, 4))
        shape = (32, 32, 48)
        cells = CoordSet(np.asarray([[8.5, 8.5, 14.5]]))  # 1.5 um from a tile edge
        dm = render_dm(cells, shape, (1, 1, 1), KernelSpec(2.0))
        tiled = tiled_detect(dm, cfg, NmsConfig(4.0, 0.0))
        assert len(tiled) > 1
        d = np.linalg.norm(tiled.coords[:, None, :] - tiled.coords[None, :, :], axis=2)
        d[np.diag_indices(len(tiled))] = np.inf
        assert d.min() < 4.0


class TestHelpers:
    def test_threshold_filter_equals_direct_detection(self, rng):
        from conftest import vol

        data = rng.normal(0, 1, size=(18, 18, 18)).astype(np.float32)
        v = vol(data)
        base = detect_peaks(v, NmsConfig(3.0, 0.0))
        for t in (0.1, 0.5, 1.0):
            direct = detect_peaks(v, NmsConfig(3.0, t))
            filtered = proposals_by_threshold(base, t)
            assert np.array_equal(direct.coords, filtered.coords)

    def test_label_proposals(self):
        gt = CoordSet(np.asarray([[5.0, 5.0, 5.0], [20.0, 5.0, 5.0]]))
        proposals = CoordSet(np.asarray([
            [5.0, 5.0, 6.0],    # matches gt 0
            [20.0, 5.0, 30.0],  # far from everything
        ]))
        labels = label_proposals(proposals, gt, 4.0)
        assert labels.tolist() == [1, 0]

    def test_select_threshold_picks_best_f1(self):
        gt = CoordSet(np.asarray([[5.0, 5.0, 5.0], [5.0, 5.0, 15.0]]))
        proposals = CoordSet(
            np.asarray([[5.0, 5.0, 5.0], [5.0, 5.0, 15.0], [5.0, 5.0, 25.0]]),
            dm_value=np.asarray([1.0, 0.9, 0.2]),
        )
        thr, f1 = select_threshold(proposals, gt, 4.0, n_grid=20)
        assert f1 == 1.0
        assert 0.2 < thr < 0.9


PIPE_CFG = {
    "seed": 1,
    "test_scene": {"shape": [48, 48, 48], "n_cells": 12, "n_distractors": 5, "n_tubes": 1},
    "train_scenes": 1,
    "train_scene": {"shape": [48, 48, 48], "n_cells": 12, "n_distractors": 5},
    "classifier": {"type": "forest", "n_trees": 32},
    "spatial": {"replicates": 8, "adjacency_um": 4.0, "cdf_mode": "kde"},
    "threshold_grid": 8,
}


class TestRunPipeline:
    def test_smoke_and_report_shape(self, tmp_path):
        report = run_pipeline(PIPE_CFG, out_dir=tmp_path)
        assert report["classifier"]["test_detection"]["f1"] > 0.7
        assert 0.0 <= report["classifier"]["test_brier"] <= 1.0
        assert report["spatial"]["probabilistic"]["alpha"] == pytest.approx(2 / 9)
        assert (tmp_path / "report.json").exists()
        assert set(report["artifacts"]) == {"model.json", "proposals.csv"}

    def test_rerun_is_byte_identical(self, tmp_path):
        run_pipeline(PIPE_CFG, out_dir=tmp_path / "a")
        run_pipeline(PIPE_CFG, out_dir=tmp_path / "b")
        for name in ("report.json", "model.json", "proposals.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_mlp_classifier_path(self, tmp_path):
        cfg = dict(PIPE_CFG)
        cfg["classifier"] = {"type": "mlp", "epochs": 10}
        report = run_pipeline(cfg)
        assert report["classifier"]["type"] == "mlp"
        assert 0.0 <= report["classifier"]["test_brier"] <= 1.0


class TestCli:
    def test_synth_detect_eval_round_trip(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        rc = main([
            "synth", "--out", str(scene), "--shape", "48", "48", "48",
            "--n-cells", "10", "--n-distractors", "0", "--n-tubes", "1", "--seed", "5",
        ])
        assert rc == 0
        files = json.loads((scene / "manifest.json").read_text())["files"]
        assert {"dm.raw", "aleatoric.raw", "epistemic.raw"} <= set(files)
        rc = main([
            "detect", "--volume", str(scene / "dm"),
            "--out", str(tmp_path / "peaks.csv"),
        ])
        assert rc == 0
        rc = main([
            "eval", "--gt", str(scene / "gt.csv"), "--pred", str(tmp_path / "peaks.csv"),
            "--out", str(tmp_path / "metrics.json"),
        ])
        assert rc == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["recall"] == 1.0

    def test_train_and_classify(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        main(["synth", "--out", str(scene), "--shape", "48", "48", "48",
              "--n-cells", "12", "--n-distractors", "6", "--seed", "2"])
        main(["detect", "--volume", str(scene / "dm"), "--out", str(tmp_path / "p.csv")])
        rc = main([
            "train-classifier", "--dm", str(scene / "dm"),
            "--u-a", str(scene / "aleatoric"), "--u-e", str(scene / "epistemic"),
            "--proposals", str(tmp_path / "p.csv"), "--gt", str(scene / "gt.csv"),
            "--out", str(tmp_path / "model.json"), "--seed", "0",
        ])
        assert rc == 0
        rc = main([
            "classify", "--model", str(tmp_path / "model.json"), "--dm", str(scene / "dm"),
            "--u-a", str(scene / "aleatoric"), "--u-e", str(scene / "epistemic"),
            "--proposals", str(tmp_path / "p.csv"), "--out", str(tmp_path / "c.csv"),
        ])
        assert rc == 0
        classified = load_coords(tmp_path / "c.csv")
        assert classified.p is not None

    def test_spatial_subcommand(self, tmp_path):
        scene = tmp_path / "scene"
        main(["synth", "--out", str(scene), "--shape", "40", "40", "40",
              "--n-cells", "10", "--n-tubes", "1", "--seed", "7"])
        cells = load_coords(scene / "gt.csv")
        save_coords(CoordSet(cells.coords, p=np.full(len(cells), 0.9)), tmp_path / "cells.csv")
        rc = main([
            "spatial", "--cells", str(tmp_path / "cells.csv"),
            "--structure", str(scene / "structure"), "--tissue", str(scene / "tissue"),
            "--replicates", "8", "--out-dir", str(tmp_path / "sp"),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "sp" / "report.json").read_text())
        assert report["probabilistic"]["alpha"] == pytest.approx(2 / 9)
        assert (tmp_path / "sp" / "curves_structure.csv").exists()

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--no-such-flag"])
        assert exc.value.code == 2

    def test_domain_error_exit_1_with_json(self, tmp_path, capsys):
        from conftest import vol

        save_volume(vol(np.full((4, 4, 4), 2.0)), tmp_path / "flat")
        save_coords(CoordSet.empty(), tmp_path / "empty.csv")
        rc = main([
            "spatial", "--cells", str(tmp_path / "empty.csv"),
            "--structure", str(tmp_path / "flat"), "--tissue", str(tmp_path / "flat"),
            "--out-dir", str(tmp_path / "sp"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert "error" in payload and payload["error"]["type"]

    def test_truncated_volume_exit_1_with_json(self, tmp_path, capsys):
        from conftest import vol

        save_volume(vol(np.ones((4, 4, 4))), tmp_path / "dm")
        raw = tmp_path / "dm.raw"
        raw.write_bytes(raw.read_bytes()[:-8])
        rc = main(["detect", "--volume", str(tmp_path / "dm"), "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "VolumeSizeMismatch"

    def test_peak_free_map_keeps_dm_value_column(self, tmp_path):
        from conftest import vol

        save_volume(vol(np.zeros((6, 6, 6))), tmp_path / "dm")
        rc = main(["detect", "--volume", str(tmp_path / "dm"), "--out", str(tmp_path / "p.csv")])
        assert rc == 0
        assert (tmp_path / "p.csv").read_text() == "z_um,y_um,x_um,dm_value\n"

    def test_nan_threshold_exit_1_with_json(self, tmp_path, capsys):
        from conftest import vol

        save_volume(vol(np.ones((4, 4, 4))), tmp_path / "dm")
        rc = main(["detect", "--volume", str(tmp_path / "dm"), "--threshold", "nan",
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ValueError"
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("voxel_size_um", [float("nan"), 1.0, 1.0]),
        ("shape", [4, 4, 4.7]),
    ])
    def test_bad_sidecar_exit_1_with_json(self, tmp_path, capsys, key, value):
        from conftest import vol

        save_volume(vol(np.zeros((4, 4, 4))), tmp_path / "dm")
        sidecar = json.loads((tmp_path / "dm.json").read_text())
        sidecar[key] = value
        (tmp_path / "dm.json").write_text(json.dumps(sidecar))
        rc = main(["detect", "--volume", str(tmp_path / "dm"), "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ValueError"

    def test_classify_non_finite_map_exit_1_with_json(self, tmp_path, capsys):
        from probcell import load_volume

        scene = tmp_path / "scene"
        main(["synth", "--out", str(scene), "--shape", "40", "40", "40",
              "--n-cells", "8", "--seed", "1"])
        main(["detect", "--volume", str(scene / "dm"), "--out", str(tmp_path / "p.csv")])
        rc = main([
            "train-classifier", "--dm", str(scene / "dm"), "--u-a", str(scene / "aleatoric"),
            "--proposals", str(tmp_path / "p.csv"), "--gt", str(scene / "gt.csv"),
            "--out", str(tmp_path / "model.json"),
        ])
        assert rc == 0
        u_a = load_volume(scene / "aleatoric")
        data = u_a.data.copy()
        data[tuple(load_coords(tmp_path / "p.csv").coords[0].astype(int))] = np.nan
        save_volume(u_a.like(data), tmp_path / "u_a_nan")
        capsys.readouterr()
        rc = main([
            "classify", "--model", str(tmp_path / "model.json"), "--dm", str(scene / "dm"),
            "--u-a", str(tmp_path / "u_a_nan"), "--proposals", str(tmp_path / "p.csv"),
            "--out", str(tmp_path / "c.csv"),
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "NonFiniteInput"
        assert not (tmp_path / "c.csv").exists()

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        cfg = {"shape": [40, 40, 40], "n_cells": 6, "n_tubes": 0, "seed": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "s"),
                   "--n-cells", "4"])
        assert rc == 0
        gt = load_coords(tmp_path / "s" / "gt.csv")
        assert len(gt) == 4  # CLI wins over the config file

    def test_render_dm_subcommand(self, tmp_path):
        save_coords(CoordSet(np.asarray([[8.5, 8.5, 8.5]])), tmp_path / "c.csv")
        rc = main([
            "render-dm", "--coords", str(tmp_path / "c.csv"), "--shape", "16", "16", "16",
            "--sigma-um", "2.0", "--out", str(tmp_path / "dm"),
        ])
        assert rc == 0
        from probcell import load_volume

        dm = load_volume(tmp_path / "dm")
        assert dm.data.max() == pytest.approx(1.0, abs=0.05)

    def test_pipeline_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "pipe.json"
        cfg_path.write_text(json.dumps(PIPE_CFG))
        rc = main(["pipeline", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 <= summary["classifier_brier"] <= 1.0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["seed"] == PIPE_CFG["seed"]
        assert "spatial" in report and "artifacts" in report

    def test_features_subcommand(self, tmp_path):
        scene = tmp_path / "scene"
        main(["synth", "--out", str(scene), "--shape", "40", "40", "40",
              "--n-cells", "8", "--seed", "1"])
        main(["detect", "--volume", str(scene / "dm"), "--out", str(tmp_path / "p.csv")])
        rc = main([
            "features", "--dm", str(scene / "dm"), "--u-a", str(scene / "aleatoric"),
            "--u-e", str(scene / "epistemic"), "--proposals", str(tmp_path / "p.csv"),
            "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 0
        header = (tmp_path / "f.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 168
