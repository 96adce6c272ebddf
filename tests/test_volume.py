import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from probcell import (
    CoordSet,
    KernelSpec,
    TilingConfig,
    Volume3D,
    load_volume,
    plan_tiling,
    reconstruct_coordinates,
    render_dm,
    save_volume,
)
from probcell.errors import VolumeSizeMismatch, VolumeTooSmall
from probcell.volume import M_CONV, M_PEAK, extract_box, pad_volume

from conftest import vol


SUPP_TABLE_CONV = TilingConfig.m_conv((64, 156, 156), (20, 20, 20))
SUPP_TABLE_PEAK = TilingConfig.m_peak((64, 156, 156), (20, 20, 20), (4, 4, 4))


class TestTilingConfig:
    def test_reference_m_conv_row(self):
        assert SUPP_TABLE_CONV.l_out == (24, 116, 116)
        assert SUPP_TABLE_CONV.l_out_tile == (24, 116, 116)
        assert SUPP_TABLE_CONV.l_pad == (20, 20, 20)
        assert SUPP_TABLE_CONV.l_overlap == (40, 40, 40)

    def test_reference_m_peak_row(self):
        assert SUPP_TABLE_PEAK.l_out == (24, 116, 116)
        assert SUPP_TABLE_PEAK.l_out_tile == (16, 108, 108)
        assert SUPP_TABLE_PEAK.l_pad == (24, 24, 24)
        assert SUPP_TABLE_PEAK.l_overlap == (48, 48, 48)

    def test_margin_identities_on_random_configs(self, rng):
        for _ in range(50):
            conv = tuple(int(c) for c in rng.integers(0, 6, 3))
            peak = tuple(int(p) for p in rng.integers(0, 4, 3))
            l_in = tuple(
                int(2 * (c + p) + rng.integers(1, 20)) for c, p in zip(conv, peak)
            )
            cfg = TilingConfig(l_in, conv, peak, M_PEAK)
            assert cfg.l_pad == tuple(c + p for c, p in zip(conv, peak))
            assert cfg.l_overlap == tuple(
                i - t for i, t in zip(l_in, cfg.l_out_tile)
            )

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            TilingConfig((8, 8, 8), (4, 4, 4), (0, 0, 0), M_CONV)  # l_out = 0
        with pytest.raises(ValueError):
            TilingConfig((10, 10, 10), (2, 2, 2), (3, 3, 3), M_PEAK)  # l_out_tile = 0
        with pytest.raises(ValueError):
            TilingConfig((10, 10, 10), (2, 2, 2), (1, 1, 1), M_CONV)  # margin under m_conv


class TestPlanTiling:
    def test_single_patch_when_shape_equals_tile(self):
        cfg = TilingConfig.m_peak((16, 16, 16), (2, 2, 2), (2, 2, 2))
        grid = plan_tiling(cfg.l_out_tile, cfg)
        assert len(grid.patches) == 1
        patch = grid.patches[0]
        assert patch.out_box == ((4, 4, 4), (12, 12, 12))
        assert patch.in_box == ((0, 0, 0), (16, 16, 16))

    def test_two_and_a_half_tiles_gives_three_overlapping_last(self):
        cfg = TilingConfig.m_peak((16, 16, 16), (2, 2, 2), (2, 2, 2))
        tile = cfg.l_out_tile[2]
        shape = (tile, tile, int(2.5 * tile))
        grid = plan_tiling(shape, cfg)
        assert len(grid.patches) == 3
        x_starts = sorted(p.out_box[0][2] - grid.origin_offset[2] for p in grid.patches)
        assert x_starts == [0, tile, shape[2] - tile]
        assert x_starts[2] < 2 * tile  # trailing window overlaps the second

    def test_volume_too_small(self):
        with pytest.raises(VolumeTooSmall):
            plan_tiling((4, 200, 200), SUPP_TABLE_PEAK)

    @pytest.mark.parametrize("strategy", [M_CONV, M_PEAK])
    def test_output_windows_cover_and_partition(self, rng, strategy):
        for _ in range(20):
            conv = tuple(int(c) for c in rng.integers(1, 4, 3))
            peak = (0, 0, 0) if strategy == M_CONV else tuple(int(p) for p in rng.integers(1, 3, 3))
            l_in = tuple(int(2 * (c + p) + rng.integers(2, 10)) for c, p in zip(conv, peak))
            cfg = TilingConfig(l_in, conv, peak, strategy)
            shape = tuple(int(t + rng.integers(0, 3 * t)) for t in cfg.l_out_tile)
            grid = plan_tiling(shape, cfg)
            cover = np.zeros(shape, dtype=int)
            keep_cover = np.zeros(shape, dtype=int)
            for p in grid.patches:
                lo = tuple(a - b for a, b in zip(p.out_box[0], grid.origin_offset))
                hi = tuple(a - b for a, b in zip(p.out_box[1], grid.origin_offset))
                cover[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] += 1
                klo = tuple(a - b for a, b in zip(p.keep_box[0], grid.origin_offset))
                khi = tuple(a - b for a, b in zip(p.keep_box[1], grid.origin_offset))
                keep_cover[klo[0] : khi[0], klo[1] : khi[1], klo[2] : khi[2]] += 1
                for ax in range(3):
                    assert p.in_box[0][ax] >= 0
                    assert p.in_box[1][ax] <= grid.padded_shape[ax]
            assert (cover >= 1).all()
            assert (keep_cover == 1).all()
            for ax in range(3):
                starts = sorted({p.out_box[0][ax] for p in grid.patches})
                gaps = np.diff(starts)
                # adjacent tiles except a possible trailing overlap
                assert all(g == cfg.l_out_tile[ax] for g in gaps[:-1])
                if len(gaps):
                    assert 0 < gaps[-1] <= cfg.l_out_tile[ax]


def _perfect_patch_detections(coords, grid, cfg, voxel=1.0):
    """Simulate flawless per-patch detection: every cell visible in a patch's
    predicted box reported in output-window-local micrometers."""
    per_patch = []
    for patch in grid.patches:
        lo = (np.asarray(patch.cnn_box[0]) - grid.origin_offset) * voxel
        hi = (np.asarray(patch.cnn_box[1]) - grid.origin_offset) * voxel
        inside = np.all((coords >= lo) & (coords < hi), axis=1)
        out_start = (np.asarray(patch.out_box[0]) - grid.origin_offset) * voxel
        per_patch.append(CoordSet(coords[inside] - out_start))
    return per_patch


class TestReconstruct:
    def test_offsets_cancel_single_patch(self):
        cfg = SUPP_TABLE_PEAK
        grid = plan_tiling(cfg.l_out_tile, cfg)
        assert grid.origin_offset == (24, 24, 24)
        assert grid.patches[0].out_box[0] == (24, 24, 24)
        local = CoordSet(np.array([[8.0, 8.0, 8.0]]))
        out = reconstruct_coordinates([local], grid, cfg)
        assert np.allclose(out.coords, [[8.0, 8.0, 8.0]])

    def test_m_peak_deduplicates_margin_detection(self):
        cfg = TilingConfig.m_peak((16, 16, 16), (2, 2, 2), (2, 2, 2))
        shape = (8, 8, 16)
        grid = plan_tiling(shape, cfg)
        assert len(grid.patches) == 2
        cell = np.array([[4.5, 4.5, 8.5]])  # inside patch 1's core, patch 0's margin
        per_patch = _perfect_patch_detections(cell, grid, cfg)
        assert len(per_patch[0]) == 1 and len(per_patch[1]) == 1
        out = reconstruct_coordinates(per_patch, grid, cfg)
        assert len(out) == 1
        assert np.allclose(out.coords, cell)

    def test_m_conv_keeps_both_detections(self):
        cfg = TilingConfig.m_conv((16, 16, 16), (4, 4, 4))
        shape = (8, 8, 16)
        grid = plan_tiling(shape, cfg)
        assert len(grid.patches) == 2
        # the same physical cell reported by both patches at slightly
        # different positions (border kernel truncation)
        out_starts = [
            (np.asarray(p.out_box[0]) - grid.origin_offset) * 1.0 for p in grid.patches
        ]
        true_pos = np.array([6.5, 4.5, 7.5])
        artifact = np.array([6.5, 4.5, 8.5])
        per_patch = [
            CoordSet((true_pos - out_starts[0]).reshape(1, 3)),
            CoordSet((artifact - out_starts[1]).reshape(1, 3)),
        ]
        out = reconstruct_coordinates(per_patch, grid, cfg)
        assert len(out) == 2
        dist = np.linalg.norm(out.coords[0] - out.coords[1])
        assert dist < 4.0

    def test_split_then_reconstruct_is_identity(self, rng):
        cfg = TilingConfig.m_peak((20, 20, 20), (3, 3, 3), (2, 2, 2))
        for trial in range(5):
            shape = tuple(int(s) for s in rng.integers(10, 35, 3))
            grid = plan_tiling(shape, cfg)
            n = 25
            coords = (rng.integers(0, shape, size=(n, 3)) + 0.5) * 1.0
            coords = np.unique(coords, axis=0)
            per_patch = _perfect_patch_detections(coords, grid, cfg)
            out = reconstruct_coordinates(per_patch, grid, cfg)
            got = set(map(tuple, out.coords))
            want = set(map(tuple, coords))
            assert got == want


class TestStitchingInvariant:
    @pytest.mark.parametrize("compounding", ["sum", "max"])
    def test_patch_renders_stitch_exactly(self, rng, compounding):
        kernel = KernelSpec(sigma_um=2.0, cutoff_um=8.0, compounding=compounding)
        cfg = TilingConfig.m_peak((18, 18, 18), (2, 2, 2), (2, 2, 2))
        shape = (12, 23, 30)
        grid = plan_tiling(shape, cfg)
        coords = CoordSet(rng.random((30, 3)) * np.asarray(shape))
        whole = render_dm(coords, shape, (1.0, 1.0, 1.0), kernel)
        for patch in grid.patches:
            lo = np.asarray(patch.out_box[0]) - grid.origin_offset
            hi = np.asarray(patch.out_box[1]) - grid.origin_offset
            piece = render_dm(
                coords,
                tuple(hi - lo),
                (1.0, 1.0, 1.0),
                kernel,
                origin_um=tuple(lo.astype(float)),
            )
            ref = whole.data[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
            assert np.array_equal(piece.data, ref)


class TestVolumeIO:
    def test_round_trip(self, tmp_path, rng):
        v = Volume3D(rng.random((4, 5, 6)).astype(np.float32), (1.0, 0.5, 2.0))
        save_volume(v, tmp_path / "vol")
        assert (tmp_path / "vol.raw").exists() and (tmp_path / "vol.json").exists()
        back = load_volume(tmp_path / "vol")
        assert back.voxel_size == v.voxel_size
        assert np.array_equal(back.data, v.data)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        data=st.tuples(*[st.integers(1, 5)] * 3).flatmap(
            lambda shape: arrays(np.float32, shape, elements=st.floats(width=32))
        ),
        voxel=st.tuples(*[st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)] * 3),
    )
    def test_round_trip_bit_exact(self, data, voxel):
        with tempfile.TemporaryDirectory() as d:
            save_volume(Volume3D(data, voxel), Path(d) / "vol")
            back = load_volume(Path(d) / "vol")
        assert back.data.dtype == np.float32 and back.shape == data.shape
        assert back.data.tobytes() == data.tobytes()
        assert back.voxel_size == voxel

    @pytest.mark.parametrize("delta", [-4, -1, 4])
    def test_raw_size_must_match_sidecar(self, tmp_path, rng, delta):
        save_volume(Volume3D(rng.random((4, 5, 6)).astype(np.float32), (1.0,) * 3),
                    tmp_path / "vol")
        raw = (tmp_path / "vol.raw").read_bytes()
        cut = raw[:delta] if delta < 0 else raw + bytes(delta)
        (tmp_path / "vol.raw").write_bytes(cut)
        with pytest.raises(VolumeSizeMismatch):
            load_volume(tmp_path / "vol")

    @pytest.mark.parametrize("voxel", [
        (np.nan, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, -np.inf), (0.0, 1.0, 1.0),
    ])
    def test_voxel_size_must_be_positive_and_finite(self, voxel):
        with pytest.raises(ValueError, match="voxel_size"):
            vol(np.zeros((2, 2, 2)), voxel)

    @pytest.mark.parametrize("key, value", [
        ("voxel_size_um", [float("nan"), 1.0, 1.0]),
        ("voxel_size_um", [1.0, float("inf"), 1.0]),
        ("shape", [4, 4, 4.7]),
        ("shape", [4, 4, "4"]),
    ])
    def test_sidecar_numbers_checked(self, tmp_path, key, value):
        save_volume(vol(np.zeros((4, 4, 4))), tmp_path / "vol")
        sidecar = json.loads((tmp_path / "vol.json").read_text())
        sidecar[key] = value
        (tmp_path / "vol.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError):
            load_volume(tmp_path / "vol")

    def test_pad_and_extract(self):
        v = vol(np.ones((4, 4, 4)))
        cfg = TilingConfig.m_peak((8, 8, 8), (1, 1, 1), (1, 1, 1))
        grid = plan_tiling(v.shape, cfg)
        padded = pad_volume(v, grid)
        assert padded.shape == grid.padded_shape
        assert padded.data.sum() == v.data.sum()  # zero padding
        box = extract_box(padded, grid.patches[0].in_box)
        assert box.shape == cfg.l_in
