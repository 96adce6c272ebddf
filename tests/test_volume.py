import contextlib
import json
import multiprocessing
import os
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from probcell import (
    CoordSet,
    FeatureSpec,
    KernelSpec,
    NmsConfig,
    SynthSpec,
    TilingConfig,
    Volume3D,
    generate_coords,
    load_volume,
    oracle_regress,
    plan_tiling,
    render_dm,
    save_volume,
)
from probcell import cores
from probcell.errors import EmptyCells, NonFiniteInput, VolumeSizeMismatch, VolumeTooSmall
from probcell.pipeline import DEFAULT_CONFIG, tiled_detect
from probcell.features import extract_features
from probcell.cli import main
from probcell.cores import fork_join, on_two_cores, on_two_processes, side_by_side
from probcell.volume import M_CONV, M_PEAK

from conftest import no_child_left, vol
from oracles import reference_plan_tiling
from test_acceptance import PERF_CFG


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

    @pytest.mark.parametrize("field, args", [
        ("l_in", ((48.9, 48, 48), (8.7, 8, 8), (4, 4, 4), M_PEAK)),
        ("conv_margin", ((48, 48, 48), (8.7, 8, 8), (4, 4, 4), M_PEAK)),
        ("peak_margin", ((48, 48, 48), (8, 8, 8), (4, 4, 4.0), M_PEAK)),
    ])
    def test_non_integer_sizes_rejected_by_name(self, field, args):
        """int() would truncate 48.9 to 48 and pass it on."""
        with pytest.raises(ValueError, match=f"^{field} must be integers"):
            TilingConfig(*args)

    def test_numpy_integer_sizes_accepted(self):
        cfg = TilingConfig(tuple(np.arange(46, 49)), (np.int32(8),) * 3, (4, 4, 4), M_PEAK)
        assert cfg.l_in == (46, 47, 48) and all(type(v) is int for v in cfg.l_in)

    @pytest.mark.parametrize("field, args", [
        ("l_in", ((-5,) * 3, (-4,) * 3, (0,) * 3, M_CONV)),  # l_out 3 from negatives
        ("conv_margin", ((8,) * 3, (-1,) * 3, (0,) * 3, M_CONV)),
        ("peak_margin", ((24,) * 3, (4,) * 3, (-2,) * 3, M_PEAK)),
    ])
    def test_negative_sizes_rejected_by_name(self, field, args):
        """A negative peak margin would leave each predicted box short of its
        own core, so peaks there would have no owner."""
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            TilingConfig(*args)


class TestPlanTiling:
    def test_single_patch_when_shape_equals_tile(self):
        cfg = TilingConfig.m_peak((16, 16, 16), (2, 2, 2), (2, 2, 2))
        grid = plan_tiling(cfg.l_out_tile, cfg)
        assert len(grid.patches) == 1
        patch = grid.patches[0]
        assert patch.out_box == patch.keep_box == ((0, 0, 0), (8, 8, 8))
        assert patch.cnn_box == ((-2, -2, -2), (10, 10, 10))
        assert patch.in_box == ((-4, -4, -4), (12, 12, 12))

    def test_two_and_a_half_tiles_gives_three_overlapping_last(self):
        cfg = TilingConfig.m_peak((16, 16, 16), (2, 2, 2), (2, 2, 2))
        tile = cfg.l_out_tile[2]
        shape = (tile, tile, int(2.5 * tile))
        grid = plan_tiling(shape, cfg)
        assert len(grid.patches) == 3
        x_starts = sorted(p.out_box[0][2] for p in grid.patches)
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
                (lo, hi), (klo, khi) = p.out_box, p.keep_box
                cover[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] += 1
                keep_cover[klo[0] : khi[0], klo[1] : khi[1], klo[2] : khi[2]] += 1
                for ax in range(3):
                    assert 0 <= lo[ax] and hi[ax] <= shape[ax]
                    assert -cfg.l_pad[ax] <= p.in_box[0][ax]
                    assert p.in_box[1][ax] <= shape[ax] + cfg.l_pad[ax]
            assert (cover >= 1).all()
            assert (keep_cover == 1).all()
            for ax in range(3):
                starts = sorted({p.out_box[0][ax] for p in grid.patches})
                gaps = np.diff(starts)
                # adjacent tiles except a possible trailing overlap
                assert all(g == cfg.l_out_tile[ax] for g in gaps[:-1])
                if len(gaps):
                    assert 0 < gaps[-1] <= cfg.l_out_tile[ax]


@st.composite
def tilings(draw):
    """(shape, TilingConfig): either strategy, margins from 0, and per axis a
    shape of one output tile, of several, or below one."""
    strategy = draw(st.sampled_from([M_CONV, M_PEAK]))
    conv = draw(st.tuples(*[st.integers(0, 6)] * 3))
    peak = (0, 0, 0) if strategy == M_CONV else draw(st.tuples(*[st.integers(0, 4)] * 3))
    l_in = tuple(draw(st.integers(2 * (c + p) + 1, 2 * (c + p) + 16)) for c, p in zip(conv, peak))
    cfg = TilingConfig(l_in, conv, peak, strategy)
    shape = tuple(
        draw(st.one_of(st.just(t), st.integers(t + 1, 6 * t), st.integers(0, t - 1)))
        for t in cfg.l_out_tile
    )
    return shape, cfg


class TestPlanTilingOracle:
    """plan_tiling against the nested-loop plan it replaced: the same patches
    in the same order, or the same VolumeTooSmall."""

    @staticmethod
    def assert_same_plan(shape, cfg):
        try:
            expected = reference_plan_tiling(shape, cfg)
        except VolumeTooSmall as exc:
            with pytest.raises(VolumeTooSmall) as got:
                plan_tiling(shape, cfg)
            assert type(got.value) is VolumeTooSmall and str(got.value) == str(exc)
            return
        grid = plan_tiling(shape, cfg)
        assert grid == expected and repr(grid) == repr(expected)  # plain ints, as before

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(case=tilings())
    def test_equals_nested_loop_plan(self, case):
        self.assert_same_plan(*case)

    @pytest.mark.parametrize("scene", ["test_scene", "train_scene"])
    @pytest.mark.parametrize("config", [DEFAULT_CONFIG, PERF_CFG], ids=["default", "perf"])
    def test_pipeline_tilings(self, config, scene):
        t = DEFAULT_CONFIG["tiling"]
        cfg = TilingConfig(t["l_in"], t["conv_margin"], t["peak_margin"], t["strategy"])
        self.assert_same_plan(config[scene]["shape"], cfg)


class TestReconstruct:
    """Merging per-patch detections into the volume's frame, as tiled_detect
    does it."""

    def test_m_conv_keeps_both_detections(self):
        cfg = TilingConfig.m_conv((16, 16, 16), (4, 4, 4))
        shape = (8, 8, 16)
        assert len(plan_tiling(shape, cfg).patches) == 2
        # one cell near the patch border: patch 0 finds it, patch 1 sees only
        # the kernel's tail and reports its own border voxel (truncation)
        true_pos = np.array([[6.5, 4.5, 7.5]])
        artifact = np.array([[6.5, 4.5, 8.5]])
        dm = render_dm(CoordSet(true_pos), shape, (1, 1, 1), KernelSpec(2.0))
        out = tiled_detect(dm, cfg, NmsConfig(4.0, 0.0))
        assert np.array_equal(out.coords, np.concatenate([true_pos, artifact]))

    def test_split_then_reconstruct_is_identity(self, rng):
        cfg = TilingConfig.m_peak((20, 20, 20), (3, 3, 3), (2, 2, 2))
        for trial in range(5):
            shape = tuple(int(s) for s in rng.integers(10, 35, 3))
            # one isolated maximum per cell (cells on even voxels never touch),
            # each found by every patch that sees it and kept by exactly one
            half = tuple((s + 1) // 2 for s in shape)
            cells = np.unique(2 * rng.integers(0, half, size=(25, 3)), axis=0)
            data = np.zeros(shape, dtype=np.float32)
            data[tuple(cells.T)] = rng.random(len(cells)) + 0.5
            out = tiled_detect(Volume3D(data, (1, 1, 1)), cfg, NmsConfig(0.5, 0.0))
            assert len(out) == len(cells)
            assert set(map(tuple, out.coords)) == set(map(tuple, cells + 0.5))


class TestVolumeData:
    @pytest.mark.parametrize("dtype", [np.int16, np.uint8, np.float16, np.int64])
    def test_other_dtypes_become_float32(self, dtype):
        data = np.arange(24).reshape(2, 3, 4).astype(dtype)
        v = Volume3D(data, (1.0, 1.0, 1.0))
        assert v.data.dtype == np.float32 and np.array_equal(v.data, data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.bool_])
    def test_own_dtypes_stay(self, dtype):
        data = np.ones((2, 3, 4), dtype)
        assert Volume3D(data, (1.0, 1.0, 1.0)).data is data


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
        ("voxel_size_um", [1, 1, True]),  # used to load as (1.0, 1.0, 1.0)
        ("voxel_size_um", ["1.5", 1, 1]),  # and as (1.5, 1.0, 1.0)
    ])
    def test_sidecar_numbers_checked(self, tmp_path, key, value):
        save_volume(vol(np.zeros((4, 4, 4))), tmp_path / "vol")
        sidecar = json.loads((tmp_path / "vol.json").read_text())
        sidecar[key] = value
        (tmp_path / "vol.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError):
            load_volume(tmp_path / "vol")

    def test_sidecar_integer_voxel_size_loads(self, tmp_path):
        save_volume(vol(np.zeros((4, 4, 4))), tmp_path / "vol")
        (tmp_path / "vol.json").write_text(json.dumps({"shape": [4, 4, 4], "voxel_size_um": [1, 2, 1]}))
        assert load_volume(tmp_path / "vol").voxel_size == (1.0, 2.0, 1.0)


@contextlib.contextmanager
def threads_started():
    """The list of threads started inside the block."""
    started, start = [], threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    with mock.patch.object(threading.Thread, "start", counting):
        yield started


class TestSizeRule:
    def test_small_volume_stays_on_the_calling_thread(self):
        calls = []
        with threads_started() as started:
            on_two_cores(lambda lo, hi: calls.append((lo, hi, threading.get_ident())), 7,
                         cores.SPLIT_MIN_BYTES - 1)
        assert calls == [(0, 7, threading.get_ident())]
        assert started == []

    def test_splits_at_the_constant(self):
        calls = {}
        on_two_cores(lambda lo, hi: calls.update({(lo, hi): threading.get_ident()}), 7,
                     cores.SPLIT_MIN_BYTES)
        assert sorted(calls) == [(0, 3), (3, 7)]
        assert calls[(3, 7)] == threading.get_ident() != calls[(0, 3)]

    def test_oracle_regress_at_80_cubed_starts_no_thread(self):
        spec = SynthSpec(shape=(80, 80, 80), n_cells=40, n_distractors=16, seed=1)
        coords = generate_coords(spec)
        with threads_started() as started:
            oracle_regress(coords, spec)
        assert started == []

    def test_side_by_side_below_the_rule_runs_in_order(self):
        calls = []
        with threads_started() as started:
            got = side_by_side(lambda: calls.append("first") or 1,
                               lambda: calls.append("second") or 2, cores.SPLIT_MIN_BYTES - 1)
        assert got == [1, 2] and calls == ["first", "second"]
        assert started == []

    def test_default96_test_scene_starts_no_thread_and_forks_no_child(self, tmp_path):
        """default96's largest scene, 96^3 (a 6.75 MiB float64 volume), is
        below the size rule in oracle_regress and in probcell synth."""
        scene = {k: tuple(v) if isinstance(v, list) else v
                 for k, v in DEFAULT_CONFIG["test_scene"].items()}
        spec = SynthSpec(seed=0, **scene)
        assert 8 * np.prod(spec.shape) < cores.SPLIT_MIN_BYTES
        coords = generate_coords(spec)
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(DEFAULT_CONFIG["test_scene"]))
        with threads_started() as started, mock.patch.object(os, "fork", wraps=os.fork) as fork:
            oracle_regress(coords, spec)
            assert main(["synth", "--config", str(config), "--out", str(tmp_path / "s")]) == 0
        assert started == [] and fork.call_count == 0


@pytest.mark.usefixtures("split_always")
class TestOnTwoCores:
    @pytest.mark.parametrize("n, halves", [(7, [(0, 3), (3, 7)]), (1, [(0, 0), (0, 1)])])
    def test_worker_takes_the_first_half(self, n, halves):
        calls = {}
        on_two_cores(lambda lo, hi: calls.update({(lo, hi): threading.get_ident()}), n, 0)
        assert sorted(calls) == halves
        assert calls[halves[1]] == threading.get_ident() != calls[halves[0]]

    def test_waits_for_worker_when_caller_raises(self):
        finished = threading.Event()

        def fn(lo, hi):
            if lo == 0:
                time.sleep(0.2)
                finished.set()
            else:
                raise RuntimeError("caller half")

        with pytest.raises(RuntimeError, match="caller half"):
            on_two_cores(fn, 4, 0)
        assert finished.is_set()

    def test_worker_keeps_the_callers_error_state(self):
        big = np.full(4, 1e308)

        def fn(lo, hi):
            if lo == 0:  # only the worker's half overflows
                big[lo:hi] * 10.0

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            on_two_cores(fn, 4, 0)
        with np.errstate(over="ignore"):
            on_two_cores(fn, 4, 0)

    def test_side_by_side_runs_the_first_call_on_the_worker(self):
        got = side_by_side(threading.get_ident, threading.get_ident, 0)
        assert got[1] == threading.get_ident() != got[0]

    def test_reraises_worker_exception(self):
        finished = []

        def fn(lo, hi):
            if lo == 0:
                raise KeyError("worker half")
            finished.append((lo, hi))

        with pytest.raises(KeyError, match="worker half"):
            on_two_cores(fn, 4, 0)
        assert finished == [(2, 4)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_usable_in_a_forked_child(self):
        on_two_cores(lambda lo, hi: None, 2, 0)  # a worker has run in this process
        child = multiprocessing.get_context("fork").Process(
            target=on_two_cores, args=(lambda lo, hi: None, 2, 0)
        )
        child.start()
        child.join(timeout=30)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join(timeout=30)
        assert not hung and child.exitcode == 0


class TestOnTwoProcesses:
    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_halves_come_back_in_order(self, n):
        halves = on_two_processes(lambda lo, hi: (list(range(lo, hi)), os.getpid()), n)
        assert [items for items, _ in halves] == [list(range(n // 2)), list(range(n // 2, n))]
        assert halves[1][1] == os.getpid() != halves[0][1]
        no_child_left()

    @pytest.mark.parametrize("n_maps", [1, 3])
    @pytest.mark.parametrize("rows", [1, 31, 95])
    def test_features_fork_once_whatever_their_size(self, monkeypatch, rng, n_maps, rows):
        calls = []
        real_fork = os.fork

        def fork():
            calls.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        maps = [(name, vol(rng.random((16, 16, 16)))) for name in ("dm", "u_a", "u_e")[:n_maps]]
        proposals = CoordSet(rng.uniform(0.0, 16.0, (rows, 3)))
        X = extract_features(maps, proposals)
        assert X.shape[0] == rows and len(calls) == 1
        no_child_left()

    def test_child_error_reraised_with_type_and_message(self):
        def fn(lo, hi):
            if lo == 0:
                raise EmptyCells("child half")
            return hi

        with pytest.raises(EmptyCells) as info:
            on_two_processes(fn, 4)
        assert type(info.value) is EmptyCells and str(info.value) == "child half"
        no_child_left()

    def test_caller_error_kills_and_reaps_the_child(self):
        def fn(lo, hi):
            if lo == 0:
                time.sleep(60)
            raise KeyError("caller half")

        start = time.monotonic()
        with pytest.raises(KeyError, match="caller half"):
            on_two_processes(fn, 4)
        assert time.monotonic() - start < 30
        no_child_left()

    def test_fork_join_runs_two_callables(self):
        def fail(exc):
            raise exc

        child, mine = fork_join(os.getpid, os.getpid)
        assert mine == os.getpid() != child
        with pytest.raises(EmptyCells, match="child"):
            fork_join(lambda: fail(EmptyCells("child")), lambda: None)
        start = time.monotonic()
        with pytest.raises(KeyError, match="caller"):
            fork_join(lambda: time.sleep(60), lambda: fail(KeyError("caller")))
        assert time.monotonic() - start < 30
        no_child_left()

    def test_child_that_dies_without_result_raises(self):
        def fn(lo, hi):
            if lo == 0:
                os._exit(3)
            return hi

        with pytest.raises(RuntimeError, match="without sending a result"):
            on_two_processes(fn, 4)
        no_child_left()

    NAN_LAYOUTS = [
        [("u_a", 0, 5), ("dm", 0, 11)],  # the caller's half holds the first map
        [("dm", 2, 5), ("dm", 0, 11)],  # ... the first window of one map
        [("dm", 1, 11), ("dm", 1, 5)],  # the child's half holds the first row
        [("u_e", 0, 5), ("u_e", 0, 6)],  # both in the child's half
    ]

    @pytest.mark.parametrize("nans, forked", [
        *(pytest.param(nans, True, id=f"nans{i}") for i, nans in enumerate(NAN_LAYOUTS)),
        *(pytest.param(nans, False, id=f"nans{i}-serial") for i, nans in enumerate(NAN_LAYOUTS)),
    ])
    def test_features_name_the_serial_first_window(self, monkeypatch, rng, nans, forked):
        """NaN in a window of each half (rows 0-7, forked or not, and 8-15):
        the error names the window the serial map, window, row loop meets
        first, whether the halves ran in two processes or in this one."""
        names = ("dm", "u_a", "u_e")
        if not forked:  # fork_join runs both halves here
            monkeypatch.delattr(os, "fork")
        data = {name: rng.random((40, 40, 40)).astype(np.float32) for name in names}
        centers = np.stack([np.full(3, 4 + 2 * i) for i in range(16)])
        sides = (1, 3, 5)
        for name, win, row in nans:  # the window's first plane, on its axis
            z, y, x = centers[row]
            data[name][z - sides[win] // 2, y, x] = np.nan
        first = next(
            (name, row)
            for name in names for side in sides for row, c in enumerate(centers)
            if np.isnan(data[name][tuple(slice(a - side // 2, a - side // 2 + side) for a in c)]).any()
        )
        maps = [(name, vol(data[name])) for name in names]
        with pytest.raises(NonFiniteInput) as info:
            extract_features(maps, CoordSet(centers + 0.5), FeatureSpec(tuple(map(float, sides))))
        assert str(info.value) == (
            f"map {first[0]!r} has NaN or infinite values in the window around proposal {first[1]}"
        )
        no_child_left()
