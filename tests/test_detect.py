import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from probcell import (
    CoordSet,
    KernelSpec,
    NmsConfig,
    detect_peaks,
    hungarian_match,
    render_dm,
)
from probcell.densitymap import K_MAX

from conftest import vol
from oracles import greedy_nms_oracle


class TestBasics:
    def test_single_kernel_single_peak(self):
        coords = CoordSet(np.array([[5.5, 6.5, 7.5]]))
        dm = render_dm(coords, (12, 13, 14), (1, 1, 1), KernelSpec(2.0))
        peaks = detect_peaks(dm, NmsConfig(4.0, 0.0))
        assert len(peaks) == 1
        assert np.allclose(peaks.coords, coords.coords)
        assert peaks.dm_value[0] == pytest.approx(1.0)

    def test_two_close_kernels_one_detection(self):
        coords = CoordSet(np.array([[6.5, 6.5, 5.5], [6.5, 6.5, 8.5]]))  # 3 um apart
        dm = render_dm(coords, (13, 13, 14), (1, 1, 1), KernelSpec(2.0, compounding=K_MAX))
        got = detect_peaks(dm, NmsConfig(4.0, 0.0))
        ref = greedy_nms_oracle(dm.data, (1, 1, 1), 4.0, 0.0)
        assert len(got) == len(ref) == 1

    def test_all_zero_dm_empty(self):
        peaks = detect_peaks(vol(np.zeros((6, 6, 6))), NmsConfig(4.0, 0.0))
        assert len(peaks) == 0
        assert peaks.dm_value.dtype == np.float64 and peaks.dm_value.shape == (0,)

    @pytest.mark.parametrize("min_distance, threshold", [
        (np.nan, 0.0), (4.0, np.nan), (0.0, 0.0), (4.0, -0.1),
    ])
    def test_config_rejects_nan_and_out_of_range(self, min_distance, threshold):
        with pytest.raises(ValueError):
            NmsConfig(min_distance, threshold)

    def test_negative_plateaus_not_candidates(self):
        data = np.full((6, 6, 6), -1.0)
        data[3, 3, 3] = -0.5  # local max but not positive
        assert len(detect_peaks(vol(data), NmsConfig(2.0, 0.0))) == 0

    def test_non_finite_rejected(self):
        data = np.zeros((4, 4, 4))
        data[1, 1, 1] = np.nan
        with pytest.raises(ValueError):
            detect_peaks(vol(data))

    def test_output_sorted_descending_with_lexicographic_ties(self, rng):
        data = np.zeros((20, 8, 8))
        data[2, 4, 4] = 1.0
        data[9, 4, 4] = 1.0  # tie, larger z
        data[16, 4, 4] = 2.0
        peaks = detect_peaks(vol(data), NmsConfig(3.0, 0.0))
        assert np.allclose(peaks.dm_value, [2.0, 1.0, 1.0])
        assert peaks.coords[1, 0] < peaks.coords[2, 0]


class TestOracleEquivalence:
    def test_matches_greedy_oracle_on_random_maps(self, rng):
        for trial in range(12):
            shape = tuple(int(s) for s in rng.integers(5, 25, 3))
            data = rng.normal(0, 1, size=shape).astype(np.float32)
            voxel = (1.0, 1.0, 1.0) if trial % 2 == 0 else (2.0, 1.0, 0.5)
            threshold = 0.0 if trial % 3 else 0.3
            cfg = NmsConfig(min_distance_um=3.0, threshold=threshold)
            got = detect_peaks(vol(data, voxel), cfg)
            ref = greedy_nms_oracle(data, voxel, 3.0, threshold)
            assert len(got) == len(ref)
            ref_idx = [r[0] for r in ref]
            got_idx = [tuple(i) for i in np.floor(got.coords / np.asarray(voxel)).astype(int)]
            assert got_idx == ref_idx


class TestProperties:
    def test_pairwise_distance_at_least_min(self, rng):
        for _ in range(8):
            data = rng.normal(0, 1, size=(14, 14, 14)).astype(np.float32)
            peaks = detect_peaks(vol(data), NmsConfig(4.0, 0.0))
            if len(peaks) < 2:
                continue
            diffs = peaks.coords[:, None, :] - peaks.coords[None, :, :]
            dist = np.linalg.norm(diffs, axis=2)
            dist[np.diag_indices(len(peaks))] = np.inf
            assert dist.min() >= 4.0

    def test_threshold_monotone_subset(self, rng):
        data = rng.normal(0, 1, size=(16, 16, 16)).astype(np.float32)
        v = vol(data)
        base = detect_peaks(v, NmsConfig(3.0, 0.0))
        prev = {tuple(c) for c in base.coords}
        for t in (0.2, 0.6, 1.2):
            cur_set = detect_peaks(v, NmsConfig(3.0, t))
            cur = {tuple(c) for c in cur_set.coords}
            assert cur <= prev
            # raising the threshold only filters the threshold-0 peaks
            want = {
                tuple(c) for c, val in zip(base.coords, base.dm_value) if val > t
            }
            assert cur == want
            prev = cur

    def test_gt_recovery_on_separated_cells(self, rng):
        for sigma in (1.5, 2.5, 4.0):
            shape = (40, 40, 40)
            coords = []
            while len(coords) < 12:
                c = rng.random(3) * 38 + 1
                if all(np.linalg.norm(c - q) >= 8.0 for q in coords):
                    coords.append(c)
            gt = CoordSet(np.asarray(coords))
            dm = render_dm(gt, shape, (1, 1, 1), KernelSpec(sigma, compounding=K_MAX))
            peaks = detect_peaks(dm, NmsConfig(4.0, 0.0))
            assert len(peaks) == len(gt)
            pairs = hungarian_match(gt, peaks)
            assert max(p[2] for p in pairs) <= np.sqrt(3.0)  # within one voxel


# Dyadic voxel sizes and radii keep every squared distance and r * r exact, so
# the oracle's norm >= r and the squared d2 < r2 test agree even for peaks that
# sit exactly r apart on the lattice.
_DYADIC_VOXELS = st.tuples(*[st.sampled_from([0.5, 1.0, 2.0])] * 3)
_LEVEL_MAPS = st.tuples(*[st.integers(1, 9)] * 3).flatmap(
    lambda shape: arrays(np.float32, shape, elements=st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]))
)


class TestNmsPropertyOracle:
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(
        data=_LEVEL_MAPS,
        voxel=_DYADIC_VOXELS,
        radius=st.integers(2, 16).map(lambda k: 0.25 * k),
        threshold=st.sampled_from([0.0, 0.3, 0.5]),
    )
    def test_matches_greedy_oracle(self, data, voxel, radius, threshold):
        got = detect_peaks(vol(data, voxel), NmsConfig(radius, threshold))
        ref = greedy_nms_oracle(data, voxel, radius, threshold)
        assert np.array_equal(got.coords, np.asarray([r[2] for r in ref]).reshape(-1, 3))
        assert np.array_equal(got.dm_value, [r[1] for r in ref])

    @pytest.mark.parametrize("offset, radius, n_kept", [
        ((0, 0, 4), 4.0, 2),  # exactly r apart: both kept
        ((0, 3, 4), 5.0, 2),
        ((1, 2, 2), 3.0, 2),
        ((0, 2, 2), np.sqrt(8.0), 1),  # float sqrt(8) ** 2 rounds above 8
        ((0, 2, 4), np.sqrt(20.0), 1),  # likewise above 20
        ((2, 2, 2), np.sqrt(12.0), 2),  # below 12, so the pair is not closer than r
    ])
    def test_pair_at_lattice_radius(self, offset, radius, n_kept):
        data = np.zeros((8, 8, 8))
        data[1, 1, 1] = 2.0
        data[1 + offset[0], 1 + offset[1], 1 + offset[2]] = 1.0
        peaks = detect_peaks(vol(data), NmsConfig(radius, 0.0))
        assert np.array_equal(peaks.dm_value, [2.0, 1.0][:n_kept])
