import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from probcell import (
    CoordSet,
    KernelSpec,
    NmsConfig,
    Volume3D,
    detect_peaks,
    hungarian_match,
    render_dm,
)
from probcell import detect as detect_mod
from probcell.densitymap import K_MAX
from probcell.detect import local_maxima, proposals_by_threshold
from probcell.errors import NonFiniteInput
from probcell.cores import on_two_cores

from conftest import spread_candidates, vol
from oracles import (
    greedy_nms_oracle,
    pair_walk_detect_peaks,
    reference_local_maxima,
    whole_volume_local_maxima,
)


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


def _as_lists(peaks: CoordSet) -> tuple[list, list]:
    return peaks.coords.tolist(), peaks.dm_value.tolist()


_F32_POINT_ONE = float(np.float32(0.1))  # 0.10000000149...
_F32_POINT_THREE = float(np.float32(0.3))  # 0.30000001192...


class TestStoppingThreshold:
    """A candidate survives threshold t when its float64 value exceeds t,
    in detect_peaks as in proposals_by_threshold and the greedy oracle,
    also where t rounds to a map value in float32."""

    @pytest.mark.parametrize("threshold, kept", [
        (0.0, [_F32_POINT_THREE, _F32_POINT_ONE]),
        (0.1, [_F32_POINT_THREE, _F32_POINT_ONE]),
        (float(np.nextafter(np.float32(0.1), np.float32(0))), [_F32_POINT_THREE, _F32_POINT_ONE]),
        (float(np.nextafter(_F32_POINT_ONE, 0.0)), [_F32_POINT_THREE, _F32_POINT_ONE]),
        (_F32_POINT_ONE, [_F32_POINT_THREE]),
        (0.3, [_F32_POINT_THREE]),
        (_F32_POINT_THREE - 1e-9, [_F32_POINT_THREE]),
        (_F32_POINT_THREE, []),
    ])
    def test_float32_rounding_boundaries(self, threshold, kept):
        data = np.zeros((9, 9, 9), np.float32)
        data[2, 2, 2] = 0.3
        data[6, 6, 6] = 0.1
        base = detect_peaks(vol(data), NmsConfig(2.0, 0.0))
        peaks = detect_peaks(vol(data), NmsConfig(2.0, threshold))
        ref = greedy_nms_oracle(data, (1.0, 1.0, 1.0), 2.0, threshold)
        assert peaks.dm_value.tolist() == [v for _, v, _ in ref] == kept
        assert _as_lists(peaks) == _as_lists(proposals_by_threshold(base, threshold))

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        data=st.tuples(*[st.integers(1, 9)] * 3).flatmap(
            lambda shape: arrays(np.float32, shape, elements=st.floats(-1, 1, width=32))
        ),
        pick=st.integers(0, 2**32 - 1),
        step=st.sampled_from(["below", "at", "above", "float32 below", "float32 above"]),
        radius=st.sampled_from([1.0, 2.0, 3.5]),
    )
    def test_threshold_at_a_map_value(self, data, pick, step, radius):
        value = data.flat[pick % data.size]
        t = {
            "below": np.nextafter(float(value), -np.inf), "at": float(value),
            "above": np.nextafter(float(value), np.inf),
            "float32 below": np.nextafter(value, np.float32(-np.inf)),
            "float32 above": np.nextafter(value, np.float32(np.inf)),
        }[step]
        t = max(float(t), 0.0)
        peaks = detect_peaks(vol(data), NmsConfig(radius, t))
        ref = greedy_nms_oracle(data, (1.0, 1.0, 1.0), radius, t)
        assert peaks.coords.tolist() == np.reshape([pos for _, _, pos in ref], (-1, 3)).tolist()
        assert peaks.dm_value.tolist() == [v for _, v, _ in ref]
        base = detect_peaks(vol(data), NmsConfig(radius, 0.0))
        assert _as_lists(peaks) == _as_lists(proposals_by_threshold(base, t))

    @pytest.mark.parametrize("threshold, expected", [
        (1e300, []), (3.5e38, []), (float(np.finfo(np.float32).max), []), (3.4e38, [[2, 2, 2]]),
    ])
    def test_threshold_near_or_beyond_float32_max_without_warnings(self, threshold, expected):
        data = np.zeros((5, 5, 5), np.float32)
        data[2, 2, 2] = np.finfo(np.float32).max
        data[0, 0, 4] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            peaks = detect_peaks(vol(data), NmsConfig(2.0, threshold))
        assert (peaks.coords - 0.5).tolist() == expected


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


@st.composite
def _noise_maps(draw):
    """A seeded normal map up to 20^3, rounded to a few levels half the time
    so that equal values tie."""
    shape = draw(st.tuples(*[st.integers(1, 20)] * 3))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=shape)
    if draw(st.booleans()):
        data = np.round(data * 2) / 2
    return data.astype(np.float32)


# Lattice distances of the dyadic voxels (sqrt 8 and sqrt 20 round above
# theirs), the smallest subnormal, whose square is 0, and radii far wider
# than any map, whose square may overflow.
_RADII = st.sampled_from(
    [5e-324, 1e-300, 0.5, 1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0, math.sqrt(8.0), 3.0,
     math.sqrt(12.0), 4.0, math.sqrt(20.0), 1e6, 1e200]
) | st.floats(0.1, 12.0)


class TestPairWalkOracle:
    """detect_peaks keeps, bit for bit, what the KD-tree pair walk kept."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        data=_LEVEL_MAPS | _noise_maps(),
        voxel=_DYADIC_VOXELS | st.sampled_from([(0.7, 0.3, 1.1), (1e-3, 1.0, 5.0)]),
        radius=_RADII,
        threshold=st.sampled_from([0.0, 0.3, 0.5]),
    )
    def test_matches_pair_walk(self, data, voxel, radius, threshold):
        cfg = NmsConfig(radius, threshold)
        got = detect_peaks(vol(data, voxel), cfg)
        coords, values = pair_walk_detect_peaks(vol(data, voxel), cfg)
        assert np.array_equal(got.coords, coords)
        assert np.array_equal(got.dm_value, values)

    def test_radius_spanning_the_map_is_linear_in_the_candidates(self):
        """The pair walk listed all 4.5 M pairs of 3,000 candidates: about 6 s."""
        dm = spread_candidates(3000)
        start = time.perf_counter()
        peaks = detect_peaks(dm, NmsConfig(1e6, 0.0))
        assert time.perf_counter() - start < 0.5
        assert np.array_equal(peaks.dm_value, [dm.data.max()])


# Levels give plateaus, zeros, negative regions and values equal to the
# threshold; axes of length 1 and 2 put every voxel on a border.
_MAXIMA_MAPS = st.tuples(
    st.tuples(*[st.integers(1, 7)] * 3), st.sampled_from([np.float32, np.float64])
).flatmap(
    lambda sd: arrays(
        sd[1], sd[0],
        elements=st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0]) | st.floats(-2, 2, width=32),
    )
)


class TestLocalMaximaOracle:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=_MAXIMA_MAPS)
    def test_matches_maximum_filter(self, data):
        idx, values = local_maxima(Volume3D(data, (1.0, 1.0, 1.0)))
        ref_idx, ref_values = reference_local_maxima(data)
        assert np.array_equal(idx, ref_idx)
        assert values.dtype == ref_values.dtype == data.dtype
        assert np.array_equal(values, ref_values)

    def test_matches_maximum_filter_on_a_density_map(self, rng):
        data = render_dm(
            CoordSet(rng.uniform(0, 40, size=(30, 3))), (40, 33, 41), (1, 1, 1), KernelSpec(2.0)
        ).data
        data += rng.normal(0, 0.01, size=data.shape).astype(np.float32)
        idx, values = local_maxima(vol(data))
        ref_idx, ref_values = reference_local_maxima(data)
        assert len(idx) > 30
        assert np.array_equal(idx, ref_idx) and np.array_equal(values, ref_values)


_F32_MAX = float(np.finfo(np.float32).max)


@st.composite
def _slab_cases(draw):
    """A map, a slab of 1-3 planes for it, and optionally one non-finite
    voxel placed in the worker's or the caller's half of the slabs."""
    planes = draw(st.integers(1, 3))
    nz = draw(st.sampled_from([1, 2, planes - 1, planes + 1, 2 * planes + 1, 3 * planes - 1])
              | st.integers(0, 8).map(lambda k: 2 * k + 1))
    nz = max(nz, 1)
    shape = (nz, draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    levels = [-1.0, 0.0, 0.25, 1.0, 2.0, _F32_MAX, -_F32_MAX]
    data = draw(arrays(dtype, shape, elements=st.sampled_from(levels) | st.floats(-2, 2, width=32)))
    if draw(st.booleans()):  # the last plane of each slab repeated across its boundary
        for z in range(planes, nz, planes):
            data[z] = data[z - 1]
    half = draw(st.sampled_from([None, "worker", "caller"]))
    if half is not None:
        n_slabs = -(-nz // planes)
        split = n_slabs // 2  # the worker's slabs come first
        slabs = range(split) if half == "worker" else range(split, n_slabs)
        if not slabs:
            half = None
        else:
            s = draw(st.sampled_from(slabs))
            z = draw(st.integers(s * planes, min((s + 1) * planes, nz) - 1))
            y, x = draw(st.integers(0, shape[1] - 1)), draw(st.integers(0, shape[2] - 1))
            data[z, y, x] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return data, planes, half


@pytest.mark.usefixtures("split_always")
class TestSlabbedLocalMaxima:
    """local_maxima with slabs of 1-3 planes, so that small maps span several
    slabs on both threads: equal to scipy's maximum filter and to the
    whole-volume running max it replaced."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(case=_slab_cases())
    def test_matches_whole_volume_kernel(self, case):
        data, planes, half = case
        calls = []

        def spy(fn, n, nbytes):
            calls.append((n, nbytes))
            on_two_cores(fn, n, nbytes)

        slab_bytes = planes * data.shape[1] * data.shape[2] * data.itemsize
        with mock.patch.object(detect_mod, "_SLAB_BYTES", slab_bytes), \
                mock.patch.object(detect_mod, "on_two_cores", spy), warnings.catch_warnings():
            warnings.simplefilter("error")
            if half is not None:
                with pytest.raises(NonFiniteInput, match="^density map must be finite-valued$"):
                    local_maxima(Volume3D(data, (1.0, 1.0, 1.0)))
            else:
                idx, values = local_maxima(Volume3D(data, (1.0, 1.0, 1.0)))
        n_slabs = -(-data.shape[0] // planes)
        assert calls == [(n_slabs, data.nbytes)]
        if half is not None:
            with pytest.raises(NonFiniteInput):
                whole_volume_local_maxima(data)
            return
        for ref_idx, ref_values in (whole_volume_local_maxima(data), reference_local_maxima(data)):
            assert np.array_equal(idx, ref_idx)
            assert values.dtype == ref_values.dtype == data.dtype
            assert np.array_equal(values, ref_values)
