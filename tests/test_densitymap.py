from unittest import mock

import numpy as np
import pytest

from probcell import CoordSet, KernelSpec, NmsConfig, detect_peaks, gaussian_value, render_dm
from probcell import densitymap
from probcell.densitymap import AMP_NORMALIZED, AMP_UNIT, K_MAX, K_SUM

from oracles import naive_render_dm


class TestGaussianValue:
    def test_normalized_amplitude_at_zero(self):
        # 1 / (2 * sqrt(2 pi)) evaluated at high precision
        assert gaussian_value(0.0, 2.0, AMP_NORMALIZED) == pytest.approx(
            0.19947114020071635, rel=1e-12
        )

    def test_unit_peak_at_zero(self):
        for sigma in (0.5, 1.0, 3.7):
            assert gaussian_value(0.0, sigma, AMP_UNIT) == 1.0

    def test_one_sigma_unit_peak(self):
        assert gaussian_value(2.5, 2.5, AMP_UNIT) == pytest.approx(
            0.6065306597126334, rel=1e-12
        )

    def test_monotone_nonincreasing_in_distance(self):
        s = np.linspace(0, 20, 200)
        v = gaussian_value(s, 3.0, AMP_NORMALIZED)
        assert np.all(np.diff(v) <= 0)

    def test_rejects_bad_sigma(self):
        for sigma in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="sigma"):
                gaussian_value(1.0, sigma)

    @pytest.mark.parametrize("sigma, cutoff", [
        (float("nan"), 16.0), (2.0, float("nan")), (0.0, 16.0), (2.0, -1.0),
        (1e300, 16.0), (1e155, 16.0), (5e-324, 16.0), (1e-170, 16.0),  # 2 sigma^2 inf or 0
    ])
    def test_kernel_spec_rejects_nan_or_nonpositive(self, sigma, cutoff):
        with pytest.raises(ValueError, match="sigma|cutoff"):
            KernelSpec(sigma, cutoff_um=cutoff)

    def test_kernel_spec_accepts_sigma_with_finite_positive_variance(self):
        for sigma in (1e-150, 1e150):
            assert 0 < 2.0 * KernelSpec(sigma).sigma_um ** 2 < float("inf")


class TestRenderDm:
    def test_empty_coords_all_zero(self):
        dm = render_dm(CoordSet.empty(), (5, 6, 7), (1, 1, 1), KernelSpec(2.0))
        assert dm.data.shape == (5, 6, 7)
        assert not dm.data.any()

    def test_single_cell_sum_equals_max(self):
        coords = CoordSet(np.array([[4.5, 5.5, 6.5]]))
        a = render_dm(coords, (10, 11, 12), (1, 1, 1), KernelSpec(2.0, compounding=K_SUM))
        b = render_dm(coords, (10, 11, 12), (1, 1, 1), KernelSpec(2.0, compounding=K_MAX))
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("compounding", [K_SUM, K_MAX])
    def test_permutation_invariance_bit_identical(self, rng, compounding):
        coords = rng.random((8, 3)) * 12
        kernel = KernelSpec(1.5, cutoff_um=6.0, compounding=compounding)
        a = render_dm(CoordSet(coords), (12, 12, 12), (1, 1, 1), kernel)
        b = render_dm(CoordSet(coords[rng.permutation(8)]), (12, 12, 12), (1, 1, 1), kernel)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("compounding", [K_SUM, K_MAX])
    @pytest.mark.parametrize("amplitude", [AMP_NORMALIZED, AMP_UNIT])
    def test_matches_naive_oracle(self, rng, compounding, amplitude):
        for voxel_size in ((1.0, 1.0, 1.0), (2.0, 1.0, 0.7)):
            shape = (9, 10, 11)
            extent = np.asarray(shape) * np.asarray(voxel_size)
            coords = rng.random((5, 3)) * extent
            kernel = KernelSpec(2.0, cutoff_um=7.0, compounding=compounding, amplitude=amplitude)
            got = render_dm(CoordSet(coords), shape, voxel_size, kernel)
            want = naive_render_dm(coords, shape, voxel_size, 2.0, 7.0, compounding, amplitude)
            assert np.max(np.abs(got.data.astype(np.float64) - want)) < 1e-6

    def test_out_of_bounds_cells_still_contribute(self):
        coords = CoordSet(np.array([[-2.0, 4.5, 4.5]]))  # 2 um outside the z face
        dm = render_dm(coords, (9, 9, 9), (1, 1, 1), KernelSpec(2.0, cutoff_um=8.0))
        assert dm.data[0].max() > 0

    def test_cutoff_zeroes_far_voxels(self):
        coords = CoordSet(np.array([[0.5, 0.5, 0.5]]))
        dm = render_dm(coords, (1, 1, 32), (1, 1, 1), KernelSpec(4.0, cutoff_um=10.0))
        dists = np.abs((np.arange(32) + 0.5) - 0.5)
        assert (dm.data.ravel()[dists > 10.0] == 0).all()
        assert (dm.data.ravel()[dists <= 10.0] > 0).all()


class TestBoundedness:
    def test_k_max_bounded_by_peak(self, rng):
        coords = CoordSet(rng.random((40, 3)) * 16)
        for amplitude in (AMP_NORMALIZED, AMP_UNIT):
            kernel = KernelSpec(2.0, compounding=K_MAX, amplitude=amplitude)
            dm = render_dm(coords, (16, 16, 16), (1, 1, 1), kernel)
            assert dm.data.max() <= kernel.peak_value + 1e-7

    def test_k_sum_grows_with_coincident_cells(self):
        c = np.array([[8.5, 8.5, 8.5]])
        coords = CoordSet(np.vstack([c, c]))
        kernel = KernelSpec(2.0, compounding=K_SUM)
        dm = render_dm(coords, (17, 17, 17), (1, 1, 1), kernel)
        assert dm.data.max() == pytest.approx(2.0 * kernel.peak_value, rel=1e-6)


def _nms_peak_count(dm, min_distance=4.0):
    return len(detect_peaks(dm, NmsConfig(min_distance_um=min_distance, threshold=0.0)))


class TestTwoCellSeparation:
    """Two cells 8 um apart on the 1 um grid.

    K_max preserves both peaks at every sigma. The sum of two identical
    Gaussians merges only once the separation drops below 2*sigma, so K_sum
    keeps two NMS peaks up to sigma = 3 and collapses to the midpoint at
    sigma = 4 (see the README section "K_sum merge criterion" for the
    derivation and the sigma = 3 numbers).
    """

    CELLS = CoordSet(np.array([[8.5, 8.5, 4.5], [8.5, 8.5, 12.5]]))
    SHAPE = (17, 17, 17)

    @pytest.mark.parametrize("sigma", [1.0, 2.0, 3.0, 4.0])
    def test_k_max_always_two_peaks_at_cells(self, sigma):
        dm = render_dm(self.CELLS, self.SHAPE, (1, 1, 1), KernelSpec(sigma, compounding=K_MAX))
        peaks = detect_peaks(dm, NmsConfig(4.0, 0.0))
        assert len(peaks) == 2
        got = sorted(map(tuple, peaks.coords))
        want = sorted(map(tuple, self.CELLS.coords))
        assert np.allclose(got, want)

    @pytest.mark.parametrize("sigma,n_expected", [(1.0, 2), (2.0, 2), (3.0, 2), (4.0, 1)])
    def test_k_sum_merges_at_four(self, sigma, n_expected):
        dm = render_dm(self.CELLS, self.SHAPE, (1, 1, 1), KernelSpec(sigma, compounding=K_SUM))
        peaks = detect_peaks(dm, NmsConfig(4.0, 0.0))
        assert len(peaks) == n_expected
        if n_expected == 1:
            midpoint = self.CELLS.coords.mean(axis=0)
            assert np.linalg.norm(peaks.coords[0] - midpoint) <= 1.0


class TestZHalves:
    @pytest.mark.parametrize("compounding", [K_SUM, K_MAX])
    @pytest.mark.parametrize("nz", [1, 2, 7])
    def test_equals_one_thread_bit_for_bit(self, rng, compounding, nz):
        """The two threads' z-halves against the whole grid on one thread;
        boxes cross the split, overlap, and overhang the grid."""
        shape = (nz, 11, 9)
        voxel = (1.0, 0.8, 1.2)
        extent = np.asarray(shape) * voxel
        coords = CoordSet(rng.random((40, 3)) * (extent + 6.0) - 3.0)
        scales = rng.uniform(0.5, 2.0, 40)
        kernel = KernelSpec(sigma_um=1.5, cutoff_um=4.0, compounding=compounding)
        two = render_dm(coords, shape, voxel, kernel, scales)
        with mock.patch.object(densitymap, "on_two_cores", lambda fn, n: fn(0, n)):
            one = render_dm(coords, shape, voxel, kernel, scales)
        assert two.data.any()
        assert np.array_equal(two.data, one.data)
