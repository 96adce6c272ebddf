import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probcell import (
    CoordSet, FeatureSpec, extract_features, feature_names, save_coords, save_volume,
)
from probcell.cli import main
from probcell.errors import NonFiniteInput
from probcell.spatial import cell_distances
from probcell.features import (
    N_PERCENTILES,
    N_THRESHOLDS,
    PERCENTILES,
    STATS_PER_BLOCK,
    _window_stats,
    thresholds_for,
)

from conftest import vol
from oracles import reference_window_stats, sort_once_window_stats

# Skewness and kurtosis are sums of z^2 * z and z^2 * z^2 instead of z**3 and
# z**4; every other statistic must match the reference bit for bit.
MOMENT_RTOL = 1e-12

WINDOW_SHAPES = [(1,), (2,), (4, 4, 4), (8, 8, 8), (16, 16, 16), (32, 32, 32),
                 (3, 5, 7), (1, 1, 6), (7, 2, 5)]


def three_maps(rng, shape=(24, 24, 24)):
    return [
        ("dm", vol(rng.random(shape))),
        ("u_a", vol(rng.random(shape) * 5)),
        ("u_e", vol(rng.random(shape) * 0.3)),
    ]


class TestDimensions:
    def test_three_maps_four_windows_gives_168(self, rng):
        maps = three_maps(rng)
        proposals = CoordSet(rng.random((3, 3)) * 20 + 2)
        X = extract_features(maps, proposals, FeatureSpec())
        assert X.shape == (3, 168)  # 4 windows * 3 maps * (5 + 5 + 4)
        assert len(feature_names([m[0] for m in maps], FeatureSpec())) == 168

    def test_dm_only_gives_56(self, rng):
        maps = [("dm", vol(rng.random((24, 24, 24))))]
        proposals = CoordSet(rng.random((2, 3)) * 20 + 2)
        X = extract_features(maps, proposals, FeatureSpec())
        assert X.shape == (2, 56)

    def test_empty_proposals(self, rng):
        X = extract_features(three_maps(rng), CoordSet.empty(), FeatureSpec())
        assert X.shape == (0, 168)


class TestDegenerateWindow:
    def test_constant_window_statistics(self):
        value = 1.2
        maps = [("dm", vol(np.full((16, 16, 16), value)))]
        spec = FeatureSpec(window_sides_um=(4.0,))
        X = extract_features(maps, CoordSet(np.array([[8.0, 8.0, 8.0]])), spec)
        row = X[0]
        assert np.allclose(row[:5], value)  # all percentiles
        thresholds = thresholds_for("dm")
        ratios = row[5:10]
        assert np.array_equal(ratios, (value > thresholds).astype(float))
        mean, sd, skew, kurt = row[10:14]
        assert mean == pytest.approx(value)
        assert sd == 0.0 and skew == 0.0 and kurt == 0.0


class TestInvariants:
    def test_translation_equivariance(self, rng):
        shape = (20, 20, 20)
        data = rng.random(shape)
        shift = (2, 3, 1)
        rolled = np.roll(data, shift, axis=(0, 1, 2))
        proposals = CoordSet(np.array([[9.5, 8.5, 10.5]]))
        shifted = CoordSet(proposals.coords + np.asarray(shift, dtype=float))
        spec = FeatureSpec(window_sides_um=(4.0, 8.0))
        a = extract_features([("dm", vol(data))], proposals, spec)
        b = extract_features([("dm", vol(rolled))], shifted, spec)
        assert np.allclose(a, b)

    def test_percentiles_nondecreasing_within_block(self, rng):
        maps = three_maps(rng)
        spec = FeatureSpec()
        X = extract_features(maps, CoordSet(rng.random((5, 3)) * 20 + 2), spec)
        per_block = STATS_PER_BLOCK
        for row in X:
            for b in range(len(maps) * len(spec.window_sides_um)):
                pcts = row[b * per_block : b * per_block + 5]
                assert np.all(np.diff(pcts) >= 0)

    def test_threshold_ratios_bounded(self, rng):
        maps = three_maps(rng)
        spec = FeatureSpec()
        X = extract_features(maps, CoordSet(rng.random((5, 3)) * 20 + 2), spec)
        per_block = STATS_PER_BLOCK
        for row in X:
            for b in range(len(maps) * len(spec.window_sides_um)):
                ratios = row[b * per_block + 5 : b * per_block + 10]
                assert np.all(ratios >= 0.0) and np.all(ratios <= 1.0)

    def test_border_windows_clip(self, rng):
        maps = [("dm", vol(rng.random((12, 12, 12))))]
        proposals = CoordSet(np.array([[0.5, 0.5, 0.5], [11.5, 11.5, 11.5]]))
        X = extract_features(maps, proposals, FeatureSpec(window_sides_um=(8.0,)))
        assert np.isfinite(X).all()

    def test_u_e_threshold_range_is_descending(self):
        t = thresholds_for("u_e")
        assert t[0] == 1.0 and t[-1] == pytest.approx(0.2)
        assert np.all(np.diff(t) < 0)


class TestValidation:
    def test_mismatched_grids_rejected(self, rng):
        maps = [
            ("dm", vol(rng.random((10, 10, 10)))),
            ("u_a", vol(rng.random((10, 10, 11)))),
        ]
        with pytest.raises(ValueError):
            extract_features(maps, CoordSet(np.array([[5.0, 5.0, 5.0]])), FeatureSpec())

    def test_out_of_bounds_proposal_rejected(self, rng):
        maps = [("dm", vol(rng.random((10, 10, 10))))]
        with pytest.raises(ValueError):
            extract_features(maps, CoordSet(np.array([[5.0, 5.0, 25.0]])), FeatureSpec())

    @pytest.mark.parametrize("voxel_size, point", [
        ((1.0, 1.0, 1.0), (1e308, 1.0, 1.0)),
        ((1.0, 1.0, 1.0), (1.0, 1.0, -1e308)),
        ((1e-300, 1.0, 1.0), (1e10, 1.0, 1.0)),  # the division overflows
    ])
    def test_far_proposal_rejected_before_the_int_cast(self, rng, voxel_size, point):
        """A proposal far outside was cast to int first, which warned
        "invalid value encountered in cast" (an error under pytest)."""
        maps = [("dm", vol(rng.random((10, 10, 10)), voxel_size))]
        with pytest.raises(ValueError, match="proposals must lie inside the volume"):
            extract_features(maps, CoordSet(np.array([point])), FeatureSpec())

    def test_windows_beyond_the_int_cast_span_the_map(self, rng, tmp_path):
        """At 1e-300 um, 4 um / voxel_size is past 2^63: the int cast wrapped
        (a RuntimeWarning), and every window was one voxel, with SD 0."""
        data = rng.random((16, 16, 16))
        save_volume(vol(data, (1e-300,) * 3), tmp_path / "dm")
        save_coords(CoordSet(np.array([[0.5, 7.5, 15.5], [8.0, 8.0, 8.0]]) * 1e-300),
                    tmp_path / "p.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["features", "--dm", str(tmp_path / "dm"), "--proposals",
                         str(tmp_path / "p.csv"), "--out", str(tmp_path / "f.csv")]) == 0
        rows = np.loadtxt(tmp_path / "f.csv", delimiter=",", skiprows=1)
        whole = _window_stats(vol(data).data, PERCENTILES, thresholds_for("dm"))
        assert np.array_equal(rows, np.tile(whole, (2, 4)))

    def test_inside_as_cell_distances_tests_it(self, rng):
        """A proposal one ulp below the far face is inside, as cell_distances
        has it, though it divides to the shape itself: its windows are the
        last voxel's. The far face itself is outside for both."""
        dm = vol(rng.random((33, 33, 33)), (0.108, 0.108, 0.108))
        extent = float(dm.extent_um[0])
        assert extent == 3.564 and math.floor(np.nextafter(extent, 0.0) / 0.108) == 33
        spec = FeatureSpec(window_sides_um=(0.3, 1.0))
        edge = CoordSet(np.array([[1.0, 1.0, np.nextafter(extent, 0.0)]]))
        assert cell_distances(edge, dm).shape == (1,)
        last = CoordSet(np.array([[1.0, 1.0, 32.5 * 0.108]]))
        assert np.array_equal(extract_features([("dm", dm)], edge, spec),
                              extract_features([("dm", dm)], last, spec))
        outside = CoordSet(np.array([[1.0, 1.0, extent]]))
        with pytest.raises(ValueError, match="cells must lie inside the volume"):
            cell_distances(outside, dm)
        with pytest.raises(ValueError, match="proposals must lie inside the volume"):
            extract_features([("dm", dm)], outside, spec)

    def test_unknown_map_needs_threshold_range(self, rng):
        maps = [("other", vol(rng.random((10, 10, 10))))]
        with pytest.raises(KeyError):
            extract_features(maps, CoordSet(np.array([[5.0, 5.0, 5.0]])), FeatureSpec())


def window_cases(shape, rng):
    """Float32-sourced windows (as the maps store them) of one shape."""
    n = int(np.prod(shape))
    on_thresholds = np.array([0.2, 0.4, 0.6, 0.8, 1.0, 1.125, 1.25, 1.375, 1.5,
                              3.25, 5.5, 7.75, 10.0])
    return {
        "uniform": rng.random(shape) * 2.0,
        "gamma": rng.gamma(0.5, 3.0, shape),
        "constant": np.full(shape, 1.25),
        "on_thresholds": rng.choice(on_thresholds, size=shape),
        "ties": np.round(rng.normal(1.2, 0.3, shape), 1),
        "ramp": np.linspace(-1.0, 12.0, n).reshape(shape),
    }


class TestSortOnceKernel:
    @pytest.mark.parametrize("shape", WINDOW_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_matches_reference(self, shape, rng):
        pcts = PERCENTILES
        exact = N_PERCENTILES + N_THRESHOLDS + 2  # up to and including SD
        for case, data in window_cases(shape, rng).items():
            block = data.astype(np.float32)
            values = block.astype(np.float64).ravel()
            for map_name in ("dm", "u_a", "u_e"):
                thresholds = thresholds_for(map_name)
                ref = reference_window_stats(values, pcts, thresholds)
                for window in (block, values):
                    new = _window_stats(window, pcts, thresholds)
                    assert np.array_equal(new[:exact], ref[:exact]), (case, map_name)
                    assert np.all(
                        np.abs(new[exact:] - ref[exact:]) <= MOMENT_RTOL * (1 + np.abs(ref[exact:]))
                    ), (case, map_name)

    def test_border_clipped_windows_match_reference(self, rng):
        data = rng.random((12, 12, 12)).astype(np.float32) * 1.6
        maps = [("dm", vol(data))]
        spec = FeatureSpec(window_sides_um=(3.0, 8.0))
        X = extract_features(maps, CoordSet(np.array([[0.5, 0.5, 0.5]])), spec)
        pcts, thresholds = PERCENTILES, thresholds_for("dm")
        # the 3 um window starts at voxel -1 and the 8 um window at -4
        for k, block in enumerate((data[:2, :2, :2], data[:4, :4, :4])):
            ref = reference_window_stats(block.astype(np.float64).ravel(), pcts, thresholds)
            row = X[0, k * STATS_PER_BLOCK : (k + 1) * STATS_PER_BLOCK]
            assert np.array_equal(row[:12], ref[:12])
            assert np.all(np.abs(row[12:] - ref[12:]) <= MOMENT_RTOL * (1 + np.abs(ref[12:])))


_WINDOW_AXIS = st.one_of(st.sampled_from([1, 2]), st.integers(1, 9))
_WINDOW_VALUES = {
    "uniform": lambda g, n: g.random(n) * 2.0,
    "constant": lambda g, n: np.full(n, 1.25),
    "ties": lambda g, n: np.round(g.normal(1.2, 0.3, n), 1),
    "signed_zeros": lambda g, n: g.choice([-0.0, 0.0, 1.0], n),
    "zeros": lambda g, n: g.choice([-0.0, 0.0], n),
}


@st.composite
def _windows(draw):
    """A float32 map and one window of it: the whole map (contiguous) or a
    box inside it (strided), with axes of length 1 and 2 drawn often."""
    window = tuple(draw(_WINDOW_AXIS) for _ in range(3))
    pad = tuple(draw(st.integers(0, 2)) for _ in range(3))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(w + p for w, p in zip(window, pad))
    kind = draw(st.sampled_from(sorted(_WINDOW_VALUES)))
    data = _WINDOW_VALUES[kind](g, math.prod(shape)).reshape(shape).astype(np.float32)
    lo = [int(g.integers(0, p + 1)) for p in pad]
    box = tuple(slice(l, l + w) for l, w in zip(lo, window))
    return data, box


class TestSingleGatherKernel:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(case=_windows(), map_name=st.sampled_from(["dm", "u_a", "u_e"]))
    def test_equals_sort_once_kernel(self, case, map_name):
        """One gather, one widening cast and an in-place sort give the
        previous kernel's statistics bit for bit, and leave the map as it
        was."""
        data, box = case
        pcts, thresholds = PERCENTILES, thresholds_for(map_name)
        before = data.copy()
        new = _window_stats(data[box], pcts, thresholds)
        assert np.array_equal(new, sort_once_window_stats(data[box], pcts, thresholds))
        assert np.array_equal(data, before) and np.array_equal(np.signbit(data), np.signbit(before))


class TestNonFiniteMaps:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_window_raises(self, rng, bad):
        maps = three_maps(rng)
        u_a = maps[1][1].data.copy()
        u_a[10, 10, 10] = bad
        maps[1] = ("u_a", vol(u_a))
        with pytest.raises(NonFiniteInput, match="u_a"):
            extract_features(maps, CoordSet(np.array([[10.5, 10.5, 10.5]])), FeatureSpec())

    def test_non_finite_is_a_value_error(self):
        assert issubclass(NonFiniteInput, ValueError)


class TestSpecValidation:
    @pytest.mark.parametrize("sides", [
        (math.nan, 8.0), (4.0, math.nan), (4.0, math.inf), (0.0, 8.0), (-4.0, 8.0),
        (True, 8.0),  # was taken as (1.0, 8.0)
    ])
    def test_window_side_outside_0_inf_rejected(self, sides):
        with pytest.raises(ValueError, match="window sides"):
            FeatureSpec(window_sides_um=sides)
