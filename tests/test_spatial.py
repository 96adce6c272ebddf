import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from probcell import (
    CoordSet,
    Volume3D,
    analyze_deterministic,
    analyze_probabilistic,
    cell_distances,
    distance_transform,
    esd_pool,
    ks_2sample,
    prepare_spatial,
    save_coords,
    save_volume,
    scott_bandwidth,
    wilcoxon_signed_rank,
)
from probcell import cores
from probcell.cli import main
from probcell.errors import (
    AllZeroDifferences,
    DegenerateESD,
    EmptyCells,
    EmptyStructure,
    NonFiniteInput,
    ShapeMismatch,
)
from probcell.pipeline import run_pipeline
from probcell.spatial import DistanceCdf, PackedMask, _exact_edt

from conftest import vol
from oracles import (
    _reference_esd_pool,
    brute_force_edt,
    ks_statistic_sweep,
    loop_average_ranks,
    reference_analyze_deterministic,
    reference_analyze_probabilistic,
    series_kolmogorov_sf,
    step_cdf_ks_2sample,
    two_matrix_kde_cdf,
    wilcoxon_enumeration,
)


def mask(data, voxel_size=(1.0, 1.0, 1.0)):
    return vol(np.asarray(data, dtype=np.float32), voxel_size)


def packed(background):
    """A boolean background as ``esd_pool`` takes it, 8 voxels a byte along x."""
    return np.packbits(background, axis=-1)


# z lengths of 1 and 2 (a plane's distances overwrite its own features) and
# odd voxel counts (the feature buffer's padding entry)
_AXIS = st.one_of(st.sampled_from([1, 2, 3, 5, 9, 17]), st.integers(1, 20))
_SPACING = st.floats(0.25, 3.0)


@st.composite
def _edt_cases(draw):
    """A boolean mask with 1 to n - 1 foreground voxels (1 when n is 1) and
    an isotropic or anisotropic voxel size."""
    shape = tuple(draw(_AXIS) for _ in range(3))
    n = int(np.prod(shape))
    most = max(n - 1, 1)
    k = draw(st.one_of(st.sampled_from([1, most]), st.integers(1, most)))
    seed = draw(st.integers(0, 2**32 - 1))
    m = np.zeros(n, dtype=bool)
    m[np.random.default_rng(seed).choice(n, k, replace=False)] = True
    voxel = draw(st.one_of(_SPACING.map(lambda s: (s, s, s)), st.tuples(_SPACING, _SPACING, _SPACING)))
    return m.reshape(shape), voxel


class TestDistanceTransform:
    def test_single_center_voxel(self):
        m = np.zeros((3, 3, 3))
        m[1, 1, 1] = 1
        edt = distance_transform(mask(m))
        assert edt.data[1, 1, 1] == 0.0
        assert edt.data[0, 0, 0] == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert edt.data[1, 1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_all_foreground_all_zero(self):
        edt = distance_transform(mask(np.ones((4, 4, 4))))
        assert not edt.data.any()

    def test_empty_structure_raises(self):
        with pytest.raises(EmptyStructure):
            distance_transform(mask(np.zeros((3, 3, 3))))

    def test_matches_brute_force(self, rng):
        for trial in range(10):
            shape = tuple(int(s) for s in rng.integers(3, 17, 3))
            m = (rng.random(shape) < 0.1).astype(np.float32)
            if not m.any():
                m[0, 0, 0] = 1
            voxel = (1.0, 1.0, 1.0) if trial % 2 == 0 else (2.0, 1.0, 0.5)
            edt = distance_transform(mask(m, voxel))
            ref = brute_force_edt(m > 0, voxel)
            assert np.max(np.abs(edt.data - ref)) < 1e-6

    @pytest.mark.parametrize("shape, voxel", [
        ((19, 12, 15), (1.0, 1.0, 1.0)),
        ((9, 9, 7), (2.0, 1.0, 0.5)),
        ((24, 6, 11), (0.3, 1.7, 1.1)),
        ((1, 8, 8), (1.0, 0.5, 0.25)),
        ((1, 5, 7), (0.7, 1.3, 2.1)),
        ((2, 7, 5), (1.5, 0.5, 1.0)),
        ((3, 5, 7), (1.0, 2.0, 1.0)),
        ((1, 1, 1), (1.0, 1.0, 1.0)),
    ])
    def test_equals_scipy_distance_transform(self, rng, shape, voxel):
        """Plane-wise distances repeat scipy's own arithmetic, so a scipy that
        changes it fails here instead of drifting; also with one or two
        planes, whose distances overwrite their own features, and an odd
        voxel count, which pads the feature buffer; from a boolean and a
        float32 mask. The result is C-order float64 (its 8 B per voxel are
        bounded in test_memory.py)."""
        m = rng.random(shape) < 0.05
        m[shape[0] // 2, 0, 0] = True
        expected = ndimage.distance_transform_edt(~m, sampling=voxel)
        for dtype in (bool, np.float32):
            edt = distance_transform(Volume3D(m.astype(dtype), voxel)).data
            assert np.array_equal(edt, expected)
            assert edt.dtype == np.float64 and edt.flags.c_contiguous

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(case=_edt_cases())
    def test_equals_scipy_on_random_masks(self, case):
        """The voxel-by-voxel feature transform and the distances written over
        it give scipy's distances bit for bit, for float32 and boolean masks,
        down to axes of length 1 and 2, odd voxel counts, and masks of one
        voxel up to all voxels but one. scipy's own call is the oracle."""
        m, voxel = case
        expected = ndimage.distance_transform_edt(~m, sampling=voxel)
        assert np.array_equal(distance_transform(mask(m, voxel)).data, expected)
        packed = PackedMask(np.packbits(m, axis=-1), m.shape, voxel)
        assert np.array_equal(_exact_edt(packed), expected)


class TestEsd:
    def test_structure_equals_tissue_degenerate(self):
        m = np.ones((3, 3, 3))
        with pytest.raises(DegenerateESD):
            prepare_spatial({"s": mask(m)}, mask(m))

    def test_slab_gives_linear_cdf(self):
        shape = (4, 4, 32)
        m = np.zeros(shape)
        m[:, :, 0] = 1.0
        tissue = np.ones(shape)
        cdf = DistanceCdf(esd_pool(distance_transform(mask(m)), packed((tissue > 0) & (m == 0)))[0])
        # distances over background are x = 1..31 um, uniform
        grid = np.arange(1, 32, dtype=float)
        values = cdf.evaluate(grid, mode="empirical")
        assert np.allclose(values, grid / 31.0)

    def test_pool_counts_volume_fraction(self):
        shape = (8, 8, 8)
        m = np.zeros(shape)
        m[4, 4, 4] = 1.0
        tissue = np.ones(shape)
        pool = esd_pool(distance_transform(mask(m)), packed((tissue > 0) & (m == 0)))[0]
        assert pool.size == 8**3 - 1
        target = 3.0
        direct = (brute_force_edt(m > 0, (1, 1, 1)) < target) & (m == 0)
        assert np.mean(pool < target) == pytest.approx(direct.sum() / pool.size)


class TestCellDistances:
    def test_cells_on_foreground_centers_step_at_zero(self):
        m = np.zeros((6, 6, 6))
        m[2, 3, 4] = 1.0
        m[1, 1, 1] = 1.0
        edt = distance_transform(mask(m))
        cells = CoordSet(np.array([[2.5, 3.5, 4.5], [1.5, 1.5, 1.5]]))
        cdf = DistanceCdf(cell_distances(cells, edt))
        assert np.array_equal(cdf.samples, [0.0, 0.0])
        assert cdf.evaluate(np.array([0.0]))[0] == 1.0

    def test_known_offset_from_slab(self):
        shape = (4, 4, 16)
        m = np.zeros(shape)
        m[:, :, 0] = 1.0
        edt = distance_transform(mask(m))
        # 5 voxel steps from the slab, then between the centers at EDT 4 and 5
        cells = CoordSet(np.array([[2.0, 2.0, 5.5], [2.0, 2.0, 5.1]]))
        d = cell_distances(cells, edt)
        assert d == pytest.approx([5.0, 4.6])

    def test_empty_cells_raise(self):
        m = np.zeros((3, 3, 3))
        m[0, 0, 0] = 1
        edt = distance_transform(mask(m))
        with pytest.raises(EmptyCells):
            cell_distances(CoordSet.empty(), edt)

    def test_uniform_cells_match_esd(self, rng):
        shape = (24, 24, 24)
        m = np.zeros(shape)
        m[10:14, 10:14, :] = 1.0
        tissue = np.ones(shape)
        edt = distance_transform(mask(m))
        pool = esd_pool(edt, packed((tissue > 0) & (m == 0)))[0]
        bg = np.argwhere((m == 0))
        take = bg[rng.integers(0, len(bg), size=400)]
        cells = CoordSet((take + 0.5).astype(float))
        dists = cell_distances(cells, edt)
        stat, p = ks_2sample(dists, pool)
        assert p > 0.01


def _scene(rng, shape=(32, 32, 32), n_cells=30, p=None):
    m = np.zeros(shape)
    m[:, 14:18, 14:18] = 1.0  # axis-aligned square tube
    tissue = np.ones(shape)
    cells = []
    while len(cells) < n_cells:
        c = rng.random(3) * (np.asarray(shape) - 1) + 0.5
        cells.append(c)
    coords = CoordSet(np.asarray(cells), p=p)
    return mask(m), mask(tissue), coords


class TestDeterministicAnalysis:
    def test_density_unit_conversion(self):
        tissue = mask(np.ones((100, 100, 100)))  # 1e6 um^3 = 1e-3 mm^3
        structure = np.zeros((100, 100, 100))
        structure[0, 0, 0] = 1
        cells = CoordSet(
            np.asarray([[50.0 + 8 * k, 50.0, 50.0] for k in range(-5, 5)]),
            p=np.ones(10),
        )
        report = analyze_deterministic(cells, prepare_spatial({"s": mask(structure)}, tissue))
        assert report.density_cells_per_mm3 == pytest.approx(1e4)

    def test_no_cells_near_structure_zero_adjacency(self):
        shape = (24, 24, 24)
        structure = np.zeros(shape)
        structure[:, 0, 0] = 1
        cells = CoordSet(np.array([[12.5, 20.5, 20.5]]), p=np.array([1.0]))
        report = analyze_deterministic(
            cells, prepare_spatial({"s": mask(structure)}, mask(np.ones(shape)))
        )
        assert report.structures["s"].pct_cells_adjacent == 0.0

    def test_all_below_half_flags_empty(self, rng):
        structure, tissue, cells = _scene(rng, p=np.full(30, 0.49))
        report = analyze_deterministic(cells, prepare_spatial({"s": structure}, tissue))
        assert report.density_cells_per_mm3 == 0.0
        assert "EmptyCells" in report.flags


class TestProbabilisticAnalysis:
    def test_alpha_and_replicates(self, rng):
        structure, tissue, cells = _scene(rng, p=np.full(30, 0.8))
        report = analyze_probabilistic(
            cells, prepare_spatial({"s": structure}, tissue), replicates=50, seed=1
        )
        assert report.replicates == 50
        assert report.alpha == pytest.approx(2.0 / 51.0)
        assert report.alpha == pytest.approx(0.04, abs=0.001)

    def test_certain_cells_collapse_envelopes(self, rng):
        structure, tissue, cells = _scene(rng, p=np.ones(30))
        report = analyze_probabilistic(
            cells, prepare_spatial({"s": structure}, tissue), replicates=10, seed=3
        )
        sa = report.structures["s"]
        lower, upper = sa.cell_envelope
        assert np.array_equal(lower, upper)
        assert np.array_equal(lower, sa.cell_cdf)
        assert report.density_sd == 0.0
        assert report.structures["s"].pct_cells_adjacent_sd == 0.0

    def test_half_probability_counts_binomial(self, rng):
        n = 60
        structure, tissue, cells = _scene(rng, n_cells=n, p=np.full(n, 0.5))
        report = analyze_probabilistic(
            cells, prepare_spatial({"s": structure}, tissue), replicates=50, seed=7
        )
        assert abs(report.n_cells - n / 2) <= 3.0 * np.sqrt(n / 4.0)

    def test_envelopes_contain_replicate_curves(self, rng):
        structure, tissue, cells = _scene(rng, p=rng.uniform(0.3, 1.0, 30))
        report = analyze_probabilistic(
            cells, prepare_spatial({"s": structure}, tissue), replicates=20, seed=5
        )
        sa = report.structures["s"]
        assert np.all(sa.cell_envelope[0] <= sa.cell_envelope[1])
        assert np.all(sa.esd_envelope[0] <= sa.esd_envelope[1])

    def test_low_confidence_near_structure_direction(self, rng):
        # near-structure proposals at p in [0.5, 0.7): full weight
        # deterministically, fractional under sampling
        shape = (32, 32, 32)
        m = np.zeros(shape)
        m[:, 14:18, 14:18] = 1.0
        structure, tissue = mask(m), mask(np.ones(shape))
        edt = distance_transform(structure)
        for seed in range(3):
            g = np.random.default_rng(seed)
            near, far = [], []
            while len(near) < 40 or len(far) < 40:
                c = g.random(3) * 31 + 0.5
                d = cell_distances(CoordSet(c.reshape(1, 3)), edt)[0]
                if d < 4.0 and len(near) < 40:
                    near.append(c)
                elif d > 6.0 and len(far) < 40:
                    far.append(c)
            coords = np.vstack([near, far])
            p = np.concatenate([g.uniform(0.5, 0.7, 40), g.uniform(0.9, 0.99, 40)])
            cells = CoordSet(coords, p=p)
            prelude = prepare_spatial({"s": structure}, tissue)
            det = analyze_deterministic(cells, prelude)
            prob = analyze_probabilistic(cells, prelude, replicates=50, seed=seed)
            assert (
                prob.structures["s"].pct_cells_adjacent
                < det.structures["s"].pct_cells_adjacent
            )

    def test_all_empty_replicates_report_null_without_warnings(self):
        shape = (16, 16, 16)
        line = np.zeros(shape)
        line[:, 8, 8] = 1.0
        cells = CoordSet(
            np.array([[4.5, 4.5, 4.5], [8.5, 3.5, 12.5], [12.5, 12.5, 2.5]]),
            p=np.full(3, 0.05),
        )
        prelude = prepare_spatial({"line": mask(line)}, mask(np.ones(shape)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = analyze_probabilistic(cells, prelude, replicates=12, seed=1).to_dict()
        line_report = report["structures"]["line"]
        for key in ("pct_cells_adjacent", "pct_cells_adjacent_sd",
                    "pct_volume_adjacent", "pct_volume_adjacent_sd"):
            assert line_report[key] is None
        for kind in ("EmptyReplicate", "EmptyESDReplicate"):
            assert sum(f.startswith(kind + ":line:") for f in report["flags"]) == 12


@st.composite
def _tissue_cases(draw):
    """A structure and a tissue with empty planes and empty (z, y) rows, the
    grid's first and last voxels background or not, x lengths down to 1."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 7])))
    n = int(np.prod(shape))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tissue = g.random(shape) < draw(st.floats(0.3, 1.0))
    structure = g.random(shape) < draw(st.floats(0.0, 0.4))
    structure.flat[draw(st.integers(0, n - 1))] = True
    tissue[sorted(draw(st.sets(st.integers(0, shape[0] - 1))))] = False
    tissue.reshape(-1, shape[2])[sorted(draw(st.sets(st.integers(0, n // shape[2] - 1))))] = False
    for end in (0, n - 1):
        if draw(st.booleans()):
            tissue.flat[end], structure.flat[end] = True, False
    assume(structure.any() and (tissue & ~structure).any())
    return structure, tissue


def _with_background(shape, structure_at, empty_plane, empty_rows):
    """A structure and a tissue: the whole grid tissue but one empty plane
    and the given empty rows of plane 0, structure voxels at structure_at,
    so the grid's first and last voxels are background."""
    tissue = np.ones(shape, dtype=bool)
    tissue[empty_plane] = False
    tissue[0, empty_rows] = False
    tissue.flat[[0, -1]] = True
    structure = np.zeros(shape, dtype=bool)
    structure[structure_at] = True
    return structure, tissue


class TestSortedEsd:
    def test_both_analyses_evaluate_the_pool_sorted_once(self, rng):
        """prepare_spatial holds the pool once, as its ESD samples, sorted;
        pool_at reads the pool in voxel order from the EDT at every index,
        the oracle's voxel-order pool; each analysis' esd_cdf is the
        empirical CDF of that pool."""
        structure, tissue, cells = _scene(rng, p=rng.uniform(0.3, 1.0, 30))
        prelude = prepare_spatial({"s": structure}, tissue)
        prep = prelude.structures["s"]
        pool = _reference_esd_pool(structure, tissue)
        assert np.array_equal(prep.esd.samples, np.sort(pool))
        assert np.array_equal(prep.pool_at(np.arange(pool.size)), pool)
        for report in (
            analyze_deterministic(cells, prelude),
            analyze_probabilistic(cells, prelude, replicates=5, seed=2),
        ):
            sa = report.structures["s"]
            expected = DistanceCdf(pool).evaluate(sa.distance_grid, "empirical")
            assert np.array_equal(sa.esd_cdf, expected)
            assert sa.distance_grid[-1] >= pool.max()

    def test_draws_across_chunks(self, rng):
        """Draws beyond one chunk (1 MiB over 10 B per 64-voxel row, 1,638
        draws) are read chunk by chunk, the last one partial, with every
        value in place."""
        structure, tissue = _with_background((6, 5, 64), (3, 2, 10), 4, [0, 3])
        prep = prepare_spatial({"s": mask(structure)}, mask(tissue)).structures["s"]
        pool = _reference_esd_pool(mask(structure), mask(tissue))
        draws = rng.integers(0, pool.size, size=5000)
        assert np.array_equal(prep.pool_at(draws), pool[draws])

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @example(case=_with_background((3, 4, 1), (2, 1, 0), 1, [1, 2]))
    @example(case=_with_background((4, 3, 7), (1, 1, 3), 2, [1]))
    @given(case=_tissue_cases())
    def test_voxel_order_lookup_on_random_tissue(self, case):
        """pool_at equals the oracle's voxel-order pool at every index and at
        drawn indices with repeats, over tissue with empty planes and rows,
        x lengths down to 1, and the grid's first and last voxels background
        or not; the samples are that pool sorted."""
        structure, tissue = (mask(m) for m in case)
        prep = prepare_spatial({"s": structure}, tissue).structures["s"]
        pool = _reference_esd_pool(structure, tissue)
        assert np.array_equal(prep.esd.samples, np.sort(pool))
        assert np.array_equal(prep.pool_at(np.arange(pool.size)), pool)
        draws = np.random.default_rng(0).integers(0, pool.size, size=3 * pool.size)
        assert np.array_equal(prep.pool_at(draws), pool[draws])


def _smallest_accepted_side() -> float:
    """The least voxel side whose cube is a normal float, by bisection on
    the bit patterns of the positive floats, which they order as numbers."""
    lo, hi = 0, int(np.float64(1e-100).view(np.int64))  # lo refused, hi accepted
    while hi - lo > 1:
        mid = (lo + hi) // 2
        side = float(np.int64(mid).view(np.float64))
        lo, hi = (lo, mid) if side * side * side >= sys.float_info.min else (mid, hi)
    return float(np.int64(hi).view(np.float64))


SMALLEST_SIDE = _smallest_accepted_side()
_SIDE = st.one_of(
    _SPACING, st.floats(1e90, 1e100), st.floats(1e100, 1e104), st.just(SMALLEST_SIDE)
)
_KINDS = ("background", "empty", "covers", "shape", "voxel")
# one value planted off 0 and 1 in one mask in four, else None
_PLANTS = (None,) * 12 + (0.5, 2.0, np.nan, np.inf)


def _drawn_form(draw, g, m):
    """The boolean mask m as bool, as float32 holding 0.0, -0.0 and 1.0 or
    as float64 (bool becomes float64 when a value is planted)."""
    dtype = draw(st.sampled_from([bool, np.float32, np.float64]))
    plant = draw(st.sampled_from(_PLANTS))
    if dtype is bool and plant is None:
        return m
    out = np.where(m, 1.0, np.where(g.random(m.shape) < 0.5, -0.0, 0.0))
    out = out.astype(np.float64 if dtype is bool else dtype)
    if plant is not None:
        out.flat[draw(st.integers(0, out.size - 1))] = plant
    return out


@st.composite
def _prelude_cases(draw):
    """A tissue and one to three structures, each one of _KINDS: leaving
    tissue background, empty, covering the tissue, or on another shape or
    voxel size; voxel sides anisotropic or not, up to 1e104 um, and down to
    the smallest whose cube is a normal float. Each mask is in a
    ``_drawn_form``, binary or not."""
    shape = tuple(draw(st.integers(1, 6)) for _ in range(3))
    voxel = draw(st.one_of(_SIDE.map(lambda s: (s, s, s)), st.tuples(_SIDE, _SIDE, _SIDE)))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tissue = g.random(shape) < draw(st.floats(0.3, 1.0))
    tissue.flat[draw(st.integers(0, tissue.size - 1))] = True
    structures = {}
    for k, kind in enumerate(draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3))):
        structure = g.random(shape) < draw(st.floats(0.0, 0.5))
        if kind == "background":
            background = np.flatnonzero(tissue)[draw(st.integers(0, tissue.sum() - 1))]
            structure.flat[background] = False
            structure.flat[draw(st.integers(0, tissue.size - 1))] = True
            assume(structure.any() and (tissue & ~structure).any())
        elif kind == "empty":
            structure[...] = False
        elif kind == "covers":
            structure |= tissue
        else:
            structure.flat[0] = True
        at = voxel if kind != "voxel" else tuple(2.0 * v for v in voxel)
        if kind == "shape":
            structure = np.concatenate([structure, structure[:1]])
        structures[f"s{k}"] = Volume3D(_drawn_form(draw, g, structure), at)
    return structures, Volume3D(_drawn_form(draw, g, tissue), voxel)


def _diagonal(v: Volume3D) -> float:
    """The distance (um) between the centres of a grid's first and last voxels."""
    return float(np.linalg.norm((np.asarray(v.shape) - 1) * np.asarray(v.voxel_size)))


def _binary(v: Volume3D) -> bool:
    return bool(np.isin(v.data, (0, 1)).all())  # NaN is neither


def _first_error(structures, tissue):
    """The type and message of the error the prelude raises after its
    voxel-size checks: a non-binary tissue, a tissue volume (mm^3) that is
    not a normal float, then structure by structure, its grid, a non-binary
    mask, its foreground, then tissue background outside it; (None, None)
    when all pass."""
    if not _binary(tissue):
        return ValueError, "tissue mask must be binary"
    tissue_mm3 = int(np.count_nonzero(tissue.data == 1)) * tissue.voxel_volume_um3 / 1e9
    if not sys.float_info.min <= tissue_mm3 < np.inf:
        return ValueError, (f"voxel_size {tissue.voxel_size}: the tissue's {tissue_mm3:g} mm^3 "
                            "is not a normal float")
    for name, structure in structures.items():
        if (structure.shape, structure.voxel_size) != (tissue.shape, tissue.voxel_size):
            return ShapeMismatch, (
                f"structure {name!r} is {structure.shape} voxels of {structure.voxel_size} um, "
                f"the tissue {tissue.shape} voxels of {tissue.voxel_size} um"
            )
        if not _binary(structure):
            return ValueError, "structure mask must be binary"
        if not (structure.data == 1).any():
            return EmptyStructure, "structure mask has no foreground voxels"
        if not ((tissue.data == 1) & (structure.data != 1)).any():
            return DegenerateESD, "no background voxels remain inside the tissue"
    return None, None


# the prelude's voxel-size refusals, after "voxel_size (sides): ", as patterns
_REFUSALS = {
    "side": re.escape("its smallest side cubed is not a normal float"),
    "diagonal": re.escape("four times the grid's diagonal cubed overflows a float"),
    "tissue": r"the tissue's \S+ mm\^3 is not a normal float",
}


class TestPreludeChecks:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @example(case=(
        {"a": Volume3D(np.eye(4, dtype=bool)[None], (1, 1, 1)),
         "b": Volume3D(np.zeros((1, 4, 4), bool), (1, 1, 1))},
        Volume3D(np.ones((1, 4, 4), bool), (1, 1, 1)),
    ))
    @example(case=(  # a float32 mask with -0.0 that passes, then a float64 one holding inf
        {"a": Volume3D(np.where(np.eye(4)[None] > 0, 1.0, -0.0).astype(np.float32), (1, 1, 1)),
         "b": Volume3D(np.where(np.eye(4)[None] > 0, np.inf, 0.0), (1, 1, 1))},
        Volume3D(np.ones((1, 4, 4)), (1, 1, 1)),
    ))
    @example(case=(
        {"a": Volume3D(np.where(np.eye(4)[None] > 0, 1.0, -0.0).astype(np.float32), (1, 1, 1))},
        Volume3D(np.ones((1, 4, 4)), (1, 1, 1)),
    ))
    @given(case=_prelude_cases())
    def test_one_background_and_errors_before_any_edt(self, case):
        """Each structure's EDT is the brute-force one, its background the
        tissue where that EDT is positive and its pool the oracle's, which
        takes the tissue minus the structure. A failing structure raises what
        it always raised, with the same message, in the same order, and
        before any EDT runs, also after structures that pass; so does a
        value off 0 and 1 in any mask. A voxel size is refused by name before
        them, on grids whose diagonal passes 1e102 um only: at 1e103 um
        scipy's feature transform returned wrong distances. Masks as bool,
        float32 (0.0, -0.0, 1.0) or float64 give the same prelude, byte for
        byte."""
        import probcell.spatial as spatial

        structures, tissue = case
        expected, message = _first_error(structures, tissue)
        with mock.patch.object(spatial, "_exact_edt", wraps=spatial._exact_edt) as edt:
            try:
                prelude, error = prepare_spatial(structures, tissue), None
            except Exception as exc:
                error = exc
        if "diagonal" in str(error):
            assert type(error) is ValueError and str(error).startswith("voxel_size")
            assert _diagonal(tissue) > 1e102 and edt.call_count == 0
            return
        if expected is not None:
            assert type(error) is expected and edt.call_count == 0
            assert str(error) == message
            return
        assert error is None
        # the same masks as booleans, which the checks below read too
        structures = {name: Volume3D(s.data == 1, s.voxel_size) for name, s in structures.items()}
        tissue = Volume3D(tissue.data == 1, tissue.voxel_size)
        for name, prep in prepare_spatial(structures, tissue).structures.items():
            drawn = prelude.structures[name]
            for ours, theirs in ((prep.edt.data, drawn.edt.data),
                                 (prep.background, drawn.background),
                                 (prep.row_starts, drawn.row_starts),
                                 (prep.esd.samples, drawn.esd.samples)):
                assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        for name, prep in prelude.structures.items():
            reference = brute_force_edt(structures[name].data, tissue.voxel_size)
            assert np.allclose(prep.edt.data, reference, rtol=1e-12, atol=0.0)
            background = np.unpackbits(prep.background, axis=-1, count=tissue.shape[2])
            assert np.array_equal(background.view(bool), tissue.data & (prep.edt.data > 0))
            pool = _reference_esd_pool(structures[name], tissue)
            assert np.array_equal(prep.esd.samples, np.sort(pool))
            assert np.array_equal(prep.pool_at(np.arange(pool.size)), pool)

    @pytest.mark.parametrize("side, refusal", [
        (1e-200, "side"), (1e-160, "side"), (float(np.nextafter(SMALLEST_SIDE, 0.0)), "side"),
        (SMALLEST_SIDE, "tissue"), (3e-103, "tissue"), (1e-100, None), (1e101, None),
        (6e102, "diagonal"), (1e200, "diagonal"),
    ])
    def test_voxel_side_outside_the_exact_transform_is_refused(self, tmp_path, capsys, side,
                                                              refusal):
        """On 8^3 masks with one structure voxel, an accepted side keeps all
        511 tissue background voxels in the pool, at their brute-force
        distances. Another is refused by name, and `probcell spatial` exits
        1 with the JSON payload, warning nothing: at 1e-200 every distance
        was 0, and the pool empty; at 1e-160 and at 3e-103 (its cube is a
        normal float, the tissue volume in mm^3 is not) the density
        overflowed the report; at 6e102 distances were wrong."""
        m = np.zeros((8, 8, 8))
        m[4, 4, 4] = 1.0
        structure, tissue = mask(m, (side,) * 3), mask(np.ones((8, 8, 8)), (side,) * 3)
        if refusal is None:
            prep = prepare_spatial({"s": structure}, tissue).structures["s"]
            pool = prep.esd.samples
            assert pool.size == 511 and np.array_equal(pool, np.sort(_reference_esd_pool(structure, tissue)))
            assert np.allclose(prep.edt.data, brute_force_edt(m, (side,) * 3), rtol=1e-12, atol=0.0)
            return
        pattern = "^" + re.escape(f"voxel_size {(side,) * 3}: ") + _REFUSALS[refusal] + "$"
        with pytest.raises(ValueError, match=pattern) as refused:
            prepare_spatial({"s": structure}, tissue)
        save_coords(CoordSet(np.array([[2.5 * side] * 3])), tmp_path / "cells.csv")
        save_volume(structure, tmp_path / "structure")
        save_volume(tissue, tmp_path / "tissue")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "spatial", "--cells", str(tmp_path / "cells.csv"),
                "--structure", str(tmp_path / "structure"), "--tissue", str(tmp_path / "tissue"),
                "--out-dir", str(tmp_path / "sp"),
            ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == {"type": "ValueError", "message": str(refused.value)}


def _tiny_tissue_scene(side, n_cells, p=None):
    """8^3 masks of side um, one structure voxel, and n_cells cells inside."""
    m = np.zeros((8, 8, 8))
    m[4, 4, 4] = 1.0
    rng = np.random.default_rng(41)
    cells = CoordSet(rng.uniform(0.0, 8 * side, (n_cells, 3)), p=p)
    return mask(m, (side,) * 3), mask(np.ones((8, 8, 8)), (side,) * 3), cells


class TestDensityOverflow:
    """A tissue volume that is a normal float can still be too small for the
    cells: their density per mm^3, or its SD over the replicates, overflows.
    Each analysis refuses by naming voxel_size, as the prelude does."""

    @pytest.mark.parametrize("mode", ["deterministic", "probabilistic"])
    def test_cli_refuses_overflowing_density(self, tmp_path, capsys, mode):
        """1,000 cells in 8^3 voxels of 1.25e-100 um (1e-306 mm^3): the
        density, 1e309 per mm^3, ended the report in a JSON error."""
        structure, tissue, cells = _tiny_tissue_scene(1.25e-100, 1000)
        save_coords(cells, tmp_path / "cells.csv")
        save_volume(structure, tmp_path / "structure")
        save_volume(tissue, tmp_path / "tissue")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "spatial", "--cells", str(tmp_path / "cells.csv"), "--mode", mode,
                "--structure", str(tmp_path / "structure"), "--tissue", str(tmp_path / "tissue"),
                "--replicates", "4", "--cdf-mode", "empirical", "--out-dir", str(tmp_path / "sp"),
            ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ValueError"
        assert re.match(r"voxel_size: 1000 cells in the tissue's 1e-306 mm\^3 overflow ",
                        payload["error"]["message"])
        assert not (tmp_path / "sp" / "report.json").exists()

    def test_probabilistic_refuses_overflowing_sd(self):
        """Each replicate's density and their mean are finite, but the squared
        deviations of the SD overflow."""
        structure, tissue, cells = _tiny_tissue_scene(5e-100, 100, p=np.full(100, 0.5))
        prelude = prepare_spatial({"s": structure}, tissue)
        replicates = 12
        assert np.isfinite(len(cells) * replicates / prelude.tissue_mm3)
        with pytest.raises(ValueError, match=r"^voxel_size: \d+ cells in the tissue's "):
            analyze_probabilistic(cells, prelude, replicates=replicates, cdf_mode="empirical")
        # the deterministic density of the same cells (p >= 0.5 keeps all) is finite
        report = analyze_deterministic(cells, prelude, cdf_mode="empirical")
        assert report.density_cells_per_mm3 == len(cells) / prelude.tissue_mm3


def _oracle_case(case):
    """Cells, structures, tissue and keyword arguments for one oracle case."""
    rng = np.random.default_rng(40)
    voxel = (2.0, 1.0, 0.5) if case == "anisotropic" else (1.0, 1.0, 1.0)
    shape = (20, 18, 26)
    tube = np.zeros(shape)
    tube[:, 7:10, 11:14] = 1.0
    slab = np.zeros(shape)
    slab[4:6, :, 19:21] = 1.0
    tissue = np.zeros(shape)
    tissue[1:-1, 2:, :] = 1.0
    structures = {"tube": mask(tube, voxel)}
    if case == "two_structures":
        structures["slab"] = mask(slab, voxel)
    n = 3 if case == "empty_replicates" else 40
    extent = np.asarray(shape) * np.asarray(voxel)
    coords = rng.random((n, 3)) * extent * 0.98
    if case == "empty_kept":
        p = rng.uniform(0.05, 0.49, n)
    elif case == "empty_replicates":
        p = np.full(n, 0.25)
    else:
        p = rng.uniform(0.2, 1.0, n)
    kwargs = {"cdf_mode": "empirical"} if case == "empirical" else {}
    return CoordSet(coords, p=p), structures, mask(tissue, voxel), kwargs


class TestPreparedPrelude:
    CASES = [
        "two_structures", "anisotropic", "empty_kept", "empirical", "empty_replicates",
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_per_call_reference(self, case):
        cells, structures, tissue, kwargs = _oracle_case(case)
        prelude = prepare_spatial(structures, tissue)
        assert analyze_deterministic(cells, prelude, **kwargs).to_dict() == (
            reference_analyze_deterministic(cells, structures, tissue, **kwargs).to_dict()
        )
        prob = analyze_probabilistic(cells, prelude, replicates=12, seed=9, **kwargs)
        ref = reference_analyze_probabilistic(
            cells, structures, tissue, replicates=12, seed=9, **kwargs
        )
        assert prob.to_dict() == ref.to_dict()
        if case == "empty_kept":
            assert "EmptyCells" in analyze_deterministic(cells, prelude).flags
        if case == "empty_replicates":
            assert any(f.startswith("EmptyReplicate:") for f in ref.flags)

    def test_one_edt_per_structure(self, monkeypatch, tmp_path):
        import probcell.spatial as spatial

        calls = []
        real = spatial.distance_transform

        def counting(structure):
            calls.append(structure.shape)
            return real(structure)

        monkeypatch.setattr(spatial, "distance_transform", counting)
        cells, structures, tissue, _ = _oracle_case("two_structures")
        prepare_spatial(structures, tissue)
        assert len(calls) == 2

        calls.clear()
        run_pipeline({
            "seed": 2,
            "test_scene": {"shape": [40, 40, 40], "n_cells": 8, "n_distractors": 3, "n_tubes": 1},
            "train_scenes": 1,
            "train_scene": {"shape": [40, 40, 40], "n_cells": 8, "n_distractors": 3},
            "classifier": {"type": "forest", "n_trees": 8},
            "spatial": {"replicates": 4, "adjacency_um": 4.0, "cdf_mode": "kde"},
            "threshold_grid": 4,
        })
        assert len(calls) == 1

        calls.clear()
        save_coords(cells, tmp_path / "cells.csv")
        save_volume(structures["tube"], tmp_path / "structure")
        save_volume(tissue, tmp_path / "tissue")
        rc = main([
            "spatial", "--mode", "both", "--cells", str(tmp_path / "cells.csv"),
            "--structure", str(tmp_path / "structure"), "--tissue", str(tmp_path / "tissue"),
            "--replicates", "4", "--out-dir", str(tmp_path / "sp"),
        ])
        assert rc == 0
        assert len(calls) == 1

    @staticmethod
    def _grids_1um_and_2um():
        structure = np.zeros((16, 16, 16))
        structure[8] = 1.0
        return mask(structure, (1.0, 1.0, 1.0)), mask(np.ones((16, 16, 16)), (2.0, 2.0, 2.0))

    def test_voxel_size_mismatch_raises_before_edt(self, monkeypatch):
        import probcell.spatial as spatial

        def no_edt(structure):
            raise AssertionError("the EDT ran on a structure of another voxel size")

        monkeypatch.setattr(spatial, "distance_transform", no_edt)
        structure, tissue = self._grids_1um_and_2um()
        with pytest.raises(ShapeMismatch, match=r"\(1\.0, 1\.0, 1\.0\).*\(2\.0, 2\.0, 2\.0\)"):
            prepare_spatial({"tube": structure}, tissue)

    def test_cli_voxel_size_mismatch_exit_1_with_json(self, tmp_path, capsys):
        structure, tissue = self._grids_1um_and_2um()
        save_coords(CoordSet(np.array([[3.0, 3.0, 3.0]])), tmp_path / "cells.csv")
        save_volume(structure, tmp_path / "structure")
        save_volume(tissue, tmp_path / "tissue")
        rc = main([
            "spatial", "--cells", str(tmp_path / "cells.csv"),
            "--structure", str(tmp_path / "structure"), "--tissue", str(tmp_path / "tissue"),
            "--out-dir", str(tmp_path / "sp"),
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ShapeMismatch"
        assert not (tmp_path / "sp" / "report.json").exists()

    @pytest.mark.parametrize("bad", [0.5, 2.0, np.nan])
    @pytest.mark.parametrize("which", ["tissue", "structure"])
    def test_non_binary_mask_raises(self, tmp_path, capsys, which, bad):
        """One voxel off 0 and 1 in a background plane: prepare_spatial names
        the mask, and the CLI exits 1 with the JSON error payload."""
        structure = np.zeros((8, 8, 8))
        structure[4] = 1.0
        volumes = {"structure": structure, "tissue": np.ones((8, 8, 8))}
        volumes[which][1, 2, 3] = bad
        with pytest.raises(ValueError, match=f"^{which} mask must be binary$"):
            prepare_spatial({"s": mask(volumes["structure"])}, mask(volumes["tissue"]))
        save_coords(CoordSet(np.array([[3.0, 3.0, 3.0]])), tmp_path / "cells.csv")
        for key, data in volumes.items():
            save_volume(mask(data), tmp_path / key)
        rc = main([
            "spatial", "--cells", str(tmp_path / "cells.csv"),
            "--structure", str(tmp_path / "structure"), "--tissue", str(tmp_path / "tissue"),
            "--out-dir", str(tmp_path / "sp"),
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == {"type": "ValueError", "message": f"{which} mask must be binary"}
        assert not (tmp_path / "sp" / "report.json").exists()


# cores.SPLIT_MIN_BYTES: a worker thread at every size, or none at any
_SPLIT = pytest.mark.parametrize("least", [0, 1 << 62], ids=["thread", "in-order"])


class TestForkedReplicates:
    @_SPLIT
    @pytest.mark.parametrize("cdf_mode", ["kde", "empirical"])
    @pytest.mark.parametrize("replicates", [12, 41])
    def test_equals_serial_reference(self, monkeypatch, cdf_mode, replicates, least):
        """Two structures, three cells at p = 0.25: both halves of the
        replicates hold empty cell and ESD replicates, and their flags,
        percentages and merged envelopes equal the serial loop's."""
        monkeypatch.setattr(cores, "SPLIT_MIN_BYTES", least)
        cells, _, tissue, _ = _oracle_case("empty_replicates")
        _, structures, _, _ = _oracle_case("two_structures")
        prob = analyze_probabilistic(
            cells, prepare_spatial(structures, tissue), replicates=replicates, seed=9,
            cdf_mode=cdf_mode,
        )
        ref = reference_analyze_probabilistic(
            cells, structures, tissue, replicates=replicates, seed=9, cdf_mode=cdf_mode
        )
        assert prob.to_dict() == ref.to_dict()
        for kind in ("EmptyReplicate", "EmptyESDReplicate"):
            ts = [int(f.rsplit(":", 1)[1]) for f in ref.flags if f.startswith(kind + ":")]
            assert min(ts) < replicates // 2 <= max(ts)
        assert prob.structures["tube"].cell_envelope is not None

    @_SPLIT
    @pytest.mark.parametrize("cdf_mode", ["kde", "empirical"])
    @pytest.mark.parametrize("replicates", [2, 3])
    def test_fewest_replicates_equal_serial_reference(self, monkeypatch, cdf_mode, replicates,
                                                      least):
        """With one replicate in the first half, split or not."""
        monkeypatch.setattr(cores, "SPLIT_MIN_BYTES", least)
        cells, structures, tissue, _ = _oracle_case("two_structures")
        prob = analyze_probabilistic(cells, prepare_spatial(structures, tissue),
                                     replicates=replicates, seed=3, cdf_mode=cdf_mode)
        ref = reference_analyze_probabilistic(cells, structures, tissue, replicates=replicates,
                                              seed=3, cdf_mode=cdf_mode)
        assert prob.to_dict() == ref.to_dict()

    @_SPLIT
    def test_forks_no_process(self, tmp_path, monkeypatch, least):
        """The replicates run on the calling thread, or half of them on a
        worker thread, never in a forked process: analyze_probabilistic and
        `probcell spatial --mode both` call os.fork 0 times."""
        monkeypatch.setattr(cores, "SPLIT_MIN_BYTES", least)
        cells, structures, tissue, _ = _oracle_case("two_structures")
        prelude = prepare_spatial(structures, tissue)
        save_coords(cells, tmp_path / "cells.csv")
        save_volume(structures["tube"], tmp_path / "structure")
        save_volume(tissue, tmp_path / "tissue")
        argv = ["spatial", "--cells", str(tmp_path / "cells.csv"),
                "--structure", str(tmp_path / "structure"), "--tissue", str(tmp_path / "tissue"),
                "--mode", "both", "--replicates", "12", "--out-dir", str(tmp_path / "out")]
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            analyze_probabilistic(cells, prelude, replicates=12)
            assert fork.call_count == 0
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            assert fork.call_count == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report) == {"deterministic", "probabilistic"}


class TestKdeCdf:
    @pytest.mark.parametrize("at", [0, (1 << 20) - 1, 1 << 20, (1 << 20) + 1])
    def test_order_is_tested_across_blocks(self, at):
        """One pair out of order, in a block or on the seam of two, sorts the
        sample; a NaN there raises."""
        want = np.arange((1 << 20) + 3, dtype=np.float64)
        s = want.copy()
        s[at], s[at + 1] = s[at + 1], s[at]
        cdf = DistanceCdf(s)
        assert not np.shares_memory(cdf.samples, s) and np.array_equal(cdf.samples, want)
        assert np.shares_memory(DistanceCdf(want).samples, want)
        s = want.copy()
        s[at + 1] = np.nan
        with pytest.raises(NonFiniteInput):
            DistanceCdf(s)

    def test_scott_bandwidth_formula(self, rng):
        x = rng.normal(size=200)
        assert scott_bandwidth(x) == pytest.approx(np.std(x, ddof=1) * 200 ** (-0.2))
        assert scott_bandwidth(np.array([1.0])) == 0.0

    def test_kde_cdf_is_smooth_and_bounded(self, rng):
        samples = rng.uniform(0, 10, 100)
        grid = np.linspace(-2, 14, 257)
        values = DistanceCdf(samples).evaluate(grid, mode="kde")
        assert np.all(np.diff(values) >= 0)
        assert values[0] >= 0 and values[-1] <= 1
        assert values[-1] > 0.99

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(n=st.one_of(st.integers(1, 5000), st.sampled_from([1, 2, 3, 4096, 5000])),
           shape=st.floats(0.5, 8.0), seed=st.integers(0, 2**32 - 1),
           points=st.sampled_from([1, 2, 511, 512]))
    def test_one_buffer_equals_two_matrices(self, n, shape, seed, points):
        """The curve built in one grid x sample buffer is the two-matrix
        expression's, bit for bit, on gamma samples of 1 to 5,000 values."""
        samples = np.random.default_rng(seed).gamma(shape, 3.0, n)
        grid = np.linspace(0.0, 1.1 * samples.max(), points)
        got = DistanceCdf(samples).evaluate(grid, mode="kde")
        assert np.array_equal(got, two_matrix_kde_cdf(samples, grid))

    def test_degenerate_sample_falls_back_to_step(self):
        values = DistanceCdf(np.array([2.0, 2.0])).evaluate(np.array([1.0, 2.0, 3.0]), mode="kde")
        assert np.array_equal(values, [0.0, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["kde", "empirical"])
    def test_non_finite_samples_raise(self, bad, mode):
        with pytest.raises(NonFiniteInput):
            DistanceCdf(np.array([bad, 1.0, 2.0])).evaluate(np.array([0.0, 1.0, 2.0]), mode)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("ascending", [True, False])
    def test_non_finite_anywhere_raises(self, bad, at, ascending):
        """NaN or +-inf at the start, middle or end of an ascending or an
        unsorted sample raises, whether or not the sample is sorted first."""
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0] if ascending else [3.0, 0.0, 4.0, 1.0, 2.0])
        x[at] = bad
        with pytest.raises(NonFiniteInput):
            DistanceCdf(x)

    @pytest.mark.parametrize("x", [
        np.array([3.0, 0.5, 2.0, 0.5]), np.array([0.5, 0.5, 2.0, 3.0]),
        np.array([3.0, 0.5, 2.0], dtype=np.float32), np.array([[2.0, 1.0], [0.0, 3.0]]),
    ])
    def test_callers_array_is_unchanged(self, x):
        """The samples are sorted, and the caller's array keeps its values in
        its order: an unsorted input stays unsorted."""
        before = x.copy()
        cdf = DistanceCdf(x)
        assert np.array_equal(x, before) and x.dtype == before.dtype
        assert np.array_equal(cdf.samples, np.sort(before, axis=None))

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="bogus"):
            DistanceCdf(np.array([1.0, 2.0])).evaluate(np.array([1.5]), mode="bogus")


class TestKs2Sample:
    def test_identical_samples_zero(self, rng):
        a = rng.random(40)
        stat, p = ks_2sample(a, a.copy())
        assert stat == 0.0
        assert p == 1.0

    def test_disjoint_supports_one(self, rng):
        stat, _ = ks_2sample(rng.random(30), rng.random(25) + 2.0)
        assert stat == 1.0

    def test_statistic_matches_sweep_oracle(self, rng):
        for _ in range(50):
            a = rng.normal(size=int(rng.integers(2, 30)))
            b = rng.normal(size=int(rng.integers(2, 30)))
            stat, _ = ks_2sample(a, b)
            assert stat == pytest.approx(ks_statistic_sweep(a, b), abs=1e-12)

    def test_equals_step_cdf_reference_bit_for_bit(self, rng):
        for _ in range(100):
            a = np.round(rng.normal(size=int(rng.integers(1, 60))), 1)  # ties too
            b = np.round(rng.normal(rng.uniform(0, 1), size=int(rng.integers(1, 60))), 1)
            assert ks_2sample(a, b) == step_cdf_ks_2sample(a, b)

    def test_empty_sample_raises_value_error(self):
        with pytest.raises(ValueError, match="nonempty"):
            ks_2sample([], [1.0])
        with pytest.raises(ValueError, match="nonempty"):
            ks_2sample([1.0], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(NonFiniteInput):
            ks_2sample([bad, 1.0], [1.0, 2.0])
        with pytest.raises(NonFiniteInput):
            ks_2sample([1.0, 2.0], [1.0, bad])

    def test_p_value_direction(self, rng):
        same_a = rng.normal(size=300)
        same_b = rng.normal(size=300)
        shifted = rng.normal(size=300) + 1.5
        _, p_same = ks_2sample(same_a, same_b)
        _, p_diff = ks_2sample(same_a, shifted)
        assert p_diff < 1e-6 < p_same

    def test_one_point_difference_p_one(self):
        """A sample against itself minus one point has lambda = 0.0056, where
        the true Kolmogorov survival is 1 (a truncated series gave 0.46)."""
        a = np.random.default_rng(0).normal(size=5000)
        _, p = ks_2sample(a, a[1:])
        assert p == 1.0

    def test_p_matches_series_for_lambda_at_least_half(self, rng):
        checked = 0
        for _ in range(200):
            a = rng.normal(size=int(rng.integers(5, 200)))
            b = rng.normal(rng.uniform(0.0, 2.0), size=int(rng.integers(5, 200)))
            stat, p = ks_2sample(a, b)
            lam = np.sqrt(a.size * b.size / (a.size + b.size)) * stat
            if lam >= 0.5:
                assert abs(p - series_kolmogorov_sf(lam)) <= 1e-13
                checked += 1
        assert checked > 100


def test_import_leaves_scipy_stats_unloaded():
    """The KS p-value comes from scipy.special; importing scipy.stats would
    add about half a second to every start of the package. Matching runs in
    numpy: scipy.optimize, with the scipy.spatial it pulls in, held 23 MB
    and took about 0.13 s of each start."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import probcell; "
        "print([m for m in ('scipy.stats', 'scipy.optimize', 'scipy.spatial') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestWilcoxon:
    def test_antisymmetric_diffs_p_one(self):
        w, p = wilcoxon_signed_rank([-1.0, 1.0, -2.0, 2.0])
        assert p == 1.0

    def test_all_positive_n6(self):
        w, p = wilcoxon_signed_rank([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        assert w == 21.0
        assert p == pytest.approx(1.0 / 32.0)

    def test_zeros_dropped(self):
        w1, p1 = wilcoxon_signed_rank([0.0, 0.5, 1.0, -0.3])
        w2, p2 = wilcoxon_signed_rank([0.5, 1.0, -0.3])
        assert (w1, p1) == (w2, p2)

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroDifferences):
            wilcoxon_signed_rank([0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(NonFiniteInput):
            wilcoxon_signed_rank([bad, 1.0, 2.0])

    def test_exact_matches_enumeration(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            d = np.round(rng.normal(size=n), 2)
            d[d == 0] = 0.11
            if rng.random() < 0.3:  # force tied magnitudes
                d[0] = -d[1] if n >= 2 else d[0]
            w_got, p_got = wilcoxon_signed_rank(d)
            w_want, p_want = wilcoxon_enumeration(d)
            assert w_got == pytest.approx(w_want)
            assert p_got == pytest.approx(p_want, abs=1e-12)

    def test_large_n_normal_approximation(self, rng):
        d = rng.normal(0.0, 1.0, size=40)
        d[d == 0] = 0.5
        _, p = wilcoxon_signed_rank(d)
        assert 0.0 < p <= 1.0
        shifted = np.abs(rng.normal(2.0, 0.2, size=40))
        _, p_shift = wilcoxon_signed_rank(shifted)
        assert p_shift < 1e-6

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        magnitudes=st.lists(st.integers(1, 4), min_size=1, max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tied_ranks_equal_loop_reference(self, magnitudes, seed):
        """Magnitudes from 1..4 force ties on both the exact (n <= 12) and
        the normal-approximation branch. Flipping one difference positive
        makes W+ that difference's rank, so each rank is read back through
        the public test."""
        absd = np.asarray(magnitudes, dtype=np.float64) / 4.0
        d = absd * np.random.default_rng(seed).choice([-1.0, 1.0], size=absd.size)
        want_ranks = loop_average_ranks(absd)
        for i in range(absd.size):
            one_positive = -absd
            one_positive[i] = absd[i]
            assert wilcoxon_signed_rank(one_positive)[0] == want_ranks[i]
        w, p = wilcoxon_signed_rank(d)
        assert w == want_ranks[d > 0].sum()
        if d.size <= 12:
            assert (w, p) == wilcoxon_enumeration(d)
        else:
            from scipy.stats import wilcoxon

            want = wilcoxon(d, zero_method="wilcox", correction=False, method="approx")
            assert p == pytest.approx(want.pvalue, rel=1e-12)
