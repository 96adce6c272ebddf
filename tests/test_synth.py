import math
import threading
import time
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from probcell import (
    CoordSet,
    NmsConfig,
    SynthSpec,
    detect_peaks,
    generate_coords,
    generate_structures,
    hungarian_match,
    oracle_regress,
    render_dm,
    score_detection,
)
from probcell import cli as cli_mod
from probcell import cores
from probcell.cli import main
from probcell.cores import side_by_side
from probcell.errors import EmptyStructure, PackingInfeasible
from probcell.spatial import distance_transform
from probcell import synth as synth_mod
from probcell.synth import _gaussian_in_place, _sample_separated, _smooth_field

from oracles import (
    dict_grid_sample_separated,
    reference_generate_structures,
    reference_oracle_regress,
    reference_smooth_field,
)


class TestGenerateCoords:
    def test_zero_count_empty(self):
        spec = SynthSpec(shape=(16, 16, 16), n_cells=0)
        assert len(generate_coords(spec)) == 0

    def test_min_separation_holds(self):
        spec = SynthSpec(shape=(128, 128, 128), n_cells=50, min_separation_um=8.0, seed=4)
        coords = generate_coords(spec).coords
        assert len(coords) == 50
        diffs = coords[:, None, :] - coords[None, :, :]
        dist = np.linalg.norm(diffs, axis=2)
        dist[np.diag_indices(50)] = np.inf
        assert dist.min() >= 8.0

    def test_same_seed_identical(self):
        spec = SynthSpec(shape=(48, 48, 48), n_cells=20, seed=9)
        a = generate_coords(spec).coords
        b = generate_coords(spec).coords
        assert np.array_equal(a, b)

    def test_infeasible_packing_raises(self):
        spec = SynthSpec(shape=(8, 8, 8), n_cells=100, min_separation_um=8.0)
        with pytest.raises(PackingInfeasible):
            generate_coords(spec)

    def test_keplers_bound_fails_before_the_first_attempt(self):
        """A 32 um cube holds at most 176 points 8 um apart: one more raised
        only after 200 n + 1000 rejected draws."""
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(PackingInfeasible, match="n_cells = 177"):
            _sample_separated(rng, 177, (0, 0, 0), (32, 32, 32), 8.0)
        with pytest.raises(PackingInfeasible, match="n_distractors = 100: 177 points"):
            _sample_separated(rng, 100, (0, 0, 0), (32, 32, 32), 8.0,
                              existing=np.full((77, 3), 16.0))
        assert rng.bit_generator.state == state

    def test_saturation_bound_fails_before_the_first_attempt(self):
        """1,000 cells 8 um apart in a 64 um cube are under Kepler's bound,
        but rejection sampling places only about 420 of them: the request
        fails at once, not after 201,000 draws (about 5 s)."""
        spec = SynthSpec(shape=(64, 64, 64), n_cells=1000, n_distractors=0, n_tubes=0)
        start = time.perf_counter()
        with pytest.raises(PackingInfeasible, match="n_cells = 1000"):
            generate_coords(spec)
        assert time.perf_counter() - start < 0.5

    def test_small_box_keeps_what_rejection_sampling_places(self):
        """Three points 8 um apart placed in a 16.8 um rod: more than the bulk
        saturation density of the grown box, so the bound's face layer must
        admit them."""
        pts = _sample_separated(np.random.default_rng([1, 0]), 3, (0, 0, 0),
                                (16.8, 0.0008, 0.0008), 8.0)
        assert len(pts) == 3


    @pytest.mark.parametrize("min_sep", [1e-20, 5e-324])
    def test_tiny_separation_without_warnings(self, min_sep):
        """floor(pt / min_sep) overflowed its int64 bucket keys with a
        RuntimeWarning, and every point shared one bucket: 4,000 cells took
        19 s at 1e-20 um."""
        spec = SynthSpec(shape=(32, 32, 32), n_cells=4000, min_separation_um=min_sep, n_tubes=0)
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coords = generate_coords(spec)
        assert time.perf_counter() - start < 1.0
        assert len(coords) == 4000


class TestSampleSeparatedOracle:
    """_sample_separated draws and keeps, bit for bit, what the dict-grid
    loop did, with and without existing points."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lo=st.tuples(*[st.sampled_from([0.0, 4.0]) | st.floats(-50.0, 50.0)] * 3),
        size=st.tuples(*[st.sampled_from([0.0008, 16.8, 32.0]) | st.floats(0.001, 60.0)] * 3),
        min_sep=st.sampled_from([5e-324, 1e-20, 4.0, 8.0]) | st.floats(0.05, 30.0),
        n=st.integers(0, 40),
        n_existing=st.none() | st.integers(0, 30),
    )
    @example(seed=1, lo=(0.0, 0.0, 0.0), size=(16.8, 0.0008, 0.0008), min_sep=8.0, n=3,
             n_existing=None)  # the small-box rod
    def test_matches_dict_grid(self, seed, lo, size, min_sep, n, n_existing):
        lo = np.asarray(lo)
        hi = lo + np.asarray(size)
        existing = None
        if n_existing is not None:
            existing = np.random.default_rng([seed, 1]).uniform(lo, hi, size=(n_existing, 3))
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        results = []
        for sample, rng in zip((_sample_separated, dict_grid_sample_separated), rngs):
            try:
                results.append(sample(rng, n, lo, hi, min_sep, existing))
            except PackingInfeasible as exc:
                results.append(str(exc))
        if rngs[0].bit_generator.state == rngs[2].bit_generator.state:
            return  # refused before its first draw (empty box, packing bound)
        got, want = results
        assert type(got) is type(want) and np.array_equal(got, want)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


class TestOracleRegress:
    def test_zero_noise_no_distractors_equals_gt(self):
        spec = SynthSpec(shape=(32, 32, 32), n_cells=8, noise_sd=0.0, n_distractors=0, seed=2)
        coords = generate_coords(spec)
        ro = oracle_regress(coords, spec)
        gt = render_dm(coords, spec.shape, spec.voxel_size, spec.kernel())
        assert np.array_equal(ro.dm.data, gt.data)
        assert not ro.epistemic.data.any()

    def test_noise_adds_proposals_without_losing_cells(self):
        spec = SynthSpec(
            shape=(48, 48, 48), n_cells=10, noise_sd=0.05, n_distractors=0,
            margin_um=6.0, seed=5,
        )
        coords = generate_coords(spec)
        ro = oracle_regress(coords, spec)
        peaks = detect_peaks(ro.dm, NmsConfig(4.0, 0.0))
        assert len(peaks) >= len(coords)
        report = score_detection(coords, CoordSet(peaks.coords), 4.0)
        assert report.recall == 1.0

    def test_aleatoric_is_the_noise_amplitude_field(self):
        base = SynthSpec(shape=(24, 24, 24), n_cells=5, noise_sd=0.04, seed=11)
        doubled = replace(base, noise_sd=0.08)
        ua1 = oracle_regress(generate_coords(base), base).aleatoric.data
        ua2 = oracle_regress(generate_coords(doubled), doubled).aleatoric.data
        assert np.allclose(ua2, 2.0 * ua1)
        lo, hi = base.amp_field_range
        assert ua1.min() >= lo * base.noise_sd - 1e-6
        assert ua1.max() <= hi * base.noise_sd + 1e-6

    def test_determinism_and_epistemic_at_distractors(self):
        spec = SynthSpec(
            shape=(48, 48, 48), n_cells=6, n_distractors=6, noise_sd=0.02,
            distractor_amp_range=(0.3, 0.9), margin_um=6.0, seed=13,
        )
        coords = generate_coords(spec)
        a = oracle_regress(coords, spec)
        b = oracle_regress(coords, spec)
        assert np.array_equal(a.dm.data, b.dm.data)
        assert np.array_equal(a.epistemic.data, b.epistemic.data)
        # epistemic is elevated where the two draws disagree (distractors)
        peaks = detect_peaks(a.dm, NmsConfig(4.0, 0.0))
        labels = np.zeros(len(peaks), dtype=bool)
        for _, pj, d in hungarian_match(coords, peaks):
            if d <= 4.0:
                labels[pj] = True
        ue = a.epistemic
        vals = []
        for i, c in enumerate(peaks.coords):
            idx = tuple(np.floor(c).astype(int))
            vals.append(ue.data[idx])
        vals = np.asarray(vals)
        if labels.any() and (~labels).any():
            assert vals[~labels].mean() > vals[labels].mean()


class TestGenerateStructures:
    def test_tube_walks_bounded_by_the_voxel_count(self):
        """10,000 tubes on 16^3 walked for seconds; 2^31 - 1 would for days."""
        spec = SynthSpec(shape=(16, 16, 16), n_cells=0, n_tubes=256, tube_length_um=16.0)
        assert spec.n_tubes * spec.tube_length == 16**3
        with pytest.raises(ValueError, match="n_tubes = 257"):
            replace(spec, n_tubes=257)

    def test_zero_tubes_empty_structure(self):
        spec = SynthSpec(shape=(24, 24, 24), n_cells=0, n_tubes=0)
        structure, tissue = generate_structures(spec)
        assert not structure.data.any()
        with pytest.raises(EmptyStructure):
            distance_transform(structure)

    def test_structure_inside_tissue_and_tissue_is_ellipsoid(self):
        spec = SynthSpec(shape=(32, 32, 32), n_cells=0, n_tubes=2, tube_radius_um=3.0, seed=3)
        structure, tissue = generate_structures(spec)
        assert structure.data.sum() > 0
        assert not (structure.data.astype(bool) & ~tissue.data.astype(bool)).any()
        centers = (np.arange(32) + 0.5 - 16.0) / 16.0
        zz, yy, xx = np.meshgrid(centers, centers, centers, indexing="ij")
        inside = zz**2 + yy**2 + xx**2 <= 1.0
        assert np.array_equal(tissue.data.astype(bool), inside)

    def test_tube_radius_controls_thickness(self):
        thin = SynthSpec(shape=(40, 40, 40), n_cells=0, n_tubes=1, tube_radius_um=2.0, seed=6)
        thick = replace(thin, tube_radius_um=5.0)
        s_thin, _ = generate_structures(thin)
        s_thick, _ = generate_structures(thick)
        assert s_thick.data.sum() > s_thin.data.sum()

    def test_same_seed_identical(self):
        spec = SynthSpec(shape=(24, 24, 24), n_cells=0, n_tubes=1, seed=8)
        a, _ = generate_structures(spec)
        b, _ = generate_structures(spec)
        assert np.array_equal(a.data, b.data)


    @pytest.mark.parametrize("radius", [1e18, 1e300])
    def test_radius_beyond_the_extent_fills_the_tissue(self, radius):
        """The box pad's int cast overflowed from about 9.2e18 voxels on: at
        1e300 um the structure was empty, after a RuntimeWarning."""
        spec = SynthSpec(shape=(16, 16, 16), n_cells=2, n_distractors=1, n_tubes=1,
                         tube_radius_um=radius)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            structure, tissue = generate_structures(spec)
        assert tissue.data.sum() == 2176
        assert np.array_equal(structure.data, tissue.data)


# Scenes for the comparison with the whole-volume reference implementations.
REFERENCE_SCENES = {
    "anisotropic": SynthSpec(
        shape=(30, 26, 34), n_cells=6, n_distractors=3, voxel_size=(2.0, 1.0, 0.7),
        n_tubes=2, tube_radius_um=3.0, amp_field_range=(0.3, 1.7), seed=21,
    ),
    "odd_shape": SynthSpec(
        shape=(21, 18, 19), n_cells=4, n_distractors=2, n_tubes=1,
        amp_field_range=(0.4, 1.9), noise_sd=0.3, seed=22,
    ),
    "tubes_at_border": SynthSpec(
        shape=(20, 24, 22), n_cells=3, n_tubes=3, tube_length_um=400.0,
        tube_radius_um=4.0, voxel_size=(1.5, 1.0, 1.0), seed=23,
    ),
    "no_tubes": SynthSpec(shape=(24, 24, 24), n_cells=5, n_distractors=2, n_tubes=0, seed=24),
    "no_bias": SynthSpec(
        shape=(24, 20, 28), n_cells=5, n_distractors=2, background_bias_sd=0.0, seed=25,
    ),
    "no_objects": SynthSpec(shape=(16, 16, 16), n_cells=0, n_tubes=1, seed=26),
    # the two-core passes split 67 planes unevenly, and a single z-plane into
    # an empty and a full half
    "odd_planes": SynthSpec(
        shape=(67, 64, 64), n_cells=12, n_distractors=4, voxel_size=(1.5, 1.0, 0.7), seed=27,
    ),
    "single_plane": SynthSpec(shape=(1, 40, 36), n_cells=3, n_distractors=1, seed=28),
    # the tube EDTs run on a box per walk segment, and on one whole-walk box
    "long_walk": SynthSpec(
        shape=(48, 40, 44), n_cells=4, n_distractors=1, tube_length_um=150.0,
        tube_radius_um=2.0, seed=30,
    ),
    "wide_radius": SynthSpec(shape=(40, 36, 32), n_cells=3, tube_radius_um=20.0, seed=31),
    "many_tubes": SynthSpec(
        shape=(32, 32, 32), n_cells=3, n_tubes=40, tube_length_um=12.0, seed=32,
    ),
    # smoothing sigma 2 / 1e16 <= 1e-15 on axis 1, which scipy skips
    "sigma_skipped": SynthSpec(
        shape=(6, 5, 30), n_cells=4, n_distractors=2, voxel_size=(1.0, 1e16, 1.0), n_tubes=0,
        seed=29,
    ),
}


class TestMatchesWholeVolumeReference:
    """The memory-bounded synth code reproduces the whole-volume form bit for bit."""

    @pytest.mark.parametrize("shape", [(13, 7, 9), (1, 5, 4), (40, 3, 2)])
    def test_smooth_field(self, shape):
        got = _smooth_field(shape, np.random.default_rng(3), 0.3, 1.7)
        want = reference_smooth_field(shape, np.random.default_rng(3), 0.3, 1.7)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(REFERENCE_SCENES))
    def test_oracle_regress(self, name):
        spec = REFERENCE_SCENES[name]
        coords = generate_coords(spec)
        ro = oracle_regress(coords, spec)
        dm, aleatoric, epistemic = reference_oracle_regress(coords, spec)
        assert np.array_equal(ro.dm.data, dm)
        assert np.array_equal(ro.aleatoric.data, aleatoric)
        assert np.array_equal(ro.epistemic.data, epistemic)

    @pytest.mark.parametrize("name", sorted(REFERENCE_SCENES))
    def test_oracle_regress_split_at_every_size(self, name, split_always):
        """The overlapped draws and the split passes, forced on."""
        self.test_oracle_regress(name)

    @pytest.mark.parametrize("name", sorted(REFERENCE_SCENES))
    def test_generate_structures(self, name):
        spec = REFERENCE_SCENES[name]
        with mock.patch.object(synth_mod, "_exact_edt", wraps=synth_mod._exact_edt) as edt:
            structure, tissue = generate_structures(spec)
        boxes = {"long_walk": 10, "wide_radius": 1, "many_tubes": 1}
        if name in boxes:
            assert edt.call_count == boxes[name]
        want_structure, want_tissue = reference_generate_structures(spec)
        assert np.array_equal(structure.data, want_structure.astype(np.float32))
        assert np.array_equal(tissue.data, want_tissue.astype(np.float32))
        if name == "tubes_at_border":
            faces = [structure.data.take(i, axis=a) for a in range(3) for i in (0, -1)]
            assert sum(face.any() for face in faces) >= 2


@pytest.mark.usefixtures("split_always")
def test_no_worker_thread_starts_a_thread(monkeypatch, tmp_path):
    """Every side_by_side call, on_two_cores' included, comes from the main
    thread, and oracle_regress makes one of its own: the noises' draw."""
    calls = []

    def recorded(module):
        def call(first, second, nbytes):
            calls.append((module, threading.current_thread() is threading.main_thread()))
            return side_by_side(first, second, nbytes)
        return call

    for module in (synth_mod, cores, cli_mod):
        monkeypatch.setattr(module, "side_by_side", recorded(module))
    spec = REFERENCE_SCENES["odd_planes"]
    oracle_regress(generate_coords(spec), spec)
    assert [module for module, _ in calls].count(synth_mod) == 1
    assert main(["synth", "--out", str(tmp_path / "s"), "--shape", "24", "20", "16",
                 "--n-cells", "4", "--n-distractors", "2"]) == 0
    assert len(calls) > 10 and all(on_main for _, on_main in calls)


@pytest.mark.usefixtures("split_always")
@pytest.mark.parametrize("noise_sd", [1e300, 1e308])
def test_oracle_regress_overflow_raises_on_split_halves(noise_sd):
    """1e300 overflows only the float32 casts, 1e308 the float64 draws."""
    spec = SynthSpec(shape=(24, 20, 16), n_cells=3, n_distractors=2, noise_sd=noise_sd, seed=5)
    with pytest.raises(FloatingPointError):
        oracle_regress(generate_coords(spec), spec)


@pytest.mark.usefixtures("split_always")
def test_oracle_regress_overflow_in_the_workers_half_raises():
    """Without cells the maps scale with noise_sd. The one chosen here takes
    plane 0's largest value, in the worker's half, past float32 and leaves
    plane 1's below it."""
    spec = SynthSpec(shape=(2, 24, 24), n_cells=0, n_tubes=0, noise_sd=1.0, seed=0)
    ro = oracle_regress(generate_coords(spec), spec)
    m0, m1 = (max(float(v.data[z].max()) for v in (ro.dm, ro.aleatoric, ro.epistemic))
              for z in (0, 1))
    assert m0 > 1.05 * m1
    spec = replace(spec, noise_sd=float(np.finfo(np.float32).max) / math.sqrt(m0 * m1))
    with pytest.raises(FloatingPointError):
        oracle_regress(generate_coords(spec), spec)


# axis lengths: 1-3, where a filter reflects on a single voxel or a pair, and
# odd lengths, which the two cores split unevenly (1 leaves one half empty)
_AXIS = st.one_of(st.integers(1, 3), st.integers(2, 20).map(lambda k: 2 * k + 1))
# a sigma scipy skips (<= 1e-15), a usual one, or one whose radius 4 sigma
# exceeds the axis, so the reflection repeats
_SIGMA = st.one_of(st.sampled_from([0.0, 1e-16, 1e-15]), st.floats(0.3, 3.0),
                   st.floats(8.0, 20.0))


@pytest.mark.usefixtures("split_always")
class TestCacheBlockedKernels:
    """The two-sweep Gaussian and the separable amplitude field reproduce
    scipy's whole-volume calls bit for bit."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(shape=st.tuples(_AXIS, _AXIS, _AXIS), sigmas=st.tuples(_SIGMA, _SIGMA, _SIGMA),
           seed=st.integers(0, 2**16))
    @example(shape=(7, 5, 9), sigmas=(1.5, 0.7, 2.5), seed=0)  # anisotropic, uneven splits
    def test_gaussian_in_place_is_gaussian_filter(self, shape, sigmas, seed):
        sigmas = np.asarray(sigmas)
        data = np.random.default_rng(seed).standard_normal(shape)
        want = ndimage.gaussian_filter(data, sigmas)
        _gaussian_in_place(data, sigmas)
        assert np.array_equal(data, want)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(shape=st.tuples(_AXIS, st.integers(1, 48), st.integers(1, 48)),
           planes=st.integers(1, 3), seed=st.integers(0, 2**16),
           bounds=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).map(sorted))
    @example(shape=(9, 8, 10), planes=2, seed=3, bounds=(0.3, 1.7))
    def test_smooth_field_is_map_coordinates(self, shape, planes, seed, bounds):
        """z-blocks of 1-3 planes, so most fields span several blocks per core."""
        block_bytes = planes * 8 * shape[1] * shape[2]
        with mock.patch.object(synth_mod, "_BLOCK_BYTES", block_bytes):
            got = _smooth_field(shape, np.random.default_rng(seed), *bounds)
        want = reference_smooth_field(shape, np.random.default_rng(seed), *bounds)
        assert np.array_equal(got, want)


class TestFidelityKnob:
    def test_f1_improves_as_noise_vanishes(self):
        medians = []
        for noise in (0.25, 0.08, 0.0):
            f1s = []
            for seed in range(5):
                spec = SynthSpec(
                    shape=(40, 40, 40), n_cells=8, noise_sd=noise,
                    n_distractors=0, margin_um=6.0, seed=100 + seed,
                )
                coords = generate_coords(spec)
                ro = oracle_regress(coords, spec)
                peaks = detect_peaks(ro.dm, NmsConfig(4.0, 0.0))
                f1s.append(score_detection(coords, CoordSet(peaks.coords), 4.0).f1)
            medians.append(float(np.median(f1s)))
        assert medians[2] == 1.0
        assert medians[0] <= medians[1] <= medians[2]
