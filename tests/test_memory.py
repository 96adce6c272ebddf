"""Peak memory of the whole-volume stages, per voxel.

Each bound is the bytes per voxel of the arrays a function holds at its
peak, plus a fixed 512 KiB for per-plane temporaries and small arrays. That
is half a float32 volume at 64^3, the smallest shape tested, so one more
whole-volume float32 buffer fails at every shape. ``tracemalloc`` sees
numpy's buffers, not the C work space inside scipy, so the bounds are
traced bytes, not RSS.
"""
import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from probcell import (
    CoordSet,
    NmsConfig,
    SynthSpec,
    TilingConfig,
    Volume3D,
    analyze_probabilistic,
    detect_peaks,
    generate_coords,
    generate_structures,
    oracle_regress,
    prepare_spatial,
    save_volume,
    tiled_detect,
)
from probcell import detect
from probcell.cli import main
from probcell.detect import local_maxima
from probcell.evalmetrics import score_detection
from probcell.spatial import DistanceCdf, distance_transform

from conftest import spread_candidates

SMALL = 1 << 19


def traced_peak(fn, *args) -> int:
    """Peak traced bytes while fn runs, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(64, 64, 64), (67, 64, 64), (96, 96, 96)])
def test_distance_transform_peak(shape):
    m = np.zeros(shape, dtype=np.float32)
    m[shape[0] // 2, 5, 7] = m[3, 40, 40] = 1.0
    structure = Volume3D(m, (1.0, 1.0, 1.0))
    n = m.size
    plane = shape[1] * shape[2]
    # While the transform runs: the int32 feature buffer (12 B), whose first
    # bytes hold scipy's input, the mask's complement, and scipy's int64 and
    # int8 copies of that input (9 B), 21 B in all. Then the feature buffer,
    # which the distances overwrite, and one plane's int32 offset and two
    # float64 buffers (20 B per plane voxel); a separate whole-volume float64
    # result fails, as does the input apart from the feature buffer.
    bound = max(21 * n, 12 * n + 20 * plane) + SMALL
    assert traced_peak(distance_transform, structure) <= bound


@pytest.mark.parametrize("shape", [(64, 64, 64), (67, 64, 64)])
def test_distance_transform_keeps_8_bytes_per_voxel(shape):
    """The feature buffer is cut to the float64 distances it returns: with
    the result alive, no more than 8 B per voxel stay traced."""
    m = np.zeros(shape, dtype=np.float32)
    m[3, 40, 40] = 1.0
    structure = Volume3D(m, (1.0, 1.0, 1.0))
    tracemalloc.start()
    try:
        edt = distance_transform(structure)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert edt.data.dtype == np.float64
    assert kept <= 8 * m.size + SMALL


@pytest.mark.parametrize("shape", [(64, 64, 64), (96, 96, 96), (128, 128, 128)])
def test_oracle_regress_peak(shape):
    spec = SynthSpec(shape=shape, n_cells=20, n_distractors=5, seed=1)
    coords = generate_coords(spec)
    n = np.prod(shape)
    # float64: amplitude field, two noises, background bias (4 x 8 B); and
    # render_dm's float64 accumulator with its float32 copy (12 B) while the
    # second clean map is rendered, or the first clean map (4 B) and a
    # noise's std() temporary (8 B) before. The Gaussian sweeps hold, per
    # thread, one y row and its transposed copy, or one transposed z-plane,
    # and _smooth_field one corner buffer of _BLOCK_BYTES while only the
    # field exists; none is alive at the peak, also from the size rule up.
    bound = 44 * n + SMALL
    assert traced_peak(oracle_regress, coords, spec) <= bound


def generate_structures_bound(spec, side: int) -> int:
    """First the tissue booleans (1 B), tested one z-plane at a time on a
    float64 sum (8 B per plane voxel). Then the tissue, centerline and
    structure booleans (3 B), returned as they are, and one tube EDT at a
    time on a box at most side voxels a side, as distance_transform does:
    the feature buffer and scipy's copies of the input (21 B), then the
    buffer and one plane's buffers (20 B per plane voxel, see above).
    Float32 copies of the masks (8 B) fail, as does a whole-volume float64
    sum or a full-volume EDT."""
    n, plane, box = np.prod(spec.shape), spec.shape[1] * spec.shape[2], side**3
    return max(n + 8 * plane, 3 * n + max(21 * box, 12 * box + 20 * side**2)) + SMALL


def test_generate_structures_peak():
    # The walk's box: at most 10 um of walk + 1 voxel + 2 x 6 voxels of
    # padding on each axis.
    spec = SynthSpec(shape=(96, 96, 96), n_cells=0, n_tubes=1, tube_length_um=10.0, seed=1)
    assert traced_peak(generate_structures, spec) <= generate_structures_bound(spec, 10 + 1 + 12)


def test_generate_structures_long_walk_peak():
    """Three full-length tubes (102 steps each): the EDTs run on the boxes of
    16-step segments of each tube, at most 15 steps + 1 voxel + 2 x 6 voxels
    of padding a side. One box around the whole walk fails."""
    spec = SynthSpec(shape=(128, 128, 128), n_cells=0, n_tubes=3, seed=1)
    assert traced_peak(generate_structures, spec) <= generate_structures_bound(spec, 15 + 1 + 12)


@pytest.mark.parametrize("shape", [(64, 64, 64), (67, 64, 64)])
def test_prepare_spatial_keeps_one_pool_copy(shape):
    """What the prelude keeps: the EDT (8 B per voxel), the background
    packed 8 voxels a byte, one copy of the ESD pool, sorted (8 B per value),
    and each (z, y) row's start in it (8 B per row, plus one). A voxel-order
    pool held beside the sorted one fails."""
    vs = (1.0, 1.0, 1.0)
    structure = np.zeros(shape, dtype=bool)
    structure[3, 40, 40] = True
    tissue = np.ones(shape, dtype=bool)
    tissue[:, :2] = False
    tracemalloc.start()
    try:
        prelude = prepare_spatial({"s": Volume3D(structure, vs)}, Volume3D(tissue, vs))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n, pool = structure.size, prelude.structures["s"].esd.samples.size
    assert pool == np.count_nonzero(tissue & ~structure)
    assert kept <= 8 * n + n // 8 + 8 * pool + 8 * (shape[0] * shape[1] + 1) + SMALL


def _two_points(shape, at) -> np.ndarray:
    m = np.zeros(shape, dtype=bool)
    m[at], m[3, 40, 40] = True, True
    return m


def _tissue(shape) -> np.ndarray:
    tissue = np.ones(shape, dtype=bool)
    tissue[:, :2] = False
    return tissue


def test_prepare_spatial_holdings_in_transform(monkeypatch):
    """Traced as each feature transform starts, for masks that only
    prepare_spatial references, two structures at 128^3: no mask volume,
    only bits packed 8 voxels a byte. At the first: the feature buffer
    (12 B), which holds scipy's input, both structures' bits and both
    backgrounds. At the second: the first structure's EDT (8 B), pool (8 B
    per value) and row starts, the feature buffer, the second structure's
    bits and both backgrounds. A boolean mask held through the transforms
    fails (the tissue or both structures, as before they were packed), as
    do scipy's input apart from the feature buffer and a background as
    booleans."""
    from probcell import spatial

    shape, vs = (128, 128, 128), (1.0, 1.0, 1.0)
    n, rows = np.prod(shape), shape[0] * shape[1] + 1
    real, held = spatial.ndimage.distance_transform_edt, []

    def traced_edt(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(spatial.ndimage, "distance_transform_edt", traced_edt)
    tracemalloc.start()
    try:
        prelude = prepare_spatial(
            {"a": Volume3D(_two_points(shape, (64, 5, 7)), vs),
             "b": Volume3D(_two_points(shape, (9, 90, 20)), vs)},
            Volume3D(_tissue(shape), vs),
        )
    finally:
        tracemalloc.stop()
    pool = prelude.structures["a"].esd.samples.size
    assert held[0] <= 12 * n + 4 * (n // 8) + SMALL
    assert held[1] <= 8 * n + 8 * pool + 8 * rows + 12 * n + 3 * (n // 8) + SMALL


def test_pool_lookup_peak():
    """pool_at reads 50,000 draws of a pool in voxel order from the EDT, a
    chunk of draws at a time: their gathered 64-voxel rows, running counts
    and test take 10 B a row voxel, about 1 MiB a chunk, beside the result
    (8 B a draw). All draws' rows at once would take 32 MB."""
    shape = (32, 32, 64)
    vs = (1.0, 1.0, 1.0)
    structure = np.zeros(shape, dtype=bool)
    structure[16, 16, :] = True
    prep = prepare_spatial(
        {"s": Volume3D(structure, vs)}, Volume3D(np.ones(shape, bool), vs)
    ).structures["s"]
    draws = np.random.default_rng(3).integers(0, prep.esd.samples.size, size=50_000)
    assert traced_peak(prep.pool_at, draws) <= 8 * draws.size + (1 << 20) + SMALL


def test_cli_spatial_peak(tmp_path):
    """`probcell spatial` on a 96^3 scene read from disk hands both masks as
    read (float32, 4 B each) to prepare_spatial, which packs each 8 voxels
    a byte and lets them go before the EDT. At the peak: the structure's
    bits, its background bits and the EDT's 21 B (see above). The structure
    held through the EDT as booleans (the route that checked each mask into
    booleans on loading) fails, as do scipy's input apart from the feature
    buffer and either float32 volume."""
    shape = (96, 96, 96)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(tmp_path / "scene"), "--shape", *map(str, shape),
                     "--n-cells", "20", "--n-distractors", "5", "--seed", "1"]) == 0
    scene = tmp_path / "scene"
    argv = ["spatial", "--cells", str(scene / "gt.csv"), "--structure", str(scene / "structure"),
            "--tissue", str(scene / "tissue"), "--replicates", "10",
            "--out-dir", str(tmp_path / "spatial")]
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        peak = traced_peak(lambda: codes.append(main(argv)))
    assert codes == [0]
    n = np.prod(shape)
    assert peak <= 21 * n + 2 * (n // 8) + SMALL


@pytest.mark.parametrize("shape", [(64, 64, 64), (96, 96, 96)])
def test_local_maxima_peak(shape, monkeypatch, split_always):
    spec = SynthSpec(shape=shape, n_cells=20, n_distractors=5, seed=1)
    dm = oracle_regress(generate_coords(spec), spec).dm
    assert dm.data.dtype == np.float32
    plane = shape[1] * shape[2]
    planes = 3  # slabs of 3 planes, so the map spans many slabs on both threads
    monkeypatch.setattr(detect, "_SLAB_BYTES", planes * plane * 4)
    # The float32 map is allocated before tracing. At the peak: the boolean
    # mask (1 B per voxel) and, on each of the two threads, a slab with one
    # halo plane on each side in two float32 buffers (8 B per voxel) and the
    # slab's test against zero (1 B per voxel). A whole-volume float32 copy fails.
    bound = np.prod(shape) + 2 * (8 * (planes + 2) + planes) * plane + SMALL
    assert traced_peak(local_maxima, dm) <= bound


@pytest.mark.parametrize("n", [1000, 3000])
def test_detect_peaks_wide_radius_peak(n):
    """A radius spanning the map holds NMS to memory linear in the
    candidates: each one's index, value, order, coordinates and bucket entry
    take well under 1 KiB, beside local_maxima's 10 B per voxel at most (see
    above). The KD-tree pair walk listed all n (n - 1) / 2 pairs: 3,000
    candidates traced 770 MiB."""
    dm = spread_candidates(n)
    assert traced_peak(detect_peaks, dm, NmsConfig(1e6, 0.0)) <= 10 * dm.data.size + 1024 * n + SMALL


def test_score_detection_peak():
    """The n x m float64 distances (8 B per pair), made with no temporary,
    and the overflow test and its negation (2 B). An n x m x 3 difference
    array and its square held 56 B per pair."""
    rng = np.random.default_rng(2)
    gt = CoordSet(rng.uniform(0.0, 400.0, (2000, 3)))
    extra = rng.uniform(0.0, 400.0, (400, 3))
    pred = CoordSet(np.concatenate([gt.coords + rng.normal(0.0, 1.0, (2000, 3)), extra]))
    assert traced_peak(score_detection, gt, pred) <= 12 * 2000 * 2400


@pytest.mark.parametrize("shape", [(64, 64, 64), (96, 96, 96)])
def test_tiled_detect_peak(shape):
    spec = SynthSpec(shape=shape, n_cells=20, n_distractors=5, seed=1)
    dm = oracle_regress(generate_coords(spec), spec).dm
    tiling = TilingConfig.m_peak((48, 48, 48), (8, 8, 8), (4, 4, 4))
    # One patch at a time: the float32 copy of its predicted box (4 B per
    # box voxel) and local_maxima on it, on the calling thread, as a patch
    # is far below cores.SPLIT_MIN_BYTES: the mask, two float32 buffers of
    # a slab with its halo planes and the slab's test against zero (10 B at
    # most, see above). What grows with the map is the patch list and its
    # peaks, about 2 KB per patch (64 patches at 96^3); a float32 copy of
    # the whole map fails at every shape.
    patch = np.prod(tiling.l_out)
    bound = 14 * patch + SMALL
    assert traced_peak(tiled_detect, dm, tiling, NmsConfig()) <= bound


@pytest.mark.parametrize("shape", [(64, 64, 64), (96, 96, 96)])
def test_save_volume_peak(shape, tmp_path):
    # A float32 volume's own buffer goes to the file: no cast copy, no bytes
    # object, either of which is a whole float32 volume.
    v = Volume3D(np.ones(shape, dtype=np.float32), (1.0, 1.0, 1.0))
    assert traced_peak(save_volume, v, tmp_path / "v") <= SMALL


def test_distance_cdf_ascending_test_peak():
    """An ascending sample is kept as it is, and the test that finds it so
    holds one block of 2**20 booleans: the whole sample's pairwise test
    would hold 1 B per sample, 4 MiB here."""
    samples = np.arange(1 << 22, dtype=np.float64)
    assert traced_peak(DistanceCdf, samples) <= (1 << 20) + SMALL


def test_kde_curve_peak():
    """A KDE curve is built in one grid x sample float64 buffer, 16.8 MB at
    4,096 samples: the difference, its quotient by the bandwidth and ndtr's
    output each overwrite it. Two such matrices at once traced 33.6 MB."""
    samples = np.random.default_rng(0).gamma(2.0, 3.0, 4096)
    cdf = DistanceCdf(samples)
    grid = np.linspace(0.0, samples.max(), 512)
    assert traced_peak(cdf.evaluate, grid, "kde") <= 8 * grid.size * samples.size + SMALL


def test_analyze_probabilistic_peak():
    """The CDF envelopes are a running pointwise min and max, so the peak does
    not grow with the replicate count. Keeping each replicate's two 512-point
    float64 curves and stacking them at the end would hold about 12 KB per
    replicate, 12 MB here. What remains is the per-replicate percentages and
    counts (24 B per replicate) and one replicate's KDE temporaries (512 x 8 B
    per kept cell)."""
    shape = (32, 32, 32)
    structure = np.zeros(shape, dtype=np.float32)
    structure[16, 16, :] = 1.0
    vs = (1.0, 1.0, 1.0)
    prelude = prepare_spatial(
        {"tube": Volume3D(structure, vs)}, Volume3D(np.ones(shape, np.float32), vs)
    )
    rng = np.random.default_rng(5)
    cells = CoordSet(rng.uniform(1.0, 31.0, (20, 3)), p=rng.uniform(0.3, 1.0, 20))
    assert traced_peak(analyze_probabilistic, cells, prelude, 1000) <= SMALL
