"""Synthetic ground truth and a surrogate density-map regressor.

Scenes are fully seeded: coordinates come from minimum-separation rejection
sampling, structures are random-walk tubes rasterized inside an ellipsoidal
tissue mask, and the surrogate regressor degrades the ground-truth density
map with smooth additive Gaussian noise under a spatially varying amplitude
field. Two independent noisy draws emulate stochastic forward passes: the
returned prediction is the first draw, the aleatoric map is the noise
amplitude field itself (the generator's own truth), and the epistemic map is
the scaled absolute difference of the two draws.

Distractor blobs are same-kernel Gaussians at a fraction of the cell peak
amplitude, placed away from real cells; their amplitude is re-drawn for each
noisy draw, so the epistemic surrogate is genuinely elevated where the
"model" cannot decide, which is the signal the proposal classifier learns.
Cell amplitudes can be jittered (shared across draws) to make peak value
alone an imperfect detector, as for a real regressor.

The predicted map is rectified at zero: a real regressor emits a
flat near-zero background, and without the clip, sign-symmetric background
noise would turn a large fraction of the volume into spurious threshold-0
proposals at any scale. The surrogate runs on both cores (probcell.cores).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .bayescore import RegressorOutput
from .coords import CoordSet, Separated
from .cores import on_two_cores, side_by_side
from .densitymap import AMP_UNIT, K_MAX, KernelSpec, render_dm
from .errors import PackingInfeasible, check_int, check_real
from .spatial import PackedMask, _exact_edt
from .volume import Volume3D, voxel_centers_um

# SD (um) of the Gaussians that smooth the surrogate's noise and the support
# of its background bias
NOISE_SMOOTH_UM = 2.0
BIAS_SMOOTH_UM = 2.0
# float64 bytes per z-block of _smooth_field: a block and its corner buffer
# stay in one core's cache
_BLOCK_BYTES = 1 << 20
# Rejection sampling fills at most the saturation density of random
# sequential addition of equal spheres (Torquato, Uche & Stillinger, Phys.
# Rev. E 74, 061308, 2006) of a box, plus a layer on its faces, in min_sep,
# where small boxes hold more (README, "Placement bound")
_RSA_DENSITY = 0.384
_RSA_FACE_LAYER = 0.05
_TUBE_SEGMENT = 16  # walk steps per tube EDT box of generate_structures


@dataclass(frozen=True)
class SynthSpec:
    shape: tuple[int, int, int]
    n_cells: int
    voxel_size: tuple[float, float, float] = (1.0, 1.0, 1.0)
    min_separation_um: float = 8.0
    sigma_um: float = 2.0
    cutoff_um: float = 16.0
    cell_amp_range: tuple[float, float] = (1.0, 1.0)
    noise_sd: float = 0.05
    amp_field_range: tuple[float, float] = (0.5, 1.5)
    n_distractors: int = 0
    distractor_amp_range: tuple[float, float] = (0.3, 0.7)
    n_tubes: int = 1
    tube_radius_um: float = 5.0
    tube_length_um: float | None = None
    margin_um: float = 0.0
    background_bias_sd: float = 3.0
    seed: int = 0

    def __post_init__(self):
        for name in ("voxel_size", "cell_amp_range", "amp_field_range", "distractor_amp_range"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "shape", check_int(self.shape, "shape", 1, 3))
        for name in ("n_cells", "n_distractors", "n_tubes", "seed"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        check_real(self.voxel_size, "voxel_size", length=3)
        if not max(NOISE_SMOOTH_UM, BIAS_SMOOTH_UM) / min(self.voxel_size) < math.inf:
            raise ValueError(
                f"voxel_size {self.voxel_size} makes the surrogate's smoothing sigmas overflow"
            )
        self.kernel()  # checks sigma_um and cutoff_um
        for name in ("noise_sd", "margin_um", "background_bias_sd"):
            check_real(getattr(self, name), name, ends="[)")
        for name in ("tube_radius_um", "min_separation_um"):
            check_real(getattr(self, name), name)
        length = ("tube_length_um" if self.tube_length_um is not None
                  else "the default tube length, 0.8 of the longest shape * voxel_size")
        check_real(self.tube_length, length)
        for name in ("cell_amp_range", "distractor_amp_range", "amp_field_range"):
            least, ends = (0, "[)") if name == "amp_field_range" else (-math.inf, "()")
            lo, hi = check_real(getattr(self, name), name, least, ends=ends, length=2)
            if not lo <= hi:
                raise ValueError(f"{name} must have lo <= hi, got {(lo, hi)}")
        # one walk step per smallest voxel side; walks no longer in all than
        # the voxel count cost no more than one pass over the volume
        if self.n_tubes:
            steps = self.n_tubes * (self.tube_length / min(self.voxel_size))
            if not steps <= math.prod(self.shape):
                raise ValueError(
                    f"n_tubes = {self.n_tubes} walks of {length} = {self.tube_length:.3g} um "
                    f"in steps of the smallest voxel_size side would take {steps:.3g} steps, "
                    f"more than the volume's {math.prod(self.shape)} voxels"
                )

    @property
    def extent_um(self) -> np.ndarray:
        return np.asarray(self.shape, dtype=np.float64) * np.asarray(self.voxel_size)

    @property
    def tube_length(self) -> float:
        """Each tube's length: tube_length_um, else 0.8 of the longest extent."""
        if self.tube_length_um is not None:
            return self.tube_length_um
        return 0.8 * float(self.extent_um.max())

    def kernel(self) -> KernelSpec:
        return KernelSpec(
            sigma_um=self.sigma_um,
            cutoff_um=self.cutoff_um,
            compounding=K_MAX,
            amplitude=AMP_UNIT,
        )


def _sample_separated(rng, n, lo, hi, min_sep, existing=None):
    """Uniform points in [lo, hi) with pairwise (and vs existing) separation,
    within 200 n + 1000 attempts.

    Balls of diameter min_sep around the points, existing ones included
    (placed in the same box, as generate_coords places them), are disjoint
    and lie in the box grown by min_sep / 2 per side. A request whose balls
    would fill more of it than rejection sampling reaches (_RSA_DENSITY and
    _RSA_FACE_LAYER) fails at once, without drawing.
    """
    if n == 0:
        return np.zeros((0, 3))
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if np.any(hi <= lo):
        raise PackingInfeasible("placement box is empty; margin too large?")
    count = n + (0 if existing is None else len(existing))
    # the grown box in min_sep (in um^3 it could overflow)
    a, b, c = (float(h - l) / float(min_sep) + 1.0 for l, h in zip(lo, hi))
    fill = _RSA_DENSITY * a * b * c + _RSA_FACE_LAYER * 2 * (a * b + b * c + c * a)
    if count * math.pi / 6 > fill:
        name = "n_cells" if existing is None else "n_distractors"
        raise PackingInfeasible(
            f"{name} = {n}: {count} points {min_sep} um apart are more than rejection "
            f"sampling places in a {(hi - lo).tolist()} um box"
        )
    sep = Separated(min_sep, np.abs([lo, hi]).max(), () if existing is None else existing)
    max_attempts = 200 * n + 1000
    placed, attempts = [], 0
    while len(placed) < n:
        if attempts >= max_attempts:
            raise PackingInfeasible(
                f"placed {len(placed)}/{n} points after {attempts} attempts"
            )
        attempts += 1
        pt = lo + rng.random(3) * (hi - lo)
        if sep.take(pt.tolist()):
            placed.append(pt)
    return np.asarray(placed)


def generate_coords(spec: SynthSpec) -> CoordSet:
    """Seeded rejection sampling of cell coordinates at the minimum separation."""
    rng = np.random.default_rng([spec.seed, 0])
    lo = np.full(3, spec.margin_um)
    hi = spec.extent_um - spec.margin_um
    pts = _sample_separated(rng, spec.n_cells, lo, hi, spec.min_separation_um)
    return CoordSet(pts)


def _smooth_field(shape, rng, lo, hi):
    """lo + (hi - lo) * the trilinear upsampling of a random 4^3 grid, bit for
    bit ``ndimage.map_coordinates(grid, ..., order=1)`` at the points
    linspace(0, 3, n) of each axis: scipy's order-1 arithmetic, one axis at a
    time on z-blocks of the field."""
    grid = np.zeros((5, 5, 5))  # the zero faces beyond the grid are cval
    grid[:4, :4, :4] = rng.random((4, 4, 4))
    starts, weights = [], []
    for n in shape:
        c = np.linspace(0.0, 3.0, n)
        start = np.floor(c)
        w0 = 1.0 - (c - start)
        starts.append(start.astype(np.intp))
        weights.append((w0, 1.0 - w0))
    (sz, sy, sx), (wz, wy, wx) = starts, weights
    field = np.empty(shape)
    block = max(1, _BLOCK_BYTES // (8 * shape[1] * shape[2]))

    def blocks(start, stop):
        corner = np.empty((min(block, stop - start),) + field.shape[1:])
        for z0 in range(start, stop, block):
            z = slice(z0, min(z0 + block, stop))
            out, part = field[z], corner[: z.stop - z0]
            out.fill(0.0)
            for dz in (0, 1):
                vz = grid[sz[z] + dz] * wz[dz][z, None, None]
                for dy in (0, 1):
                    vzy = np.take(vz, sy + dy, axis=1)
                    vzy *= wy[dy][:, None]
                    for dx in (0, 1):
                        np.take(vzy, sx + dx, axis=2, out=part, mode="clip")
                        part *= wx[dx]
                        out += part
            out *= hi - lo
            out += lo

    on_two_cores(blocks, shape[0], field.nbytes)
    return field


def _gaussian_weights(sigma) -> np.ndarray:
    """gaussian_filter1d's correlation weights: order 0, radius round(4 sigma)."""
    radius = int(4.0 * float(sigma) + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return np.ascontiguousarray((phi / phi.sum())[::-1])


def _gaussian_in_place(a: np.ndarray, sigmas) -> None:
    """ndimage.gaussian_filter(a, sigmas, output=a), bit for bit, in two
    cache-blocked sweeps on two cores: axis 0 one y row at a time, then axes
    1 and 2 of each z-plane."""
    w0, w1, w2 = (_gaussian_weights(s) if s > 1e-15 else None for s in sigmas)
    nz, ny, nx = a.shape

    def rows(start, stop):
        row, lines = np.empty((nz, nx)), np.empty((nx, nz))
        for y in range(start, stop):
            np.copyto(row, a[:, y])
            np.copyto(lines, row.T)
            ndimage.correlate1d(lines, w0, axis=1, output=lines)
            np.copyto(a[:, y], lines.T)

    def planes(start, stop):
        lines = np.empty((nx, ny))
        for plane in a[start:stop]:
            if w1 is not None:
                np.copyto(lines, plane.T)
                ndimage.correlate1d(lines, w1, axis=1, output=lines)
                np.copyto(plane, lines.T)
            if w2 is not None:
                ndimage.correlate1d(plane, w2, axis=1, output=plane)

    if w0 is not None:
        on_two_cores(rows, ny, a.nbytes)
    if w1 is not None or w2 is not None:
        on_two_cores(planes, nz, a.nbytes)


def _background_bias(clean: np.ndarray, spec: SynthSpec) -> np.ndarray:
    """bias_sd * (1 - clip(4 * smoothed support, 0, 1)), built in one array.

    Noise is unbiased on and around the signal but biased negative in the
    far background, where a trained regressor sits at or below zero; after
    rectification only occasional background bumps survive as proposals,
    keeping threshold-0 proposal counts proportional to the object count.
    """
    # float64 threshold: clean is float32, and 0.1 must not round to float32.
    # The support is filtered as float64: a boolean input is twice as slow.
    bias = (clean > np.float64(0.1)).astype(np.float64)
    _gaussian_in_place(bias, BIAS_SMOOTH_UM / np.asarray(spec.voxel_size, dtype=np.float64))

    def tail(lo, hi):
        part = bias[lo:hi]
        part *= 4.0
        np.clip(part, 0.0, 1.0, out=part)
        np.subtract(1.0, part, out=part)
        part *= spec.background_bias_sd

    on_two_cores(tail, len(bias), bias.nbytes)
    return bias


@np.errstate(over="raise")
def oracle_regress(coords: CoordSet, spec: SynthSpec) -> RegressorOutput:
    """Surrogate for a trained regressor: ground truth plus seeded degradation.

    Each draw is clean + amp_field * (noise - bias), built in place in its
    noise array, so the whole-volume float64 arrays alive at once are the
    amplitude field, the two noises and the bias. A map that overflows
    float64 or float32 (a huge noise_sd) raises FloatingPointError.
    """
    rng = np.random.default_rng([spec.seed, 1])
    cell_amps = rng.uniform(*spec.cell_amp_range, size=len(coords))
    lo = np.full(3, spec.margin_um)
    hi = spec.extent_um - spec.margin_um
    distractors = _sample_separated(
        rng, spec.n_distractors, lo, hi, spec.min_separation_um, existing=coords.coords
    )
    distractor_amps = [
        rng.uniform(*spec.distractor_amp_range, size=spec.n_distractors)
        for _ in range(2)
    ]
    amp_field = _smooth_field(spec.shape, rng, *spec.amp_field_range)
    nz, nbytes = spec.shape[0], amp_field.nbytes
    kernel = spec.kernel()
    all_coords = CoordSet(np.concatenate([coords.coords, distractors], axis=0))

    def render(t):  # float32; `+= clean` casts it to float64 exactly
        scales = np.concatenate([cell_amps, distractor_amps[t]])
        return render_dm(all_coords, spec.shape, spec.voxel_size, kernel, scales=scales).data

    def clean_and_bias():
        clean = render(0)
        if spec.background_bias_sd > 0 and len(all_coords):
            return clean, _background_bias(clean, spec)
        return clean, None

    # Two smoothed unit-SD noises, drawn in one call (the values and the
    # generator's state of two draws in a row) beside the first clean map
    sigmas = NOISE_SMOOTH_UM / np.asarray(spec.voxel_size, dtype=np.float64)
    draws = np.empty((2,) + spec.shape)
    clean, bias = side_by_side(lambda: rng.standard_normal(out=draws), clean_and_bias, nbytes)[1]
    for draw in draws:
        _gaussian_in_place(draw, sigmas)
    sds = [draw.std() for draw in draws]
    for t, draw in enumerate(draws):
        if t:
            clean = render(1)

        def degrade(lo, hi):  # reads this step's t, draw and clean
            if t == 0:
                amp_field[lo:hi] *= spec.noise_sd
            part = draw[lo:hi]
            if sds[t] > 0:
                part /= sds[t]  # restore unit SD after smoothing
            if bias is not None:  # subtracting 0.0 changes no bit
                part -= bias[lo:hi]
            part *= amp_field[lo:hi]
            part += clean[lo:hi]

        on_two_cores(degrade, nz, nbytes)
        del clean
    del bias
    maps = [np.empty(spec.shape, dtype=np.float32) for _ in range(3)]

    def finish(lo, hi):
        draw0, epistemic = (draw[lo:hi] for draw in draws)
        epistemic -= draw0
        np.abs(epistemic, out=epistemic)
        epistemic /= np.sqrt(2.0)
        # assigning casts to float32, and an overflow raises there
        maps[0][lo:hi] = np.maximum(draw0, 0.0, out=draw0)
        maps[1][lo:hi] = amp_field[lo:hi]
        maps[2][lo:hi] = epistemic

    on_two_cores(finish, nz, nbytes)
    return RegressorOutput(*(Volume3D(m, spec.voxel_size) for m in maps))


def generate_structures(spec: SynthSpec) -> tuple[Volume3D, Volume3D]:
    """Random-walk tube mask and the ellipsoidal tissue mask containing it, as booleans."""
    rng = np.random.default_rng([spec.seed, 2])
    shape = spec.shape
    vs = np.asarray(spec.voxel_size, dtype=np.float64)
    extent = spec.extent_um
    centers = [voxel_centers_um(n, v) for n, v in zip(shape, vs)]
    half = extent / 2.0
    zz = ((centers[0] - half[0]) / half[0]) ** 2
    yy = ((centers[1] - half[1]) / half[1]) ** 2
    xx = ((centers[2] - half[2]) / half[2]) ** 2
    tissue = np.empty(shape, dtype=bool)
    for z, plane in enumerate(tissue):  # (zz + yy) + xx, a plane at a time
        np.less_equal((zz[z] + yy)[:, None] + xx, 1.0, out=plane)

    centerline = np.zeros(shape, dtype=bool)
    walk, starts = [], []  # the centerline voxels in walk order; segment starts
    step = float(vs.min())
    for _ in range(spec.n_tubes):
        first = len(walk)
        pos = half + (rng.random(3) - 0.5) * extent * 0.5
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        for _ in range(int(spec.tube_length / step)):
            idx = np.floor(pos / vs).astype(int)
            if np.all(idx >= 0) and np.all(idx < shape):
                centerline[idx[0], idx[1], idx[2]] = True
                walk.append(idx)
            direction = direction + 0.25 * rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            pos = pos + direction * step
            pos = np.clip(pos, 0.0, extent - 1e-9)
        starts += range(first, len(walk), _TUBE_SEGMENT)
    structure = np.zeros(shape, dtype=bool)
    if walk:
        # a voxel within the radius of a centerline voxel lies in its segment's
        # box, and a box's EDT sees part of the centerline: the mask is exact
        walk = np.array(walk)
        # a radius beyond the extent pads to the whole shape, in range of int
        pad = np.ceil(np.minimum(spec.tube_radius_um, extent) / vs).astype(int) + 1
        lo = np.maximum(np.minimum.reduceat(walk, starts) - pad, 0)
        hi = np.minimum(np.maximum.reduceat(walk, starts) + pad + 1, shape)
        if np.prod(hi - lo, axis=1).sum() >= np.prod(hi.max(0) - lo.min(0)):
            lo, hi = lo.min(0, keepdims=True), hi.max(0, keepdims=True)
        for a, b in zip(lo.tolist(), hi.tolist()):
            box = tuple(map(slice, a, b))
            line = centerline[box]  # packed, the one input format of the exact EDT
            packed = PackedMask(np.packbits(line, axis=-1), line.shape, tuple(vs))
            structure[box] |= _exact_edt(packed) <= spec.tube_radius_um
        structure &= tissue
    return Volume3D(structure, tuple(vs)), Volume3D(tissue, tuple(vs))
