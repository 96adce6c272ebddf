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
proposals at any scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .bayescore import RegressorOutput
from .coords import CoordSet
from .densitymap import AMP_UNIT, K_MAX, KernelSpec, render_dm
from .errors import PackingInfeasible
from .volume import Volume3D

# SD (um) of the Gaussian that smooths the surrogate's noise
NOISE_SMOOTH_UM = 2.0

__all__ = [
    "SynthSpec",
    "generate_coords",
    "oracle_regress",
    "generate_structures",
]


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
        if self.n_cells < 0 or self.n_distractors < 0 or self.n_tubes < 0:
            raise ValueError("counts must be nonnegative")
        if self.min_separation_um <= 0:
            raise ValueError("min separation must be positive")

    @property
    def extent_um(self) -> np.ndarray:
        return np.asarray(self.shape, dtype=np.float64) * np.asarray(self.voxel_size)

    def kernel(self) -> KernelSpec:
        return KernelSpec(
            sigma_um=self.sigma_um,
            cutoff_um=self.cutoff_um,
            compounding=K_MAX,
            amplitude=AMP_UNIT,
        )


def _sample_separated(rng, n, lo, hi, min_sep, existing=None, max_attempts=None):
    """Uniform points in [lo, hi) with pairwise (and vs existing) separation."""
    if n == 0:
        return np.zeros((0, 3))
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if np.any(hi <= lo):
        raise PackingInfeasible("placement box is empty; margin too large?")
    bucket = min_sep
    grid: dict[tuple[int, int, int], list[np.ndarray]] = {}

    def register(pt):
        key = tuple(np.floor(pt / bucket).astype(np.int64))
        grid.setdefault(key, []).append(pt)

    def clear(pt):
        key = tuple(np.floor(pt / bucket).astype(np.int64))
        for bz in (key[0] - 1, key[0], key[0] + 1):
            for by in (key[1] - 1, key[1], key[1] + 1):
                for bx in (key[2] - 1, key[2], key[2] + 1):
                    for q in grid.get((bz, by, bx), ()):
                        d = q - pt
                        if d @ d < min_sep * min_sep:
                            return False
        return True

    if existing is not None:
        for pt in np.asarray(existing, dtype=np.float64):
            register(pt)
    max_attempts = max_attempts if max_attempts is not None else 200 * n + 1000
    placed = []
    attempts = 0
    while len(placed) < n:
        if attempts >= max_attempts:
            raise PackingInfeasible(
                f"placed {len(placed)}/{n} points after {attempts} attempts"
            )
        attempts += 1
        pt = lo + rng.random(3) * (hi - lo)
        if clear(pt):
            register(pt)
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
    coarse = rng.random((4, 4, 4))
    axes = [np.linspace(0.0, 3.0, n) for n in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    field = ndimage.map_coordinates(coarse, [m.ravel() for m in mesh], order=1)
    return (lo + (hi - lo) * field).reshape(shape)


def _smooth_noise(shape, rng, voxel_size):
    noise = rng.standard_normal(shape)
    sigmas = NOISE_SMOOTH_UM / np.asarray(voxel_size, dtype=np.float64)
    noise = ndimage.gaussian_filter(noise, sigma=sigmas)
    sd = noise.std()
    if sd > 0:
        noise /= sd  # restore unit SD after smoothing
    return noise


def oracle_regress(coords: CoordSet, spec: SynthSpec) -> RegressorOutput:
    """Surrogate for a trained regressor: ground truth plus seeded degradation."""
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
    amp_field = _smooth_field(spec.shape, rng, *spec.amp_field_range) * spec.noise_sd
    noise = [_smooth_noise(spec.shape, rng, spec.voxel_size) for _ in range(2)]
    kernel = spec.kernel()
    all_coords = CoordSet(np.concatenate([coords.coords, distractors], axis=0))
    cleans = []
    for t in range(2):
        scales = np.concatenate([cell_amps, distractor_amps[t]])
        cleans.append(
            render_dm(all_coords, spec.shape, spec.voxel_size, kernel, scales=scales)
            .data.astype(np.float64)
        )
    # Noise is unbiased on and around the signal but biased negative in the
    # far background, where a trained regressor sits at or below zero; after
    # rectification only occasional background bumps survive as proposals,
    # keeping threshold-0 proposal counts proportional to the object count.
    if spec.background_bias_sd > 0 and len(all_coords):
        support = (cleans[0] > 0.1).astype(np.float64)
        sigmas = 2.0 / np.asarray(spec.voxel_size, dtype=np.float64)
        env = np.clip(ndimage.gaussian_filter(support, sigma=sigmas) * 4.0, 0.0, 1.0)
        bias = spec.background_bias_sd * (1.0 - env)
    else:
        bias = 0.0
    draws = [c + amp_field * (n - bias) for c, n in zip(cleans, noise)]
    dm = np.maximum(draws[0], 0.0)
    epistemic = np.abs(draws[1] - draws[0]) / np.sqrt(2.0)
    vs = tuple(spec.voxel_size)
    return RegressorOutput(
        dm=Volume3D(dm.astype(np.float32), vs),
        aleatoric=Volume3D(amp_field.astype(np.float32), vs),
        epistemic=Volume3D(epistemic.astype(np.float32), vs),
    )


def generate_structures(spec: SynthSpec) -> tuple[Volume3D, Volume3D]:
    """Random-walk tube mask and the ellipsoidal tissue mask containing it."""
    rng = np.random.default_rng([spec.seed, 2])
    shape = spec.shape
    vs = np.asarray(spec.voxel_size, dtype=np.float64)
    extent = spec.extent_um
    centers = [
        (np.arange(n, dtype=np.float64) + 0.5) * v for n, v in zip(shape, vs)
    ]
    half = extent / 2.0
    zz = ((centers[0] - half[0]) / half[0]) ** 2
    yy = ((centers[1] - half[1]) / half[1]) ** 2
    xx = ((centers[2] - half[2]) / half[2]) ** 2
    tissue = (
        zz[:, None, None] + yy[None, :, None] + xx[None, None, :]
    ) <= 1.0

    centerline = np.zeros(shape, dtype=bool)
    length = (
        spec.tube_length_um
        if spec.tube_length_um is not None
        else 0.8 * float(extent.max())
    )
    step = float(vs.min())
    for _ in range(spec.n_tubes):
        pos = half + (rng.random(3) - 0.5) * extent * 0.5
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        for _ in range(int(length / step)):
            idx = np.floor(pos / vs).astype(int)
            if np.all(idx >= 0) and np.all(idx < shape):
                centerline[idx[0], idx[1], idx[2]] = True
            direction = direction + 0.25 * rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            pos = pos + direction * step
            pos = np.clip(pos, 0.0, extent - 1e-9)
    if centerline.any():
        dist = ndimage.distance_transform_edt(~centerline, sampling=tuple(vs))
        structure = (dist <= spec.tube_radius_um) & tissue
    else:
        structure = np.zeros(shape, dtype=bool)
    return (
        Volume3D(structure.astype(np.float32), tuple(vs)),
        Volume3D(tissue.astype(np.float32), tuple(vs)),
    )
