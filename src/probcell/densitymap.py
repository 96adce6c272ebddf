"""Ground-truth density maps from coordinate annotations.

A cell at position c contributes a radial Gaussian kernel, cut off at
``cutoff_um`` (points further away are ignored). Overlapping kernels are
compounded either by summation ("sum", the historical choice, unbounded and
peak-merging) or by pointwise maximum ("max", bounded by the single-kernel
peak and separation-preserving). Two equal kernels a distance d apart merge
under "sum" into a single maximum only when d <= 2 sigma; below that bound
the summed map keeps two maxima, pulled towards each other.

Amplitude note: with the normalized formula peak = 1/(sigma*sqrt(2*pi)),
which is below 1 for sigma >= 1 um, so fixed DM thresholds in the 1..1.5
range can never fire. The synthetic pipeline therefore defaults to
``unit_peak`` (kernel value exp(-s^2 / 2 sigma^2), peak exactly 1);
``normalized`` selects the paper's amplitude where formula fidelity matters.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coords import CoordSet
from .cores import on_two_cores
from .errors import check_int, check_real
from .volume import Volume3D, voxel_centers_um

K_SUM = "sum"
K_MAX = "max"
AMP_NORMALIZED = "normalized"
AMP_UNIT = "unit_peak"
COMPOUNDINGS = (K_SUM, K_MAX)
AMPLITUDES = (AMP_NORMALIZED, AMP_UNIT)
# sigma's closed interval (um), where the kernel's 2 sigma^2 stays a normal float
SIGMA_UM = (1e-150, 1e150)


@dataclass(frozen=True)
class KernelSpec:
    sigma_um: float
    cutoff_um: float = 16.0
    compounding: str = K_MAX
    amplitude: str = AMP_UNIT

    def __post_init__(self):
        check_real(self.sigma_um, "sigma_um", *SIGMA_UM, "[]")
        check_real(self.cutoff_um, "cutoff_um")
        if self.compounding not in COMPOUNDINGS:
            raise ValueError(f"compounding must be one of {list(COMPOUNDINGS)}")
        if self.amplitude not in AMPLITUDES:
            raise ValueError(f"amplitude must be one of {list(AMPLITUDES)}")

    @property
    def peak_value(self) -> float:
        return float(gaussian_value(0.0, self.sigma_um, self.amplitude))


def gaussian_value(s, sigma: float, amplitude: str = AMP_NORMALIZED):
    """Radial kernel value at distance s (micrometers).

    ``normalized``: (1 / (sigma * sqrt(2 pi))) * exp(-s^2 / (2 sigma^2));
    ``unit_peak``: exp(-s^2 / (2 sigma^2)).
    """
    check_real(sigma, "sigma", *SIGMA_UM, "[]")
    s = np.asarray(s, dtype=np.float64)
    value = np.exp(-(s**2) / (2.0 * sigma**2))
    if amplitude == AMP_NORMALIZED:
        value = value / (sigma * np.sqrt(2.0 * np.pi))
    elif amplitude != AMP_UNIT:
        raise ValueError(f"unknown amplitude {amplitude!r}")
    return value if value.ndim else float(value)


def render_dm(
    coords: CoordSet,
    shape,
    voxel_size,
    kernel: KernelSpec,
    scales=None,
) -> Volume3D:
    """Render the density map of a coordinate set on a voxel grid.

    Each coordinate only touches the voxels within ``kernel.cutoff_um`` of
    it, so cost is O(N_c * (2 l_g)^3) rather than per-voxel over all cells.
    Coordinates are processed in a canonical (z, y, x) order so the result
    is bit-identical under input permutations, including float32 summation.
    ``scales`` optionally multiplies each coordinate's kernel (used by the
    synthetic oracle for distractor blobs).

    Out-of-grid coordinates still contribute while within the cutoff.
    """
    shape = check_int(shape, "shape", 1, 3)
    vs = np.asarray(voxel_size, dtype=np.float64)
    acc = np.zeros(shape, dtype=np.float64)
    pts = coords.coords
    scale_arr = np.ones(len(coords)) if scales is None else np.asarray(scales, np.float64).ravel()
    if scale_arr.shape[0] != len(coords):
        raise ValueError("scales length must match coordinate count")
    order = np.lexsort((scale_arr, pts[:, 2], pts[:, 1], pts[:, 0]))
    axes = [voxel_centers_um(n, v) for n, v in zip(shape, vs)]
    cutoff = kernel.cutoff_um
    # each coordinate's voxel-center range within the cutoff, clipped to the
    # grid; a voxel size so small that a bound overflows is rejected
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        first = np.ceil((pts - cutoff) / vs - 0.5)
        last = np.floor((pts + cutoff) / vs - 0.5) + 1
    if not (np.all(vs > 0) and np.isfinite(first).all() and np.isfinite(last).all()):
        raise ValueError(
            f"voxel_size {tuple(vs.tolist())} must be > 0 and leave every cutoff box "
            "a finite number of voxels"
        )
    lo_all = np.clip(first, 0, shape).astype(int)
    hi_all = np.clip(last, 0, shape).astype(int)
    inv_two_sigma2 = 1.0 / (2.0 * kernel.sigma_um**2)
    amp = kernel.peak_value

    def planes(z0: int, z1: int) -> None:
        # every cell's box clipped to planes [z0, z1), in the canonical order,
        # so each voxel sees the same operations in the same order
        lo_half = np.maximum(lo_all, (z0, 0, 0))
        hi_half = np.minimum(hi_all, (z1, *shape[1:]))
        for idx in order:
            c, lo, hi = pts[idx], lo_half[idx], hi_half[idx]
            if np.any(lo >= hi):
                continue
            dz = axes[0][lo[0] : hi[0]] - c[0]
            dy = axes[1][lo[1] : hi[1]] - c[1]
            dx = axes[2][lo[2] : hi[2]] - c[2]
            values = dz[:, None, None] ** 2 + dy[None, :, None] ** 2 + dx[None, None, :] ** 2
            outside = values > cutoff * cutoff
            values *= -inv_two_sigma2  # in the d2 buffer: (amp * scale) * exp(-d2 * inv)
            np.exp(values, out=values)
            values *= amp * scale_arr[idx]
            values[outside] = 0.0
            window = acc[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
            if kernel.compounding == K_SUM:
                window += values
            else:
                np.maximum(window, values, out=window)

    on_two_cores(planes, shape[0], acc.nbytes)
    return Volume3D(acc.astype(np.float32), tuple(vs))
