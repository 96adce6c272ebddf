"""Point sets in micrometers and their CSV interchange format.

Coordinates are stored as an (N, 3) float64 array in (z, y, x) order, in
micrometers. Voxel (i, j, k) of a grid with voxel size (sz, sy, sx) has its
center at ((i + 0.5) * sz, (j + 0.5) * sy, (k + 0.5) * sx).

CSV layout: header ``z_um,y_um,x_um`` with optional ``p`` (probability) and
``dm_value`` (peak density value) columns.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NonFiniteInput, ProbabilityOutOfRange


@dataclass(eq=False)
class CoordSet:
    """Cell coordinates with optional per-point probability and DM value."""

    coords: np.ndarray
    p: np.ndarray | None = None
    dm_value: np.ndarray | None = None

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64).reshape(-1, 3)
        if not np.isfinite(self.coords).all():
            raise NonFiniteInput("coordinates must be finite")
        if self.p is not None:
            self.p = np.asarray(self.p, dtype=np.float64).reshape(-1)
            if self.p.shape[0] != self.coords.shape[0]:
                raise ValueError("p length must match coordinate count")
            if not ((self.p >= 0.0) & (self.p <= 1.0)).all():
                raise ProbabilityOutOfRange("p must lie in [0, 1]")
        if self.dm_value is not None:
            self.dm_value = np.asarray(self.dm_value, dtype=np.float64).reshape(-1)
            if self.dm_value.shape[0] != self.coords.shape[0]:
                raise ValueError("dm_value length must match coordinate count")
            if not np.isfinite(self.dm_value).all():
                raise NonFiniteInput("dm_value must be finite")

    def __len__(self) -> int:
        return self.coords.shape[0]

    @classmethod
    def empty(cls) -> "CoordSet":
        return cls(np.zeros((0, 3), dtype=np.float64))

    def select(self, mask) -> "CoordSet":
        """Subset by boolean mask or index array, carrying p/dm_value along."""
        return CoordSet(
            self.coords[mask],
            None if self.p is None else self.p[mask],
            None if self.dm_value is None else self.dm_value[mask],
        )


class Separated:
    """Greedy separation at r, for NMS and placement: ``take(p)`` keeps p =
    (z, y, x) and returns True unless a kept q has ``dz*dz + dy*dy + dx*dx <
    r*r``, d = q - p; ``points`` are kept untested; ``span`` bounds each |c|.

    Kept points sit in cubic buckets of side s (Bridson's Poisson-disk grid,
    SIGGRAPH sketches, 2007); a test reads p's own and, per axis, the next
    on p's nearer side. These hold every closer q. Rounding is monotone, so
    a pass needs each |q - p| < sqrt(r*r) (1 + 2^-51), while s >= 2
    sqrt(r*r) (1 + 1e-9); s >= span 2^-20 keeps c / s below 2^21, so it
    rounds by 2^-33 at most, and q / s stays within 1/2 of p / s. That floor
    also keeps keys small at a tiny r; at s near 2r a bucket holds at most a
    packing constant of kept points, whatever r is.
    """

    def __init__(self, r: float, span: float, points=()):
        self.r2 = float(r) * float(r)
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        span = max(float(span), float(np.abs(points).max(initial=0.0)))
        self.side = s = max(2.0 * math.sqrt(self.r2) * (1 + 1e-9), span * 2.0**-20, math.ulp(0.0))
        self.buckets: dict[tuple[int, ...], list[tuple[float, ...]]] = {}
        for p in points.tolist():
            self.buckets.setdefault(tuple(math.floor(c / s) for c in p), []).append(tuple(p))

    def take(self, p) -> bool:
        z, y, x = p
        s, r2, buckets = self.side, self.r2, self.buckets
        cz, cy, cx = z / s, y / s, x / s
        kz, ky, kx = math.floor(cz), math.floor(cy), math.floor(cx)
        for bz in (kz, kz - 1 if cz - kz < 0.5 else kz + 1):
            for by in (ky, ky - 1 if cy - ky < 0.5 else ky + 1):
                for bx in (kx, kx - 1 if cx - kx < 0.5 else kx + 1):
                    for qz, qy, qx in buckets.get((bz, by, bx), ()):
                        dz, dy, dx = qz - z, qy - y, qx - x
                        if dz * dz + dy * dy + dx * dx < r2:
                            return False
        buckets.setdefault((kz, ky, kx), []).append((z, y, x))
        return True


def write_csv(path, header: list[str], rows) -> None:
    """A header row, then each row's values as repr floats, by ``csv.writer``
    (CRLF line ends, RFC 4180)."""
    with Path(path).open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) for v in row])


def save_coords(cs: CoordSet, path) -> None:
    cols = {"z_um": cs.coords[:, 0], "y_um": cs.coords[:, 1], "x_um": cs.coords[:, 2],
            "p": cs.p, "dm_value": cs.dm_value}
    cols = {name: col for name, col in cols.items() if col is not None}
    write_csv(path, list(cols), zip(*cols.values()))


def load_coords(path) -> CoordSet:
    path = Path(path)
    with path.open(newline="") as f:
        r = csv.reader(f)
        try:
            header = next(r, [])  # an empty file has no header
            rows = [row for row in r if row]
        except csv.Error as exc:  # a field over csv's size limit
            raise ValueError(f"coordinate CSV {path}: {exc}") from None
    idx = {name: i for i, name in enumerate(header)}
    if len(idx) < len(header):
        twice = next(name for i, name in enumerate(header) if idx[name] != i)
        raise ValueError(f"coordinate CSV {path} names column {twice!r} more than once")
    for required in ("z_um", "y_um", "x_um"):
        if required not in idx:
            raise ValueError(f"coordinate CSV {path} missing column {required!r}")
    data = np.asarray([[float(v) for v in row] for row in rows], dtype=np.float64)
    # (0, columns) for a header-only file; rows of another width fail here
    data = data.reshape(len(rows), len(header))
    coords = data[:, [idx["z_um"], idx["y_um"], idx["x_um"]]]
    p = data[:, idx["p"]] if "p" in idx else None
    dm = data[:, idx["dm_value"]] if "dm_value" in idx else None
    return CoordSet(coords, p, dm)
