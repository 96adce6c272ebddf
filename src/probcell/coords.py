"""Point sets in micrometers and their CSV interchange format.

Coordinates are stored as an (N, 3) float64 array in (z, y, x) order, in
micrometers. Voxel (i, j, k) of a grid with voxel size (sz, sy, sx) has its
center at ((i + 0.5) * sz, (j + 0.5) * sy, (k + 0.5) * sx).

CSV layout: header ``z_um,y_um,x_um`` with optional ``p`` (probability) and
``dm_value`` (peak density value) columns.
"""
from __future__ import annotations

import csv
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


def save_coords(cs: CoordSet, path) -> None:
    path = Path(path)
    header = ["z_um", "y_um", "x_um"]
    cols = [cs.coords[:, 0], cs.coords[:, 1], cs.coords[:, 2]]
    if cs.p is not None:
        header.append("p")
        cols.append(cs.p)
    if cs.dm_value is not None:
        header.append("dm_value")
        cols.append(cs.dm_value)
    with path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in zip(*cols):
            w.writerow([repr(float(v)) for v in row])


def load_coords(path) -> CoordSet:
    path = Path(path)
    with path.open(newline="") as f:
        r = csv.reader(f)
        header = next(r, [])  # an empty file has no header
        rows = [row for row in r if row]
    idx = {name: i for i, name in enumerate(header)}
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
