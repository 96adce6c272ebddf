import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from probcell import Volume3D, cores


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def vol(data, voxel_size=(1.0, 1.0, 1.0)) -> Volume3D:
    return Volume3D(np.asarray(data, dtype=np.float32), voxel_size)


def spread_candidates(n: int, seed: int = 0) -> Volume3D:
    """A 64^3 map of n positive voxels at even coordinates, the rest zero:
    each is an NMS candidate, and a radius of 1e6 um spans them all."""
    rng = np.random.default_rng(seed)
    data = np.zeros((64, 64, 64), np.float32)
    z, y, x = np.unravel_index(rng.choice(32**3, n, replace=False), (32, 32, 32))
    data[2 * z, 2 * y, 2 * x] = rng.uniform(0.1, 1.0, n)
    return Volume3D(data, (1.0, 1.0, 1.0))


@pytest.fixture
def split_always(monkeypatch):
    """Every on_two_cores call splits, however small its volume."""
    monkeypatch.setattr(cores, "SPLIT_MIN_BYTES", 0)


def no_child_left():
    """No child process is running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
