import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from probcell import Volume3D, volume


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def vol(data, voxel_size=(1.0, 1.0, 1.0)) -> Volume3D:
    return Volume3D(np.asarray(data, dtype=np.float32), voxel_size)


@pytest.fixture
def fork_always(monkeypatch):
    """Every on_two_processes call forks, however few its items."""
    monkeypatch.setattr(volume, "FORK_MIN_COST", 0)


@pytest.fixture
def split_always(monkeypatch):
    """Every on_two_cores call splits, however small its volume."""
    monkeypatch.setattr(volume, "SPLIT_MIN_BYTES", 0)


def no_child_left():
    """No child process is running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
