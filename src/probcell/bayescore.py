"""Regression losses and the regressor's output maps.

The losses are the ones a density-map regressor trains with: a plain
squared-error loss, and an uncertainty-weighted loss whose per-voxel terms
are (y - yhat)^2 / (2 u_a) + log(u_a) / 2.

The whole contract between a regressor and this package is its three maps,
one volume pair each (``<name>.raw`` + ``<name>.json``, see
``volume.save_volume``): the density map, the aleatoric and the epistemic
uncertainty. The CLI reads them through ``--dm``, ``--u-a`` and ``--u-e``.
The package does not prescribe how a regressor derives its uncertainty.

The loss functions validate positivity of u_a rather than rectifying it:
clamping is the network head's job, and validating keeps the functions
testable in isolation (gradients are checked against finite differences).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveAleatoric, ShapeMismatch
from .volume import Volume3D


@dataclass(frozen=True, eq=False)
class RegressorOutput:
    """Predicted density map plus aleatoric/epistemic uncertainty maps."""

    dm: Volume3D
    aleatoric: Volume3D
    epistemic: Volume3D

    def __post_init__(self):
        if not (self.dm.shape == self.aleatoric.shape == self.epistemic.shape):
            raise ShapeMismatch("regressor output volumes must share one shape")
        if np.any(self.aleatoric.data < 0) or np.any(self.epistemic.data < 0):
            raise ValueError("uncertainty maps must be nonnegative")


def _check_shapes(*arrays):
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise ShapeMismatch(f"shapes differ: {sorted(shapes)}")


def _as_array(v):
    return v.data if isinstance(v, Volume3D) else np.asarray(v)


def l2_loss(y, y_hat) -> tuple[float, np.ndarray]:
    """Sum of squared residuals and its gradient with respect to y_hat."""
    y = _as_array(y).astype(np.float64, copy=False)
    y_hat = _as_array(y_hat).astype(np.float64, copy=False)
    _check_shapes(y, y_hat)
    r = y - y_hat
    loss = float(np.sum(r * r))
    grad = -2.0 * r
    return loss, grad


def bayes_loss(y, y_hat, u_a) -> tuple[float, np.ndarray, np.ndarray]:
    """Aleatoric-weighted loss, with gradients for y_hat and u_a.

    Per voxel: (y - y_hat)^2 / (2 u_a) + log(u_a) / 2. With u_a identically
    one this reduces exactly to half the L2 loss. The minimizing u_a for a
    fixed residual r is r^2.
    """
    y = _as_array(y).astype(np.float64, copy=False)
    y_hat = _as_array(y_hat).astype(np.float64, copy=False)
    u_a = _as_array(u_a).astype(np.float64, copy=False)
    _check_shapes(y, y_hat, u_a)
    if np.any(u_a <= 0):
        raise NonPositiveAleatoric("aleatoric map must be strictly positive")
    r = y - y_hat
    loss = float(np.sum(r * r / (2.0 * u_a) + 0.5 * np.log(u_a)))
    grad_y_hat = -r / u_a
    grad_u_a = -r * r / (2.0 * u_a * u_a) + 0.5 / u_a
    return loss, grad_y_hat, grad_u_a

