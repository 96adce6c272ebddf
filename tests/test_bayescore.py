import numpy as np
import pytest

from probcell import (
    RegressorOutput,
    Volume3D,
    bayes_loss,
    l2_loss,
)
from probcell.errors import NonPositiveAleatoric, ShapeMismatch

from oracles import central_difference_gradient


class TestL2Loss:
    def test_zero_at_equality(self, rng):
        y = rng.random((4, 4, 4))
        loss, grad = l2_loss(y, y.copy())
        assert loss == 0.0
        assert not grad.any()

    def test_hand_example(self):
        loss, grad = l2_loss(np.zeros((1, 1, 2)), np.ones((1, 1, 2)))
        assert loss == 2.0
        assert np.array_equal(grad, np.full((1, 1, 2), 2.0))

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(20):
            y = rng.normal(size=(4, 4, 4))
            y_hat = rng.normal(size=(4, 4, 4))
            _, grad = l2_loss(y, y_hat)
            fd = central_difference_gradient(lambda v: l2_loss(y, v)[0], y_hat.copy(), h=1e-6)
            rel = np.abs(fd - grad) / np.maximum(np.abs(grad), 1e-8)
            assert rel.max() < 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            l2_loss(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


class TestBayesLoss:
    def test_unit_aleatoric_is_half_l2_exactly(self, rng):
        for _ in range(10):
            y = rng.normal(size=(5, 3, 4))
            y_hat = rng.normal(size=(5, 3, 4))
            l2, _ = l2_loss(y, y_hat)
            lb, _, _ = bayes_loss(y, y_hat, np.ones_like(y))
            assert lb == l2 / 2.0

    def test_optimal_aleatoric_is_squared_residual(self):
        r = 0.37
        y = np.zeros((1, 1, 1))
        y_hat = np.full((1, 1, 1), r)
        best_u = r * r
        best_loss, _, grad_u = bayes_loss(y, y_hat, np.full((1, 1, 1), best_u))
        assert abs(grad_u[0, 0, 0]) < 1e-12  # stationary point
        assert best_loss == pytest.approx(0.5 * (1.0 + np.log(r * r)), rel=1e-12)
        for u in (best_u * 0.5, best_u * 0.9, best_u * 1.1, best_u * 2.0):
            loss, _, _ = bayes_loss(y, y_hat, np.full((1, 1, 1), u))
            assert loss > best_loss

    def test_gradients_match_finite_differences(self, rng):
        for _ in range(20):
            y = rng.normal(size=(3, 3, 3))
            y_hat = rng.normal(size=(3, 3, 3))
            u_a = rng.uniform(0.3, 2.0, size=(3, 3, 3))
            _, g_yhat, g_ua = bayes_loss(y, y_hat, u_a)
            fd_yhat = central_difference_gradient(
                lambda v: bayes_loss(y, v, u_a)[0], y_hat.copy(), h=1e-6
            )
            fd_ua = central_difference_gradient(
                lambda v: bayes_loss(y, y_hat, v)[0], u_a.copy(), h=1e-6
            )
            for fd, g in ((fd_yhat, g_yhat), (fd_ua, g_ua)):
                rel = np.abs(fd - g) / np.maximum(np.abs(g), 1e-6)
                assert rel.max() < 1e-4

    def test_rejects_nonpositive_aleatoric(self):
        y = np.zeros((2, 2, 2))
        with pytest.raises(NonPositiveAleatoric):
            bayes_loss(y, y, np.zeros_like(y))


class TestSerialization:
    def test_negative_uncertainty_rejected(self, rng):
        vs = (1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            RegressorOutput(
                dm=Volume3D(np.zeros((2, 2, 2), np.float32), vs),
                aleatoric=Volume3D(np.full((2, 2, 2), -1.0, np.float32), vs),
                epistemic=Volume3D(np.zeros((2, 2, 2), np.float32), vs),
            )
