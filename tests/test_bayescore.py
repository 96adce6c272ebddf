import numpy as np
import pytest

from probcell import (
    RegressorOutput,
    Volume3D,
    bayes_loss,
    l2_loss,
    mc_aggregate,
)
from probcell.errors import EmptySampleList, NonPositiveAleatoric, ShapeMismatch

from oracles import central_difference_gradient, two_pass_sd


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


class TestMcAggregate:
    def test_identical_samples_zero_epistemic(self, rng):
        y = rng.random((4, 4, 4)).astype(np.float32)
        u = rng.random((4, 4, 4)).astype(np.float32)
        out = mc_aggregate([(y, u)] * 5, voxel_size=(1, 1, 1))
        assert not out.epistemic.data.any()
        assert np.allclose(out.dm.data, y)
        assert np.allclose(out.aleatoric.data, u)

    def test_two_sample_hand_example(self):
        zeros = np.zeros((1, 1, 1))
        twos = np.full((1, 1, 1), 2.0)
        out = mc_aggregate([(zeros, zeros), (twos, zeros)], voxel_size=(1, 1, 1))
        assert out.dm.data[0, 0, 0] == 1.0
        assert out.epistemic.data[0, 0, 0] == 1.0  # population SD

    def test_matches_two_pass_sd(self, rng):
        stack = [(rng.normal(size=(5, 5, 5)), rng.random((5, 5, 5))) for _ in range(9)]
        out = mc_aggregate(stack, voxel_size=(1, 1, 1))
        want = two_pass_sd(np.stack([s[0] for s in stack]))
        assert np.max(np.abs(out.epistemic.data.astype(np.float64) - want)) < 1e-6

    def test_permutation_invariant(self, rng):
        stack = [(rng.normal(size=(3, 3, 3)), rng.random((3, 3, 3))) for _ in range(6)]
        a = mc_aggregate(stack, voxel_size=(1, 1, 1))
        b = mc_aggregate(stack[::-1], voxel_size=(1, 1, 1))
        assert np.array_equal(a.dm.data, b.dm.data)
        assert np.array_equal(a.epistemic.data, b.epistemic.data)

    def test_empty_list_raises(self):
        with pytest.raises(EmptySampleList):
            mc_aggregate([])

    def test_volume_inputs_carry_voxel_size(self, rng):
        v = Volume3D(rng.random((2, 2, 2)).astype(np.float32), (2.0, 1.0, 1.0))
        out = mc_aggregate([(v, v), (v, v)])
        assert out.dm.voxel_size == (2.0, 1.0, 1.0)


class TestSerialization:
    def test_negative_uncertainty_rejected(self, rng):
        vs = (1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            RegressorOutput(
                dm=Volume3D(np.zeros((2, 2, 2), np.float32), vs),
                aleatoric=Volume3D(np.full((2, 2, 2), -1.0, np.float32), vs),
                epistemic=Volume3D(np.zeros((2, 2, 2), np.float32), vs),
            )
