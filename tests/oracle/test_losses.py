"""Unit tests for the oracle's softmax / cross-entropy losses and accuracy."""

from __future__ import annotations

import numpy as np
import pytest

from oracle.scalar import (
    accuracy,
    cross_entropy_from_probs,
    log_softmax,
    softmax,
    softmax_cross_entropy,
)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.random.default_rng(0).standard_normal((6, 4))
        probs = softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_invariant_to_constant_shift(self):
        logits = np.random.default_rng(1).standard_normal((3, 5))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))

    def test_numerically_stable_for_large_logits(self):
        logits = np.array([[1e4, 0.0]])
        probs = softmax(logits)
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        logits = np.random.default_rng(2).standard_normal((4, 3))
        np.testing.assert_allclose(log_softmax(logits), np.log(softmax(logits)), atol=1e-12)


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_near_zero_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        labels = np.array([0, 1])
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss < 1e-6

    def test_uniform_prediction_loss_is_log_k(self):
        k = 5
        logits = np.zeros((10, k))
        labels = np.zeros(10, dtype=int)
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(k))

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((7, 4))
        labels = rng.integers(0, 4, size=7)
        _, grad = softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((3, 4))
        labels = rng.integers(0, 4, size=3)
        _, grad = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        num = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                lp = logits.copy(); lp[i, j] += eps
                lm = logits.copy(); lm[i, j] -= eps
                num[i, j] = (
                    softmax_cross_entropy(lp, labels)[0]
                    - softmax_cross_entropy(lm, labels)[0]
                ) / (2 * eps)
        np.testing.assert_allclose(grad, num, rtol=1e-5, atol=1e-8)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(4), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((4, 3)), np.zeros(5, dtype=int))

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_loss_decreases_along_negative_gradient(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 5))
        labels = rng.integers(0, 5, size=6)
        loss0, grad = softmax_cross_entropy(logits, labels)
        loss1, _ = softmax_cross_entropy(logits - 0.5 * grad, labels)
        assert loss1 < loss0


class TestCrossEntropyFromProbs:
    def test_matches_softmax_version(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, size=5)
        loss_logits, _ = softmax_cross_entropy(logits, labels)
        loss_probs = cross_entropy_from_probs(softmax(logits), labels)
        assert loss_probs == pytest.approx(loss_logits)

    def test_clips_zero_probabilities(self):
        probs = np.array([[1.0, 0.0]])
        loss = cross_entropy_from_probs(probs, np.array([1]))
        assert np.isfinite(loss)


class TestAccuracy:
    def test_perfect_and_zero(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 0])) == 0.0

    def test_partial(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 0.0], [0.0, 5.0]])
        assert accuracy(logits, np.array([0, 1, 1, 1])) == pytest.approx(0.75)

    def test_empty_input(self):
        assert accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((3, 2)), np.zeros(4, dtype=int))
