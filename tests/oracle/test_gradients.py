"""The oracle's gradient buffer: one flat array, a view per parameter,
zeroed in place."""

from __future__ import annotations

import numpy as np

from oracle.scalar import Gradients


def _two():
    params = [np.ones((2, 3)), np.ones(2)]
    return params, Gradients(params)


class TestGradients:
    def test_first_accumulation_starts_from_zeros(self):
        (p, _), grads = _two()
        grads.accumulate(p, 1.0)
        assert grads[p].shape == (2, 3)
        assert np.all(grads[p] == 1.0)

    def test_accumulate_adds(self):
        (_, p), grads = _two()
        grads.accumulate(p, np.array([1.0, 2.0]))
        grads.accumulate(p, np.array([0.5, 0.5]))
        np.testing.assert_allclose(grads[p], [1.5, 2.5])

    def test_zero_in_place(self):
        (_, p), grads = _two()
        grads.accumulate(p, np.array([1.0, 2.0]))
        buf = grads[p]
        grads.zero()
        assert grads[p] is buf
        assert np.all(grads[p] == 0.0)

    def test_vector_zeros_when_unset(self):
        _, grads = _two()
        np.testing.assert_array_equal(grads.vector(), np.zeros(8))

    def test_vector_reflects_accumulated_grads(self):
        (_, p), grads = _two()
        grads.accumulate(p, np.array([1.0, -1.0]))
        np.testing.assert_array_equal(grads.vector(), [0.0] * 6 + [1.0, -1.0])
        assert np.shares_memory(grads[p], grads.vector())
