"""The oracle's gradient buffers: one per parameter, zeroed in place."""

from __future__ import annotations

import numpy as np

from repro.nn import Parameter

from oracle.scalar import Gradients


def _one(value):
    p = Parameter("w", np.asarray(value, dtype=float))
    return p, Gradients([p])


class TestGradients:
    def test_first_accumulation_starts_from_zeros(self):
        p, grads = _one(np.ones((2, 2)))
        grads.accumulate(p, 1.0)
        assert grads[p].shape == (2, 2)
        assert np.all(grads[p] == 1.0)

    def test_accumulate_adds(self):
        p, grads = _one(np.ones(2))
        grads.accumulate(p, np.array([1.0, 2.0]))
        grads.accumulate(p, np.array([0.5, 0.5]))
        np.testing.assert_allclose(grads[p], [1.5, 2.5])

    def test_zero_in_place(self):
        p, grads = _one(np.ones(2))
        grads.accumulate(p, np.array([1.0, 2.0]))
        buf = grads[p]
        grads.zero()
        assert grads[p] is buf
        assert np.all(grads[p] == 0.0)

    def test_zero_noop_when_unallocated(self):
        p, grads = _one(np.ones(2))
        grads.zero()  # must not raise
        assert grads[p] is None

    def test_vector_zeros_when_unset(self):
        grads = Gradients([Parameter("a", np.ones((2, 3))), Parameter("b", np.ones(2))])
        np.testing.assert_allclose(grads.vector(), np.zeros(8))

    def test_vector_reflects_accumulated_grads(self):
        params = [Parameter("a", np.ones((2, 3))), Parameter("b", np.ones(2))]
        grads = Gradients(params)
        grads.accumulate(params[1], np.array([1.0, -1.0]))
        np.testing.assert_allclose(grads.vector(), [0.0] * 6 + [1.0, -1.0])
