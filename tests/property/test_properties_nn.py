"""Property-based tests for a model's flat parameter vector and the losses
of the scalar oracle (``tests/oracle/scalar.py``)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Dense, ReLU, SequentialModel

from oracle.scalar import accuracy, log_softmax, softmax, softmax_cross_entropy


@st.composite
def dense_stacks(draw):
    """The layers of a small ``SequentialModel``: Dense layers of arbitrary
    widths, some without a bias, with parameterless ReLUs between them."""
    widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    layers = []
    for i, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        layers.append(Dense(f"fc{i}", n_in, n_out, rng, bias=draw(st.booleans())))
        layers.append(ReLU(f"relu{i}"))
    return layers


def _arrays(layers):
    return [a for layer in layers for a in (layer.weight, layer.bias) if a is not None]


class TestFlattenRoundtrip:
    @given(layers=dense_stacks())
    @settings(max_examples=60)
    def test_flatten_unflatten_roundtrip(self, layers):
        """The model's views read back exactly what each layer drew."""
        drawn = [a.copy() for a in _arrays(layers)]
        model = SequentialModel(layers)
        assert model.vector.ndim == 1
        assert model.dimension == sum(a.size for a in drawn)
        np.testing.assert_array_equal(model.vector, np.concatenate([a.ravel() for a in drawn]))
        for original, view in zip(drawn, _arrays(model.layers)):
            assert view.shape == original.shape
            np.testing.assert_array_equal(view, original)

    @given(layers=dense_stacks())
    @settings(max_examples=30)
    def test_parameter_set_roundtrip(self, layers):
        """Writing the vector is what every view reads afterwards."""
        model = SequentialModel(layers)
        vec = model.get_vector()
        model.vector[:] = vec * 2.0
        np.testing.assert_array_equal(model.get_vector(), vec * 2.0)
        views = np.concatenate([a.ravel() for a in _arrays(model.layers)])
        np.testing.assert_array_equal(views, vec * 2.0)


class TestSoftmaxProperties:
    @given(
        logits=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 6), st.integers(2, 6)),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_softmax_is_probability_distribution(self, logits):
        probs = softmax(logits)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @given(
        logits=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 6), st.integers(2, 6)),
            elements=st.floats(-50, 50, allow_nan=False),
        ),
        shift=st.floats(-100, 100, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_softmax_shift_invariance(self, logits, shift):
        np.testing.assert_allclose(
            softmax(logits), softmax(logits + shift), atol=1e-9
        )

    @given(
        logits=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 5), st.integers(2, 5)),
            elements=st.floats(-30, 30, allow_nan=False),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_log_softmax_is_nonpositive(self, logits):
        assert np.all(log_softmax(logits) <= 1e-12)


class TestCrossEntropyProperties:
    @given(
        logits=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 6), st.integers(2, 5)),
            elements=st.floats(-20, 20, allow_nan=False),
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_loss_nonnegative_and_gradient_balanced(self, logits, data):
        n, k = logits.shape
        labels = np.array(
            [data.draw(st.integers(0, k - 1)) for _ in range(n)], dtype=int
        )
        loss, grad = softmax_cross_entropy(logits, labels)
        assert loss >= 0.0
        # Gradient rows sum to zero (softmax minus one-hot).
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-9)
        assert grad.shape == logits.shape

    @given(
        logits=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 6), st.integers(2, 5)),
            elements=st.floats(-20, 20, allow_nan=False),
        ),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_accuracy_bounds(self, logits, data):
        n, k = logits.shape
        labels = np.array(
            [data.draw(st.integers(0, k - 1)) for _ in range(n)], dtype=int
        )
        acc = accuracy(logits, labels)
        assert 0.0 <= acc <= 1.0
