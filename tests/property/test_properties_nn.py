"""Property-based tests for the NumPy neural-network substrate and the
losses of its scalar oracle (``tests/oracle/scalar.py``)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Parameter, ParameterSet, flatten_parameters, unflatten_vector

from oracle.scalar import accuracy, log_softmax, softmax, softmax_cross_entropy


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def array_shapes_and_values(draw, max_arrays=4):
    """A list of small arrays with arbitrary shapes and finite values."""
    n = draw(st.integers(1, max_arrays))
    arrays = []
    for _ in range(n):
        shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
        arr = draw(
            hnp.arrays(dtype=np.float64, shape=shape, elements=finite_floats)
        )
        arrays.append(arr)
    return arrays


class TestFlattenRoundtrip:
    @given(arrays=array_shapes_and_values())
    @settings(max_examples=60, deadline=None)
    def test_flatten_unflatten_roundtrip(self, arrays):
        """unflatten(flatten(x)) == x for any collection of tensors."""
        vec = flatten_parameters(arrays)
        assert vec.ndim == 1
        assert vec.size == sum(a.size for a in arrays)
        blocks = unflatten_vector(vec, [a.shape for a in arrays])
        for original, block in zip(arrays, blocks):
            np.testing.assert_array_equal(original, block)

    @given(arrays=array_shapes_and_values())
    @settings(max_examples=30, deadline=None)
    def test_parameter_set_roundtrip(self, arrays):
        ps = ParameterSet(
            [Parameter(f"p{i}", a) for i, a in enumerate(arrays)]
        )
        vec = ps.to_vector()
        ps.from_vector(vec * 2.0)
        np.testing.assert_allclose(ps.to_vector(), vec * 2.0)


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
