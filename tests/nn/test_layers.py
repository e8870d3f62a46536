"""Unit tests for the layer specs and, with numerical gradient checks, for the
scalar passes of ``tests/oracle/scalar.py`` the batched kernels are checked
against."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU

from oracle.scalar import col2im, im2col, scalar_layer


RNG = np.random.default_rng(0)


def numerical_gradient(forward, x, eps=1e-6):
    """Central-difference gradient of a scalar-valued ``forward(x)``."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = forward(x)
        flat[i] = orig - eps
        minus = forward(x)
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * eps)
    return grad


class TestDense:
    def test_forward_shape(self):
        layer = scalar_layer(Dense("fc", 4, 3, np.random.default_rng(0)))
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_forward_matches_matmul(self):
        layer = scalar_layer(Dense("fc", 4, 3, np.random.default_rng(0)))
        x = np.random.default_rng(1).standard_normal((5, 4))
        expected = x @ layer.weight + layer.bias
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_no_bias_option(self):
        layer = Dense("fc", 4, 3, np.random.default_rng(0), bias=False)
        assert layer.bias is None

    def test_input_validation(self):
        layer = scalar_layer(Dense("fc", 4, 3, np.random.default_rng(0)))
        with pytest.raises(ValueError):
            layer.forward(np.ones((5, 7)))
        with pytest.raises(ValueError):
            layer.forward(np.ones(4))


    def test_backward_before_forward_raises(self):
        layer = scalar_layer(Dense("fc", 4, 3, np.random.default_rng(0)))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((5, 3)))

    def test_backward_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(2)
        layer = scalar_layer(Dense("fc", 3, 2, rng))
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))

        def loss_of_x(xv):
            out = xv @ layer.weight + layer.bias
            return float(((out - target) ** 2).sum())

        out = layer.forward(x)
        grad_out = 2 * (out - target)
        grad_x = layer.backward(grad_out)
        num = numerical_gradient(loss_of_x, x.copy())
        np.testing.assert_allclose(grad_x, num, rtol=1e-5, atol=1e-7)

    def test_backward_weight_gradient_matches_numerical(self):
        rng = np.random.default_rng(3)
        layer = scalar_layer(Dense("fc", 3, 2, rng))
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))

        def loss_of_w(wv):
            out = x @ wv + layer.bias
            return float(((out - target) ** 2).sum())

        out = layer.forward(x)
        layer.backward(2 * (out - target))
        num = numerical_gradient(loss_of_w, layer.weight.copy())
        np.testing.assert_allclose(layer.grads[layer.weight], num, rtol=1e-5, atol=1e-7)

    def test_gradients_accumulate_across_calls(self):
        rng = np.random.default_rng(4)
        layer = scalar_layer(Dense("fc", 3, 2, rng))
        x = np.ones((2, 3))
        layer.forward(x)
        layer.backward(np.ones((2, 2)))
        first = layer.grads[layer.weight].copy()
        layer.forward(x)
        layer.backward(np.ones((2, 2)))
        np.testing.assert_allclose(layer.grads[layer.weight], 2 * first)


class TestReLU:
    def test_forward_clamps_negative(self):
        layer = scalar_layer(ReLU("r"))
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])

    def test_backward_masks_gradient(self):
        layer = scalar_layer(ReLU("r"))
        layer.forward(np.array([[-1.0, 3.0]]))
        grad = layer.backward(np.array([[5.0, 7.0]]))
        np.testing.assert_allclose(grad, [[0.0, 7.0]])

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            scalar_layer(ReLU("r")).backward(np.ones((1, 1)))

    def test_has_no_parameters(self):
        assert ReLU("r").weight is None and ReLU("r").bias is None


class TestFlatten:
    def test_roundtrip_shape(self):
        layer = scalar_layer(Flatten("f"))
        x = np.arange(24.0).reshape(2, 3, 2, 2)
        out = layer.forward(x)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        assert back.shape == x.shape
        np.testing.assert_allclose(back, x)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            scalar_layer(Flatten("f")).backward(np.ones((1, 4)))


class TestIm2Col:
    def test_known_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        cols, (oh, ow) = im2col(x, (2, 2), stride=2)
        assert (oh, ow) == (2, 2)
        assert cols.shape == (4, 4)
        np.testing.assert_allclose(cols[0], [0, 1, 4, 5])
        np.testing.assert_allclose(cols[3], [10, 11, 14, 15])

    def test_padding_increases_output(self):
        x = np.ones((1, 1, 3, 3))
        _, (oh, ow) = im2col(x, (3, 3), stride=1, padding=1)
        assert (oh, ow) == (3, 3)

    def test_kernel_too_large_raises(self):
        with pytest.raises(ValueError):
            im2col(np.ones((1, 1, 2, 2)), (5, 5))

    def test_col2im_inverts_for_non_overlapping(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 4, 4))
        cols, _ = im2col(x, (2, 2), stride=2)
        rec = col2im(cols, x.shape, (2, 2), stride=2)
        np.testing.assert_allclose(rec, x)

    def test_col2im_accumulates_overlaps(self):
        x = np.ones((1, 1, 3, 3))
        cols, _ = im2col(x, (2, 2), stride=1)
        rec = col2im(cols, x.shape, (2, 2), stride=1)
        # The centre pixel is covered by all four 2x2 windows.
        assert rec[0, 0, 1, 1] == pytest.approx(4.0)
        assert rec[0, 0, 0, 0] == pytest.approx(1.0)


class TestConv2D:
    def test_forward_shape(self):
        layer = scalar_layer(Conv2D("c", 3, 8, 3, np.random.default_rng(0), padding=1))
        out = layer.forward(np.zeros((2, 3, 8, 8)))
        assert out.shape == (2, 8, 8, 8)

    def test_forward_matches_direct_convolution(self):
        rng = np.random.default_rng(5)
        layer = scalar_layer(Conv2D("c", 2, 3, 3, rng, padding=0))
        x = rng.standard_normal((1, 2, 5, 5))
        out = layer.forward(x)
        # Direct computation at one output location.
        patch = x[0, :, 1:4, 2:5]
        expected = (layer.weight[1] * patch).sum() + layer.bias[1]
        assert out[0, 1, 1, 2] == pytest.approx(expected)

    def test_input_channel_validation(self):
        layer = scalar_layer(Conv2D("c", 3, 4, 3, np.random.default_rng(0)))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 2, 8, 8)))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Conv2D("c", 1, 1, 0, np.random.default_rng(0))

    def test_backward_before_forward_raises(self):
        layer = scalar_layer(Conv2D("c", 1, 1, 3, np.random.default_rng(0)))
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 1, 6, 6)))

    def test_backward_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(6)
        layer = scalar_layer(Conv2D("c", 1, 2, 3, rng, padding=1))
        x = rng.standard_normal((1, 1, 4, 4))

        def loss_of_x(xv):
            out = layer.forward(xv, training=False)
            return float((out**2).sum())

        out = layer.forward(x)
        grad_x = layer.backward(2 * out)
        num = numerical_gradient(loss_of_x, x.copy())
        np.testing.assert_allclose(grad_x, num, rtol=1e-4, atol=1e-6)

    def test_backward_weight_gradient_matches_numerical(self):
        rng = np.random.default_rng(7)
        layer = scalar_layer(Conv2D("c", 1, 1, 3, rng, padding=0))
        x = rng.standard_normal((2, 1, 4, 4))

        def loss_of_w(wv):
            old = layer.weight.copy()
            layer.weight[...] = wv
            out = layer.forward(x, training=False)
            layer.weight[...] = old
            return float((out**2).sum())

        out = layer.forward(x)
        layer.backward(2 * out)
        num = numerical_gradient(loss_of_w, layer.weight.copy())
        np.testing.assert_allclose(layer.grads[layer.weight], num, rtol=1e-4, atol=1e-6)


class TestMaxPool2D:
    def test_forward_known_values(self):
        layer = scalar_layer(MaxPool2D("p", 2))
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_non_divisible_raises(self):
        layer = scalar_layer(MaxPool2D("p", 2))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 1, 5, 5)))

    @pytest.mark.parametrize(
        "pool_size, h, w",
        [(2, 5, 4), (2, 4, 5), (2, 7, 7), (3, 4, 6), (3, 6, 4), (4, 6, 6)],
    )
    def test_shape_validation_names_offending_shape(self, pool_size, h, w):
        """The divisibility constraint (see the class docstring) fails fast
        with an error naming the spatial size and pool size, instead of an
        opaque reshape error mid-training."""
        import re

        layer = scalar_layer(MaxPool2D("pool", pool_size))
        with pytest.raises(
            ValueError, match=re.escape(str((h, w))) + f".*pool size {pool_size}"
        ):
            layer.forward(np.zeros((2, 3, h, w)))

    @pytest.mark.parametrize("pool_size, h, w", [(2, 4, 4), (2, 6, 8), (3, 6, 9)])
    def test_shape_validation_accepts_divisible(self, pool_size, h, w):
        out = scalar_layer(MaxPool2D("pool", pool_size)).forward(np.zeros((2, 3, h, w)))
        assert out.shape == (2, 3, h // pool_size, w // pool_size)

    def test_batched_kernel_validates_shape_identically(self):
        from repro.nn.batched import _BatchedMaxPool2D

        kernel = _BatchedMaxPool2D(MaxPool2D("pool", 2), 0)
        with pytest.raises(ValueError, match=r"\(5, 4\).*pool size 2"):
            kernel.forward(np.zeros((1, 2, 3, 5, 4)))

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            MaxPool2D("p", 0)

    def test_backward_routes_gradient_to_max(self):
        layer = scalar_layer(MaxPool2D("p", 2))
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        layer.forward(x)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        assert grad[0, 0, 1, 1] == 1.0  # position of 5
        assert grad[0, 0, 3, 3] == 1.0  # position of 15
        assert grad.sum() == pytest.approx(4.0)

    def test_backward_splits_gradient_on_ties(self):
        layer = scalar_layer(MaxPool2D("p", 2))
        x = np.ones((1, 1, 2, 2))
        layer.forward(x)
        grad = layer.backward(np.ones((1, 1, 1, 1)))
        # All four entries tie; the unit gradient must be split, not copied.
        assert grad.sum() == pytest.approx(1.0)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            scalar_layer(MaxPool2D("p", 2)).backward(np.zeros((1, 1, 2, 2)))



@pytest.mark.parametrize(
    "build",
    [
        lambda rng: Conv2D("c", 0, 4, 3, rng),
        lambda rng: Conv2D("c", 1, 0, 3, rng),
        lambda rng: Conv2D("c", -2, 4, 3, rng),
        lambda rng: Dense("c", 0, 3, rng),
        lambda rng: Dense("c", 4, -1, rng),
    ],
    ids=["conv-in-0", "conv-out-0", "conv-in-negative", "dense-in-0", "dense-out-negative"],
)
def test_non_positive_sizes_are_refused_by_name(build):
    with pytest.raises(ValueError, match="'c'.*must be positive"):
        build(np.random.default_rng(0))
