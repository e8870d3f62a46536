"""Unit tests for the model architectures, run through the scalar oracle of
``tests/oracle/scalar.py``."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import registry
from repro.nn import (
    CifarCNN,
    Conv2D,
    Dense,
    LogisticRegressionMLP,
    MiniVGG,
    MnistCNN,
    ReLU,
    SequentialModel,
    parameter_dtype,
)

from oracle.scalar import ScalarModel, cross_entropy, log_softmax, softmax_cross_entropy


class TestRegistry:
    def test_contains_all_paper_models(self):
        assert set(registry.names("model")) == {"lr", "mnist_cnn", "cifar_cnn", "mini_vgg"}

    def test_build_model_by_name(self):
        model = registry.create("model", "lr", input_dim=16, hidden=8, num_classes=3)
        assert model.dimension > 0

    def test_build_model_unknown_name(self):
        with pytest.raises(KeyError, match="unknown model"):
            registry.create("model", "resnet50")


#: sha256 prefixes of ``get_vector().tobytes()`` for each registered family
#: at a small shape, seed 1: the initial vector's bits, RNG order and layout.
VECTOR_PINS = {
    ("lr", "float64"): "07d3dece406e5110", ("lr", "float32"): "6f5d26fd19baca30",
    ("mnist_cnn", "float64"): "848641a400a87f8a", ("mnist_cnn", "float32"): "901eef3218c6d69b",
    ("cifar_cnn", "float64"): "dc71f6e2f87c1f6d", ("cifar_cnn", "float32"): "4353a4152b033fad",
    ("mini_vgg", "float64"): "49f80b4ed30969e0", ("mini_vgg", "float32"): "1d062fd38ea52a2c",
}  # fmt: skip
SMALL_SHAPES = {
    "lr": dict(input_dim=16, hidden=8, num_classes=4),
    "mnist_cnn": dict(image_size=8, scale=0.1),
    "cifar_cnn": dict(image_size=8, scale=0.1),
    "mini_vgg": dict(image_size=8, num_classes=5, base_channels=2, blocks=2, hidden=8),
}


@pytest.mark.parametrize("family, dtype", sorted(VECTOR_PINS))
def test_initial_vector_is_pinned(family, dtype):
    with parameter_dtype(dtype):
        vector = registry.create("model", family, seed=1, **SMALL_SHAPES[family]).get_vector()
    assert vector.dtype == np.dtype(dtype)
    assert hashlib.sha256(vector.tobytes()).hexdigest()[:16] == VECTOR_PINS[family, dtype]


class TestFlatVector:
    """A model's parameters are one flat vector; each layer's ``weight`` and
    ``bias`` are views of it, laid out in layer order, weight before bias."""

    def test_layout_is_layer_order_weight_before_bias(self):
        rng = np.random.default_rng(0)
        model = SequentialModel([Dense("fc1", 2, 3, rng), ReLU("r"), Dense("fc2", 3, 1, rng)])
        fc1, _, fc2 = model.layers
        parts = [fc1.weight, fc1.bias, fc2.weight, fc2.bias]
        np.testing.assert_array_equal(model.vector, np.concatenate([a.ravel() for a in parts]))
        assert all(np.shares_memory(a, model.vector) for a in parts)

    def test_writing_the_vector_changes_the_layers(self):
        model = MnistCNN(image_size=8, scale=0.1, seed=0)
        conv1 = model.layers[0]
        model.vector[:] = np.arange(model.dimension)
        np.testing.assert_array_equal(conv1.weight.ravel(), np.arange(conv1.weight.size))
        assert conv1.bias[0] == conv1.weight.size

    def test_get_vector_returns_a_copy(self):
        model = LogisticRegressionMLP(input_dim=16, hidden=8)
        vector = model.get_vector()
        before = vector.copy()
        vector += 1.0
        assert not np.shares_memory(vector, model.vector)
        np.testing.assert_array_equal(model.get_vector(), before)

    def test_float32_vector_and_views(self):
        with parameter_dtype("float32"):
            model = MnistCNN(image_size=8, scale=0.1, seed=0)
        arrays = [a for layer in model.layers for a in (layer.weight, layer.bias) if a is not None]
        assert model.vector.dtype == np.float32
        assert all(a.dtype == np.float32 for a in arrays)
        assert model.get_vector().dtype == np.float32

    @pytest.mark.parametrize("family", sorted(SMALL_SHAPES))
    def test_views_are_contiguous_and_tile_the_vector(self, family):
        model = registry.create("model", family, seed=1, **SMALL_SHAPES[family])
        arrays = [a for layer in model.layers for a in (layer.weight, layer.bias) if a is not None]
        assert all(a.dtype == np.float64 and a.flags["C_CONTIGUOUS"] for a in arrays)
        assert all(np.shares_memory(a, model.vector) for a in arrays)
        assert sum(a.size for a in arrays) == model.dimension
        np.testing.assert_array_equal(model.vector, np.concatenate([a.ravel() for a in arrays]))


class TestLogisticRegressionMLP:
    def test_default_parameter_count_matches_paper_architecture(self):
        # 784*512 + 512 + 512*512 + 512 + 512*10 + 10
        model = LogisticRegressionMLP()
        expected = 784 * 512 + 512 + 512 * 512 + 512 + 512 * 10 + 10
        assert model.dimension == expected

    def test_forward_shape(self):
        model = LogisticRegressionMLP(input_dim=16, hidden=8, num_classes=4)
        out = ScalarModel(model).forward(np.zeros((5, 16)), training=False)
        assert out.shape == (5, 4)

    def test_identical_seeds_give_identical_models(self):
        a = LogisticRegressionMLP(input_dim=16, hidden=8, seed=3)
        b = LogisticRegressionMLP(input_dim=16, hidden=8, seed=3)
        np.testing.assert_array_equal(a.get_vector(), b.get_vector())

    def test_different_seeds_differ(self):
        a = LogisticRegressionMLP(input_dim=16, hidden=8, seed=3)
        b = LogisticRegressionMLP(input_dim=16, hidden=8, seed=4)
        assert not np.array_equal(a.get_vector(), b.get_vector())

    def test_vector_roundtrip(self):
        model = LogisticRegressionMLP(input_dim=16, hidden=8)
        vec = model.get_vector()
        model.vector[:] = vec * 2.0
        np.testing.assert_allclose(model.get_vector(), vec * 2.0)
        np.testing.assert_allclose(model.layers[0].weight.ravel(), vec[: 16 * 8] * 2.0)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 16))
        y = (x[:, 0] > 0).astype(int)
        model = ScalarModel(LogisticRegressionMLP(input_dim=16, hidden=8, num_classes=2, seed=0))
        first_loss = None
        for _ in range(100):
            model.zero_grad()
            loss = model.loss_and_grad(x, y)
            if first_loss is None:
                first_loss = loss
            model.model.vector -= 0.2 * model.grads.vector()
        final_loss, acc = model.evaluate(x, y)
        assert final_loss < first_loss * 0.6
        assert acc > 0.8


class TestMnistCNN:
    def test_forward_shape(self):
        model = MnistCNN(image_size=8, scale=0.1, seed=0)
        out = ScalarModel(model).forward(np.zeros((2, 1, 8, 8)), training=False)
        assert out.shape == (2, 10)

    def test_rejects_bad_image_size(self):
        with pytest.raises(ValueError):
            MnistCNN(image_size=10)

    def test_scale_reduces_dimension(self):
        small = MnistCNN(image_size=8, scale=0.1, seed=0)
        big = MnistCNN(image_size=8, scale=0.5, seed=0)
        assert small.dimension < big.dimension

    def test_backward_produces_gradients(self):
        model = ScalarModel(MnistCNN(image_size=8, scale=0.1, seed=0))
        x = np.random.default_rng(0).standard_normal((4, 1, 8, 8))
        y = np.array([0, 1, 2, 3])
        model.zero_grad()
        model.loss_and_grad(x, y)
        grads = model.grads.vector()
        assert np.linalg.norm(grads) > 0


class TestCifarCNN:
    def test_forward_shape(self):
        model = CifarCNN(image_size=8, scale=0.1, seed=0)
        out = ScalarModel(model).forward(np.zeros((3, 3, 8, 8)), training=False)
        assert out.shape == (3, 10)

    def test_rejects_bad_image_size(self):
        with pytest.raises(ValueError):
            CifarCNN(image_size=9)


class TestMiniVGG:
    def test_forward_shape(self):
        model = MiniVGG(image_size=8, num_classes=5, base_channels=2, blocks=2,
                        hidden=8, seed=0)
        out = ScalarModel(model).forward(np.zeros((2, 3, 8, 8)), training=False)
        assert out.shape == (2, 5)

    def test_block_count_validation(self):
        with pytest.raises(ValueError):
            MiniVGG(blocks=0)
        with pytest.raises(ValueError):
            MiniVGG(image_size=8, blocks=4)  # 8 not divisible by 16

    def test_deeper_has_more_conv_layers(self):
        shallow = MiniVGG(image_size=16, blocks=2, base_channels=2, hidden=8, seed=0)
        deep = MiniVGG(image_size=16, blocks=3, base_channels=2, hidden=8, seed=0)
        def convs(m):
            return [layer for layer in m.layers if isinstance(layer, Conv2D)]

        assert len(convs(deep)) > len(convs(shallow))


class TestModelEvaluate:
    def test_evaluate_on_empty_dataset(self):
        model = ScalarModel(LogisticRegressionMLP(input_dim=4, hidden=4, num_classes=2))
        loss, acc = model.evaluate(np.zeros((0, 4)), np.zeros(0, dtype=int))
        assert loss == 0.0 and acc == 0.0

    def test_evaluate_batches_cover_all_samples(self):
        model = ScalarModel(LogisticRegressionMLP(input_dim=4, hidden=4, num_classes=2, seed=0))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100, 4))
        y = rng.integers(0, 2, size=100)
        full_loss, full_acc = model.evaluate(x, y, batch_size=1000)
        batched_loss, batched_acc = model.evaluate(x, y, batch_size=7)
        assert batched_loss == pytest.approx(full_loss)
        assert batched_acc == pytest.approx(full_acc)

    def test_evaluate_does_not_change_parameters(self):
        model = ScalarModel(LogisticRegressionMLP(input_dim=4, hidden=4, num_classes=2, seed=0))
        before = model.get_vector()
        model.evaluate(np.ones((10, 4)), np.zeros(10, dtype=int))
        np.testing.assert_array_equal(model.get_vector(), before)


def _reference_evaluate(model, x, y, batch_size=256):
    """``ScalarModel.evaluate`` as it stood before the value-only loss: the mean
    log-probability and the float64 mean of the matches, written out."""
    n = x.shape[0]
    total_loss = correct = 0.0
    for start in range(0, n, batch_size):
        xb, yb = x[start : start + batch_size], y[start : start + batch_size]
        logits = model.forward(xb, training=False)
        log_probs = log_softmax(logits, axis=1)
        loss = -float(log_probs[np.arange(xb.shape[0]), yb].mean())
        total_loss += loss * xb.shape[0]
        correct += float((np.argmax(logits, axis=1) == yb).mean()) * xb.shape[0]
    return total_loss / n, correct / n


class TestEvaluateBitIdentity:
    """Evaluation sits in every golden trajectory, so its value is pinned to
    the bit against the composition it replaced."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("family", ["lr", "mnist_cnn"])
    def test_matches_reference_composition(self, family, dtype, n):
        rng = np.random.default_rng(n)
        with parameter_dtype(dtype):
            if family == "lr":
                model = LogisticRegressionMLP(input_dim=64, hidden=16, seed=1)
                x = rng.standard_normal((n, 64))
            else:
                model = MnistCNN(image_size=8, scale=0.1, seed=1)
                x = rng.standard_normal((n, 1, 8, 8))
        y = rng.integers(0, 10, size=n)
        model = ScalarModel(model)
        loss, acc = model.evaluate(x, y)
        assert (loss, acc) == _reference_evaluate(model, x, y)
        assert isinstance(loss, float) and isinstance(acc, float)

    def test_matches_training_loss_value(self):
        """The evaluation loss is the value the training loss reports."""
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((37, 10))
        y = rng.integers(0, 10, size=37)
        assert cross_entropy(logits, y) == softmax_cross_entropy(logits, y)[0]

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_out_of_range_labels_raise(self, bad):
        model = ScalarModel(LogisticRegressionMLP(input_dim=4, hidden=4, num_classes=10))
        y = np.zeros(300, dtype=int)
        y[-1] = bad  # in the second batch
        with pytest.raises(ValueError, match="out of range"):
            model.evaluate(np.zeros((300, 4)), y)
