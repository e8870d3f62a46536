"""Unit tests of the vectorized group-training engine.

That batched group training reproduces the per-worker oracle — MLP, CNN
and MiniVGG models, ragged batches, groups spanning conv tiles, many rounds
— is the fallback axis of ``tests/differential/test_execution_axes.py``.
Here: construction, workers without data, data a model cannot take, tied
pooling windows and the float32 mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    BatchedWorkerEngine,
    LogisticRegressionMLP,
    MiniVGG,
    MnistCNN,
    parameter_dtype,
)

TOL = 1e-9


@pytest.fixture()
def mlp():
    return LogisticRegressionMLP(input_dim=16, hidden=12, num_classes=5, seed=0)


def make_group(rng, num_workers, features=16, classes=5, min_n=5, max_n=40):
    ids, data = [], []
    for k in range(num_workers):
        n = int(rng.integers(min_n, max_n))
        data.append(
            (rng.standard_normal((n, features)), rng.integers(0, classes, n))
        )
        ids.append(k)
    return ids, data


class TestEngineConstruction:
    def test_supported_for_mlp(self, mlp):
        assert BatchedWorkerEngine.try_build(mlp) is not None

    def test_supported_for_cnn(self):
        assert BatchedWorkerEngine.try_build(MnistCNN(image_size=8, scale=0.1)) is not None

    def test_supported_for_mini_vgg(self):
        model = MiniVGG(image_size=8, blocks=2, base_channels=4, hidden=16, num_classes=5)
        assert BatchedWorkerEngine.try_build(model) is not None


class TestRunGroup:
    def test_worker_without_data_returns_base(self, mlp):
        rng = np.random.default_rng(1)
        ids, data = make_group(rng, 3)
        ids.append(42)
        data.append((np.zeros((0, 16)), np.zeros(0, dtype=np.int64)))
        base = mlp.get_vector()
        engine = BatchedWorkerEngine.try_build(mlp)
        out = np.empty((4, mlp.dimension))
        engine.run_group(
            ids, data, base, 1,
            learning_rate=0.1, local_steps=2, batch_size=8, seed=0, out=out,
        )
        np.testing.assert_array_equal(out[3], base)
        assert not np.array_equal(out[0], base)

    def test_out_shape_validated(self, mlp):
        rng = np.random.default_rng(4)
        ids, data = make_group(rng, 3)
        engine = BatchedWorkerEngine.try_build(mlp)
        with pytest.raises(ValueError):
            engine.run_group(
                ids, data, mlp.get_vector(), 1,
                learning_rate=0.1, local_steps=1, batch_size=8, seed=0,
                out=np.empty((2, mlp.dimension)),
            )


def _cnn():
    return MnistCNN(image_size=8, scale=0.1)


#: ``(model factory, sample shape, message)``: data the model cannot take,
#: and the kernel error naming the layer and both sizes.
MISMATCHES = {
    "lr_features": (
        lambda: LogisticRegressionMLP(input_dim=784, hidden=8), (100,),
        "Dense layer 'fc1' expects 784 features, got 100",
    ),
    "cnn_channels": (
        _cnn, (3, 8, 8), r"Conv2D 'conv1' expects 1 input channels, got samples of shape \(3, 8"
    ),
    "cnn_image_size": (_cnn, (1, 12, 12), "Dense layer 'fc1' expects 20 features, got 45"),
    "cnn_pooling": (_cnn, (1, 6, 6), r"MaxPool2D 'pool2': spatial size \(3, 3\) is not divisible"),
}


@pytest.mark.parametrize("case", sorted(MISMATCHES))
@pytest.mark.parametrize("path", ["run_group", "evaluate"])
def test_a_shape_mismatch_names_the_layer(case, path):
    factory, shape, message = MISMATCHES[case]
    model = factory()
    engine = BatchedWorkerEngine.try_build(model)
    x, y = np.zeros((6,) + shape), np.zeros(6, dtype=int)
    with pytest.raises(ValueError, match=message):
        if path == "evaluate":
            engine.evaluate(model.get_vector()[None], x, y)
        else:
            engine.run_group(
                [0], [(x, y)], model.get_vector(), 1,
                learning_rate=0.1, local_steps=1, batch_size=4, seed=0,
                out=np.empty((1, model.dimension)),
            )  # fmt: skip


class TestConvEquivalence:
    """Batched Conv2D/MaxPool2D kernels against the scalar CNN path on tied
    pooling windows, which the random data of the differential harness
    never produces."""

    @pytest.mark.parametrize("tile", [3, 4, 5])
    def test_ragged_tie_heavy_group_is_tile_invariant(self, tile, scalar_engine):
        """Coarse-grid images (ties in every pooling window) in a ragged
        group: every tile of 3, 4 or 5 holds a member with a full batch of
        16, so every tile runs the full group's per-slice shapes and how the
        group is split must not change a bit — and the result stays on the
        scalar path."""
        model = MnistCNN(image_size=8, scale=0.1, seed=6)
        rng = np.random.default_rng(6)
        counts = [20, 3, 7, 12, 18, 5, 9, 11, 16]
        data = [
            (np.maximum(np.round(rng.standard_normal((n, 1, 8, 8))), 0.0), rng.integers(0, 10, n))
            for n in counts
        ]
        ids = list(range(len(counts)))
        base = model.get_vector()
        kwargs = dict(learning_rate=0.2, local_steps=2, batch_size=16, seed=11)
        outs = []
        for group_tile in (None, tile):
            engine = BatchedWorkerEngine.try_build(model)
            engine._tile = group_tile
            out = np.empty((len(ids), model.dimension))
            engine.run_group(ids, data, base, 3, out=out, **kwargs)
            outs.append(out)
        np.testing.assert_array_equal(outs[0], outs[1])
        ref = scalar_engine(model).run_group(
            ids, data, base, 3, out=np.empty_like(outs[0]), **kwargs
        )
        assert np.abs(outs[0] - ref).max() <= TOL


class TestFloat32Mode:
    def test_engine_runs_in_float32(self):
        with parameter_dtype("float32"):
            model = LogisticRegressionMLP(input_dim=16, hidden=8, num_classes=4, seed=0)
        assert model.get_vector().dtype == np.float32
        engine = BatchedWorkerEngine.try_build(model)
        assert engine is not None and engine.dtype == np.float32
        rng = np.random.default_rng(5)
        ids, data = make_group(rng, 3, classes=4)
        out = np.empty((3, model.dimension), dtype=np.float32)
        engine.run_group(
            ids, data, model.get_vector(), 1,
            learning_rate=0.1, local_steps=2, batch_size=8, seed=0, out=out,
        )
        assert np.isfinite(out).all()

    def test_float32_tracks_float64_loosely(self):
        """float32 mode follows the float64 trajectory to ~1e-4 after a few steps."""
        rng = np.random.default_rng(6)
        ids, data = make_group(rng, 3)
        results = {}
        for dtype in ("float64", "float32"):
            with parameter_dtype(dtype):
                model = LogisticRegressionMLP(input_dim=16, hidden=8, num_classes=5, seed=0)
            engine = BatchedWorkerEngine.try_build(model)
            out = np.empty((3, model.dimension), dtype=model.get_vector().dtype)
            engine.run_group(
                ids, data, model.get_vector(), 1,
                learning_rate=0.1, local_steps=3, batch_size=8, seed=1, out=out,
            )
            results[dtype] = out.astype(np.float64)
        assert np.abs(results["float64"] - results["float32"]).max() < 1e-3
