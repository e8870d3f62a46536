"""Numerical-equivalence tests for the vectorized group-training engine.

The contract (see ISSUE/docs/PERFORMANCE.md): batched group training matches
the sequential scalar path to <= 1e-9 per parameter in float64, including
ragged per-worker batch sizes, workers without data, engine reuse across
rounds and alternating group sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    BatchedWorkerEngine,
    LogisticRegressionMLP,
    MiniVGG,
    MnistCNN,
    SGD,
    batched_layer_supported,
    parameter_dtype,
)
from repro.nn.layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU

TOL = 1e-9


def scalar_reference(model, worker_id, x, y, base, *, seed, round_index, lr, steps, batch):
    """The exact per-worker update of BaseTrainer.local_update."""
    if x.shape[0] == 0:
        return base.copy()
    model.set_vector(base)
    opt = SGD(model.parameters, lr=lr)
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, worker_id, round_index, 0x10CA1])
    )
    n = x.shape[0]
    b = min(batch, n)
    for _ in range(steps):
        idx = rng.choice(n, size=b, replace=False)
        opt.zero_grad()
        model.loss_and_grad(x[idx], y[idx])
        opt.step()
    return model.get_vector()


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


def make_image_group(
    rng, num_workers, shape=(1, 8, 8), classes=10, min_n=5, max_n=30, uniform_n=None
):
    ids, data = [], []
    for k in range(num_workers):
        n = uniform_n if uniform_n is not None else int(rng.integers(min_n, max_n))
        data.append(
            (rng.standard_normal((n,) + shape), rng.integers(0, classes, n))
        )
        ids.append(k)
    return ids, data


def run_both_paths(model, ids, data, *, seed=11, round_index=3, lr=0.2, steps=3, batch=16):
    """Scalar-reference stack and batched run_group output for one group."""
    base = model.get_vector()
    ref = np.stack(
        [
            scalar_reference(
                model, w, x, y, base,
                seed=seed, round_index=round_index, lr=lr, steps=steps, batch=batch,
            )
            for w, (x, y) in zip(ids, data)
        ]
    )
    engine = BatchedWorkerEngine.try_build(model)
    assert engine is not None
    out = np.empty_like(ref)
    engine.run_group(
        ids, data, base, round_index,
        learning_rate=lr, local_steps=steps, batch_size=batch, seed=seed, out=out,
    )
    return ref, out


class TestEngineConstruction:
    def test_supported_for_mlp(self, mlp):
        assert BatchedWorkerEngine.try_build(mlp) is not None

    def test_supported_for_cnn(self):
        assert BatchedWorkerEngine.try_build(MnistCNN(image_size=8, scale=0.1)) is not None

    def test_supported_for_mini_vgg(self):
        model = MiniVGG(image_size=8, blocks=2, base_channels=4, hidden=16, num_classes=5)
        assert BatchedWorkerEngine.try_build(model) is not None

    def test_layer_support_predicate(self):
        rng = np.random.default_rng(0)
        assert batched_layer_supported(Dense("d", 4, 4, rng))
        assert batched_layer_supported(ReLU("r"))
        assert batched_layer_supported(Flatten("f"))
        assert batched_layer_supported(Conv2D("c", 1, 2, 3, rng))
        assert batched_layer_supported(MaxPool2D("p", 2))
        assert batched_layer_supported(Dropout("do", 0.5, rng))


class TestEquivalence:
    def test_matches_scalar_path_ragged_batches(self, mlp):
        rng = np.random.default_rng(0)
        ids, data = make_group(rng, 6)
        base = mlp.get_vector()
        ref = np.stack(
            [
                scalar_reference(
                    mlp, w, x, y, base, seed=11, round_index=3, lr=0.2, steps=4, batch=16
                )
                for w, (x, y) in zip(ids, data)
            ]
        )
        engine = BatchedWorkerEngine.try_build(mlp)
        out = np.empty_like(ref)
        engine.run_group(
            ids, data, base, 3,
            learning_rate=0.2, local_steps=4, batch_size=16, seed=11, out=out,
        )
        assert np.abs(out - ref).max() <= TOL

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

    def test_deterministic_and_reusable_across_group_sizes(self, mlp):
        rng = np.random.default_rng(2)
        ids, data = make_group(rng, 5)
        base = mlp.get_vector()
        engine = BatchedWorkerEngine.try_build(mlp)
        kw = dict(learning_rate=0.2, local_steps=3, batch_size=8, seed=7)
        out1 = np.empty((5, mlp.dimension))
        engine.run_group(ids, data, base, 2, out=out1, **kw)
        # Interleave a different group size, then repeat the original call:
        # cached buffers must not leak state between signatures.
        out_small = np.empty((2, mlp.dimension))
        engine.run_group(ids[:2], data[:2], base, 5, out=out_small, **kw)
        out2 = np.empty_like(out1)
        engine.run_group(ids, data, base, 2, out=out2, **kw)
        np.testing.assert_array_equal(out1, out2)
        out_small2 = np.empty_like(out_small)
        engine.run_group(ids[:2], data[:2], base, 5, out=out_small2, **kw)
        np.testing.assert_array_equal(out_small, out_small2)

    def test_multiple_rounds_match_scalar(self, mlp):
        """Iterated rounds (engine state reuse) stay within tolerance."""
        rng = np.random.default_rng(3)
        ids, data = make_group(rng, 4)
        engine = BatchedWorkerEngine.try_build(mlp)
        base = mlp.get_vector()
        out = np.empty((4, mlp.dimension))
        for round_index in (1, 2, 3):
            ref = np.stack(
                [
                    scalar_reference(
                        mlp, w, x, y, base,
                        seed=5, round_index=round_index, lr=0.1, steps=2, batch=8,
                    )
                    for w, (x, y) in zip(ids, data)
                ]
            )
            engine.run_group(
                ids, data, base, round_index,
                learning_rate=0.1, local_steps=2, batch_size=8, seed=5, out=out,
            )
            assert np.abs(out - ref).max() <= TOL
            # Advance the shared base like an aggregation round would.
            base = ref.mean(axis=0)

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


class TestConvEquivalence:
    """Batched Conv2D/MaxPool2D kernels against the scalar CNN path."""

    def test_cnn_uniform_batches_bit_exact(self):
        model = MnistCNN(image_size=8, scale=0.15, seed=0)
        rng = np.random.default_rng(0)
        ids, data = make_image_group(rng, 5, uniform_n=24)
        ref, out = run_both_paths(model, ids, data)
        np.testing.assert_array_equal(out, ref)

    def test_cnn_ragged_batches_within_tol(self):
        model = MnistCNN(image_size=8, scale=0.15, seed=0)
        rng = np.random.default_rng(1)
        ids, data = make_image_group(rng, 6)
        ref, out = run_both_paths(model, ids, data)
        assert np.abs(out - ref).max() <= TOL

    def test_mini_vgg_uniform_batches_bit_exact(self):
        model = MiniVGG(
            image_size=8, blocks=2, base_channels=4, hidden=16, num_classes=7, seed=1
        )
        rng = np.random.default_rng(2)
        ids, data = make_image_group(rng, 4, shape=(3, 8, 8), classes=7, uniform_n=20)
        ref, out = run_both_paths(model, ids, data)
        np.testing.assert_array_equal(out, ref)

    def test_large_group_tiled_matches_scalar(self):
        """Groups above the conv tile size split internally; results are
        identical because each member's per-slice operations do not depend
        on how the group is partitioned."""
        model = MnistCNN(image_size=8, scale=0.1, seed=3)
        rng = np.random.default_rng(3)
        ids, data = make_image_group(rng, 30, uniform_n=16)
        # One worker without data inside a tile keeps the base vector.
        data[17] = (np.zeros((0, 1, 8, 8)), np.zeros(0, dtype=np.int64))
        base = model.get_vector()
        ref, out = run_both_paths(model, ids, data, steps=2)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(out[17], base)
        assert not np.array_equal(out[0], base)

    def test_cnn_multiple_rounds_match_scalar(self):
        model = MnistCNN(image_size=8, scale=0.1, seed=4)
        rng = np.random.default_rng(4)
        ids, data = make_image_group(rng, 3, uniform_n=12)
        engine = BatchedWorkerEngine.try_build(model)
        base = model.get_vector()
        out = np.empty((3, model.dimension))
        for round_index in (1, 2, 3):
            ref = np.stack(
                [
                    scalar_reference(
                        model, w, x, y, base,
                        seed=5, round_index=round_index, lr=0.1, steps=2, batch=8,
                    )
                    for w, (x, y) in zip(ids, data)
                ]
            )
            engine.run_group(
                ids, data, base, round_index,
                learning_rate=0.1, local_steps=2, batch_size=8, seed=5, out=out,
            )
            np.testing.assert_array_equal(out, ref)
            base = ref.mean(axis=0)


    @pytest.mark.parametrize("tile", [1, 4, 5])
    def test_ragged_tie_heavy_group_is_tile_invariant_under_pad_to(self, tile):
        """Coarse-grid images (ties in every pooling window) in a ragged
        group: with the batch dimension pinned by ``pad_to`` every tile runs
        the full group's per-slice shapes, so how the group is split must
        not change a bit — and the result stays on the scalar path."""
        model = MnistCNN(image_size=8, scale=0.1, seed=6)
        rng = np.random.default_rng(6)
        ids, data = make_image_group(rng, 9, min_n=3, max_n=20)
        data = [(np.maximum(np.round(x), 0.0), y) for x, y in data]
        base = model.get_vector()
        kwargs = dict(learning_rate=0.2, local_steps=2, batch_size=16, seed=11, pad_to=16)
        outs = []
        for group_tile in (None, tile):
            engine = BatchedWorkerEngine.try_build(model)
            engine._tile = group_tile
            out = np.empty((len(ids), model.dimension))
            engine.run_group(ids, data, base, 3, out=out, **kwargs)
            outs.append(out)
        np.testing.assert_array_equal(outs[0], outs[1])
        ref = np.stack(
            [
                scalar_reference(
                    model, w, x, y, base, seed=11, round_index=3, lr=0.2, steps=2, batch=16
                )
                for w, (x, y) in zip(ids, data)
            ]
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
