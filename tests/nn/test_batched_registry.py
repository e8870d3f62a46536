"""Kernel-registry tests for the batched execution engine.

Every registered layer kernel is exercised standalone: a minimal model
containing the layer is trained one local update on both the scalar path
and the batched engine, and the resulting parameter vectors must match
bit for bit (uniform per-worker batch sizes, float64).  Unknown layers
must keep the graceful ``try_build`` fallback, and third-party kernels
registered through :func:`repro.nn.register_batched_kernel` must compose
with the built-ins.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    BatchedWorkerEngine,
    SGD,
    SequentialModel,
    batched_layer_supported,
    register_batched_kernel,
)
from repro.nn import batched
from repro.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    col2im,
)


def scalar_reference(model, worker_id, x, y, base, *, seed, round_index, lr, steps, batch):
    """The exact per-worker update of BaseTrainer.local_update."""
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


# ----------------------------------------------------------------------
# One minimal model per supported layer type.  Each entry maps the layer
# name to (model factory, per-sample feature shape, number of classes).
# Factories are deterministic so two builds produce identical models —
# required for Dropout, whose kernel consumes the layer's own generator.
# ----------------------------------------------------------------------
def _dense_model():
    return SequentialModel([Dense("fc", 12, 5, np.random.default_rng(0))])


def _relu_model():
    rng = np.random.default_rng(1)
    return SequentialModel(
        [Dense("fc1", 12, 9, rng), ReLU("relu"), Dense("fc2", 9, 5, rng)]
    )


def _flatten_model():
    return SequentialModel(
        [Flatten("flatten"), Dense("fc", 2 * 4 * 4, 5, np.random.default_rng(2))]
    )


def _conv2d_model():
    rng = np.random.default_rng(3)
    return SequentialModel(
        [
            Conv2D("conv", 2, 4, 3, rng, padding=1),
            Flatten("flatten"),
            Dense("fc", 4 * 4 * 4, 5, rng),
        ]
    )


def _conv2d_unpadded_strided_model():
    # Two stacked convolutions so the second one (stride 2, no padding)
    # exercises the generic col2im input-gradient path — a model's first
    # parametric layer skips input gradients entirely.
    rng = np.random.default_rng(4)
    return SequentialModel(
        [
            Conv2D("conv1", 2, 3, 3, rng, padding=1),
            ReLU("relu"),
            Conv2D("conv2", 3, 3, 2, rng, stride=2, padding=0),
            Flatten("flatten"),
            Dense("fc", 3 * 2 * 2, 5, rng),
        ]
    )


def _maxpool_model():
    return SequentialModel(
        [
            MaxPool2D("pool", 2),
            Flatten("flatten"),
            Dense("fc", 2 * 2 * 2, 5, np.random.default_rng(5)),
        ]
    )


def _dropout_model():
    rng = np.random.default_rng(6)
    drop_rng = np.random.default_rng(0xD0)
    return SequentialModel(
        [
            Flatten("flatten"),
            Dense("fc1", 2 * 4 * 4, 10, rng),
            ReLU("relu"),
            Dropout("drop", 0.4, drop_rng),
            Dense("fc2", 10, 5, rng),
        ]
    )


def _two_dropout_model():
    # Two Dropout layers with their own generators: each layer's stream is
    # replayed independently, which matches the scalar order exactly.
    rng = np.random.default_rng(7)
    return SequentialModel(
        [
            Flatten("flatten"),
            Dense("fc1", 2 * 4 * 4, 12, rng),
            Dropout("drop1", 0.25, np.random.default_rng(0xD1)),
            ReLU("relu"),
            Dense("fc2", 12, 8, rng),
            Dropout("drop2", 0.5, np.random.default_rng(0xD2)),
            Dense("fc3", 8, 5, rng),
        ]
    )


LAYER_MODELS = {
    "dense": (_dense_model, (12,), 5),
    "dropout_two_layers": (_two_dropout_model, (2, 4, 4), 5),
    "relu": (_relu_model, (12,), 5),
    "flatten": (_flatten_model, (2, 4, 4), 5),
    "conv2d": (_conv2d_model, (2, 4, 4), 5),
    "conv2d_unpadded_strided": (_conv2d_unpadded_strided_model, (2, 4, 4), 5),
    "maxpool2d": (_maxpool_model, (2, 4, 4), 5),
    "dropout": (_dropout_model, (2, 4, 4), 5),
}


@pytest.mark.parametrize("name", sorted(LAYER_MODELS))
def test_standalone_layer_forward_backward_step_bit_exact(name):
    """Each supported layer's batched forward/backward/SGD-step sequence
    reproduces the scalar path bit for bit (uniform batches, float64)."""
    factory, feat, classes = LAYER_MODELS[name]
    rng = np.random.default_rng(42)
    ids, data = [], []
    for k in range(4):
        data.append(
            (rng.standard_normal((18,) + feat), rng.integers(0, classes, 18))
        )
        ids.append(k)
    ref_model = factory()
    bat_model = factory()
    base = ref_model.get_vector()
    np.testing.assert_array_equal(base, bat_model.get_vector())
    ref = np.stack(
        [
            scalar_reference(
                ref_model, w, x, y, base,
                seed=9, round_index=2, lr=0.15, steps=3, batch=8,
            )
            for w, (x, y) in zip(ids, data)
        ]
    )
    engine = BatchedWorkerEngine.try_build(bat_model)
    assert engine is not None, f"no batched kernel for {name}"
    out = np.empty_like(ref)
    engine.run_group(
        ids, data, base, 2,
        learning_rate=0.15, local_steps=3, batch_size=8, seed=9, out=out,
    )
    np.testing.assert_array_equal(out, ref)


# ----------------------------------------------------------------------
# Fallback and registration behaviour
# ----------------------------------------------------------------------
class _UnknownActivation(Layer):
    """A layer type the registry has never seen."""

    def forward(self, x, training=True):
        return x

    def backward(self, grad_out):
        return grad_out


class TestFallback:
    def test_unknown_layer_not_supported(self):
        assert not batched_layer_supported(_UnknownActivation("mystery"))

    def test_try_build_returns_none_for_unknown_layer(self):
        model = SequentialModel(
            [_UnknownActivation("mystery"), Dense("fc", 8, 3, np.random.default_rng(0))]
        )
        assert BatchedWorkerEngine.try_build(model) is None

    def test_direct_construction_raises_for_unknown_layer(self):
        model = SequentialModel(
            [_UnknownActivation("mystery"), Dense("fc", 8, 3, np.random.default_rng(0))]
        )
        with pytest.raises(ValueError, match="no batched kernel"):
            BatchedWorkerEngine(model)

    def test_a_model_without_parameters_is_refused(self):
        model = SequentialModel([ReLU("relu"), Flatten("flatten")])
        assert BatchedWorkerEngine.try_build(model) is None
        with pytest.raises(ValueError, match="no parameters"):
            BatchedWorkerEngine(model)

    def test_a_model_that_is_not_sequential_is_refused(self):
        class _Opaque:
            layers = [Dense("fc", 8, 3, np.random.default_rng(0))]

        assert BatchedWorkerEngine.try_build(_Opaque()) is None
        with pytest.raises(ValueError, match="requires a SequentialModel"):
            BatchedWorkerEngine(_Opaque())

    def test_subclass_inherits_kernel_via_mro(self):
        class _StillReLU(ReLU):
            pass

        assert batched_layer_supported(_StillReLU("relu"))

    def test_shared_dropout_rng_falls_back_to_scalar(self):
        """Two Dropout layers sharing one generator cannot be replayed
        layer-by-layer in the scalar stream order, so try_build refuses."""
        rng = np.random.default_rng(0)
        shared = np.random.default_rng(1)
        model = SequentialModel(
            [
                Dense("fc1", 8, 8, rng),
                Dropout("d1", 0.3, shared),
                Dense("fc2", 8, 4, rng),
                Dropout("d2", 0.3, shared),
                Dense("fc3", 4, 3, rng),
            ]
        )
        assert BatchedWorkerEngine.try_build(model) is None
        with pytest.raises(ValueError, match="share one random generator"):
            BatchedWorkerEngine(model)

    def test_distinct_dropout_rngs_supported(self):
        rng = np.random.default_rng(0)
        model = SequentialModel(
            [
                Dense("fc1", 8, 8, rng),
                Dropout("d1", 0.3, np.random.default_rng(1)),
                Dense("fc2", 8, 4, rng),
                Dropout("d2", 0.3, np.random.default_rng(2)),
                Dense("fc3", 4, 3, rng),
            ]
        )
        assert BatchedWorkerEngine.try_build(model) is not None


class TestRegistration:
    def test_registered_kernel_composes_with_builtins(self):
        class _Identity(Layer):
            def forward(self, x, training=True):
                return x

            def backward(self, grad_out):
                return grad_out

        @register_batched_kernel(_Identity)
        class _BatchedIdentity:
            param_size = 0

            def __init__(self, layer, offset):
                pass

            def forward(self, x):
                return x

            def backward(self, grad_out):
                return grad_out

        from repro.nn.batched import _KERNEL_REGISTRY

        try:
            assert batched_layer_supported(_Identity("id"))

            def factory():
                return SequentialModel(
                    [_Identity("id"), Dense("fc", 6, 4, np.random.default_rng(1))]
                )

            model = factory()
            engine = BatchedWorkerEngine.try_build(model)
            assert engine is not None
            rng = np.random.default_rng(3)
            ids = [0, 1]
            data = [
                (rng.standard_normal((10, 6)), rng.integers(0, 4, 10))
                for _ in ids
            ]
            base = model.get_vector()
            ref = np.stack(
                [
                    scalar_reference(
                        model, w, x, y, base,
                        seed=1, round_index=1, lr=0.1, steps=2, batch=4,
                    )
                    for w, (x, y) in zip(ids, data)
                ]
            )
            out = np.empty_like(ref)
            engine.run_group(
                ids, data, base, 1,
                learning_rate=0.1, local_steps=2, batch_size=4, seed=1, out=out,
            )
            np.testing.assert_array_equal(out, ref)
        finally:
            _KERNEL_REGISTRY.pop(_Identity, None)

    def test_stateful_kernel_leaves_evaluation_to_model_evaluate(self, small_experiment):
        """A registered kernel with a training hook, holding a training-time
        shift its layer drops at inference: the engine declines to evaluate
        and the trainer's record is :meth:`Model.evaluate`'s.  Catches: the
        evaluation pass running every kernel but Dropout's, hooks or not."""

        class _Shift(Layer):
            def forward(self, x, training=True):
                return x + 1.0 if training else x

            def backward(self, grad_out):
                return grad_out

        @register_batched_kernel(_Shift)
        class _BatchedShift:
            param_size = 0

            def __init__(self, layer, offset):
                self.shift = 1.0

            def begin_step(self, step):
                self.shift = 1.0

            def forward(self, x):
                return x + self.shift

            def backward(self, grad_out):
                return grad_out

        from repro.fl.base import BaseTrainer
        from repro.nn.batched import _KERNEL_REGISTRY

        try:
            factory = small_experiment.model_factory
            small_experiment.model_factory = lambda: SequentialModel(
                [_Shift("shift"), *factory().layers]
            )
            trainer = BaseTrainer(small_experiment)
            assert trainer._engine is not None and trainer._evaluator is None
            x, y = trainer._eval_x, trainer._eval_y
            assert trainer._engine.evaluation_block(x) == 0
            with pytest.raises(ValueError, match="training-time state"):
                trainer._engine.evaluate(trainer._eval_block, x, y)
            record = trainer.record_round(0, 0.0, force_eval=True)
            model = small_experiment.model_factory()
            model.set_vector(trainer.global_vector)
            assert (record.loss, record.accuracy) == model.evaluate(x, y)
        finally:
            _KERNEL_REGISTRY.pop(_Shift, None)


# ----------------------------------------------------------------------
# The data-movement half of the conv/pool kernels, against the scalar layers
# ----------------------------------------------------------------------
def _tie_heavy(rng, shape, dtype):
    """Post-ReLU-like values on a coarse grid: zeros and repeated maxima."""
    x = np.maximum(rng.integers(-3, 3, size=shape), 0).astype(dtype)
    x[0, -2:] = 0.0  # what zeroed padding rows look like: all-equal windows
    x[-1, 0] = 2.0
    return x


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("pool", [2, 3])
def test_maxpool_kernel_matches_scalar_layer_on_ties(pool, dtype):
    rng = np.random.default_rng(pool)
    x = _tie_heavy(rng, (3, 5, 2, 2 * pool, 3 * pool), dtype)
    grad_out = rng.standard_normal((3, 5, 2, 2, 3)).astype(dtype)
    kernel = batched._BatchedMaxPool2D(MaxPool2D("pool", pool), 0)
    for _ in range(2):  # the second call runs on the cached buffers
        out = kernel.forward(x)
        grad = kernel.backward(grad_out)
    assert out.dtype == grad.dtype == dtype
    shares = set()
    for g in range(x.shape[0]):
        layer = MaxPool2D("pool", pool)
        assert np.array_equal(out[g], layer.forward(x[g]))
        mask = layer._cache[0]
        shares.update(np.unique(mask).tolist())
        # The scalar mask is float64 whatever the model's dtype; the kernel
        # keeps the model's, so float32 compares against the rounded mask.
        expected = mask.astype(dtype) * grad_out[g][:, :, :, None, :, None]
        assert np.array_equal(grad[g], expected.reshape(x[g].shape))
        if dtype == np.float64:
            assert np.array_equal(grad[g], layer.backward(grad_out[g]))
    assert {0.0, 1.0, 1.0 / 2, 1.0 / 3, 1.0 / pool**2} <= shares


def _conv_kernel(channels, out_channels, size, padding, group, batch, rng, kernel_size=3):
    layer = Conv2D("conv", channels, out_channels, kernel_size, rng, padding=padding)
    kernel = batched._BatchedConv2D(layer, 0)
    kernel.bind(group, batch, np.dtype(np.float64))
    kernel.load(np.concatenate([layer.weight.value.ravel(), layer.bias.value.ravel()]))
    x = rng.standard_normal((group, batch, channels, size, size))
    return kernel, x


# (size, padding, kernel size): the last two have kernel rows that reach no
# input row at all (the kernel is taller than image plus one border).
GEOMETRIES = [(s, p, 3) for s in (4, 8, 12) for p in (0, 2)] + [(2, 3, 7), (1, 2, 5)]


@pytest.mark.parametrize("size,padding,ksize", GEOMETRIES)
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("group,batch", [(1, 1), (3, 4)])
def test_stride1_col2im_matches_scalar_col2im(channels, size, padding, ksize, group, batch):
    rng = np.random.default_rng(size + padding)
    kernel, x = _conv_kernel(channels, 2, size, padding, group, batch, rng, ksize)
    kernel.forward(x)
    grad_cols = kernel._geo["grad_cols"]
    # Inexact sums (the order of the adds shows), signed zeros and exact
    # cancellations; the first image gets nothing but -0.0, which a
    # zero-filled accumulator turns into +0.0.
    values = np.array([0.0, -0.0, 1.5, -1.5, 0.1, rng.standard_normal()])
    grad_cols[...] = rng.standard_normal(grad_cols.shape)
    special = rng.random(grad_cols.shape) < 0.4
    grad_cols[special] = rng.choice(values, size=int(special.sum()))
    grad_cols[0, : grad_cols.shape[1] // batch] = -0.0
    got = kernel._col2im(grad_cols)
    expected = col2im(
        grad_cols.reshape(-1, grad_cols.shape[-1]),
        (group * batch, channels, size, size), (ksize, ksize), 1, padding,
    )  # fmt: skip
    got = got.reshape(expected.shape)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert not got[0].any() and not np.signbit(got[0]).any()


def test_conv_bias_gradient_sums_rows_in_sequence():
    """The bias gradient is the scalar layer's row-sequential
    ``grad_mat.sum(axis=0)``; a pairwise sum over the same 2048 values
    rounds differently, so this fails if the reduce axis becomes the
    inner loop."""
    rng = np.random.default_rng(0)
    group, batch, co = 3, 32, 2
    kernel, x = _conv_kernel(1, co, 8, 1, group, batch, rng)
    kernel.skip_input_grad = True
    kernel.forward(x)
    grad_out = rng.standard_normal((group, batch, co, 8, 8)) * 10.0 ** rng.integers(
        -6, 6, size=(group, batch, co, 8, 8)
    )
    kernel.backward(grad_out)
    for g in range(group):
        grad_mat = grad_out[g].transpose(0, 2, 3, 1).reshape(-1, co)
        assert grad_mat.shape[0] >= 2048
        sequential = grad_mat.sum(axis=0)
        pairwise = np.ascontiguousarray(grad_mat.T).sum(axis=1)
        assert not np.array_equal(sequential, pairwise)
        assert np.array_equal(kernel.grad_bias[g], sequential)


@pytest.mark.parametrize(
    "seed,ids,round_index",
    [
        (11, [0, 3, 7], 5),
        (2**32 - 1, [2**32 - 1, 0], 2**32 - 1),
        (2**32 + 5, [1, 2], 3),  # a seed of two entropy words
        (7, [2**32, 4], 3),
        (7, [1, 2], 2**40),
    ],
)
def test_worker_streams_equal_the_list_form(seed, ids, round_index):
    streams = batched._worker_streams(seed, ids, round_index)
    for worker, rng in zip(ids, streams):
        reference = np.random.default_rng(
            np.random.SeedSequence([seed, worker, round_index, 0x10CA1])
        )
        assert rng.bit_generator.state == reference.bit_generator.state


def test_worker_streams_reject_a_negative_seed_like_the_list_form():
    with pytest.raises(ValueError):
        batched._worker_streams(-1, [0, 1], 3)
