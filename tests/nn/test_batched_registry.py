"""Kernel-table tests for the batched execution engine.

Every layer type of :mod:`repro.nn.layers` has one kernel in the engine's
fixed table, and every kernel sizes what it writes.  Each kernel is
exercised standalone: a minimal model containing the layer is trained one
local update on both the per-worker oracle and the batched engine, and the
resulting parameter vectors must match bit for bit (uniform per-worker
batch sizes, float64).  A model with an unknown layer fails to build with a
message naming it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import BatchedWorkerEngine, SequentialModel, batched, layers
from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
)

from oracle.scalar import col2im, scalar_layer


def test_every_layer_type_has_a_kernel_that_sizes_its_writes():
    """The engine has no fallback for a layer without a kernel, for a kernel
    that cannot size its writes (the lane gate and the evaluation block read
    ``member_writes``) or for a parametric kernel without ``skip_input_grad``."""
    defined = {
        cls for cls in vars(layers).values()
        if isinstance(cls, type) and issubclass(cls, Layer) and cls is not Layer
    }  # fmt: skip
    assert defined == set(batched._KERNELS)
    rng = np.random.default_rng(0)
    instances = [
        Dense("d", 4, 4, rng), ReLU("r"), Flatten("f"), Conv2D("c", 1, 2, 3, rng), MaxPool2D("p", 2)
    ]  # fmt: skip
    assert {type(layer) for layer in instances} == defined
    for layer in instances:
        kernel = batched._KERNELS[type(layer)](layer, 0)
        assert callable(kernel.member_writes)
        if layer.weight is not None:
            assert kernel.param_size and kernel.skip_input_grad is False  # until a lane sets it


# ----------------------------------------------------------------------
# One minimal model per supported layer type.  Each entry maps the layer
# name to (model factory, per-sample feature shape, number of classes).
# Factories are deterministic so two builds produce identical models.
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


LAYER_MODELS = {
    "dense": (_dense_model, (12,), 5),
    "relu": (_relu_model, (12,), 5),
    "flatten": (_flatten_model, (2, 4, 4), 5),
    "conv2d": (_conv2d_model, (2, 4, 4), 5),
    "conv2d_unpadded_strided": (_conv2d_unpadded_strided_model, (2, 4, 4), 5),
    "maxpool2d": (_maxpool_model, (2, 4, 4), 5),
}


@pytest.mark.parametrize("name", sorted(LAYER_MODELS))
def test_standalone_layer_forward_backward_step_bit_exact(name, scalar_engine):
    """Each supported layer's batched forward/backward/SGD-step sequence
    reproduces the per-worker oracle bit for bit (uniform batches, float64)."""
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
    kwargs = dict(learning_rate=0.15, local_steps=3, batch_size=8, seed=9)
    ref = scalar_engine(ref_model).run_group(
        ids, data, base, 2, out=np.empty((len(ids), base.size)), **kwargs
    )
    out = np.empty_like(ref)
    BatchedWorkerEngine.try_build(bat_model).run_group(ids, data, base, 2, out=out, **kwargs)
    np.testing.assert_array_equal(out, ref)


# ----------------------------------------------------------------------
# Unsupported models and registration behaviour
# ----------------------------------------------------------------------
class _UnknownActivation(Layer):
    """A layer type the registry has never seen."""

    def forward(self, x, training=True):
        return x

    def backward(self, grad_out):
        return grad_out


class TestFallback:
    """There is none: a model the engine cannot train fails to build."""

    def test_try_build_raises_for_unknown_layer(self):
        model = SequentialModel(
            [_UnknownActivation("mystery"), Dense("fc", 8, 3, np.random.default_rng(0))]
        )
        message = r"'mystery' \(_UnknownActivation\) has no batched kernel"
        with pytest.raises(ValueError, match=message):
            BatchedWorkerEngine.try_build(model)

    def test_direct_construction_raises_for_unknown_layer(self):
        model = SequentialModel(
            [_UnknownActivation("mystery"), Dense("fc", 8, 3, np.random.default_rng(0))]
        )
        with pytest.raises(ValueError, match="no batched kernel"):
            BatchedWorkerEngine(model)

    def test_a_model_without_parameters_is_refused(self):
        model = SequentialModel([ReLU("relu"), Flatten("flatten")])
        with pytest.raises(ValueError, match="no parameters"):
            BatchedWorkerEngine.try_build(model)

    def test_a_model_that_is_not_sequential_is_refused(self):
        class _Opaque:
            layers = [Dense("fc", 8, 3, np.random.default_rng(0))]

        with pytest.raises(ValueError, match="requires a SequentialModel"):
            BatchedWorkerEngine.try_build(_Opaque())

    def test_subclass_inherits_kernel_via_mro(self):
        class _StillReLU(ReLU):
            pass

        rng = np.random.default_rng(0)
        model = SequentialModel(
            [Dense("fc1", 8, 4, rng), _StillReLU("relu"), Dense("fc2", 4, 3, rng)]
        )
        lane = BatchedWorkerEngine.try_build(model)._lanes[0]
        assert type(lane.kernels[1]) is batched._BatchedReLU


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
        layer = scalar_layer(MaxPool2D("pool", pool))
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
    kernel.load(np.concatenate([layer.weight.ravel(), layer.bias.ravel()]))
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
