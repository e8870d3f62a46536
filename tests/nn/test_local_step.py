"""The engine's local update is the paper's: plain gradient descent, Eq. (4)/(5).

A worker's local model after ``τ`` iterations is ``w ← w − γ ∇F(w)`` applied
``τ`` times, with no momentum and no weight decay.  With a mini-batch at
least as large as the shard every sample is drawn, so the step is the
full-batch gradient step and can be computed in closed form from the
scalar oracle's ``loss_and_grad`` (``tests/oracle/scalar.py``).  The tests
here check the batched engine — the only trainer — against that closed
form on each registered model family, check
the :class:`~repro.nn.batched.StepTransform` stages FedProx and FedDyn
train with, and check that the rows of a merged call (``(G, q)`` bases, a
round key and an offset row per member) are the rows of calls of their own.
They also check the per-worker oracle, ``ScalarEngine``, on those
merged calls, since the fallback axis of the differential harness pins
whole histories to it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import BatchedWorkerEngine, CifarCNN, LogisticRegressionMLP, MiniVGG, MnistCNN
from repro.nn.batched import StepTransform

from oracle.scalar import ScalarModel

# One small model per registered family and the feature shape of a sample.
FAMILIES = {
    "lr": (lambda: LogisticRegressionMLP(input_dim=16, hidden=8, num_classes=10, seed=1), (16,)),
    "mnist_cnn": (lambda: MnistCNN(image_size=8, scale=0.1, seed=2), (1, 8, 8)),
    "cifar_cnn": (lambda: CifarCNN(image_size=8, scale=0.1, seed=3), (3, 8, 8)),
    "mini_vgg": (
        lambda: MiniVGG(
            image_size=8, in_channels=3, num_classes=10, base_channels=4, blocks=2, hidden=16,
            seed=4,
        ),
        (3, 8, 8),
    ),
}
SHARD = 12  # samples per worker; a batch of FULL draws every one of them
FULL = 16
LR = 0.1
TOL = 1e-9


def _shards(features, members, seed=5, n=SHARD):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal((n,) + features), rng.integers(0, 10, n)) for _ in range(members)
    ]


def _gradient_step(model, w, x, y, steps=1, scale=1.0, offset=None):
    """``steps`` closed-form full-batch steps ``w ← scale·w − LR·∇F(w) + offset``."""
    w, model = w.copy(), ScalarModel(model)
    for _ in range(steps):
        model.model.vector[...] = w
        model.zero_grad()
        model.loss_and_grad(x, y)
        w = scale * w - LR * model.grads.vector()
        if offset is not None:
            w += offset
    return w


def _run(engine, ids, data, base, keys, steps=1, batch=FULL, transform=None):
    out = np.empty((len(ids), base.shape[-1]))
    return engine.run_group(
        ids, data, base, keys,
        learning_rate=LR, local_steps=steps, batch_size=batch, seed=7, out=out,
        transform=transform,
    )  # fmt: skip


@pytest.fixture(params=sorted(FAMILIES))
def family(request):
    """``(factory, model, engine, feature shape)`` of one registered model family."""
    factory, features = FAMILIES[request.param]
    return factory, factory(), BatchedWorkerEngine.try_build(factory()), features


def test_one_full_batch_step_is_gradient_descent(family):
    _, model, engine, features = family
    ((x, y),) = _shards(features, 1)
    base = model.get_vector()
    (updated,) = _run(engine, [3], [(x, y)], base, 1)
    np.testing.assert_allclose(updated, _gradient_step(model, base, x, y), rtol=0, atol=TOL)
    assert not np.array_equal(updated, base)


def test_local_steps_repeat_the_step(family):
    """τ local iterations are τ gradient steps, each from the last one's model."""
    _, model, engine, features = family
    ((x, y),) = _shards(features, 1)
    base = model.get_vector()
    (updated,) = _run(engine, [3], [(x, y)], base, 1, steps=3)
    expected = _gradient_step(model, base, x, y, steps=3)
    np.testing.assert_allclose(updated, expected, rtol=0, atol=TOL)
    assert np.abs(updated - _gradient_step(model, base, x, y)).max() > 1e3 * TOL


def test_step_transform_is_affine_around_the_step(family):
    """``scale·w − γ∇F(w) + offset``, the gradient taken at the unscaled ``w``."""
    _, model, engine, features = family
    ((x, y),) = _shards(features, 1)
    base = model.get_vector()
    offset = np.random.default_rng(8).standard_normal(base.size) * 1e-2
    transform = StepTransform(scale=0.9, offset=offset)
    (updated,) = _run(engine, [3], [(x, y)], base, 1, transform=transform)
    expected = _gradient_step(model, base, x, y, scale=0.9, offset=offset)
    np.testing.assert_allclose(updated, expected, rtol=0, atol=TOL)


def _merged_call(model, features):
    """A call as merged cohorts make it: a base, a round key and an offset row
    per member, mini-batches smaller than the shards."""
    members = 4
    data = _shards(features, members)
    rng = np.random.default_rng(9)
    base = model.get_vector() + rng.standard_normal((members, model.dimension)) * 1e-2
    offsets = rng.standard_normal((members, model.dimension)) * 1e-3
    return [5, 1, 8, 2], data, base, [4, 4, 6, 9], StepTransform(scale=0.95, offset=offsets)


def test_merged_rows_are_the_rows_of_calls_of_their_own(family):
    _, model, engine, features = family
    ids, data, base, keys, transform = _merged_call(model, features)
    merged = _run(engine, ids, data, base, keys, steps=2, batch=5, transform=transform)
    for k in range(len(ids)):
        alone = _run(
            engine, [ids[k]], [data[k]], base[k], keys[k], steps=2, batch=5,
            transform=transform.rows(slice(k, k + 1)),
        )  # fmt: skip
        np.testing.assert_array_equal(merged[k], alone[0])


def test_the_per_worker_oracle_matches_the_engine_on_a_merged_call(family, scalar_engine):
    _, model, engine, features = family
    ids, data, base, keys, transform = _merged_call(model, features)
    merged = _run(engine, ids, data, base, keys, steps=2, batch=5, transform=transform)
    oracle = scalar_engine(model)
    oracle = _run(oracle, ids, data, base, keys, steps=2, batch=5, transform=transform)
    assert np.abs(merged - oracle).max() <= TOL
    assert not np.array_equal(merged, base)


def test_evaluation_between_calls_moves_no_training_bit(family):
    """Training and evaluation share the kernels' ``forward``, which no pass
    leaves state in: interleaved evaluations change neither side's bits."""
    factory, model, engine, features = family
    ids, data, base, keys, transform = _merged_call(model, features)
    x, y = _shards(features, 1, seed=10, n=20)[0]
    before = engine.evaluate(base, x, y)
    first = _run(engine, ids, data, base, keys, steps=2, batch=5, transform=transform)
    assert engine.evaluate(first, x, y) != before
    second = _run(engine, ids, data, base, keys, steps=2, batch=5, transform=transform)
    np.testing.assert_array_equal(first, second)
    assert engine.evaluate(base, x, y) == before
    fresh = BatchedWorkerEngine.try_build(factory())
    np.testing.assert_array_equal(
        _run(fresh, ids, data, base, keys, steps=2, batch=5, transform=transform), first
    )
