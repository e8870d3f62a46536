"""Oracle tests of ``BatchedWorkerEngine.evaluate``: K snapshots in one pass.

The trainer records a history through this pass, so every loss and
accuracy must be the bits :meth:`Model.evaluate` gives for the same vector.
Each test names one mutation of the pass it catches (each was run against
a mutated copy of the engine).
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
from repro.nn.layers import Dense, Dropout, ReLU
from repro.nn.models import SequentialModel

MODELS = {
    "lr": (lambda: LogisticRegressionMLP(input_dim=64, hidden=16), (64,)),
    "mnist_cnn": (lambda: MnistCNN(image_size=8, scale=0.1), (1, 8, 8)),
    "mini_vgg": (
        lambda: MiniVGG(
            image_size=8, in_channels=3, num_classes=10, base_channels=4, blocks=2, hidden=16
        ),
        (3, 8, 8),
    ),
}
DTYPES = ["float64", "float32"]


def _setup(name, dtype, snapshots=3):
    """``(model, engine, snapshots, feature shape)``: the initial vector, then
    perturbations of it."""
    factory, features = MODELS[name]
    with parameter_dtype(dtype):
        model = factory()
    base = model.get_vector()
    rng = np.random.default_rng(7)
    noise = rng.standard_normal((snapshots, base.size)).astype(base.dtype)
    vectors = base + noise * np.arange(snapshots, dtype=base.dtype)[:, None] * 0.2
    return model, BatchedWorkerEngine(model), vectors, features


def _data(n, features, dtype, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n,) + features).astype(dtype), rng.integers(0, 10, n)


def _oracle(model, vectors, x, y):
    """Each snapshot through the scalar :meth:`Model.evaluate`."""
    pairs = []
    for vector in vectors:
        model.set_vector(vector)
        pairs.append(model.evaluate(x, y))
    return [loss for loss, _ in pairs], [acc for _, acc in pairs]


def _bits(result):
    """Both lists as bytes: equal NaNs compare equal, -0.0 differs from 0.0."""
    return np.array(result, dtype=np.float64).tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.parametrize("rows", [1, 255, 256, 257, 600])
def test_every_snapshot_matches_model_evaluate(name, dtype, rows):
    """Catches: the snapshots' means taken by one 2-D ``mean(axis=1)`` (255
    float64 rows move a bit) instead of a 1-D reduce each."""
    model, engine, vectors, features = _setup(name, dtype)
    x, y = _data(rows, features, dtype)
    assert _bits(engine.evaluate(vectors, x, y)) == _bits(_oracle(model, vectors, x, y))


def test_block_size_does_not_move_a_bit():
    """K=1 blocks, one block of 7 and a partial block after it agree.
    Catches: kernels left bound to the larger block a smaller one follows."""
    model, engine, vectors, features = _setup("lr", "float64", snapshots=7)
    x, y = _data(600, features, "float64")
    oracle = _oracle(model, vectors, x, y)
    assert _bits(engine.evaluate(vectors, x, y)) == _bits(oracle)
    tail = engine.evaluate(vectors[4:], x, y)
    assert _bits(tail) == _bits([values[4:] for values in oracle])
    ones = [engine.evaluate(vectors[i : i + 1], x, y) for i in range(7)]
    assert _bits([[r[0][0] for r in ones], [r[1][0] for r in ones]]) == _bits(oracle)
    assert engine.evaluate(vectors, x[:0], y[:0]) == ([0.0] * 7, [0.0] * 7)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", list(MODELS))
def test_all_equal_logits_hit_only_the_first_class(name, dtype):
    """Zero inputs through the zero-initialised biases: every logit ties, so
    ``np.argmax`` says class 0 for every row.  Catches: dropping the tie check
    (a hit whenever the label's shifted logit is 0)."""
    model, engine, vectors, features = _setup(name, dtype, snapshots=2)
    vectors[:] = model.get_vector()
    x, y = np.zeros((300,) + features, dtype), _data(300, features, dtype)[1]
    losses, accuracies = engine.evaluate(vectors, x, y)
    assert _bits((losses, accuracies)) == _bits(_oracle(model, vectors, x, y))
    assert accuracies[0] == np.count_nonzero(y == 0) / 300 < 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dtype", DTYPES)
def test_non_finite_logit_rows_take_the_argmax_rule(dtype):
    """Output biases of +inf (two classes), NaN and -inf (all classes), and
    input rows of NaN and of overflowing values.  Catches: dropping the
    ``np.argmax`` fallback for rows whose max is not finite."""
    model, engine, vectors, features = _setup("lr", dtype, snapshots=5)
    bias = slice(model.dimension - 10, model.dimension)  # the output layer's
    vectors[1, bias][[3, 7]] = np.inf
    vectors[2, bias][4] = np.nan
    vectors[3, bias] = -np.inf
    vectors[4, bias][0] = -np.inf
    x, y = _data(300, features, dtype)
    x[5] = np.nan
    x[9] = np.finfo(dtype).max
    assert _bits(engine.evaluate(vectors, x, y)) == _bits(_oracle(model, vectors, x, y))


def test_dropout_is_the_identity_at_evaluation():
    """Catches: running the Dropout kernel's training masks in the pass."""
    rng = np.random.default_rng(0)
    model = SequentialModel([
        Dense("fc1", 64, 16, rng), ReLU("relu1"), Dropout("drop", 0.5, np.random.default_rng(1)),
        Dense("out", 16, 10, rng, activationless_init=True),
    ])  # fmt: skip
    engine = BatchedWorkerEngine(model)
    vectors = model.get_vector() + rng.standard_normal((3, model.dimension))
    x, y = _data(300, (64,), "float64")
    assert _bits(engine.evaluate(vectors, x, y)) == _bits(_oracle(model, vectors, x, y))


def test_labels_out_of_range_fail_as_model_evaluate_does():
    model, engine, vectors, features = _setup("lr", "float64")
    x, y = _data(20, features, "float64")
    y[3] = 10
    with pytest.raises(ValueError):
        model.evaluate(x, y)
    with pytest.raises(ValueError, match="in-range class"):
        engine.evaluate(vectors, x, y)


def test_block_size_comes_from_the_byte_budget():
    """``small_groups``' 256 rows of 64 features give 16 float64 snapshots a
    pass, and a conv model 1–2.  Catches: a block not sized by the budget."""
    _, engine, _, _ = _setup("lr", "float64")
    assert engine.evaluation_block(np.zeros((256, 64))) == 16
    assert engine.evaluation_block(np.zeros((600, 64))) == 16  # batches of 256
    assert engine.evaluation_block(np.zeros((32, 64))) == 128
    _, cnn, _, _ = _setup("mnist_cnn", "float64")
    assert cnn.evaluation_block(np.zeros((150, 1, 8, 8))) in (1, 2)
