"""The scalar forward/backward stack: the oracle of the batched engine.

``repro.nn`` trains and evaluates through one path, the kernels of
:mod:`repro.nn.batched`; its layers and models are specs (names, shapes,
hyper-parameters, initialised parameters).  This module is the per-sample
math those kernels lift to a leading group axis, and the reference they
are checked against: the losses (fused softmax cross-entropy, Eq. (1)/(2))
and accuracy, ``im2col`` / ``col2im``, each built-in layer's scalar
``forward`` / ``backward`` (:func:`scalar_layer`; gradients accumulate into
a :class:`Gradients` buffer), :class:`ScalarModel` over a spec model, and
:class:`ScalarEngine`, the engine's ``run_group`` / ``evaluate`` with each
member trained alone.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.batched import StepTransform
from repro.nn.layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU
from repro.nn.models import EVAL_BATCH_SIZE, SequentialModel


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of raw ``logits`` (``(batch, classes)``) against
    integer ``labels`` (``(batch,)``): the value :func:`softmax_cross_entropy`
    returns, without the gradient.  :meth:`ScalarModel.evaluate` takes it per
    batch."""
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError(f"labels shape {labels.shape} incompatible with logits {logits.shape}")
    n, k = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError("label values out of range for the given logits")
    return -float(log_softmax(logits, axis=1)[np.arange(n), labels].mean())


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient with respect to the logits
    (same shape as ``logits``).  Takes the arguments of :func:`cross_entropy`."""
    loss = cross_entropy(logits, labels)
    n = logits.shape[0]
    grad = softmax(logits, axis=1)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def cross_entropy_from_probs(probs: np.ndarray, labels: np.ndarray) -> float:
    """Cross-entropy given already-normalized probabilities (evaluation only)."""
    n = probs.shape[0]
    idx = np.arange(n)
    clipped = np.clip(probs[idx, np.asarray(labels)], 1e-12, 1.0)
    return -float(np.log(clipped).mean())


def accuracy(logits_or_probs: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy."""
    preds = np.argmax(logits_or_probs, axis=1)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError("prediction/label shape mismatch")
    if labels.size == 0:
        return 0.0
    # An integer count over an integer size: the correctly rounded quotient,
    # which is also what the float64 mean of the boolean matches rounds to.
    return np.count_nonzero(preds == labels) / labels.size


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: int = 1, padding: int = 0
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Rearrange the patches of an ``(N, C, H, W)`` batch into columns.

    Returns ``cols, (out_h, out_w)``; ``cols`` has shape
    ``(N * out_h * out_w, C * kh * kw)`` for ``kernel = (kh, kw)``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel {kernel} with stride {stride}, padding {padding} does not "
            f"fit input of spatial size {(h, w)}"
        )
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant")
    # Use stride tricks to build a (N, C, out_h, out_w, kh, kw) view without
    # copying, then reorder once into the column matrix.
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)
    return np.ascontiguousarray(cols), (out_h, out_w)


def col2im(
    cols: np.ndarray, input_shape: Tuple[int, int, int, int], kernel: Tuple[int, int],
    stride: int = 1, padding: int = 0,
) -> np.ndarray:  # fmt: skip
    """Inverse of :func:`im2col`: scatter-add columns back into an image."""
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols6 = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, :, :, :, i, j]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def parameters_of(layers: Sequence[Layer]) -> List[np.ndarray]:
    """The parameter arrays of ``layers`` in the model vector's layout:
    each layer's ``weight``, then its ``bias``."""
    return [
        array
        for layer in layers
        for array in (getattr(layer, "weight", None), getattr(layer, "bias", None))
        if array is not None
    ]


class Gradients:
    """One flat gradient buffer laid out like the parameters it is built
    over, with a view per parameter array; zeroed in place."""

    def __init__(self, parameters: Sequence[np.ndarray]) -> None:
        dtype = np.result_type(*parameters) if parameters else np.float64
        self._flat = np.zeros(sum(p.size for p in parameters), dtype)
        self._views = []
        offset = 0
        for p in parameters:
            self._views.append((p, self._flat[offset : offset + p.size].reshape(p.shape)))
            offset += p.size

    def __getitem__(self, param: np.ndarray) -> np.ndarray:
        return next(view for p, view in self._views if p is param)

    def accumulate(self, param: np.ndarray, delta: np.ndarray) -> None:
        """Add ``delta`` into ``param``'s view in place."""
        view = self[param]
        np.add(view, delta, out=view)

    def zero(self) -> None:
        self._flat.fill(0.0)

    def vector(self) -> np.ndarray:
        """The flat buffer itself, in layout order."""
        return self._flat


class _ScalarLayer:
    """A spec layer's scalar passes.  The spec's attributes (name, shapes,
    parameters) read through; parameter gradients go to ``grads``."""

    def __init__(self, layer: Layer, grads: Gradients) -> None:
        self.spec = layer
        self.grads = grads

    def __getattr__(self, name: str):
        return getattr(self.spec, name)


class ScalarDense(_ScalarLayer):
    """``y = x @ W + b``."""

    _cache_x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Dense layer {self.name!r} expects 2-D input, got shape {x.shape}")
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense layer {self.name!r} expects {self.in_features} features, "
                f"got {x.shape[1]}"
            )
        self._cache_x = x if training else None
        out = x @ self.weight
        if self.bias is not None:
            out += self.bias
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_x is None:
            raise RuntimeError(
                "backward called before forward (or forward ran with training=False)"
            )
        x = self._cache_x
        self.grads.accumulate(self.weight, x.T @ grad_out)
        if self.bias is not None:
            self.grads.accumulate(self.bias, grad_out.sum(axis=0))
        return grad_out @ self.weight.T


class ScalarReLU(_ScalarLayer):
    """Element-wise rectified linear unit; the backward mask lives in a buffer
    re-allocated only when the batch shape changes."""

    _mask: Optional[np.ndarray] = None
    _mask_buf: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            if self._mask_buf is None or self._mask_buf.shape != x.shape:
                self._mask_buf = np.empty(x.shape, dtype=bool)
            np.greater(x, 0.0, out=self._mask_buf)
            self._mask = self._mask_buf
        else:
            self._mask = None
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class ScalarFlatten(_ScalarLayer):
    """Flatten all dimensions except the batch dimension."""

    _shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)


class ScalarConv2D(_ScalarLayer):
    """2-D convolution ``(N, C_in, H, W) -> (N, C_out, H', W')`` via im2col."""

    _cache: Optional[Tuple[np.ndarray, Tuple[int, ...], Tuple[int, int]]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D {self.name!r} expects input (N, {self.in_channels}, H, W), "
                f"got {x.shape}"
            )
        k = (self.kernel_size, self.kernel_size)
        cols, (out_h, out_w) = im2col(x, k, self.stride, self.padding)
        w_mat = self.weight.reshape(self.out_channels, -1)
        out = cols @ w_mat.T
        if self.bias is not None:
            out += self.bias
        n = x.shape[0]
        out = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        if training:
            self._cache = (cols, x.shape, (out_h, out_w))
        else:
            self._cache = None
        return np.ascontiguousarray(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols, input_shape, (out_h, out_w) = self._cache
        n = input_shape[0]
        grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, self.out_channels)
        w_mat = self.weight.reshape(self.out_channels, -1)
        self.grads.accumulate(self.weight, (grad_mat.T @ cols).reshape(self.weight.shape))
        if self.bias is not None:
            self.grads.accumulate(self.bias, grad_mat.sum(axis=0))
        grad_cols = grad_mat @ w_mat
        k = (self.kernel_size, self.kernel_size)
        return col2im(grad_cols, input_shape, k, self.stride, self.padding)


class ScalarMaxPool2D(_ScalarLayer):
    """Non-overlapping max pooling; both spatial dimensions must be divisible
    by ``pool_size``, and ``forward`` names the offending shape if not."""

    _cache: Optional[Tuple[np.ndarray, Tuple[int, ...], Tuple[int, int]]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        p = self.pool_size
        if h % p != 0 or w % p != 0:
            raise ValueError(
                f"MaxPool2D {self.name!r}: spatial size {(h, w)} is not divisible "
                f"by pool size {p}"
            )
        out_h, out_w = h // p, w // p
        windows = x.reshape(n, c, out_h, p, out_w, p)
        out = windows.max(axis=(3, 5))
        if training:
            # Remember which element in each window was the max.  Ties are
            # broken toward the first occurrence by comparing against the max
            # and normalizing the mask so the gradient is not double counted.
            mask = windows == out[:, :, :, None, :, None]
            counts = mask.sum(axis=(3, 5), keepdims=True)
            self._cache = (mask / counts, x.shape, (out_h, out_w))
        else:
            self._cache = None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        mask, input_shape, _ = self._cache
        grad = mask * grad_out[:, :, :, None, :, None]
        return grad.reshape(input_shape)


_SCALAR_LAYERS = {
    Dense: ScalarDense, ReLU: ScalarReLU, Flatten: ScalarFlatten, Conv2D: ScalarConv2D,
    MaxPool2D: ScalarMaxPool2D,
}  # fmt: skip


def scalar_layer(layer: Layer, grads: Optional[Gradients] = None):
    """``layer``'s scalar passes, accumulating into ``grads`` (a buffer of its
    own by default).  A layer type outside the built-ins is its own oracle:
    it brings ``forward`` / ``backward`` with it."""
    for klass in type(layer).__mro__:
        if klass in _SCALAR_LAYERS:
            return _SCALAR_LAYERS[klass](layer, grads or Gradients(parameters_of([layer])))
    return layer


class ScalarModel:
    """A spec model's scalar passes.  ``vector``, ``get_vector`` and
    ``dimension`` are the model's; gradients go to ``grads``, laid out like
    ``vector``."""

    def __init__(self, model: SequentialModel) -> None:
        self.model = model
        self.grads = Gradients(parameters_of(model.layers))
        self.layers: List = [scalar_layer(layer, self.grads) for layer in model.layers]
        # Inputs are cast to the parameter dtype so float32 simulation mode
        # keeps the whole forward/backward pass in float32.
        self._input_dtype = model.vector.dtype

    def __getattr__(self, name: str):
        return getattr(self.model, name)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = np.asarray(x, dtype=self._input_dtype)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_logits: np.ndarray) -> None:
        grad = grad_logits
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def loss_and_grad(self, x: np.ndarray, y: np.ndarray) -> float:
        """Run a full forward/backward pass and return the mean loss; gradients
        accumulate in place (``zero_grad`` between batches)."""
        logits = self.forward(x, training=True)
        loss, grad = softmax_cross_entropy(logits, y)
        self.backward(grad)
        return loss

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = EVAL_BATCH_SIZE
    ) -> Tuple[float, float]:
        """Compute (loss, accuracy) over a dataset without touching gradients."""
        n = x.shape[0]
        if n == 0:
            return 0.0, 0.0
        total_loss = 0.0
        correct = 0.0
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = self.forward(xb, training=False)
            total_loss += cross_entropy(logits, yb) * xb.shape[0]
            correct += accuracy(logits, yb) * xb.shape[0]
        return total_loss / n, correct / n

    def zero_grad(self) -> None:
        self.grads.zero()


class ScalarEngine:
    """The per-worker oracle of :class:`~repro.nn.BatchedWorkerEngine`.

    ``run_group`` (the engine's signature) trains each member alone through
    :class:`ScalarModel`: ``loss_and_grad`` on the mini-batch the engine
    draws, then the :class:`~repro.nn.batched.StepTransform` stages around a
    plain ``w -= lr * grad`` step.  A ``(G, q)`` base, a round key per member
    and a ``(G, q)`` offset give each member its own row, as merged cohorts
    do.  ``evaluate`` is ``ScalarModel.evaluate`` on each row.  Install it on
    a trainer as ``trainer._engine`` to run a whole history on it.
    """

    def __init__(self, model):
        self.model = ScalarModel(model)

    def run_group(
        self, worker_ids, worker_data, base_vector, round_index, *,
        learning_rate, local_steps, batch_size, seed, out, transform=None,
    ):  # fmt: skip
        vector, grads = self.model.vector, self.model.grads
        keys = [round_index] * len(worker_ids) if np.ndim(round_index) == 0 else round_index
        for k, (worker, key) in enumerate(zip(worker_ids, keys)):
            x, y = worker_data[k]
            # Copied in before row k of ``out`` (maybe the base itself) is written.
            vector[...] = base_vector if base_vector.ndim == 1 else base_vector[k]
            step = transform.rows(k) if transform is not None else StepTransform()
            rng = np.random.default_rng(np.random.SeedSequence([seed, worker, key, 0x10CA1]))
            for _ in range(local_steps if len(x) else 0):
                idx = rng.choice(len(x), size=min(batch_size, len(x)), replace=False)
                self.model.zero_grad()
                self.model.loss_and_grad(x[idx], y[idx])
                if step.scale != 1.0:
                    vector *= step.scale
                vector -= learning_rate * grads.vector()
                if step.offset is not None:
                    vector += step.offset
            out[k] = vector
        return out

    def evaluate(self, vectors, x, y):
        pairs = []
        for vector in vectors:
            self.model.vector[...] = vector
            pairs.append(self.model.evaluate(x, y))
        return [loss for loss, _ in pairs], [acc for _, acc in pairs]
