"""Loss functions.

The paper trains K-class classifiers with the cross-entropy loss (Eq. (1)/(2)).
We provide a numerically stable fused softmax + cross-entropy, which is what
both the global loss ``F(w)`` and the per-worker losses ``f_i(w)`` reduce to
when evaluated on empirical data.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "softmax_cross_entropy",
    "cross_entropy_from_probs",
    "accuracy",
]


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
    """Mean cross-entropy of raw ``logits`` against integer ``labels``.

    The value :func:`softmax_cross_entropy` returns, without the gradient:
    evaluation calls this every recorded round and never backpropagates.

    Parameters
    ----------
    logits:
        Raw scores of shape ``(batch, num_classes)``.
    labels:
        Integer class labels of shape ``(batch,)``.
    """
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )
    n, k = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError("label values out of range for the given logits")
    return -float(log_softmax(logits, axis=1)[np.arange(n), labels].mean())


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient with respect to the logits.

    Takes the arguments of :func:`cross_entropy`.

    Returns
    -------
    loss, grad:
        Scalar mean loss and gradient array of the same shape as ``logits``.
    """
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
