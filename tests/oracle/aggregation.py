"""The error-free data-weighted group average (Eq. 15), the quantity AirComp
approximates: the ground truth the aggregation tests compare against."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _checked_sizes(models: Sequence[np.ndarray], data_sizes: Sequence[float]) -> np.ndarray:
    if len(models) == 0:
        raise ValueError("at least one model is required")
    if len(models) != len(data_sizes):
        raise ValueError("models and data_sizes length mismatch")
    sizes = np.asarray(data_sizes, dtype=np.float64)
    if np.any(sizes <= 0):
        raise ValueError("data sizes must be positive")
    return sizes


def ideal_group_average(
    models: Sequence[np.ndarray], data_sizes: Sequence[float]
) -> np.ndarray:
    """``w_t^j = Σ_i (d_i / D_j) w_i`` as one weighted matmul over the
    stacked ``(G, q)`` models (a sequence of flat vectors or a 2-D array)."""
    sizes = _checked_sizes(models, data_sizes)
    stacked = np.stack([np.asarray(m, dtype=np.float64).ravel() for m in models])
    return (sizes / sizes.sum()) @ stacked


def ideal_group_average_reference(
    models: Sequence[np.ndarray], data_sizes: Sequence[float]
) -> np.ndarray:
    """The same average as a per-member accumulation loop."""
    sizes = _checked_sizes(models, data_sizes)
    total = sizes.sum()
    acc = np.zeros_like(np.asarray(models[0], dtype=np.float64))
    for w, d in zip(models, sizes):
        acc += (d / total) * np.asarray(w, dtype=np.float64)
    return acc
