"""Weight initialization schemes for the NumPy neural-network substrate.

All initializers take an explicit :class:`numpy.random.Generator` so that
federated experiments are fully reproducible: every worker in a simulation
starts from the *same* global model, which requires the server to construct
the model once with a fixed seed and broadcast it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "zeros",
    "xavier_uniform",
    "he_normal",
    "conv_fan",
]


def zeros(shape: Tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    """All-zero initialization (used for biases)."""
    return np.zeros(shape, dtype=np.float64)


def _dense_fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Fan-in / fan-out for a dense weight matrix ``(in, out)``."""
    if len(shape) != 2:
        raise ValueError(f"dense fan computation expects a 2-D shape, got {shape}")
    return shape[0], shape[1]


def conv_fan(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Fan-in / fan-out for a conv kernel ``(out_ch, in_ch, kh, kw)``."""
    if len(shape) != 4:
        raise ValueError(f"conv fan computation expects a 4-D shape, got {shape}")
    out_ch, in_ch, kh, kw = shape
    receptive = kh * kw
    return in_ch * receptive, out_ch * receptive


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 2:
        return _dense_fans(shape)
    if len(shape) == 4:
        return conv_fan(shape)
    n = int(np.prod(shape))
    return n, n


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def he_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He (Kaiming) normal initialization, suited to ReLU networks."""
    fan_in, _ = _fans(shape)
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(np.float64)
