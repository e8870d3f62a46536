"""Neural-network layer specs: what a batched kernel reads.

A layer here is a name, its shapes and hyper-parameters, and its
initialised parameters, drawn from the model's RNG in construction order.
The kernels of :mod:`repro.nn.batched` do all forward and backward work;
the scalar passes they are checked against live in the test tree
(``tests/oracle/scalar.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import initializers

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Flatten",
    "Conv2D",
    "MaxPool2D",
]


class Layer:
    """Base class for all layers.

    A layer's parameters are its ``weight`` then its ``bias`` (``None`` when
    it has none).  A model lays them out in that order in its flat vector
    and rebinds both to views of it (see :mod:`repro.nn.models`).
    """

    weight: Optional[np.ndarray] = None
    bias: Optional[np.ndarray] = None

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class Dense(Layer):
    """Fully-connected layer ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    rng:
        Random generator for weight initialization.
    activationless_init:
        If ``True``, use Xavier initialization (for output/softmax layers);
        otherwise He initialization (for ReLU hidden layers).
    """

    def __init__(
        self,
        name: str,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        activationless_init: bool = False,
    ) -> None:
        super().__init__(name)
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"Dense layer {name!r} dimensions must be positive, "
                f"got {in_features} -> {out_features}"
            )
        init = (
            initializers.xavier_uniform
            if activationless_init
            else initializers.he_normal
        )
        self.in_features = in_features
        self.out_features = out_features
        self.weight = init((in_features, out_features), rng)
        if bias:
            self.bias = initializers.zeros((out_features,))


class ReLU(Layer):
    """Element-wise rectified linear unit."""


class Flatten(Layer):
    """Flatten all dimensions except the batch dimension."""


class Conv2D(Layer):
    """2-D convolution ``(N, C_in, H, W) -> (N, C_out, H', W')``."""

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ) -> None:
        super().__init__(name)
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError(
                f"Conv2D {name!r} channel counts must be positive, "
                f"got {in_channels} -> {out_channels}"
            )
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid convolution geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = initializers.he_normal(
            (out_channels, in_channels, kernel_size, kernel_size), rng
        )
        if bias:
            self.bias = initializers.zeros((out_channels,))


class MaxPool2D(Layer):
    """Non-overlapping max pooling (stride equals the pooling window).

    Shape constraint
    ----------------
    Both spatial dimensions of the input must be **divisible by
    ``pool_size``** — pooling uses reshape-based windowing (stride ==
    kernel, no implicit padding or truncation), which is the case for every
    model in the paper.  The batched kernel validates the constraint on its
    first batch and raises a :class:`ValueError` naming the layer and the
    offending shape, rather than an opaque reshape error.  Choose the input
    image size so that each pooling stage halves (for ``pool_size=2``) an
    even spatial extent, e.g. ``image_size % 4 == 0`` for the two-pool CNNs
    in :mod:`repro.nn.models`.
    """

    def __init__(self, name: str, pool_size: int = 2) -> None:
        super().__init__(name)
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size

