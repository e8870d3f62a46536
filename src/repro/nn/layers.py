"""Neural-network layers with explicit forward/backward passes.

This is a small, dependency-free replacement for the PyTorch modules the
paper uses.  Every layer implements

* ``forward(x, training)`` — returns the layer output and caches whatever it
  needs for the backward pass, and
* ``backward(grad_out)`` — consumes the gradient of the loss with respect to
  the layer output, accumulates parameter gradients in place, and returns
  the gradient with respect to the layer input.

Implementation notes (following the HPC guides):

* Convolutions use the im2col/col2im transformation so that the inner work
  is a single large ``matmul`` instead of nested Python loops.
* Buffers are kept C-contiguous ``float64`` throughout; reshapes are views.
* Pooling uses reshape-based windowing (stride == kernel) which is the case
  for every model in the paper, avoiding fancy indexing on the hot path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import initializers
from .params import Parameter, ParameterSet

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Flatten",
    "Conv2D",
    "MaxPool2D",
    "im2col",
    "col2im",
]


class Layer:
    """Base class for all layers.

    Sub-classes that own parameters must register them through
    :meth:`register_parameter` so that a :class:`~repro.nn.params.ParameterSet`
    can be assembled in a deterministic order.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._parameters: List[Parameter] = []

    # ------------------------------------------------------------------
    def register_parameter(self, suffix: str, value: np.ndarray) -> Parameter:
        param = Parameter(f"{self.name}.{suffix}", value)
        self._parameters.append(param)
        return param

    @property
    def parameters(self) -> List[Parameter]:
        return list(self._parameters)

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

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
            raise ValueError("Dense layer dimensions must be positive")
        init = (
            initializers.xavier_uniform
            if activationless_init
            else initializers.he_normal
        )
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", init((in_features, out_features), rng)
        )
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = self.register_parameter(
                "bias", initializers.zeros((out_features,))
            )
        self._cache_x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(
                f"Dense layer {self.name!r} expects 2-D input, got shape {x.shape}"
            )
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense layer {self.name!r} expects {self.in_features} features, "
                f"got {x.shape[1]}"
            )
        self._cache_x = x if training else None
        out = x @ self.weight.value
        if self.bias is not None:
            out += self.bias.value
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_x is None:
            raise RuntimeError(
                "backward called before forward (or forward ran with training=False)"
            )
        x = self._cache_x
        self.weight.accumulate_grad(x.T @ grad_out)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_out.sum(axis=0))
        return grad_out @ self.weight.value.T


class ReLU(Layer):
    """Element-wise rectified linear unit.

    The boolean mask needed by the backward pass is kept in a reusable
    buffer (re-allocated only when the batch shape changes), so steady-state
    training rounds do not allocate a fresh mask-sized array per forward.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._mask: Optional[np.ndarray] = None
        self._mask_buf: Optional[np.ndarray] = None

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


class Flatten(Layer):
    """Flatten all dimensions except the batch dimension."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)


# ----------------------------------------------------------------------
# im2col helpers (vectorized convolution)
# ----------------------------------------------------------------------
def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: int = 1, padding: int = 0
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x:
        Input batch of shape ``(N, C, H, W)``.
    kernel:
        Kernel height and width ``(kh, kw)``.
    stride, padding:
        Convolution stride and symmetric zero padding.

    Returns
    -------
    cols, (out_h, out_w):
        ``cols`` has shape ``(N * out_h * out_w, C * kh * kw)``.
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
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    # Use stride tricks to build a (N, C, out_h, out_w, kh, kw) view without
    # copying, then reorder once into the column matrix.
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kh * kw
    )
    return np.ascontiguousarray(cols), (out_h, out_w)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
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


class Conv2D(Layer):
    """2-D convolution ``(N, C_in, H, W) -> (N, C_out, H', W')`` via im2col."""

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
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid convolution geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = self.register_parameter(
            "weight",
            initializers.he_normal(
                (out_channels, in_channels, kernel_size, kernel_size), rng
            ),
        )
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = self.register_parameter(
                "bias", initializers.zeros((out_channels,))
            )
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...], Tuple[int, int]]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D {self.name!r} expects input (N, {self.in_channels}, H, W), "
                f"got {x.shape}"
            )
        k = (self.kernel_size, self.kernel_size)
        cols, (out_h, out_w) = im2col(x, k, self.stride, self.padding)
        w_mat = self.weight.value.reshape(self.out_channels, -1)
        out = cols @ w_mat.T
        if self.bias is not None:
            out += self.bias.value
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
        grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(
            n * out_h * out_w, self.out_channels
        )
        w_mat = self.weight.value.reshape(self.out_channels, -1)
        self.weight.accumulate_grad(
            (grad_mat.T @ cols).reshape(self.weight.value.shape)
        )
        if self.bias is not None:
            self.bias.accumulate_grad(grad_mat.sum(axis=0))
        grad_cols = grad_mat @ w_mat
        k = (self.kernel_size, self.kernel_size)
        return col2im(grad_cols, input_shape, k, self.stride, self.padding)


class MaxPool2D(Layer):
    """Non-overlapping max pooling (stride equals the pooling window).

    Shape constraint
    ----------------
    Both spatial dimensions of the input must be **divisible by
    ``pool_size``** — the layer uses reshape-based windowing (stride ==
    kernel, no implicit padding or truncation), which is the case for every
    model in the paper.  :meth:`forward` validates the constraint and raises
    a :class:`ValueError` naming the offending shape, so a mismatched
    architecture fails fast on its first batch rather than mid-training
    with an opaque reshape error.  Choose the input image size so that each
    pooling stage halves (for ``pool_size=2``) an even spatial extent, e.g.
    ``image_size % 4 == 0`` for the two-pool CNNs in
    :mod:`repro.nn.models`.
    """

    def __init__(self, name: str, pool_size: int = 2) -> None:
        super().__init__(name)
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]] = None

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
            self._cache = (mask / counts, x.shape, (out_h, out_w))  # type: ignore[assignment]
        else:
            self._cache = None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        mask, input_shape, _ = self._cache
        grad = mask * grad_out[:, :, :, None, :, None]
        return grad.reshape(input_shape)


def collect_parameters(layers: List[Layer]) -> ParameterSet:
    """Gather parameters from an ordered list of layers into a ParameterSet."""
    params = ParameterSet()
    for layer in layers:
        for p in layer.parameters:
            params.add(p)
    return params
