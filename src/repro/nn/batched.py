"""Vectorized multi-worker execution engine (group-batched local training).

Every member of a federated group starts its local update from the *same*
base model vector, so the G per-worker SGD runs are structurally identical —
only the mini-batches (and, after the first step, the diverged parameters)
differ.  This module stacks the per-worker parameters into leading-axis
tensors (Dense weights become ``(G, in, out)``, Conv2D weights
``(G, C_out, C_in, kh, kw)``) and runs **one** batched matmul per layer per
SGD step for the whole group.  It is the only trainer: a trainer whose model
has a layer without a kernel fails at construction.

Each layer type the paper's LR/CNN/MiniVGG workloads use has one kernel in
the fixed table ``_KERNELS``: :class:`~repro.nn.layers.Dense`,
:class:`~repro.nn.layers.ReLU`, :class:`~repro.nn.layers.Flatten`,
:class:`~repro.nn.layers.Conv2D` (batched im2col — the ``(N, C, H, W)``
column transform of the scalar oracle in ``tests/oracle/scalar.py`` lifted
to a ``(G, N, C, H, W)`` leading group axis and contracted as one grouped
matmul over the ``(G, q_cols, k)`` column tensor) and
:class:`~repro.nn.layers.MaxPool2D` (tie-normalised max mask over a
window-major copy).  The data movement around the GEMMs
(bias add and sum, col2im, the pooling passes) is laid out so that each NumPy
pass has a long contiguous inner run; the arithmetic per element and its
order are the scalar oracle's.

Lanes: a large group is split across the host's cores inside one call.
Each *lane* owns a kernel set and sampling geometries; lane 0 is the
calling thread, the others come from a thread pool built once per process.
Every tile of the serial call tree is cut into contiguous runs of members,
one per lane, each padded to the tile's batch dimension, so every member's
GEMM shapes — and its result — are the serial ones.  A tile is split only
when every lane writes at least ``_LANE_MIN_WRITES`` elements per SGD step
(NumPy releases the GIL in long passes only).

Numerical contract: for a given ``(seed, worker_id, round_index)`` the
engine draws exactly the mini-batch indices a per-worker loop over the
scalar layers (the test tree's ``ScalarEngine``) draws and performs the same
sequence of per-worker matmul/elementwise operations, so the stacked results
match that loop to ~1e-9 per parameter in float64 (bit-identical up to BLAS
reduction-order differences; with uniform per-worker batch sizes the
per-slice GEMM shapes equal the scalar shapes and the match is bit-for-bit).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from .layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU
from .models import EVAL_BATCH_SIZE, Model, SequentialModel

__all__ = ["BatchedWorkerEngine", "StepTransform"]


@dataclass(frozen=True)
class StepTransform:
    """Per-SGD-step affine parameter correction applied around the update.

    Mechanism families with a regularized local objective (FedProx's
    proximal term, FedDyn's drift correction) modify the plain SGD step

        ``w ← w − lr · ∇f(w)``

    into an affine variant

        ``w ← scale · w − lr · ∇f(w) + offset``

    where the gradient is evaluated at the *pre-scale* parameters.  The
    engine applies it as three element-wise stages in this order — scale
    the parameters, take the SGD step, add the offset — the order a
    per-worker loop over the scalar layers takes too.

    ``offset`` is a flat model-vector array: ``(q,)`` when every group
    member shares the correction (FedProx: ``lr·mu·base``) or ``(G, q)``
    with one row per dispatched worker (FedDyn: ``lr·(λ·base + h_i)``).
    ``None`` offset / ``scale == 1.0`` stages are skipped entirely, and a
    ``None`` transform is the plain SGD step.
    """

    scale: float = 1.0
    offset: Optional[np.ndarray] = None

    def rows(self, index) -> "StepTransform":
        """The transform restricted to a subset/slice of group rows."""
        if self.offset is None or self.offset.ndim == 1:
            return self
        return StepTransform(scale=self.scale, offset=self.offset[index])


#: Convolutional models run the group in sub-tiles of this many workers:
#: image-sized activation/column buffers for a large group overflow the CPU
#: caches and every pass streams from DRAM, so tiling is faster despite the
#: extra dispatches (measured ~25% on the 50-worker CNN grouped round).
#: Per-worker results are unchanged — each member's per-slice GEMM shapes
#: and elementwise ops do not depend on how the group is split, so tiling
#: preserves the scalar-path equivalence bit for bit (a ragged group's
#: tile pads to its own largest batch, so there the tile size moves the
#: last bits, within 1e-9).  Dense/MLP models stay untiled (their per-worker
#: buffers are small and the one-big-matmul layout is what delivers their
#: speedup).  Lanes split tiles, not groups.
_CONV_GROUP_TILE = 12

#: Most lanes one call uses (the calling thread plus pool threads), and the
#: fewest elements the largest array of one lane's SGD step must hold for a
#: tile to be split: below it the NumPy calls are too short to release the
#: GIL for long.  Measured on 2 cores (docs/PERFORMANCE.md, "Lanes — what was
#: measured"): conv groups of 2–3 members (51k) ran at 0.56–0.74x of one
#: lane, of 6 members and more (154k and up) at 1.19–1.51x.
_MAX_LANES = 2
_LANE_MIN_WRITES = 120_000


# ----------------------------------------------------------------------
# Batched layer kernels.
# ----------------------------------------------------------------------
def _slab(
    buffers: Dict[Any, np.ndarray], key: Any, shape: Tuple[int, ...], dtype: np.dtype
) -> np.ndarray:
    """A ``shape`` view of the flat buffer ``buffers[key]``, grown to fit.

    Kernel buffers are sized by capacity and sliced, as ``StackPool.acquire``
    does, so one buffer per name serves every group size: fault survivors and
    merged cohorts add none.  A grown buffer starts zeroed, and with the group
    axis leading a member's region keeps its offset whatever ``G`` is, so a
    buffer whose border only ever holds zeros (conv padding) stays valid.
    """
    size = math.prod(shape)
    flat = buffers.get(key)
    if flat is None or flat.size < size or flat.dtype != dtype:
        flat = buffers[key] = np.zeros(size, dtype)
    return flat[:size].reshape(shape)


class _ParamKernel:
    """The stacked parameters of a Dense or Conv2D kernel.

    Member ``g``'s weight is ``weight[g]`` and its bias ``bias[g]``; in the
    flat model vector they sit at the layer's offsets.  Buffers come from
    :func:`_slab`, one per name whatever the group size.
    """

    #: Set on the first parametric layer of the network: nothing upstream
    #: needs the input gradient, so its (largest) backward matmul is skipped.
    skip_input_grad = False

    def __init__(self, layer: Union[Dense, Conv2D], offset: int) -> None:
        self.has_bias = layer.bias is not None
        self.weight_shape = layer.weight.shape
        self.weight_offset = offset
        self.weight_size = layer.weight.size
        self.bias_offset = offset + self.weight_size
        self.bias_size = layer.bias.size if self.has_bias else 0
        self.param_size = self.weight_size + self.bias_size
        self._slabs: Dict[Any, np.ndarray] = {}
        self._bound: Optional[Tuple[int, int]] = None
        self.weight: Optional[np.ndarray] = None
        self.bias: Optional[np.ndarray] = None
        self.grad_weight: Optional[np.ndarray] = None
        self.grad_bias: Optional[np.ndarray] = None

    def bind(self, group: int, batch: int, dtype: np.dtype) -> None:
        if self._bound == (group, batch):
            return
        self._bound = (group, batch)
        shape = (group,) + self.weight_shape
        self.weight = _slab(self._slabs, "weight", shape, dtype)
        self.grad_weight = _slab(self._slabs, "grad_weight", shape, dtype)
        if self.has_bias:
            self.bias = _slab(self._slabs, "bias", (group, self.bias_size), dtype)
            self.grad_bias = _slab(self._slabs, "grad_bias", (group, self.bias_size), dtype)

    def _weights_of(self, flat: np.ndarray) -> np.ndarray:
        """The weight slice of a ``(q,)`` or ``(G, q)`` flat vector, shaped."""
        w = flat[..., self.weight_offset : self.weight_offset + self.weight_size]
        return w.reshape(flat.shape[:-1] + self.weight_shape)

    def load(self, base: np.ndarray) -> None:
        """Copy the base parameters into every member's slot."""
        np.copyto(self.weight, self._weights_of(base))
        if self.has_bias:
            np.copyto(self.bias, base[..., self.bias_offset : self.bias_offset + self.bias_size])

    def dump(self, out: np.ndarray) -> None:
        """Write each member's flattened parameters into its row of ``out``."""
        g = self.weight.shape[0]
        out[:, self.weight_offset : self.weight_offset + self.weight_size] = (
            self.weight.reshape(g, self.weight_size)
        )
        if self.has_bias:
            out[:, self.bias_offset : self.bias_offset + self.bias_size] = self.bias

    def sgd_step(self, lr: float) -> None:
        # In-place ``grad *= lr; w -= grad``: the same two floating-point
        # operations as the scalar ``w -= lr * grad`` without the O(G·q)
        # temporary (gradients are recomputed from scratch next step).
        self.grad_weight *= lr
        self.weight -= self.grad_weight
        if self.has_bias:
            self.grad_bias *= lr
            self.bias -= self.grad_bias

    def scale_params(self, scale: float) -> None:
        """Multiply every member's parameters in place (StepTransform)."""
        self.weight *= scale
        if self.has_bias:
            self.bias *= scale

    def add_offset(self, flat: np.ndarray) -> None:
        """Add this layer's slice of a flat offset vector (StepTransform).

        ``flat`` is ``(q,)`` (shared across the group, broadcast over the
        leading axis) or ``(G, q)`` with one row per member.
        """
        self.weight += self._weights_of(flat)
        if self.has_bias:
            self.bias += flat[..., self.bias_offset : self.bias_offset + self.bias_size]


class _BatchedDense(_ParamKernel):
    """``y[g] = x[g] @ W[g] + b[g]`` for all group members at once."""

    def __init__(self, layer: Dense, offset: int) -> None:
        super().__init__(layer, offset)
        self.name = layer.name
        self.in_features = layer.in_features
        self.out_features = layer.out_features
        self._out: Optional[np.ndarray] = None
        self._grad_in: Optional[np.ndarray] = None
        self._cache_x: Optional[np.ndarray] = None

    def bind(self, group: int, batch: int, dtype: np.dtype) -> None:
        if self._bound != (group, batch):
            super().bind(group, batch, dtype)
            self._out = _slab(self._slabs, "out", (group, batch, self.out_features), dtype)
            if not self.skip_input_grad:
                self._grad_in = _slab(
                    self._slabs, "grad_in", (group, batch, self.in_features), dtype
                )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[2:] != (self.in_features,):
            got = x.shape[2] if x.ndim == 3 else f"samples of shape {x.shape[2:]}"
            raise ValueError(
                f"Dense layer {self.name!r} expects {self.in_features} features, got {got}"
            )
        self._cache_x = x
        out = self._out
        np.matmul(x, self.weight, out=out)
        if self.has_bias:
            out += self.bias[:, None, :]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._cache_x
        np.matmul(x.transpose(0, 2, 1), grad_out, out=self.grad_weight)
        if self.has_bias:
            np.sum(grad_out, axis=1, out=self.grad_bias)
        if self.skip_input_grad:
            return grad_out
        return np.matmul(grad_out, self.weight.transpose(0, 2, 1), out=self._grad_in)

    def member_writes(self, shape: Tuple[int, ...], batch: int) -> Tuple[Tuple[int, ...], int]:
        return (self.out_features,), max(
            self.weight_size, batch * max(self.in_features, self.out_features)
        )


def _elementwise_writes(shape: Tuple[int, ...], batch: int) -> Tuple[Tuple[int, ...], int]:
    """``member_writes`` of a kernel writing one output the size of its input."""
    return shape, batch * math.prod(shape)


class _BatchedReLU:
    param_size = 0

    def __init__(self, layer: ReLU, offset: int) -> None:
        self._slabs: Dict[Any, np.ndarray] = {}
        self._mask: Optional[np.ndarray] = None
        self._out: Optional[np.ndarray] = None

    member_writes = staticmethod(_elementwise_writes)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self._out is None or self._out.shape != x.shape:
            self._mask = _slab(self._slabs, "mask", x.shape, np.dtype(bool))
            self._out = _slab(self._slabs, "out", x.shape, x.dtype)
        np.greater(x, 0.0, out=self._mask)
        return np.maximum(x, 0.0, out=self._out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        # In-place: grad_out is the downstream layer's scratch gradient
        # buffer and is not read again this step.
        np.multiply(grad_out, self._mask, out=grad_out)
        return grad_out


class _BatchedFlatten:
    param_size = 0

    def __init__(self, layer: Flatten, offset: int) -> None:
        self._shape: Optional[Tuple[int, ...]] = None

    def member_writes(self, shape: Tuple[int, ...], batch: int) -> Tuple[Tuple[int, ...], int]:
        return (math.prod(shape),), 0  # a reshaped view

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._shape)


class _BatchedConv2D(_ParamKernel):
    """Grouped im2col convolution: one GEMM per group per direction.

    The scalar layer turns each worker's ``(N, C, H, W)`` input into a
    ``(N·oh·ow, C·kh·kw)`` column matrix and contracts it with the flattened
    filter bank.  This kernel lifts the transform to a leading group axis:
    the stacked ``(G, B, C, H, W)`` activations become one ``(G, B·oh·ow, k)``
    column tensor (built with the same stride-tricks window view, one copy),
    and the forward/weight-gradient/input-gradient contractions run as
    batched matmuls over the group axis.  The bias is added after the
    output transpose (one value per ``oh·ow`` run) and its gradient summed
    row by row over a ``(B·oh·ow, G·C_out)`` table; the stride-1 col2im
    keeps the scalar loop's (i, j) order on the fused ``(G·B)`` batch with
    the image axis innermost (:meth:`_col2im`).  Per-slice GEMM shapes equal
    the scalar layer's shapes, so the result matches the scalar path
    bit-for-bit for uniform batch sizes.
    """

    def __init__(self, layer: Conv2D, offset: int) -> None:
        super().__init__(layer, offset)
        self.name = layer.name
        self.in_channels = layer.in_channels
        self.out_channels = layer.out_channels
        self.kernel_size = layer.kernel_size
        self.stride = layer.stride
        self.padding = layer.padding
        self.k_cols = self.in_channels * self.kernel_size * self.kernel_size
        # Activation-side buffers (padded input, column tensor, GEMM outputs,
        # gradient scratch) depend on the input shape, which is only known at
        # forward time: views of the last ``(G, B, C, H, W)`` seen.
        self._geo: Optional[Dict[str, object]] = None
        self._x_shape: Optional[Tuple[int, ...]] = None

    def member_writes(self, shape: Tuple[int, ...], batch: int) -> Tuple[Tuple[int, ...], int]:
        _, h, w = shape
        span = h + 2 * self.padding - self.kernel_size, w + 2 * self.padding - self.kernel_size
        oh, ow = (d // self.stride + 1 for d in span)
        rows = batch * oh * ow  # of the column tensor and the GEMM outputs
        return (self.out_channels, oh, ow), max(
            self.weight_size, rows * max(self.k_cols, self.out_channels)
        )

    # -- geometry / buffers ----------------------------------------------
    def _buffers_for(self, shape: Tuple[int, ...], dtype: np.dtype) -> Dict[str, object]:
        if shape == self._x_shape:
            return self._geo
        g, b, c, h, w = shape
        kh = self.kernel_size
        s, p = self.stride, self.padding
        out_h = (h + 2 * p - kh) // s + 1
        out_w = (w + 2 * p - kh) // s + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"kernel {(kh, kh)} with stride {s}, padding {p} does not "
                f"fit input of spatial size {(h, w)}"
            )
        m = b * out_h * out_w
        shapes = {
            "cols": (g, m, self.k_cols),
            "out_mat": (g, m, self.out_channels),
            "out": (g, b, self.out_channels, out_h, out_w),
            "grad_mat": (g, m, self.out_channels),
        }
        if self.has_bias:
            shapes["bias_rows"] = (m, g * self.out_channels)
        if not self.skip_input_grad:
            shapes["grad_cols"] = (g, m, self.k_cols)
            if s == 1:
                # Stride-1 col2im runs with the image axis innermost: the
                # transposed columns, the accumulator, and the gradient it
                # is copied to.
                shapes["staged"] = (out_h, out_w, c, kh, kh, g * b)
                shapes["acc"] = (h, w, c, g * b)
                shapes["grad_in"] = (g, b, c, h, w)
            else:
                shapes["grad_pad"] = (g, b, c, h + 2 * p, w + 2 * p)
        geo: Dict[str, object] = {
            name: _slab(self._slabs, name, dims, dtype) for name, dims in shapes.items()
        }
        # Only the interior is written, so each member shape keeps its own
        # zero-bordered buffer.
        padded = (g, b, c, h + 2 * p, w + 2 * p)
        geo["padded"] = _slab(self._slabs, padded[1:], padded, dtype) if p else None
        geo["out_h"], geo["out_w"] = out_h, out_w
        self._geo, self._x_shape = geo, shape
        return geo

    # -- forward / backward ----------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"Conv2D {self.name!r} expects {self.in_channels} input channels, "
                f"got samples of shape {x.shape[2:]}"
            )
        g, b, c, h, w = x.shape
        geo = self._buffers_for(x.shape, x.dtype)
        kh = self.kernel_size
        s, p = self.stride, self.padding
        oh, ow = geo["out_h"], geo["out_w"]
        if p:
            padded = geo["padded"]
            padded[:, :, :, p : p + h, p : p + w] = x
            src = padded
        else:
            src = x
        gb = g * b
        src4 = src.reshape(gb, c, h + 2 * p, w + 2 * p)
        s0, s1, s2, s3 = src4.strides
        windows = np.lib.stride_tricks.as_strided(
            src4,
            shape=(gb, c, oh, ow, kh, kh),
            strides=(s0, s1, s2 * s, s3 * s, s2, s3),
            writeable=False,
        )
        # One copy reorders the window view into the (G, B·oh·ow, k) column
        # tensor — the grouped equivalent of the scalar layer's im2col copy.
        cols = geo["cols"]
        cols6 = cols.reshape(gb, oh, ow, c, kh, kh)
        np.copyto(cols6, windows.transpose(0, 2, 3, 1, 4, 5))
        w_mat_t = self.weight.reshape(g, self.out_channels, self.k_cols).transpose(0, 2, 1)
        out_mat = geo["out_mat"]
        np.matmul(cols, w_mat_t, out=out_mat)
        out = geo["out"]
        np.copyto(
            out,
            out_mat.reshape(g, b, oh, ow, self.out_channels).transpose(0, 1, 4, 2, 3),
        )
        if self.has_bias:
            # After the transpose each bias value spans an oh·ow-long run.
            out += self.bias[:, None, :, None, None]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        geo = self._geo
        g, b, c, h, w = self._x_shape
        co = self.out_channels
        oh, ow = geo["out_h"], geo["out_w"]
        grad_mat = geo["grad_mat"]
        np.copyto(
            grad_mat.reshape(g, b, oh, ow, co), grad_out.transpose(0, 1, 3, 4, 2)
        )
        cols = geo["cols"]
        np.matmul(
            grad_mat.transpose(0, 2, 1),
            cols,
            out=self.grad_weight.reshape(g, co, self.k_cols),
        )
        if self.has_bias:
            # Row-sequential like the scalar ``grad_mat.sum(axis=0)``: the
            # (G, C_out) sums advance together, one (b, y, x) row at a time.
            rows = geo["bias_rows"]
            np.copyto(rows.reshape(b, oh, ow, g, co), grad_out.transpose(1, 3, 4, 0, 2))
            np.add.reduce(rows, axis=0, out=self.grad_bias.reshape(g * co))
        if self.skip_input_grad:
            return grad_out
        w_mat = self.weight.reshape(g, co, self.k_cols)
        grad_cols = geo["grad_cols"]
        np.matmul(grad_mat, w_mat, out=grad_cols)
        return self._col2im(grad_cols)

    def _col2im(self, grad_cols: np.ndarray) -> np.ndarray:
        """Scatter-add the ``(G, B·oh·ow, k)`` column gradients into the input's.

        The kernel positions are added in the scalar ``col2im``'s (i, j)
        order from a zero-filled accumulator, so every cell associates its
        contributions identically and matches the scalar path, signed zeros
        included.
        """
        geo = self._geo
        g, b, c, h, w = self._x_shape
        oh, ow = geo["out_h"], geo["out_w"]
        kh = self.kernel_size
        s, p = self.stride, self.padding
        if s == 1:
            # The image axis goes innermost: one 2-D transpose stages the
            # columns as (oh, ow, C, kh, kw, G·B), and the add of kernel
            # position (i, j) runs over G·B contiguous elements per cell.
            # Cells of the padding border are dropped, not summed.
            staged, acc, grad_in = geo["staged"], geo["acc"], geo["grad_in"]
            np.copyto(staged.reshape(-1, g * b), grad_cols.reshape(g * b, -1).T)
            acc.fill(0.0)
            for i in range(kh):
                y0, y1 = max(0, p - i), min(oh, p + h - i)
                for j in range(kh):
                    x0, x1 = max(0, p - j), min(ow, p + w - j)
                    if y0 < y1 and x0 < x1:
                        acc[y0 + i - p : y1 + i - p, x0 + j - p : x1 + j - p] += staged[
                            y0:y1, x0:x1, :, i, j
                        ]
            np.copyto(grad_in.reshape(g * b, c, h, w), acc.transpose(3, 2, 0, 1))
            return grad_in
        cols6 = grad_cols.reshape(g * b, oh, ow, c, kh, kh)
        hp, wp = h + 2 * p, w + 2 * p
        grad_pad = geo["grad_pad"]
        grad_pad.fill(0.0)
        gp4 = grad_pad.reshape(g * b, c, hp, wp)
        cols6t = cols6.transpose(0, 3, 1, 2, 4, 5)
        for i in range(kh):
            i_max = i + s * oh
            for j in range(kh):
                j_max = j + s * ow
                gp4[:, :, i:i_max:s, j:j_max:s] += cols6t[:, :, :, :, i, j]
        if p:
            return grad_pad[:, :, :, p:-p, p:-p]
        return grad_pad


class _BatchedMaxPool2D:
    """Grouped non-overlapping max pooling with the scalar layer's tie rule.

    One strided copy lays the ``(G, B, C, H, W)`` input out window-major,
    ``(p, p, G, B, C, oh, ow)``: window position ``(i, j)`` of every pooling
    window is one contiguous slab, so the max, the tie mask, the tie counts
    and the ``mask / counts`` normalisation are whole-slab passes over one
    scratch buffer.  Max and the tie count are order-independent and the
    quotients ``1 / count`` round the same way, so outputs and gradients
    match the scalar layer bit for bit.  The spatial size must be divisible
    by ``pool_size`` (see :class:`~repro.nn.layers.MaxPool2D`): ``forward``
    raises naming the layer and the shape, in the words of the scalar
    oracle's pooling in ``tests/oracle/scalar.py``.
    """

    param_size = 0

    def __init__(self, layer: MaxPool2D, offset: int) -> None:
        self.pool_size = layer.pool_size
        self.name = layer.name
        self._slabs: Dict[Any, np.ndarray] = {}
        self._geo: Optional[Dict[str, np.ndarray]] = None
        self._x_shape: Optional[Tuple[int, ...]] = None

    def member_writes(self, shape: Tuple[int, ...], batch: int) -> Tuple[Tuple[int, ...], int]:
        c, h, w = shape
        return (c, h // self.pool_size, w // self.pool_size), batch * c * h * w

    def forward(self, x: np.ndarray) -> np.ndarray:
        g, b, c, h, w = x.shape
        p = self.pool_size
        if h % p != 0 or w % p != 0:
            raise ValueError(
                f"MaxPool2D {self.name!r}: spatial size {(h, w)} is not divisible "
                f"by pool size {p}"
            )
        oh, ow = h // p, w // p
        if x.shape != self._x_shape:
            shapes = {
                "out": (g, b, c, oh, ow),
                "counts": (g, b, c, oh, ow),
                # The windows of x, then in place the tie-normalised mask.
                "mask": (p, p, g, b, c, oh, ow),
                "grad": (g, b, c, h, w),
            }
            geo = {name: _slab(self._slabs, name, dims, x.dtype) for name, dims in shapes.items()}
            geo["grad_windows"] = _window_major(geo["grad"], p)
            self._geo, self._x_shape = geo, x.shape
        geo = self._geo
        out, mask, counts = geo["out"], geo["mask"], geo["counts"]
        np.copyto(mask, _window_major(x, p))
        np.maximum.reduce(mask, axis=(0, 1), out=out)
        np.equal(mask, out, out=mask)
        # Ties share the gradient evenly — the scalar layer's ``mask / counts``.
        np.add.reduce(mask, axis=(0, 1), out=counts)
        np.divide(mask, counts, out=mask)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        geo = self._geo
        np.multiply(geo["mask"], grad_out, out=geo["grad_windows"])
        return geo["grad"]


def _window_major(x: np.ndarray, p: int) -> np.ndarray:
    """The ``(p, p, G, B, C, H/p, W/p)`` view of a contiguous ``(G, B, C, H, W)``."""
    g, b, c, h, w = x.shape
    return x.reshape(g, b, c, h // p, p, w // p, p).transpose(4, 6, 0, 1, 2, 3, 5)


_Kernel = Union[_BatchedDense, _BatchedReLU, _BatchedFlatten, _BatchedConv2D, _BatchedMaxPool2D]

#: The kernel of each layer type, built as ``kernel(layer, offset)`` with
#: ``offset`` the layer's first entry in the flat model vector; a layer takes
#: the first entry along its MRO.  Every kernel has ``param_size``,
#: ``forward`` / ``backward`` on ``(G, B, ...)`` stacks (training and
#: :meth:`BatchedWorkerEngine.evaluate` share ``forward``: its output depends
#: on its input and the bound parameters alone) and ``member_writes(shape,
#: batch)`` → ``(output shape, elements)``: a sample's output shape, and the
#: most elements one member's slice of any array it writes per step holds.
_KERNELS: Dict[type, Type[_Kernel]] = {
    Dense: _BatchedDense,
    ReLU: _BatchedReLU,
    Flatten: _BatchedFlatten,
    Conv2D: _BatchedConv2D,
    MaxPool2D: _BatchedMaxPool2D,
}


# ----------------------------------------------------------------------
#: Most bytes an engine's cache of rosters and sampling geometries may hold,
#: evicting the least recently used entry first.  A roster is charged its index
#: lists (a pointer per entry) and the member data it owns: the rosters of a
#: fault-free run partition the workers, one copy of the training set between
#: them, and every survivor subset under faults is one more copy; a roster over
#: a shared store owns no data.  A geometry is charged its buffers.
_ROSTER_CACHE_BYTES = 256 * 2**20

#: Byte budget of the largest array one :meth:`BatchedWorkerEngine.evaluate`
#: pass writes: ``small_groups`` gets 16 snapshots a pass, a conv model 1–2
#: (docs/PERFORMANCE.md, "Evaluation in blocks").
_EVAL_BLOCK_BYTES = 2 * 2**20

#: Process id -> this process's lane count and the thread pool serving every
#: lane but the first.  Keyed by process id: a forked child inherits the pool
#: object but not its threads, so each process builds its own on first use.
_LANES: Dict[int, Tuple[int, Optional[ThreadPoolExecutor]]] = {}


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _lanes() -> Tuple[int, Optional[ThreadPoolExecutor]]:
    """This process's lane count and the pool lending the lanes after the first."""
    pid = os.getpid()
    if pid not in _LANES:
        lanes = min(_MAX_LANES, _usable_cores())
        pool = ThreadPoolExecutor(lanes - 1, thread_name_prefix="lane") if lanes > 1 else None
        _LANES[pid] = (lanes, pool)
    return _LANES[pid]


def use_one_lane() -> None:
    """Train every group of this process on the calling thread alone.

    For a process whose siblings already occupy the other cores: the
    workers of ``SweepRunner(mode="processes")`` call it when they start.
    """
    _LANES[os.getpid()] = (1, None)


def _worker_streams(
    seed: int, worker_ids: Sequence[int], round_index: Union[int, Sequence[int]]
) -> List[np.random.Generator]:
    """One generator per worker, keyed ``[seed, worker_id, round_index, 0x10CA1]``;
    ``round_index`` is one key for every worker or a key per worker.

    ``SeedSequence`` takes a ``uint32`` array as its entropy words as is, a
    third of the cost of coercing four Python ints; an int of 2**32 or more
    is several words, so those keep the list form.
    """
    keys = [round_index] * len(worker_ids) if np.ndim(round_index) == 0 else round_index
    if 0 <= min(seed, min(keys), min(worker_ids)) and (
        max(seed, max(keys), max(worker_ids)) < 2**32
    ):
        rows = np.empty((len(worker_ids), 4), dtype=np.uint32)
        rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = seed, worker_ids, keys, 0x10CA1
        return [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(row))) for row in rows
        ]
    return [
        np.random.default_rng(np.random.SeedSequence([seed, w, k, 0x10CA1]))
        for w, k in zip(worker_ids, keys)
    ]


@dataclass
class _Roster:
    """What a ``(worker ids, batch_size)`` call fixes for every round.

    A trainer dispatches the same few rosters thousands of times, so the
    engine derives these once per roster and a steady-state ``run_group``
    call is left with the per-round RNGs and the step loop.  ``idle`` /
    ``active`` are the roster positions without / with data; ``ids``,
    ``counts``, ``batches`` and ``offsets`` run over the active members
    (worker id, samples, mini-batch size, first row in ``x``); ``x`` / ``y``
    are what each step gathers from with a single ``np.take`` — the shared
    store's own arrays, referenced and not copied, when the members' data
    are row windows of one, else their private arrays back to back; ``geo``
    is lane 0's sampling geometry for all of them.  ``runs`` are the
    ``(a0, a1, geo)`` runs of active members lane 0, 1, … trains, each with
    its lane's geometry for them: one run, ``geo``, unless the lane gate
    split the roster.  ``nbytes`` is what the engine's cache charges it.
    """

    idle: List[int]
    active: List[int]
    ids: List[int]
    counts: List[int]
    batches: List[int]
    offsets: List[int]
    x: np.ndarray
    y: np.ndarray
    geo: Dict[str, np.ndarray]
    nbytes: int = 0
    runs: List[Tuple[int, int, Dict[str, np.ndarray]]] = field(default_factory=list)

    def geometries(self) -> List[Dict[str, np.ndarray]]:
        """Every sampling geometry the roster trains with (none if nobody trains)."""
        return [self.geo] + [geo for _, _, geo in self.runs] if self.geo else []


def _new_geometry(
    key: Tuple, dtype: np.dtype, b_max: int, batches: List[int], feat_shape: Tuple[int, ...]
) -> Dict[str, np.ndarray]:
    """The buffers and masks a run of members with these batch sizes fills."""
    g = len(batches)
    sizes = np.array(batches)
    valid = np.arange(b_max)[None, :] < sizes[:, None]
    return {
        "key": key,
        "xb": np.zeros((g, b_max) + feat_shape, dtype=dtype),
        "yb": np.zeros((g, b_max), dtype=np.int64),
        "gidx": np.full((g, b_max), -1, dtype=np.int64),
        "ragged": min(batches) != b_max,
        "valid": valid,
        "pad": ~valid,
        "row_index": np.arange(g * b_max),
        "batch_div": sizes[:, None, None].astype(np.float64),
    }


def _nbytes(geo: Dict[str, np.ndarray]) -> int:
    """What the engine's cache charges a geometry: its buffers."""
    return sum(v.nbytes for v in geo.values() if isinstance(v, np.ndarray))


#: One pass of a lane's step loop: its parts — a roster, its active members
#: ``a0:a1`` and their round key — the lane's geometry for all of them, their
#: rows of ``out`` and their step transform.
_Job = Tuple[
    List[Tuple[_Roster, int, int, int]],
    Dict[str, np.ndarray],
    Union[slice, np.ndarray],
    Optional[StepTransform],
]


class _Lane:
    """A kernel set and the step loop.

    The lanes of an engine share nothing they write — each fills sampling
    geometries of its own — so each can train on a thread of its own.  Lane
    0 is built with the engine and the rest when a roster is first split
    across them.
    """

    def __init__(self, layers: Sequence[Layer], dimension: int, dtype: np.dtype) -> None:
        self.dtype = dtype
        self.kernels: List[_Kernel] = []
        self.params: List[_ParamKernel] = []
        offset = 0
        for layer in layers:
            kernel_type = next((_KERNELS[k] for k in type(layer).__mro__ if k in _KERNELS), None)
            if kernel_type is None:
                kind = type(layer).__name__
                raise ValueError(
                    f"layer {layer.name!r} ({kind}) has no batched kernel; "
                    f"the engine trains {', '.join(k.__name__ for k in _KERNELS)} layers"
                )
            kernel = kernel_type(layer, offset)
            offset += kernel.param_size
            self.kernels.append(kernel)
            if isinstance(kernel, _ParamKernel):
                self.params.append(kernel)
        if offset != dimension:
            raise ValueError(
                "batched layer parameters do not cover the model vector "
                f"({offset} of {dimension} entries)"
            )
        # The input gradient of the network's first parametric layer is never
        # consumed (activation/reshape kernels before it carry no parameters).
        self.params[0].skip_input_grad = True
        # Backward pass stops at the first parametric kernel: it skips its
        # input gradient, and kernels before it own no parameters, so their
        # backward methods would only consume (mis-shaped) skipped output.
        self.first_param_index = self.kernels.index(self.params[0])

    def train(
        self,
        jobs: List[_Job],
        out: np.ndarray,
        base_vector: np.ndarray,
        seed: int,
        learning_rate: float,
        local_steps: int,
    ) -> None:
        """Each job's members' local SGD from their base, into their rows of ``out``.

        ``base_vector`` is one ``(q,)`` base or a ``(G, q)`` row per row of ``out``.
        """
        for parts, geo, rows, transform in jobs:
            t_scale = transform.scale if transform is not None else 1.0
            t_offset = transform.offset if transform is not None else None
            xb, yb, gidx = geo["xb"], geo["yb"], geo["gidx"]
            ragged, row_index = geo["ragged"], geo["row_index"]
            g, b_max = gidx.shape
            xb_flat = xb.reshape((g * b_max,) + xb.shape[2:])
            yb_flat = yb.reshape(g * b_max)
            gidx_flat = gidx.reshape(-1)
            # Each part's members gather from its roster's rows with one
            # ``np.take`` per step; padding rows (members with fewer samples
            # than b_max) gather any valid row, are zeroed and get zero loss
            # gradients, so they contribute exactly nothing to the batched
            # weight-gradient matmuls.
            ids, keys, counts, batches, offsets, takes = [], [], [], [], [], []
            for roster, a0, a1, key in parts:
                r0 = len(ids) * b_max
                ids += roster.ids[a0:a1]
                keys += [key] * (a1 - a0)
                counts += roster.counts[a0:a1]
                batches += roster.batches[a0:a1]
                offsets += roster.offsets[a0:a1]
                takes.append((roster.x, roster.y, slice(r0, len(ids) * b_max)))
                gidx_flat[r0 : len(ids) * b_max] = roster.offsets[a0]
            rngs = _worker_streams(seed, ids, keys)

            base = base_vector if base_vector.ndim == 1 else base_vector[rows]
            for kernel in self.params:
                kernel.bind(g, b_max, self.dtype)
                kernel.load(base)

            for _ in range(local_steps):
                for k in range(g):
                    idx = rngs[k].choice(counts[k], size=batches[k], replace=False)
                    idx += offsets[k]
                    gidx[k, : batches[k]] = idx
                # Every index is in range by construction: "clip" skips the
                # buffered copy of ``out`` that the default "raise" makes.
                for x_rows, y_rows, span in takes:
                    np.take(x_rows, gidx_flat[span], axis=0, out=xb_flat[span], mode="clip")
                    np.take(y_rows, gidx_flat[span], out=yb_flat[span], mode="clip")
                if ragged:
                    xb[geo["pad"]] = 0
                    yb[geo["pad"]] = 0
                h = xb
                for kernel in self.kernels:
                    h = kernel.forward(h)
                # Fused softmax cross-entropy gradient: (softmax − one-hot) / B_k
                # per worker — exactly the scalar loss normalisation, computed
                # in place in the logits buffer; padded rows are zeroed by the
                # validity mask.
                h -= h.max(axis=-1, keepdims=True)
                np.exp(h, out=h)
                h /= h.sum(axis=-1, keepdims=True)
                grad = h
                flat = grad.reshape(g * b_max, -1)
                flat[row_index, yb.reshape(-1)] -= 1.0
                grad /= geo["batch_div"]
                if ragged:
                    grad *= geo["valid"][:, :, None]
                for kernel in reversed(self.kernels[self.first_param_index :]):
                    grad = kernel.backward(grad)
                # StepTransform stages (no-ops without a transform): gradients
                # were computed at the pre-scale parameters above, so the step
                # is ``w ← scale·w − lr·∇f(w) + offset``.
                if t_scale != 1.0:
                    for kernel in self.params:
                        kernel.scale_params(t_scale)
                for kernel in self.params:
                    kernel.sgd_step(learning_rate)
                if t_offset is not None:
                    for kernel in self.params:
                        kernel.add_offset(t_offset)

            dest = out[rows]  # a view for a slice, else a copy written back
            for kernel in self.params:
                kernel.dump(dest)
            if not isinstance(rows, slice):
                out[rows] = dest


class BatchedWorkerEngine:
    """Runs the local SGD of a whole worker group as batched tensor ops.

    Build one per trainer; the engine keeps its
    stacked parameter/activation buffers across rounds, so steady-state
    group updates allocate almost nothing.  It trains the layer types of
    ``_KERNELS``; a group large enough is split across lanes (see the
    module docstring).
    """

    def __init__(self, model: SequentialModel) -> None:
        if not isinstance(model, SequentialModel):
            raise ValueError(
                f"batched engine requires a SequentialModel, got {type(model).__name__}"
            )
        if model.dimension == 0:
            raise ValueError("model has no parameters")
        self.dimension = model.dimension
        self.dtype = model.vector.dtype
        self._layers = list(model.layers)
        self._lanes = [_Lane(self._layers, self.dimension, self.dtype)]
        self._tile: Optional[int] = (
            _CONV_GROUP_TILE
            if any(isinstance(k, _BatchedConv2D) for k in self._lanes[0].kernels)
            else None
        )
        #: Whether cohorts may train ahead of their commits, several in one
        #: call: no conv tiles.
        self.trains_ahead = self._tile is None
        # One LRU cache, least recently used first, of what a roster fixes
        # (see _Roster) under ``("roster", worker ids, batch_size)`` of
        # a tile, and of each lane's sampling geometries (input buffers, padding
        # masks, divisors) under ``("geometry", lane, b_max, batches) + feature
        # shape``, so the event loop alternating between groups never rebuilds
        # them; each entry with its charge, and the charges' sum.
        # ``(store.x, x, y)``: a shared store in the engine's dtypes.
        self._cache: Dict[Tuple, Tuple[Union[_Roster, Dict[str, np.ndarray]], int]] = {}
        self._cached_bytes = 0
        self._eval_slabs: Dict[Any, np.ndarray] = {}
        self._store_rows: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    @property
    def _rosters(self) -> Dict[Tuple, _Roster]:
        """The cached rosters by ``(worker ids, batch_size)``, least recent first."""
        return {key[1:]: entry for key, (entry, _) in self._cache.items() if key[0] == "roster"}

    # ------------------------------------------------------------------
    @classmethod
    def try_build(cls, model: Model) -> "BatchedWorkerEngine":
        """The engine for ``model``, the one way a trainer trains it.

        Raises the constructor's ``ValueError`` for a model it cannot train:
        not a :class:`SequentialModel`, no parameters, or a layer without a
        kernel (the message names the layer).
        """
        return cls(model)

    # ------------------------------------------------------------------
    def run_group(
        self,
        worker_ids: Sequence[int],
        worker_data: Sequence[Tuple[np.ndarray, np.ndarray]],
        base_vector: np.ndarray,
        round_index: Union[int, Sequence[int]],
        *,
        learning_rate: float,
        local_steps: int,
        batch_size: int,
        seed: int,
        out: np.ndarray,
        transform: Optional[StepTransform] = None,
    ) -> np.ndarray:
        """Run every member's local SGD from its base; fill ``out``.

        ``out`` must be a ``(len(worker_ids), q)`` array; row ``k`` receives
        worker ``worker_ids[k]``'s updated flat model.  ``base_vector`` is the
        ``(q,)`` base of every member or a ``(G, q)`` row per member (it may
        be ``out`` itself: each row is read before it is written), and
        ``round_index`` one round key for all or one per member.  Each
        member's batch indices are drawn from
        ``SeedSequence([seed, worker_id, round_index, 0x10CA1])`` and a
        worker with no data returns its base unchanged.  A store-backed
        shard sequence as ``worker_data`` (anything with ``store`` / ``ids``,
        what trainers pass) is gathered from in its store, not copied; a
        plain list of ``(x, y)`` pairs is copied once per roster.

        Consecutive members with one round key form a roster, cached by its
        worker ids.  Without conv tiles, rosters whose members all draw one
        batch size train in one pass of the step loop; every member's
        mini-batch, padded batch and GEMM shapes are those of a call of its
        roster alone, so is its result.

        Each tile pads its members' mini-batches to its largest one; padding
        rows are zeroed after the gather and contribute exact ``+0.0`` terms.
        The lanes pad every run of members they split a tile into to the
        tile's dimension, which keeps each member's GEMM shapes — and its
        result — the serial ones.

        ``transform`` applies a per-step affine parameter correction (see
        :class:`StepTransform`); a ``(G, q)`` offset carries one row per
        entry of ``worker_ids``, in the same order.
        """
        ids = list(worker_ids)
        n = len(ids)
        if out.shape != (n, self.dimension):
            raise ValueError(f"out has shape {out.shape}, expected {(n, self.dimension)}")
        if base_vector.shape not in ((self.dimension,), (n, self.dimension)):
            raise ValueError(f"base_vector has shape {base_vector.shape}, out {out.shape}")
        if (
            transform is not None
            and transform.offset is not None
            and transform.offset.ndim == 2
            and transform.offset.shape[0] != n
        ):
            raise ValueError(
                f"transform offset has {transform.offset.shape[0]} rows for {n} workers"
            )
        if np.ndim(round_index) == 0:
            keys, bounds = [round_index] * n, [0, n]
        else:
            keys = list(round_index)
            if len(keys) != n:
                raise ValueError(f"{len(keys)} round keys for {n} workers")
            bounds = [k for k in range(n) if k == 0 or keys[k] != keys[k - 1]] + [n]
        # Members sharing a round key are one roster.  Convolutional models
        # split a large one into cache-sized tiles (see _CONV_GROUP_TILE;
        # per-worker results are identical), then each tile across the
        # lanes the gate allows it.
        own: List[_Job] = []
        others: Dict[int, List[_Job]] = {}  # lane -> its jobs
        for s0, s1 in zip(bounds, bounds[1:]):
            tile = self._tile if self._tile is not None and s1 - s0 > self._tile else s1 - s0
            for k0 in range(s0, s1, max(tile, 1)):
                k1 = min(k0 + tile, s1)
                # Sliced only on a cache miss: a hit needs no tile data.
                def data(k0=k0, k1=k1):
                    return worker_data if k1 - k0 == n else worker_data[k0:k1]

                roster = self._roster(ids[k0:k1], data, batch_size)
                # Workers without data keep the base model and take no SGD
                # steps, so no correction applies to them; the rest train.
                for k in roster.idle:
                    out[k0 + k] = base_vector if base_vector.ndim == 1 else base_vector[k0 + k]
                if not roster.active:
                    continue
                runs = roster.runs
                if len(runs) > 1 and len(runs) > _lanes()[0]:
                    # A forked child with fewer lanes than the parent that split.
                    runs = [(0, len(roster.ids), roster.geo)]
                for lane, (a0, a1, geo) in enumerate(runs):
                    rows = (
                        np.add(roster.active[a0:a1], k0)
                        if roster.idle
                        else slice(k0 + a0, k0 + a1)
                    )
                    rows_t = None if transform is None else transform.rows(rows)
                    job = ([(roster, a0, a1, keys[k0])], geo, rows, rows_t)
                    if lane:
                        others.setdefault(lane, []).append(job)
                    else:
                        own.append(job)
        # Untiled rosters whose members all draw one batch size train in one
        # pass: each member's gather, GEMM shapes and result are those of a
        # call of its own.
        b_max = own[0][1]["gidx"].shape[1] if own else 0
        if (
            len(own) > 1
            and not others
            and self._tile is None
            and all(
                isinstance(rows, slice) and not geo["ragged"] and geo["gidx"].shape[1] == b_max
                for _, geo, rows, _ in own
            )
            and sum(rows.stop - rows.start for _, _, rows, _ in own) == n
        ):
            geo = self._uniform_geometry(n, b_max, own[0][1]["xb"].shape[2:])
            own = [([part for job in own for part in job[0]], geo, slice(0, n), transform)]
        step = (out, base_vector, seed, learning_rate, local_steps)
        futures = [
            _lanes()[1].submit(self._lanes[lane].train, jobs, *step)
            for lane, jobs in others.items()
        ]
        try:
            self._lanes[0].train(own, *step)
        finally:
            if futures:
                wait(futures)
        for future in futures:
            future.result()
        return out

    def evaluation_block(self, x: np.ndarray) -> int:
        """Snapshots per :meth:`evaluate` pass over ``x``: ``_EVAL_BLOCK_BYTES`` worth."""
        writes = self._member_writes(min(EVAL_BATCH_SIZE, len(x)), x.shape[1:])
        return max(1, _EVAL_BLOCK_BYTES // (writes * self.dtype.itemsize))

    def evaluate(
        self, vectors: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> Tuple[List[float], List[float]]:
        """Test ``(losses, accuracies)`` of each row of a ``(K, q)`` block: the bits
        of the scalar oracle's ``evaluate`` (``tests/oracle/scalar.py``), from one
        forward pass of lane 0's kernels per batch, ``x`` broadcast over K.  The
        class-axis max goes column by column (max is order-free), each mean is a
        1-D reduce; a row hits when its first zero shifted logit is the label's
        (``np.argmax``'s rule when its max is not finite)."""
        k, n, step = len(vectors), len(x), EVAL_BATCH_SIZE
        losses, correct = [0.0] * k, [0.0] * k
        x, y = np.asarray(x, dtype=self.dtype), np.asarray(y)
        slabs = self._eval_slabs
        for start in range(0, n, step):
            xb, yb = x[start : start + step], y[start : start + step]
            b = len(xb)
            for kernel in self._lanes[0].params:
                kernel.bind(k, b, self.dtype)
                kernel.load(vectors)
            logits = np.broadcast_to(xb, (k,) + xb.shape)
            for kernel in self._lanes[0].kernels:
                logits = kernel.forward(logits)
            classes = logits.shape[-1]
            if yb.shape != (b,) or yb.min() < 0 or yb.max() >= classes:
                raise ValueError("labels must be one in-range class per evaluated row")
            top = _slab(slabs, "top", (k, b), self.dtype)
            np.copyto(top, logits[..., 0])
            for j in range(1, classes):
                np.maximum(top, logits[..., j], out=top)
            odd = ~np.isfinite(top)
            first_odd = logits[odd].argmax(axis=-1)  # np.argmax's rule, before the shift
            # Shifted, then exponentiated, in the last kernel's buffer, as in training.
            logits -= top[..., None]
            # analyze: allow-alloc(each row's label offset, one index per batch row)
            log_p = logits.reshape(k, b * classes)[:, yb + classes * np.arange(b)]
            zero = _slab(slabs, "zero", logits.shape, np.dtype(bool))
            first = np.equal(logits, 0, out=zero).argmax(axis=-1)
            first[odd] = first_odd
            np.exp(logits, out=logits)
            log_p -= np.log(logits.sum(axis=-1))
            hits = np.count_nonzero(first == yb, axis=1)
            for i in range(k):
                losses[i] += -float(log_p[i].mean()) * b
                correct[i] += int(hits[i]) / b * b
        return [v / max(n, 1) for v in losses], [v / max(n, 1) for v in correct]

    def _roster(
        self,
        ids: List[int],
        worker_data: Callable[[], Sequence[Tuple[np.ndarray, np.ndarray]]],
        batch_size: int,
    ) -> _Roster:
        """The roster of one tile, from the LRU cache or built into it from
        ``worker_data()``, the tile's data (called on a miss only)."""
        roster = self._cached(
            ("roster", tuple(ids), batch_size),
            lambda: self._build_roster(ids, worker_data(), batch_size),
            lambda built: built.nbytes,
        )
        # Its geometries follow it, so none leaves before a roster using it.
        cache = self._cache
        for geo in roster.geometries():
            cache[geo["key"]] = cache.pop(geo["key"])
        self._evict()
        return roster

    def _evict(self) -> None:
        """Drop least recently used entries until the cache fits its budget."""
        while self._cached_bytes > _ROSTER_CACHE_BYTES:
            self._cached_bytes -= self._cache.pop(next(iter(self._cache)))[1]

    def _geometry(
        self, lane: int, b_max: int, batches: List[int], feat_shape: Tuple[int, ...]
    ) -> Dict[str, np.ndarray]:
        """Lane ``lane``'s sampling geometry for a run of these batch sizes."""
        key = ("geometry", lane, b_max, tuple(batches)) + feat_shape
        return self._cached(
            key, lambda: _new_geometry(key, self.dtype, b_max, batches, feat_shape), _nbytes
        )

    def _uniform_geometry(
        self, g: int, b_max: int, feat_shape: Tuple[int, ...]
    ) -> Dict[str, np.ndarray]:
        """Lane 0's geometry for ``g`` members of batch ``b_max``: the head of
        one sized by capacity, so a pass of any size builds none of its own."""
        key = ("geometry", 0, b_max, None) + feat_shape
        if key in self._cache and len(self._cache[key][0]["gidx"]) < g:
            self._cached_bytes -= self._cache.pop(key)[1]
        geo = self._cached(
            key, lambda: _new_geometry(key, self.dtype, b_max, [b_max] * g, feat_shape), _nbytes
        )
        self._evict()
        head = {name: g * b_max if name == "row_index" else g for name in geo}
        return {k: v[: head[k]] if isinstance(v, np.ndarray) else v for k, v in geo.items()}

    def _cached(self, key: Tuple, build: Callable[[], Any], charge: Callable[[Any], int]) -> Any:
        """The entry under ``key``, built and charged on a miss; now the most recent."""
        hit = self._cache.pop(key, None)
        if hit is None:
            entry = build()
            hit = (entry, charge(entry))
            self._cached_bytes += hit[1]
        self._cache[key] = hit
        return hit[0]

    def _build_roster(
        self,
        ids: List[int],
        worker_data: Sequence[Tuple[np.ndarray, np.ndarray]],
        batch_size: int,
    ) -> _Roster:
        """Derive the round-independent part of a ``run_group`` call."""
        store = getattr(worker_data, "store", None)  # a lazy shard sequence?
        if store is None:
            counts = np.array([len(x) for x, _ in worker_data])
        else:
            rows = slice(None) if worker_data.ids is None else worker_data.ids
            first = store.starts[rows]
            counts = store.stops[rows] - first
        active = np.flatnonzero(counts).tolist()
        idle = np.flatnonzero(counts == 0).tolist()
        # A pointer per entry of ``idle``, ``active`` and the four member lists.
        lists = 8 * (len(idle) + 5 * len(active))
        if not active:  # nobody trains: only ``idle`` is ever read
            empty = np.empty(0)
            return _Roster(idle, active, [], [], [], [], empty, empty, {}, lists)
        counts_py = counts[active].tolist()
        batches_py = [min(batch_size, c) for c in counts_py]
        b_max = max(batches_py)
        # Every SGD step fills the group's mini-batch tensor with one np.take:
        # from one concatenation of the members' private arrays, or from the
        # shared store (in the engine's dtypes, converted once) by absolute row.
        if store is None:
            x_rows = np.concatenate(
                [np.ascontiguousarray(worker_data[k][0], dtype=self.dtype) for k in active]
            )
            y_rows = np.concatenate(
                [np.asarray(worker_data[k][1], dtype=np.int64) for k in active]
            )
            offsets = (np.cumsum(counts_py) - counts_py).tolist()
            owned = x_rows.nbytes + y_rows.nbytes
        else:
            if self._store_rows is None or self._store_rows[0] is not store.x:
                self._store_rows = (
                    store.x, np.asarray(store.x, self.dtype), np.asarray(store.y, np.int64)
                )
            _, x_rows, y_rows = self._store_rows
            offsets, owned = first[active].tolist(), 0
        feat_shape = x_rows.shape[1:]
        geo = self._geometry(0, b_max, batches_py, feat_shape)
        runs = self._split(b_max, batches_py, feat_shape) or [(0, len(active), geo)]
        return _Roster(
            idle, active, [ids[k] for k in active], counts_py, batches_py, offsets,
            x_rows, y_rows, geo, lists + owned, runs,
        )

    def _member_writes(self, batch: int, feat_shape: Tuple[int, ...]) -> int:
        """The most elements one member's slice of the gathered batch or of any
        array a kernel writes holds per step."""
        per_member, shape = batch * math.prod(feat_shape), feat_shape
        for kernel in self._lanes[0].kernels:
            shape, writes = kernel.member_writes(shape, batch)
            per_member = max(per_member, writes)
        return per_member

    def _split(
        self, b_max: int, batches: List[int], feat_shape: Tuple[int, ...]
    ) -> List[Tuple[int, int, Dict[str, np.ndarray]]]:
        """The lane gate: the runs of a tile's active members each lane trains.

        Empty — the tile stays on lane 0 — unless the process has two lanes
        or more and every run's largest array per
        SGD step (the gathered mini-batch or one a kernel writes) holds at
        least ``_LANE_MIN_WRITES`` elements.
        """
        lanes = _lanes()[0]
        if lanes < 2:
            return []
        per_member = self._member_writes(b_max, feat_shape)
        fewest = max(1, -(-_LANE_MIN_WRITES // per_member))  # members per run
        count = min(lanes, len(batches) // fewest)
        if count < 2:
            return []
        while len(self._lanes) < count:
            self._lanes.append(_Lane(self._layers, self.dimension, self.dtype))
        bounds = [len(batches) * k // count for k in range(count + 1)]
        return [
            (a0, a1, self._geometry(k, b_max, batches[a0:a1], feat_shape))
            for k, (a0, a1) in enumerate(zip(bounds, bounds[1:]))
        ]
