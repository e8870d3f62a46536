"""Model architectures used by the paper's evaluation.

The paper trains three model families:

* **LR on MNIST** — a fully connected network with two 512-unit hidden
  layers (the paper calls it "logistic regression"; its description in
  Section VI-A is an MLP).
* **CNN on MNIST / CIFAR-10** — two 5x5 convolution layers followed by two
  dense layers and a softmax output.
* **VGG-16 on ImageNet-100** — 13 convolution layers + 2 dense layers.

All models here are parameterized by input shape / width so that the
benchmarks can run scaled-down versions on synthetic data in reasonable
time while preserving the architecture family.  ``MiniVGG`` is the scaled
stand-in for VGG-16.

Every model exposes:

* ``forward(x, training)`` → logits,
* ``backward(grad_logits)`` → accumulates parameter gradients,
* ``loss_and_grad(x, y)`` → convenience fused pass,
* ``parameters`` (a :class:`~repro.nn.params.ParameterSet`),
* ``get_vector()`` / ``set_vector(v)`` — flattened parameter access used by
  the channel and aggregation code.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .layers import (
    Conv2D,
    Dense,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    collect_parameters)
from .losses import accuracy, cross_entropy, softmax_cross_entropy
from .params import ParameterSet
from ..registry import register as _register

__all__ = [
    "Model",
    "SequentialModel",
    "LogisticRegressionMLP",
    "MnistCNN",
    "CifarCNN",
    "MiniVGG",
]

#: Rows per forward pass of :meth:`Model.evaluate`; the batched engine's
#: evaluation pass batches the same rows, which its bits depend on.
EVAL_BATCH_SIZE = 256


class Model:
    """Abstract interface shared by every trainable model."""

    parameters: ParameterSet

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_logits: np.ndarray) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Convenience API used by the FL workers
    # ------------------------------------------------------------------
    def loss_and_grad(self, x: np.ndarray, y: np.ndarray) -> float:
        """Run a full forward/backward pass and return the mean loss.

        Parameter gradients are accumulated in place; callers should call
        ``zero_grad`` (via the optimizer) between batches.
        """
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

    def get_vector(self, out: np.ndarray | None = None) -> np.ndarray:
        """Flattened copy of all parameters (the vector transmitted over MAC)."""
        return self.parameters.to_vector(out=out)

    def set_vector(self, vector: np.ndarray) -> None:
        """Load all parameters from a flat vector in place."""
        self.parameters.from_vector(vector)

    @property
    def dimension(self) -> int:
        """Model dimension ``q`` (number of scalar parameters)."""
        return self.parameters.total_size

    def zero_grad(self) -> None:
        self.parameters.zero_grad()


class SequentialModel(Model):
    """A model defined by an ordered list of layers."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers: List[Layer] = list(layers)
        self.parameters = collect_parameters(self.layers)
        # Inputs are cast to the parameter dtype so float32 simulation mode
        # keeps the whole forward/backward pass in float32.
        self._input_dtype = (
            self.parameters[0].value.dtype if len(self.parameters) else np.dtype(np.float64)
        )

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = np.asarray(x, dtype=self._input_dtype)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_logits: np.ndarray) -> None:
        grad = grad_logits
        for layer in reversed(self.layers):
            grad = layer.backward(grad)


@_register("model", "lr")
class LogisticRegressionMLP(SequentialModel):
    """The paper's "LR" model: MLP with two hidden layers (default 512 units).

    Input is a flat feature vector (e.g. 784 for MNIST-shaped data).
    """

    def __init__(
        self,
        input_dim: int = 784,
        num_classes: int = 10,
        hidden: int = 512,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        layers: List[Layer] = [
            Dense("fc1", input_dim, hidden, rng),
            ReLU("relu1"),
            Dense("fc2", hidden, hidden, rng),
            ReLU("relu2"),
            Dense("out", hidden, num_classes, rng, activationless_init=True),
        ]
        super().__init__(layers)
        self.input_dim = input_dim
        self.num_classes = num_classes


@_register("model", "mnist_cnn")
class MnistCNN(SequentialModel):
    """Plain CNN for MNIST-shaped inputs (paper Section VI-A).

    Two 5x5 convolution layers (20, 50 channels by default) with 2x2 max
    pooling, followed by two dense layers and a softmax output.  ``scale``
    shrinks the channel/hidden widths proportionally so the same
    architecture runs quickly on synthetic data.
    """

    def __init__(
        self,
        image_size: int = 28,
        in_channels: int = 1,
        num_classes: int = 10,
        scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        if image_size % 4 != 0:
            raise ValueError("image_size must be divisible by 4 for two 2x2 pools")
        rng = np.random.default_rng(seed)
        c1 = max(2, int(round(20 * scale)))
        c2 = max(2, int(round(50 * scale)))
        h1 = max(8, int(round(500 * scale)))
        spatial = image_size // 4
        flat = c2 * spatial * spatial
        layers: List[Layer] = [
            Conv2D("conv1", in_channels, c1, 5, rng, padding=2),
            ReLU("relu1"),
            MaxPool2D("pool1", 2),
            Conv2D("conv2", c1, c2, 5, rng, padding=2),
            ReLU("relu2"),
            MaxPool2D("pool2", 2),
            Flatten("flatten"),
            Dense("fc1", flat, h1, rng),
            ReLU("relu3"),
            Dense("out", h1, num_classes, rng, activationless_init=True),
        ]
        super().__init__(layers)
        self.image_size = image_size
        self.in_channels = in_channels
        self.num_classes = num_classes


@_register("model", "cifar_cnn")
class CifarCNN(SequentialModel):
    """Plain CNN for CIFAR-shaped inputs (3-channel colour images)."""

    def __init__(
        self,
        image_size: int = 32,
        in_channels: int = 3,
        num_classes: int = 10,
        scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        if image_size % 4 != 0:
            raise ValueError("image_size must be divisible by 4 for two 2x2 pools")
        rng = np.random.default_rng(seed)
        c1 = max(2, int(round(32 * scale)))
        c2 = max(2, int(round(64 * scale)))
        h1 = max(8, int(round(512 * scale)))
        spatial = image_size // 4
        flat = c2 * spatial * spatial
        layers: List[Layer] = [
            Conv2D("conv1", in_channels, c1, 5, rng, padding=2),
            ReLU("relu1"),
            MaxPool2D("pool1", 2),
            Conv2D("conv2", c1, c2, 5, rng, padding=2),
            ReLU("relu2"),
            MaxPool2D("pool2", 2),
            Flatten("flatten"),
            Dense("fc1", flat, h1, rng),
            ReLU("relu3"),
            Dense("out", h1, num_classes, rng, activationless_init=True),
        ]
        super().__init__(layers)
        self.image_size = image_size
        self.in_channels = in_channels
        self.num_classes = num_classes


@_register("model", "mini_vgg")
class MiniVGG(SequentialModel):
    """A scaled-down VGG-style network standing in for VGG-16.

    VGG-16 proper has 13 convolutional layers and ~138M parameters, which is
    impractical in a pure-NumPy substrate.  ``MiniVGG`` keeps the defining
    traits — stacked 3x3 convolutions in blocks of increasing width, each
    block ending in 2x2 max pooling, followed by two dense layers — at a
    width/depth that trains in seconds.  ``blocks`` controls depth.
    """

    def __init__(
        self,
        image_size: int = 32,
        in_channels: int = 3,
        num_classes: int = 100,
        base_channels: int = 8,
        blocks: int = 3,
        hidden: int = 64,
        seed: int = 0,
    ) -> None:
        if blocks < 1:
            raise ValueError("MiniVGG requires at least one block")
        if image_size % (2 ** blocks) != 0:
            raise ValueError(
                f"image_size {image_size} must be divisible by 2**blocks={2 ** blocks}"
            )
        rng = np.random.default_rng(seed)
        layers: List[Layer] = []
        channels = in_channels
        width = base_channels
        for b in range(blocks):
            layers.append(Conv2D(f"block{b + 1}.conv1", channels, width, 3, rng, padding=1))
            layers.append(ReLU(f"block{b + 1}.relu1"))
            layers.append(Conv2D(f"block{b + 1}.conv2", width, width, 3, rng, padding=1))
            layers.append(ReLU(f"block{b + 1}.relu2"))
            layers.append(MaxPool2D(f"block{b + 1}.pool", 2))
            channels = width
            width *= 2
        spatial = image_size // (2 ** blocks)
        flat = channels * spatial * spatial
        layers.extend(
            [
                Flatten("flatten"),
                Dense("fc1", flat, hidden, rng),
                ReLU("fc1.relu"),
                Dense("fc2", hidden, hidden, rng),
                ReLU("fc2.relu"),
                Dense("out", hidden, num_classes, rng, activationless_init=True),
            ]
        )
        super().__init__(layers)
        self.image_size = image_size
        self.in_channels = in_channels
        self.num_classes = num_classes
