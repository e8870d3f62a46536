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

A model is a spec: its ordered layers, and one flat parameter vector
(``model.vector``) of which each layer's ``weight`` and ``bias`` are
reshaped views, laid out in layer order, weight before bias.  The channel
and aggregation code reads it as a copy (``get_vector()``).  The batched engine
(:mod:`repro.nn.batched`) trains and evaluates it; the scalar passes it is
checked against live in the test tree (``tests/oracle/scalar.py``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU
from .params import default_dtype
from ..registry import register as _register

__all__ = [
    "Model",
    "SequentialModel",
    "LogisticRegressionMLP",
    "MnistCNN",
    "CifarCNN",
    "MiniVGG",
]

#: Rows per forward pass of ``BatchedWorkerEngine.evaluate``, whose bits
#: depend on it.
EVAL_BATCH_SIZE = 256


class Model:
    """What the engine and the aggregation code read of a trainable model:
    its parameters, flat."""

    vector: np.ndarray

    def get_vector(self) -> np.ndarray:
        """Copy of the flat parameter vector (the vector transmitted over MAC)."""
        return self.vector.copy()

    @property
    def dimension(self) -> int:
        """Model dimension ``q`` (number of scalar parameters)."""
        return self.vector.size


class SequentialModel(Model):
    """A model defined by an ordered list of layers.

    Builds ``vector`` in :func:`~repro.nn.params.default_dtype` from each
    layer's ``weight`` then ``bias``, in layer order, and rebinds those
    arrays to reshaped views of it.
    """

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers: List[Layer] = list(layers)
        owned = [
            (layer, attr)
            for layer in self.layers
            for attr in ("weight", "bias")
            if getattr(layer, attr, None) is not None
        ]
        self.vector = np.empty(
            sum(getattr(layer, attr).size for layer, attr in owned), default_dtype()
        )
        offset = 0
        for layer, attr in owned:
            value = getattr(layer, attr)
            view = self.vector[offset : offset + value.size].reshape(value.shape)
            view[...] = value
            setattr(layer, attr, view)
            offset += value.size


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


class _TwoConvCNN(SequentialModel):
    """Two 5x5 convolution + ReLU + 2x2 max-pool blocks, then Flatten, a
    dense layer + ReLU and the output layer (paper Section VI-A).

    ``widths`` holds the two convolutions' channels and the hidden width;
    ``scale`` shrinks all three proportionally so the same architecture
    runs quickly on synthetic data.
    """

    widths: Tuple[int, int, int]

    def __init__(
        self, image_size: int, in_channels: int, num_classes: int, scale: float, seed: int
    ) -> None:
        if image_size % 4 != 0:
            raise ValueError("image_size must be divisible by 4 for two 2x2 pools")
        rng = np.random.default_rng(seed)
        w1, w2, wh = self.widths
        c1 = max(2, int(round(w1 * scale)))
        c2 = max(2, int(round(w2 * scale)))
        h1 = max(8, int(round(wh * scale)))
        spatial = image_size // 4
        layers: List[Layer] = [
            Conv2D("conv1", in_channels, c1, 5, rng, padding=2),
            ReLU("relu1"),
            MaxPool2D("pool1", 2),
            Conv2D("conv2", c1, c2, 5, rng, padding=2),
            ReLU("relu2"),
            MaxPool2D("pool2", 2),
            Flatten("flatten"),
            Dense("fc1", c2 * spatial * spatial, h1, rng),
            ReLU("relu3"),
            Dense("out", h1, num_classes, rng, activationless_init=True),
        ]
        super().__init__(layers)
        self.image_size = image_size
        self.in_channels = in_channels
        self.num_classes = num_classes


@_register("model", "mnist_cnn")
class MnistCNN(_TwoConvCNN):
    """Plain CNN for MNIST-shaped inputs: 20 and 50 channels, 500 hidden units."""

    widths = (20, 50, 500)

    def __init__(
        self,
        image_size: int = 28,
        in_channels: int = 1,
        num_classes: int = 10,
        scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(image_size, in_channels, num_classes, scale, seed)


@_register("model", "cifar_cnn")
class CifarCNN(_TwoConvCNN):
    """Plain CNN for CIFAR-shaped inputs (3-channel colour images): 32 and 64
    channels, 512 hidden units."""

    widths = (32, 64, 512)

    def __init__(
        self,
        image_size: int = 32,
        in_channels: int = 3,
        num_classes: int = 10,
        scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(image_size, in_channels, num_classes, scale, seed)


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
