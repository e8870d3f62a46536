"""Synthetic classification datasets standing in for MNIST / CIFAR-10 / ImageNet-100.

The evaluation in the paper uses three image datasets.  This repository has
no network access and no GPU, so we generate synthetic datasets with the
same *structural* properties that matter to the federated mechanism:

* the same number of classes (10, 10, 100),
* image-shaped samples (``(1, 28, 28)``, ``(3, 32, 32)``, configurable),
* learnable class structure: each class has a Gaussian prototype in pixel
  space plus per-sample noise and a smooth spatial correlation, so the
  models in :mod:`repro.nn` genuinely learn (accuracy rises well above
  chance) and the loss curves behave like real training curves,
* a held-out test split drawn from the same distribution.

Everything is deterministic given the seed, which the experiment harness
relies on for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..registry import register as _register

__all__ = [
    "Dataset",
    "SyntheticImageConfig",
    "make_synthetic_images",
    "make_mnist_like",
    "make_cifar10_like",
    "make_imagenet100_like",
]


@dataclass
class Dataset:
    """An in-memory classification dataset with train and test splits.

    Attributes
    ----------
    name:
        Registry name (e.g. ``"synthetic-mnist"``).
    x_train, y_train, x_test, y_test:
        Features are ``float64`` arrays; images have shape
        ``(N, C, H, W)`` and flat datasets ``(N, D)``.  Labels are ``int64``.
    num_classes:
        Number of distinct labels.
    """

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        if self.x_train.shape[0] != self.y_train.shape[0]:
            raise ValueError("train features/labels length mismatch")
        if self.x_test.shape[0] != self.y_test.shape[0]:
            raise ValueError("test features/labels length mismatch")

    @property
    def num_train(self) -> int:
        return int(self.x_train.shape[0])

    @property
    def num_test(self) -> int:
        return int(self.x_test.shape[0])

    def flattened(self) -> "Dataset":
        """Return a copy with samples flattened to vectors (for MLP models)."""
        return Dataset(
            name=self.name + "-flat",
            x_train=self.x_train.reshape(self.num_train, -1),
            y_train=self.y_train,
            x_test=self.x_test.reshape(self.num_test, -1),
            y_test=self.y_test,
            num_classes=self.num_classes,
        )


@dataclass
class SyntheticImageConfig:
    """Configuration for :func:`make_synthetic_images`."""

    num_classes: int = 10
    num_train: int = 2000
    num_test: int = 400
    channels: int = 1
    image_size: int = 28
    noise_std: float = 0.6
    prototype_scale: float = 1.5
    smoothing: int = 3
    seed: int = 0


def _smooth(images: np.ndarray, window: int) -> np.ndarray:
    """Apply a cheap separable box filter along the spatial axes.

    Real images have strong local spatial correlation; adding it to the
    synthetic data makes convolutional models meaningfully better than
    pixel-independent ones, which keeps the CNN-vs-LR comparisons in the
    benchmarks qualitatively faithful.

    Each row comes out as ``np.convolve(row, ones(window) / window,
    mode="same")`` would give it, bit for bit, from whole-tensor shifted
    adds: interior taps are a plain multiply-add chain in ascending source
    index, while the truncated border windows go through the BLAS dot
    product (fused multiply-add), which ``np.vecdot`` reaches on
    unit-stride slices.  NumPy takes that interior route for windows up to
    11 taps; wider ones agree to 1 ulp.
    """
    if window <= 1:
        return images
    kernel = np.ones(window) / window
    left = window // 2
    right = window - left - 1

    def border(block: np.ndarray) -> np.ndarray:
        return np.vecdot(np.ascontiguousarray(block), kernel[: block.shape[-1]])

    out = images
    for axis in (-2, -1):
        x = np.swapaxes(out, axis, -1)
        n = x.shape[-1]
        span = n - window + 1
        y = np.empty_like(x)
        inner = y[..., left:n - right]
        np.multiply(x[..., :span], kernel[0], out=inner)
        product = np.empty_like(inner)
        for tap in range(1, window):
            inner += np.multiply(x[..., tap:tap + span], kernel[tap], out=product)
        for j in range(left):
            y[..., j] = border(x[..., :right + 1 + j])
        for j in range(right):
            y[..., n - 1 - j] = border(x[..., n - left - 1 - j:])
        out = np.swapaxes(y, axis, -1)
    return out


def make_synthetic_images(config: SyntheticImageConfig, name: str) -> Dataset:
    """Generate a synthetic image classification dataset.

    Each class ``k`` gets a random low-frequency prototype image; samples of
    class ``k`` are ``prototype_k + noise`` (then lightly smoothed and
    standardized).  Class priors are uniform.
    """
    cfg = config
    if cfg.num_classes < 2:
        raise ValueError("need at least two classes")
    if cfg.num_train < cfg.num_classes:
        raise ValueError("need at least one training sample per class")
    if cfg.num_test < 0:
        raise ValueError(f"num_test must be non-negative, got {cfg.num_test}")
    if cfg.smoothing < 0:
        raise ValueError(f"smoothing must be non-negative, got {cfg.smoothing}")
    min_size = 2 * cfg.smoothing + 1
    if cfg.image_size < min_size:
        raise ValueError(
            f"image_size={cfg.image_size} is smaller than the prototype filter: "
            f"smoothing={cfg.smoothing} needs image_size >= {min_size}"
        )
    rng = np.random.default_rng(cfg.seed)
    shape = (cfg.channels, cfg.image_size, cfg.image_size)

    prototypes = rng.standard_normal((cfg.num_classes, *shape)) * cfg.prototype_scale
    prototypes = _smooth(prototypes, cfg.smoothing * 2 + 1)

    def _draw(n: int) -> Tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, cfg.num_classes, size=n)
        noise = rng.standard_normal((n, *shape)) * cfg.noise_std
        images = prototypes[labels] + _smooth(noise, cfg.smoothing)
        return images.astype(np.float64), labels.astype(np.int64)

    x_train, y_train = _draw(cfg.num_train)
    x_test, y_test = _draw(cfg.num_test)

    # Standardize with the training statistics only (no test leakage).
    mean = x_train.mean()
    std = x_train.std() + 1e-8
    x_train = (x_train - mean) / std
    x_test = (x_test - mean) / std

    return Dataset(
        name=name,
        x_train=x_train,
        y_train=y_train,
        x_test=x_test,
        y_test=y_test,
        num_classes=cfg.num_classes,
    )


@_register("dataset", "synthetic-mnist")
def make_mnist_like(
    num_train: int = 2000,
    num_test: int = 400,
    image_size: int = 28,
    seed: int = 0,
) -> Dataset:
    """10-class single-channel dataset shaped like MNIST."""
    cfg = SyntheticImageConfig(
        num_classes=10,
        num_train=num_train,
        num_test=num_test,
        channels=1,
        image_size=image_size,
        seed=seed,
    )
    return make_synthetic_images(cfg, "synthetic-mnist")


@_register("dataset", "synthetic-cifar10")
def make_cifar10_like(
    num_train: int = 2000,
    num_test: int = 400,
    image_size: int = 32,
    seed: int = 0,
) -> Dataset:
    """10-class three-channel dataset shaped like CIFAR-10.

    CIFAR-10 is harder than MNIST; we reflect that by using a higher noise
    level so accuracy saturates lower and later, as in the paper's Fig. 5.
    """
    cfg = SyntheticImageConfig(
        num_classes=10,
        num_train=num_train,
        num_test=num_test,
        channels=3,
        image_size=image_size,
        noise_std=1.2,
        prototype_scale=1.2,
        seed=seed,
    )
    return make_synthetic_images(cfg, "synthetic-cifar10")


@_register("dataset", "synthetic-imagenet100")
def make_imagenet100_like(
    num_train: int = 3000,
    num_test: int = 500,
    image_size: int = 32,
    num_classes: int = 100,
    seed: int = 0,
) -> Dataset:
    """100-class three-channel dataset standing in for ImageNet-100.

    Image resolution is reduced (default 32x32) so the MiniVGG substitute
    trains in a pure-NumPy substrate; the class count matches the paper.
    """
    cfg = SyntheticImageConfig(
        num_classes=num_classes,
        num_train=num_train,
        num_test=num_test,
        channels=3,
        image_size=image_size,
        noise_std=1.0,
        prototype_scale=1.3,
        seed=seed,
    )
    return make_synthetic_images(cfg, "synthetic-imagenet100")
