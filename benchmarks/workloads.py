"""Benchmark-scale workload definitions shared by the figure benchmarks.

The four workloads mirror the paper's model/dataset pairs (Figs. 3-6); the
sizes below are chosen so each mechanism comparison runs in roughly a minute
of wall-clock time while the simulated-time axis stays comparable to the
paper's (hundreds to thousands of simulated seconds).
"""

from __future__ import annotations

from repro.experiments import (
    Scenario,
    cnn_cifar10_config,
    cnn_mnist_config,
    lr_mnist_config,
    vgg_imagenet100_config,
)

__all__ = [
    "fig3_config",
    "fig4_config",
    "fig5_config",
    "fig6_config",
    "ACCURACY_TARGETS",
]

#: Accuracy targets used for time-to-accuracy reporting, per workload.  The
#: synthetic datasets saturate at different levels than the real ones, so the
#: targets are chosen inside each workload's reachable range.
ACCURACY_TARGETS = {
    "lr_mnist": (0.5, 0.6, 0.7),
    "cnn_mnist": (0.4, 0.5, 0.6),
    "cnn_cifar10": (0.3, 0.4, 0.5),
    "vgg_imagenet100": (0.12, 0.2, 0.3),
}


def fig3_config(num_workers: int = 40, max_time: float = 2500.0) -> Scenario:
    """Fig. 3 workload: "LR" (two-hidden-layer MLP) on MNIST-like data."""
    return lr_mnist_config(
        num_workers=num_workers, num_train=1600, image_size=8, hidden=32,
        max_rounds=4000,
    ).with_(training={
        "learning_rate": 0.2, "local_steps": 5, "batch_size": 32,
        "eval_every": 5, "max_eval_samples": 200, "max_time": max_time,
    })


def fig4_config(num_workers: int = 30, max_time: float = 2200.0) -> Scenario:
    """Fig. 4 workload: CNN on MNIST-like data."""
    return cnn_mnist_config(
        num_workers=num_workers, num_train=900, image_size=8, scale=0.1,
        max_rounds=4000,
    ).with_(training={
        "learning_rate": 0.15, "local_steps": 3, "batch_size": 32,
        "eval_every": 5, "max_eval_samples": 150, "max_time": max_time,
    })


def fig5_config(num_workers: int = 30, max_time: float = 3000.0) -> Scenario:
    """Fig. 5 workload: CNN on CIFAR-10-like data (noisier, lower plateau)."""
    return cnn_cifar10_config(
        num_workers=num_workers, num_train=900, image_size=8, scale=0.08,
        max_rounds=4000,
    ).with_(training={
        "learning_rate": 0.15, "local_steps": 3, "batch_size": 32,
        "eval_every": 5, "max_eval_samples": 150, "max_time": max_time,
    })


def fig6_config(num_workers: int = 20, max_time: float = 8000.0) -> Scenario:
    """Fig. 6 workload: VGG-style network on an ImageNet-100 stand-in (20 classes)."""
    return vgg_imagenet100_config(
        num_workers=num_workers, num_train=1600, image_size=8, num_classes=20,
        max_rounds=4000,
    ).with_(
        training={
            "learning_rate": 0.25, "local_steps": 5, "batch_size": 32,
            "eval_every": 4, "max_eval_samples": 150, "max_time": max_time,
        },
        **{"timing.base_local_time": 12.0},
    )
