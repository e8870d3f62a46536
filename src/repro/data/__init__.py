"""Dataset substrate: synthetic datasets and federated partitioning."""

from .synthetic import (
    Dataset,
    SyntheticImageConfig,
    make_cifar10_like,
    make_imagenet100_like,
    make_mnist_like,
    make_synthetic_images,
)
from .partition import (
    Partition,
    partition_dirichlet,
    partition_iid,
    partition_label_skew,
)

__all__ = [
    "Dataset",
    "SyntheticImageConfig",
    "make_synthetic_images",
    "make_mnist_like",
    "make_cifar10_like",
    "make_imagenet100_like",
    "Partition",
    "partition_iid",
    "partition_label_skew",
    "partition_dirichlet",
]
