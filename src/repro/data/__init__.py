"""Dataset substrate: synthetic datasets, federated partitioning, statistics."""

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
from .stats import (
    average_emd,
    emd,
    group_class_counts,
    group_data_sizes,
    group_distributions,
    group_emds,
    worker_emds,
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
    "emd",
    "group_class_counts",
    "group_data_sizes",
    "group_distributions",
    "group_emds",
    "average_emd",
    "worker_emds",
]
