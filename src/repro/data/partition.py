"""Partitioning of a dataset across federated workers.

The paper (Section VI-A2) implements Non-IID data with the *label-skew*
method: the MNIST samples labelled '0' go to workers v1-v10, labelled '1' to
v11-v20, and so on.  We implement that scheme exactly, plus the two other
standard partitioners used in the FL literature (IID and Dirichlet label
skew) for the ablation benchmarks.

A partition is represented by :class:`Partition`, mapping each worker index
to the indices of its training samples; per-worker and per-class sizes
(the d_i, d_i^k quantities of Table II) are exposed directly.  The
proportions α_i = d_i / D are computed from
:attr:`repro.core.population.WorkerStateTable.sizes` where a trainer
aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..registry import register as _register
from .synthetic import Dataset

__all__ = [
    "Partition",
    "partition_iid",
    "partition_label_skew",
    "partition_dirichlet",
]


@dataclass
class Partition:
    """Assignment of training-sample indices to workers.

    Attributes
    ----------
    indices:
        ``indices[i]`` is the integer index array of worker ``i``'s samples.
    num_classes:
        Number of classes in the underlying dataset.
    labels:
        The full training label array (needed to compute per-class counts).
    """

    indices: List[np.ndarray]
    num_classes: int
    labels: np.ndarray
    name: str = "custom"
    _class_counts: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.indices = [np.asarray(ix, dtype=np.int64) for ix in self.indices]
        self.labels = np.asarray(self.labels, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self.indices)

    def worker_indices(self, worker: int) -> np.ndarray:
        return self.indices[worker]

    def data_sizes(self) -> np.ndarray:
        """Per-worker data sizes ``d_i`` (Table II)."""
        return np.array([ix.size for ix in self.indices], dtype=np.int64)

    @property
    def total_size(self) -> int:
        """Total data size ``D``."""
        return int(self.data_sizes().sum())

    def class_counts(self) -> np.ndarray:
        """Matrix of per-worker per-class sample counts ``d_i^k``.

        Shape ``(num_workers, num_classes)``.  Cached after first call.
        Computed with one flattened ``bincount`` over ``worker·K + label``
        keys instead of a per-worker Python loop (integer counts, so the
        result is unchanged; the loop was super-linear in wall time at
        10k+ workers).
        """
        if self._class_counts is None:
            sizes = self.data_sizes()
            n, k = self.num_workers, self.num_classes
            if sizes.sum() == 0:
                self._class_counts = np.zeros((n, k), dtype=np.int64)
                return self._class_counts
            flat = np.concatenate([ix for ix in self.indices if ix.size])
            assigned = self.labels[flat]
            if assigned.size and (assigned.min() < 0 or assigned.max() >= k):
                raise ValueError("partition labels out of range for num_classes")
            owners = np.repeat(np.arange(n, dtype=np.int64), sizes)
            self._class_counts = np.bincount(
                owners * k + assigned, minlength=n * k
            ).reshape(n, k)
        return self._class_counts

    def global_distribution(self) -> np.ndarray:
        """Global label distribution ``λ_k`` over all assigned samples."""
        counts = self.class_counts().sum(axis=0).astype(np.float64)
        total = counts.sum()
        if total == 0:
            raise ValueError("partition is empty")
        return counts / total


# ----------------------------------------------------------------------
# Partition strategies
# ----------------------------------------------------------------------
@_register("partitioner", "iid")
def partition_iid(
    dataset: Dataset, num_workers: int, seed: int = 0
) -> Partition:
    """Shuffle and split the training set evenly across workers."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.num_train)
    chunks = np.array_split(order, num_workers)
    return Partition(
        indices=list(chunks),
        num_classes=dataset.num_classes,
        labels=dataset.y_train,
        name="iid",
    )


@_register("partitioner", "label-skew")
def partition_label_skew(
    dataset: Dataset,
    num_workers: int,
    labels_per_worker: int = 1,
    seed: int = 0,
) -> Partition:
    """The paper's label-skew partition.

    With ``labels_per_worker=1`` and 100 workers over a 10-class dataset this
    reproduces the paper's setup exactly: the samples of class ``k`` are
    split evenly among the block of workers assigned to class ``k``
    (workers ``v_{10k+1} .. v_{10(k+1)}`` for MNIST).

    For class counts that do not divide the worker count evenly, workers are
    assigned classes round-robin so every worker holds data from exactly
    ``labels_per_worker`` classes where possible.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if labels_per_worker < 1:
        raise ValueError("labels_per_worker must be >= 1")
    rng = np.random.default_rng(seed)
    k = dataset.num_classes
    labels = dataset.y_train

    # For each class, collect and shuffle its sample indices.
    class_pools: List[np.ndarray] = []
    for c in range(k):
        pool = np.flatnonzero(labels == c)
        class_pools.append(rng.permutation(pool))

    # Assign classes to workers: worker i receives classes
    # {(i * labels_per_worker + j) mod K} so that consecutive blocks of
    # workers share a class exactly like the paper's v1-v10 / v11-v20 blocks
    # when labels_per_worker == 1 and num_workers is a multiple of K.
    assignments: List[List[int]] = []
    for i in range(num_workers):
        base = (i * labels_per_worker * k) // num_workers
        classes = [(base + j) % k for j in range(labels_per_worker)]
        assignments.append(classes)

    # When there are fewer workers than classes some classes would otherwise
    # be left out entirely; hand the orphan classes out round-robin so every
    # sample is assigned (with N >= K, the paper's regime, this is a no-op).
    assigned_classes = {c for classes in assignments for c in classes}
    orphans = [c for c in range(k) if c not in assigned_classes]
    for j, c in enumerate(orphans):
        assignments[j % num_workers].append(c)

    # Count how many workers want each class, then split the class pool into
    # that many shards.
    demand = np.zeros(k, dtype=np.int64)
    for classes in assignments:
        for c in classes:
            demand[c] += 1
    shards: Dict[int, List[np.ndarray]] = {}
    for c in range(k):
        if demand[c] == 0:
            shards[c] = []
        else:
            shards[c] = list(np.array_split(class_pools[c], demand[c]))

    cursor = {c: 0 for c in range(k)}
    indices: List[np.ndarray] = []
    for classes in assignments:
        parts = []
        for c in classes:
            if cursor[c] < len(shards[c]):
                parts.append(shards[c][cursor[c]])
                cursor[c] += 1
        if parts:
            indices.append(np.concatenate(parts))
        else:
            indices.append(np.empty(0, dtype=np.int64))

    return Partition(
        indices=indices,
        num_classes=k,
        labels=labels,
        name=f"label-skew-{labels_per_worker}",
    )


@_register("partitioner", "dirichlet")
def partition_dirichlet(
    dataset: Dataset,
    num_workers: int,
    alpha: float = 0.5,
    seed: int = 0,
    min_samples: int = 1,
) -> Partition:
    """Dirichlet label-skew partition (Hsu et al. style).

    Per class, sample a worker-share vector from ``Dirichlet(alpha)`` and
    split the class samples proportionally.  Smaller ``alpha`` means more
    skew.  Every worker is guaranteed at least ``min_samples`` samples by
    re-drawing until the constraint is met (bounded retries).
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng(seed)
    k = dataset.num_classes
    labels = dataset.y_train
    n = labels.shape[0]
    if n < num_workers * min_samples:
        raise ValueError("not enough samples to satisfy min_samples per worker")

    for _attempt in range(50):
        buckets: List[List[int]] = [[] for _ in range(num_workers)]
        for c in range(k):
            pool = rng.permutation(np.flatnonzero(labels == c))
            if pool.size == 0:
                continue
            shares = rng.dirichlet(np.full(num_workers, alpha))
            # Convert shares into cumulative cut points over the pool.
            cuts = (np.cumsum(shares)[:-1] * pool.size).astype(np.int64)
            pieces = np.split(pool, cuts)
            for i, piece in enumerate(pieces):
                buckets[i].extend(piece.tolist())
        sizes = np.array([len(b) for b in buckets])
        if sizes.min() >= min_samples:
            break
    else:
        raise RuntimeError(
            "failed to draw a Dirichlet partition meeting the minimum size "
            "constraint; increase alpha or dataset size"
        )

    indices = [np.array(sorted(b), dtype=np.int64) for b in buckets]
    return Partition(
        indices=indices,
        num_classes=k,
        labels=labels,
        name=f"dirichlet-{alpha}",
    )
