"""Reference checks of the data layer: per-worker copies and partition invariants."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data import Dataset, Partition


def legacy_subset(dataset: Dataset, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A worker's training samples as the per-worker-copy simulator held them:
    one fancy-index copy of ``(x_train, y_train)``, which the shared store's
    shards must equal in value."""
    indices = np.asarray(indices, dtype=np.int64)
    return dataset.x_train[indices], dataset.y_train[indices]


def validate_partition(partition: Partition) -> None:
    """Raise ``ValueError`` unless every index is in range and no sample
    belongs to two workers."""
    n = partition.labels.shape[0]
    seen: set[int] = set()
    for i, ix in enumerate(partition.indices):
        if ix.size and (ix.min() < 0 or ix.max() >= n):
            raise ValueError(f"worker {i} has out-of-range sample indices")
        overlap = seen.intersection(ix.tolist())
        if overlap:
            raise ValueError(
                f"worker {i} shares samples with earlier workers: "
                f"{sorted(overlap)[:5]}..."
            )
        seen.update(ix.tolist())
