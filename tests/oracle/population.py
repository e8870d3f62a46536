"""The store's label-count table as the simulator first built it: the reference
of :class:`repro.core.population.ClassCountView`, which serves the same counts
block by block and never holds the table."""

from __future__ import annotations

import numpy as np

from repro.core.population import SharedDatasetStore


def class_count_table(store: SharedDatasetStore) -> np.ndarray:
    """Per-worker label histograms, ``(N, K)``: the transpose of a class-major
    C-contiguous ``(K, N)`` table in the narrowest dtype that holds the longest
    window (uint8 up to 255 rows, uint16 up to 65,535, else int32).  Class
    ``c``'s row is ``prefix[starts + sizes] - prefix[starts]`` over one
    ``(n + 1,)`` int32 prefix sum of ``y == c``."""
    labels, k = np.asarray(store.y), store.num_classes
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError("partition labels out of range for num_classes")
    longest = int(store.sizes.max())
    narrow = np.uint8 if longest <= 255 else np.uint16 if longest <= 65535 else np.int32
    counts = np.empty((k, store.num_workers), dtype=narrow)
    prefix = np.zeros(labels.size + 1, dtype=np.int32)
    lower = store.starts.astype(np.int64)
    for c, row in enumerate(counts):
        np.cumsum(labels == c, dtype=np.int32, out=prefix[1:])
        np.subtract(prefix[lower + store.sizes], prefix[lower], out=row, casting="unsafe")
    return counts.T
