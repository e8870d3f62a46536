"""How fast the host is right now, from a fixed reference computation.

This host is a small shared VM: the same code runs 15–50 % slower for tens
of seconds to minutes at a time, depending on what the neighbours do (CPU and
wall time move together, so it is not steal time).  A median over the
repetitions of one run removes short bursts but not such a phase, and two
sets of runs an hour apart then disagree by more than any useful bound.

So every repetition is bracketed by a reference computation that never
changes — interpreter work, small GEMMs and a large copy, the three things
the simulator's time goes to — and the repetition's seconds are divided by
how much slower than nominal the reference ran around it.  Reported seconds
are therefore *seconds on the nominal host*; the measured slowdown itself is
reported as ``bench.host_slowdown``.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List

import numpy as np

__all__ = ["HostClock", "NOMINAL_S"]

#: Seconds the reference computation takes on the host this benchmark was
#: defined on when it is quiet.  Frozen: changing it rescales every timing.
NOMINAL_S = 0.090

_SLICES = 5


class _Box:
    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> int:
        self.total += value
        return self.total


def _interpreter() -> None:
    box, table = _Box(), {}
    for index in range(36_000):
        table[index & 255] = box.add(index)
    sorted([value * 2 for value in range(18_000)], reverse=True)


class HostClock:
    """Times the reference computation; :meth:`slowdown` reads it off."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        left = rng.standard_normal((10, 32, 64))
        right = rng.standard_normal((10, 64, 32))
        product = np.empty((10, 32, 32))
        # 2 x 8 MB: beyond the private caches, small beside any workload's RSS.
        source = rng.standard_normal(1_000_000)
        target = np.empty_like(source)

        def gemm() -> None:
            for _ in range(200):
                np.matmul(left, right, out=product)
                np.maximum(product, 0.0, out=product)

        def copy() -> None:
            for _ in range(5):
                np.copyto(target, source)
                np.add(target, 1.0, out=target)

        self._kernels: List[Callable[[], None]] = [_interpreter, gemm, copy]
        self._last = self._measure()

    def _measure(self) -> float:
        """Seconds of one reference computation: per kernel, the median of
        ``_SLICES`` short slices (a burst that hits one slice is dropped)."""
        total = 0.0
        for kernel in self._kernels:
            slices = []
            for _ in range(_SLICES):
                start = time.perf_counter()
                kernel()
                slices.append(time.perf_counter() - start)
            total += statistics.median(slices) * _SLICES
        return total

    def slowdown(self) -> float:
        """Host slowdown over the interval since the previous call: the mean
        of the reference times at its two ends over nominal (1.0 = nominal)."""
        now = self._measure()
        value = (self._last + now) / 2.0 / NOMINAL_S
        self._last = now
        return value
