"""Worker compute-latency model and edge-heterogeneity simulation.

Section VI-A2 of the paper: the 100 virtual workers run on one workstation,
so their raw local-training times ``l̂_i`` are roughly equal; heterogeneity
is injected by a per-worker scaling factor ``κ_i`` drawn uniformly from
``[1, 10]``, giving the simulated local-training time ``l_i = κ_i · l̂_i``.
These ``l_i`` drive the READY-message times in the simulator and hence the
whole time axis of the evaluation.

The base time ``l̂_i`` can optionally be *measured* from the actual NumPy
training step so that larger models (CNN, MiniVGG) have proportionally
longer simulated rounds, as they would on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..registry import register as _register

__all__ = [
    "HeterogeneityModel",
    "LatencyTable",
    "build_uniform_latency",
    "build_homogeneous_latency",
]


@dataclass
class HeterogeneityModel:
    """Per-worker compute-speed scaling factors κ_i ~ U[kappa_min, kappa_max]."""

    num_workers: int
    kappa_min: float = 1.0
    kappa_max: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.kappa_min <= 0:
            raise ValueError("kappa_min must be positive")
        if self.kappa_max < self.kappa_min:
            raise ValueError("kappa_max must be >= kappa_min")

    @property
    def kappa(self) -> np.ndarray:
        """The per-worker scaling factors, drawn from ``seed`` on each read:
        a fresh array, the same floats every time, that the model does not
        hold."""
        rng = np.random.default_rng(self.seed)
        return rng.uniform(self.kappa_min, self.kappa_max, size=self.num_workers)


@dataclass
class LatencyTable:
    """Per-worker simulated local-training times ``l_i = κ_i · l̂_i``.

    Parameters
    ----------
    base_times:
        The homogeneous raw times ``l̂_i`` (seconds per local update).  A
        scalar means every worker has the same base time, matching the
        paper's single-workstation setup.
    heterogeneity:
        The κ model.  If omitted, κ_i = 1 for all workers (homogeneous).
    jitter_std:
        Optional per-round multiplicative jitter (log-normal-ish, clipped)
        so that repeated rounds are not perfectly identical.  The paper's
        model has no jitter; it is off by default.
    """

    num_workers: int
    base_time: float = 1.0
    heterogeneity: Optional[HeterogeneityModel] = None
    jitter_std: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.base_time <= 0:
            raise ValueError("base_time must be positive")
        if self.jitter_std < 0:
            raise ValueError("jitter_std must be non-negative")
        if (
            self.heterogeneity is not None
            and self.heterogeneity.num_workers != self.num_workers
        ):
            raise ValueError("heterogeneity model has a different worker count")
        # κ_i · l̂_i is deterministic: compute it once, scaling the fresh κ
        # draw in place, and read it from here (per-call κ draws would make
        # per-round group times O(N²)).
        if self.heterogeneity is None:
            self._nominal = np.ones(self.num_workers)
        else:
            self._nominal = self.heterogeneity.kappa
        self._nominal *= self.base_time

    # ------------------------------------------------------------------
    @property
    def nominal(self) -> np.ndarray:
        """The deterministic per-worker times ``l_i`` as a read-only view.

        This is the array the population layer references for its
        :class:`~repro.core.population.WorkerStateTable` ``latencies``
        field — zero-copy, shared with the table.
        """
        view = self._nominal.view()
        view.flags.writeable = False
        return view

    def sample_time(self, worker_id: int, round_index: int) -> float:
        """Local-training time of one worker in one round (with jitter if set)."""
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(f"invalid worker id {worker_id}")
        nominal = float(self._nominal[worker_id])
        if self.jitter_std == 0.0:
            return nominal
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, worker_id, round_index, 0x1A7])
        )
        factor = float(np.clip(1.0 + rng.normal(0.0, self.jitter_std), 0.2, 5.0))
        return nominal * factor

    def sample_times(
        self, worker_ids: Union[Sequence[int], np.ndarray], round_index: int = 0
    ) -> np.ndarray:
        """Vectorized :meth:`sample_time` over a group of workers.

        Identical values to calling :meth:`sample_time` per worker (the
        jittered path uses the same per-worker seeded draw).  Accepts an
        integer member array and bounds-checks it without a Python loop —
        the per-dispatch hot path of the XL event loop.
        """
        ids = np.asarray(worker_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError("worker_ids must be one-dimensional")
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_workers):
            bad = ids[(ids < 0) | (ids >= self.num_workers)][0]
            raise ValueError(f"invalid worker id {bad}")
        if self.jitter_std == 0.0:
            return self._nominal[ids]
        return np.array(
            [self.sample_time(w, round_index) for w in ids.tolist()]
        )


# ----------------------------------------------------------------------
# Registry-backed latency/heterogeneity builders (kind "latency")
# ----------------------------------------------------------------------
@_register("latency", "uniform")
def build_uniform_latency(
    num_workers: int,
    base_time: float = 1.0,
    kappa_min: float = 1.0,
    kappa_max: float = 10.0,
    jitter_std: float = 0.0,
    heterogeneity_seed: int = 1,
    seed: int = 2,
) -> LatencyTable:
    """The paper's heterogeneity model: ``l_i = κ_i · l̂_i``, κ ~ U[min, max].

    ``heterogeneity_seed`` seeds the κ draw and ``seed`` the (optional)
    per-round jitter; :meth:`repro.experiments.Scenario.build_experiment`
    passes ``seed+1`` / ``seed+2``.
    """
    heterogeneity = HeterogeneityModel(
        num_workers=num_workers,
        kappa_min=kappa_min,
        kappa_max=kappa_max,
        seed=heterogeneity_seed,
    )
    return LatencyTable(
        num_workers=num_workers,
        base_time=base_time,
        heterogeneity=heterogeneity,
        jitter_std=jitter_std,
        seed=seed,
    )


@_register("latency", "homogeneous")
def build_homogeneous_latency(
    num_workers: int,
    base_time: float = 1.0,
    jitter_std: float = 0.0,
    seed: int = 2,
    **_ignored,
) -> LatencyTable:
    """κ_i = 1 for all workers: every worker trains at the same speed.

    Accepts (and ignores) the κ-range arguments of the ``"uniform"``
    builder so the two are interchangeable in a scenario's timing section.
    """
    return LatencyTable(
        num_workers=num_workers,
        base_time=base_time,
        heterogeneity=None,
        jitter_std=jitter_std,
        seed=seed,
    )
