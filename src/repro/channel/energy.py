"""Transmit-energy accounting for over-the-air aggregation.

The paper models the per-round transmission energy of worker ``v_i`` as

    E_i^t = || p_i^t · w_i^t ||²        (Eq. 7)

with ``p_i^t = d_i σ_t / h_i^t`` (Eq. 6), and imposes a per-round energy
budget ``E_i^t ≤ Ê_i`` (constraint 36c, default 10 J in the evaluation).
Figure 9 compares the cumulative aggregation energy of Air-FedAvg,
Air-FedGA and Dynamic at matched accuracy levels.  The energies are
computed with the aggregate (``AirCompResult.transmit_energies`` of
:func:`repro.channel.aircomp.aircomp_aggregate`); this module holds the
accumulator the trainers feed them to for Fig. 9.  The budget's cap on σ_t
(Eq. 46) is applied by power control (:mod:`repro.core.power_control`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["EnergyTracker"]


@dataclass
class EnergyTracker:
    """Accumulates per-worker and total transmit energy across rounds."""

    num_workers: int
    per_worker: np.ndarray = field(init=False)
    per_round: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.per_worker = np.zeros(self.num_workers, dtype=np.float64)

    def record_round(
        self, worker_ids: Sequence[int], energies: Sequence[float]
    ) -> float:
        """Record the energies spent by the participating workers of a round."""
        if len(worker_ids) != len(energies):
            raise ValueError("worker_ids and energies length mismatch")
        total = 0.0
        for wid, e in zip(worker_ids, energies):
            if not 0 <= wid < self.num_workers:
                raise ValueError(f"invalid worker id {wid}")
            if e < 0:
                raise ValueError("energy must be non-negative")
            self.per_worker[wid] += e
            total += e
        self.per_round.append(total)
        return total

    @property
    def total(self) -> float:
        """Total energy spent across all workers and rounds."""
        return float(self.per_worker.sum())

    def summary(self) -> Dict[str, float]:
        return {
            "total_energy_j": self.total,
            "mean_per_worker_j": float(self.per_worker.mean()),
            "max_per_worker_j": float(self.per_worker.max()),
            "rounds_recorded": float(len(self.per_round)),
        }
