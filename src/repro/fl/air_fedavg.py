"""Air-FedAvg baseline: synchronous FL with over-the-air aggregation.

Reference [18] of the paper (Cao et al., JSAC 2022): the FedAvg schedule —
every worker participates in every round — but uploads happen concurrently
over the analog MAC with optimal power control.  The upload latency is the
AirComp symbol time ``L_u`` regardless of the number of workers, so the
single-round time is dominated by the *slowest* worker's local training
(straggler problem remains, which is what Air-FedGA improves on).
"""

from __future__ import annotations

from typing import Optional

from .base import BaseTrainer
from .history import TrainingHistory

__all__ = ["AirFedAvgTrainer"]


class AirFedAvgTrainer(BaseTrainer):
    """Synchronous over-the-air federated averaging over all workers."""

    name = "air_fedavg"

    def run(
        self, max_rounds: int = 100, max_time: Optional[float] = None
    ) -> TrainingHistory:
        exp = self.exp
        all_workers = list(range(exp.num_workers))
        upload_latency = self.aircomp_upload_latency()
        clock = 0.0
        self._begin_run(max_rounds, max_time)
        for t in range(1, max_rounds + 1):
            local_vectors = self.local_update_group(all_workers, self.global_vector, t)
            compute_time = float(exp.latency.sample_times(all_workers, t).max())
            clock += compute_time + upload_latency
            new_global, info = self.aircomp_group_update(
                all_workers, local_vectors, t, out=self._update_out
            )
            self._commit_global(new_global)
            self.record_round(
                round_index=t,
                time=clock,
                staleness=0,
                group_id=-1,
                num_participants=len(all_workers),
                round_energy=info["round_energy_j"],
                sigma=info["sigma"],
                eta=info["eta"],
            )
            if max_time is not None and clock >= max_time:
                break
        return self.history
