"""FedAvg baseline: synchronous FL with orthogonal (OMA) model uploads.

Reference [11] of the paper (McMahan et al., AISTATS 2017).  Every round,
*all* workers train from the current global model, upload their local models
over orthogonal channel resources (TDMA here), and the server forms the
data-weighted average.  Two properties matter for the comparison:

* the server must wait for the slowest worker (straggler problem), and
* the upload phase takes time proportional to the number of workers, so the
  single-round time grows with N (left plot of Fig. 10).

The round loop doubles as the shared schedule for the synchronous mechanism
family: FedProx and FedDyn subclass this trainer and hook into
:meth:`~repro.fl.base.BaseTrainer.local_step_transform` (regularized local
objectives), :meth:`FedAvgTrainer.post_local_update` (per-worker state
updates) and :meth:`FedAvgTrainer.post_aggregate` (server-side corrections).
With a client-state model attached, workers absent at dispatch sit the
round out (their persistent mechanism state survives untouched) and the
survivors' weights are renormalized per ``experiment.fault``; without one
the loop is the exact legacy code path, bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import BaseTrainer
from .history import TrainingHistory

__all__ = ["FedAvgTrainer"]


class FedAvgTrainer(BaseTrainer):
    """Synchronous OMA federated averaging over all workers."""

    name = "fedavg"

    # -- mechanism-family hooks -----------------------------------------
    def post_local_update(
        self,
        participants: List[int],
        local_vectors: np.ndarray,
        base_vector: np.ndarray,
        round_index: int,
    ) -> None:
        """Called after local training, before aggregation (default no-op).

        FedDyn updates its per-worker drift vectors here; ``local_vectors``
        is the stacked ``(G, q)`` result of the group update and must not
        be modified.
        """

    def post_aggregate(
        self, new_global: np.ndarray, participants: List[int], round_index: int
    ) -> np.ndarray:
        """Server-side correction applied to the aggregated model.

        Default is the identity; FedDyn subtracts its drift average.  May
        modify ``new_global`` in place and must return the vector to
        commit.
        """
        return new_global

    # -------------------------------------------------------------------
    def run(
        self, max_rounds: int = 100, max_time: Optional[float] = None
    ) -> TrainingHistory:
        exp = self.exp
        clock = 0.0
        self._begin_run(max_rounds, max_time)
        for t in range(1, max_rounds + 1):
            # Availability poll (the legacy all-workers fast path when no
            # client-state model is attached).
            participants, weight_scale = self.sync_round_participants(t)
            if not participants:
                # Nobody checked in: the global model and clock stand still.
                self.record_round(
                    round_index=t, time=clock, num_participants=0
                )
                continue
            # Local training: every participant starts from the same global
            # model (group-batched when the model supports it).
            local_vectors = self.local_update_group(
                participants, self.global_vector, t
            )
            self.post_local_update(
                participants, local_vectors, self.global_vector, t
            )
            # Round duration: slowest local training + sequential OMA uploads.
            compute_time = float(exp.latency.sample_times(participants, t).max())
            upload_time = self.oma_upload_latency(participants, t)
            clock += compute_time + upload_time
            # Error-free aggregation (OMA transmissions are reliable).
            new_global = self.exact_group_update(
                participants,
                local_vectors,
                out=self._update_out,
                weight_scale=weight_scale,
            )
            new_global = self.post_aggregate(new_global, participants, t)
            self._commit_global(new_global)
            self.record_round(
                round_index=t,
                time=clock,
                staleness=0,
                group_id=-1,
                num_participants=len(participants),
            )
            if max_time is not None and clock >= max_time:
                break
        return self.history
