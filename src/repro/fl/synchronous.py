"""The barrier schedule: every round, one set of workers trains and commits.

FedAvg (reference [11] of the paper), FedProx, FedDyn, Air-FedAvg (the
``M = 1`` case of Corollary 2) and Dynamic share this schedule and differ
only in the uplink they mix in (:mod:`repro.fl.uplink`) and in four hooks:

* :meth:`SynchronousTrainer.select_participants` — who trains this round
  (default: every available worker; Dynamic ranks them by channel/energy);
* :meth:`~repro.fl.base.BaseTrainer.local_step_transform` — a regularized
  local objective (FedProx's proximal pull, FedDyn's drift correction);
* :meth:`SynchronousTrainer.post_local_update` — per-worker state updates
  after local training;
* :meth:`SynchronousTrainer.post_aggregate` — server-side corrections to
  the aggregated model.

The server waits for the slowest participant (the straggler problem the
grouped schedule removes), then for the upload phase.  With a client-state
model attached, availability is polled at the barrier: absent workers sit
the round out (their persistent mechanism state survives untouched) and
the participants' weights are renormalized per ``experiment.fault``.
Mid-round dropout, partial work and quorum escalation are properties of
the grouped schedule only.  Without a client-state model the loop is the
exact legacy code path, bit for bit.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .base import BaseTrainer
from .history import TrainingHistory

__all__ = ["SynchronousTrainer"]


class SynchronousTrainer(BaseTrainer):
    """Barrier rounds over an uplink mixed in by the concrete mechanism."""

    name = "synchronous"

    # -- mechanism-family hooks -----------------------------------------
    def select_participants(self, round_index: int) -> Tuple[List[int], float]:
        """``(worker ids, weight_scale)`` training in this round.

        Default: every worker the availability poll finds
        (:meth:`sync_round_participants`).  An empty list skips the round.
        """
        return self.sync_round_participants(round_index)

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

    # -- availability poll ----------------------------------------------
    def sync_round_participants(
        self, round_index: int
    ) -> Tuple[List[int], float]:
        """Available workers and their weight scale for one synchronous round.

        Without a client-state model (or with ``always-on``) this is every
        worker with ``weight_scale == 1.0`` — the exact legacy fast path.
        With a fault model, workers unavailable at the barrier are counted
        (history + state-table counters) and, when
        ``fault.renormalize_survivors`` is set, the participants' weights
        are scaled by ``Σα_all / Σα_participants`` so the round still moves
        the full population's data mass.  An all-absent round returns
        ``([], 1.0)``; the loop skips the aggregation.
        """
        all_ids = np.arange(self.exp.num_workers)
        if self._clientstate is None:
            return all_ids.tolist(), 1.0
        participants = self._poll_available(all_ids, round_index, 0)
        weight_scale = 1.0
        if (
            self.exp.fault.renormalize_survivors
            and 0 < participants.size < all_ids.size
        ):
            weight_scale = float(self.alphas.sum()) / float(
                self.alphas[participants].sum()
            )
        return participants.tolist(), weight_scale

    # -------------------------------------------------------------------
    def run(
        self, max_rounds: int = 100, max_time: Optional[float] = None
    ) -> TrainingHistory:
        clock = 0.0
        self._begin_run(max_rounds, max_time)
        for t in range(1, max_rounds + 1):
            # -- select ------------------------------------------------
            participants, weight_scale = self.select_participants(t)
            if not participants:
                # Nobody checked in: the global model and clock stand still.
                self.record_round(round_index=t, time=clock, num_participants=0)
                continue
            self.worker_state.record_dispatch(participants)

            # -- train -------------------------------------------------
            # Every participant starts from the same global model
            # (group-batched when the model supports it).
            local_vectors = self.local_update_group(
                participants, self.global_vector, t
            )
            self.post_local_update(
                participants, local_vectors, self.global_vector, t
            )

            # -- clock -------------------------------------------------
            # Round duration: slowest local training + the upload phase.
            compute_time = float(self.exp.latency.sample_times(participants, t).max())
            upload_time = self.upload_time(participants, t)
            clock += compute_time + upload_time

            # -- aggregate ---------------------------------------------
            new_global, info = self.aggregate(
                participants, local_vectors, t, weight_scale
            )
            new_global = self.post_aggregate(new_global, participants, t)

            # -- commit ------------------------------------------------
            self._commit_global(new_global)
            self._release_stack(local_vectors)

            # -- record ------------------------------------------------
            self.record_round(
                round_index=t,
                time=clock,
                staleness=0,
                group_id=-1,
                num_participants=len(participants),
                round_energy=info.get("round_energy_j", 0.0),
                sigma=info.get("sigma", math.nan),
                eta=info.get("eta", math.nan),
            )
            if max_time is not None and clock >= max_time:
                break
        return self.history
