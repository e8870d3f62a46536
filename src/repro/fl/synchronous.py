"""The barrier schedule: every round, one set of workers trains and commits.

FedAvg (reference [11] of the paper), FedProx, FedDyn, Air-FedAvg (the
``M = 1`` case of Corollary 2) and Dynamic share this schedule and differ
only in the uplink they mix in (:mod:`repro.fl.uplink`) and in four hooks:

* :meth:`SynchronousTrainer.select_participants` — who trains this round
  (default: every available worker; Dynamic ranks them by channel/energy);
* :meth:`~repro.fl.base.BaseTrainer.local_step_transform` — a regularized
  local objective (FedProx's proximal pull, FedDyn's drift correction);
* :meth:`~repro.fl.base.BaseTrainer.post_local_update` — per-worker state
  updates after local training;
* :meth:`~repro.fl.base.BaseTrainer.post_aggregate` — server-side
  corrections to the aggregated model.

:meth:`SynchronousTrainer.schedule` yields one commit row per round; the
row's cohort is its participants, trained from the current global model,
and :meth:`~repro.fl.base.BaseTrainer.run` applies it.  The round ends
when the slowest participant has trained and the upload phase is over
(the straggler problem the grouped schedule removes).  With a client-state
model attached, availability is polled at the barrier: absent workers sit
the round out (their persistent mechanism state survives untouched) and
the participants' weights are renormalized per ``experiment.fault``.
Mid-round dropout, partial work and quorum escalation are properties of
the grouped schedule only.  Without a client-state model the rows are the
exact legacy rounds, bit for bit.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from .base import BaseTrainer, Cohort, CommitRow

__all__ = ["SynchronousTrainer"]


class SynchronousTrainer(BaseTrainer):
    """Barrier rounds over an uplink mixed in by the concrete mechanism."""

    name = "synchronous"

    # -- mechanism-family hook ------------------------------------------
    def select_participants(self, round_index: int) -> Tuple[List[int], float]:
        """``(worker ids, weight_scale)`` training in this round.

        Default: every worker the availability poll finds
        (:meth:`sync_round_participants`).  An empty list skips the round.
        """
        return self.sync_round_participants(round_index)

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
    def schedule(
        self, max_rounds: int, max_time: Optional[float] = None
    ) -> Iterator[CommitRow]:
        """One commit row per barrier round, ``clock += compute + upload``."""
        clock = 0.0
        version = 0  # the round whose commit made the current global model
        for t in range(1, max_rounds + 1):
            # -- select ------------------------------------------------
            participants, weight_scale = self.select_participants(t)
            if not participants:
                # Nobody checked in: the global model and clock stand still.
                yield CommitRow(t, clock, -1, 0, participants)
                continue
            self.worker_state.record_dispatch(participants)
            # -- clock -------------------------------------------------
            # Round duration: slowest local training + the upload phase.
            compute_time = float(self.exp.latency.sample_times(participants, t).max())
            clock += compute_time + self.upload_time(participants, t)
            # Every participant starts from the same global model.
            yield CommitRow(
                t, clock, -1, 0, participants, weight_scale,
                cohort=Cohort(participants, t, version),
            )
            version = t
            if max_time is not None and clock >= max_time:
                return
