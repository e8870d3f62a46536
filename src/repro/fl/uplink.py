"""The two uplinks a mechanism can upload over, each written once.

A mechanism is a *schedule* (when a set of workers commits:
:class:`~repro.fl.grouped.GroupedAsyncTrainer`,
:class:`~repro.fl.fedasync.FedAsyncTrainer`) combined with an *uplink*
(how that set's models reach the server).  The uplink is the split Cao et
al. organise their AirComp overview around: orthogonal access, where every
model arrives exactly and the upload phase grows with the number of
uploaders, versus over-the-air computation, where all uploaders transmit at
once and the server receives a noisy weighted sum.

Each policy defines the same two methods —
``aggregate(member_ids, local_vectors, round_index, weight_scale)``
returning ``(new_global, info)`` and ``upload_time(member_ids,
round_index)`` in simulated seconds — and is mixed in *before* the schedule
class: ``class TiFLTrainer(OMAUplink, GroupedAsyncTrainer)``.  The
schedule's generator calls ``upload_time`` to time a commit row;
:meth:`BaseTrainer.run <repro.fl.base.BaseTrainer.run>` calls ``aggregate``
to apply it.  Both uplinks write the new global model into the
trainer-owned update buffer, which ``run`` swaps into place
(:meth:`BaseTrainer._commit_global`), so an aggregation allocates nothing.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from .base import BaseTrainer

__all__ = ["OMAUplink", "AirCompUplink"]


class OMAUplink(BaseTrainer):
    """Orthogonal (TDMA) uplink: reliable, one upload slot per member."""

    def aggregate(
        self,
        member_ids: Sequence[int],
        local_vectors: np.ndarray,
        round_index: int,
        weight_scale: float = 1.0,
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        """Error-free Eq. (8) over the members; ``info`` is empty.

        ``weight_scale`` multiplies the members' aggregation weights — the
        fault layer passes ``Σα_expected / Σα_present`` so the workers that
        did report carry the data mass of those that did not (see
        ``FaultConfig.renormalize_survivors``).
        """
        return self.exact_group_update(member_ids, local_vectors, weight_scale=weight_scale), {}

    def upload_time(self, member_ids: Sequence[int], round_index: int) -> float:
        """Members upload one after another over the shared band."""
        return self.oma_upload_latency(member_ids, round_index)


class AirCompUplink(BaseTrainer):
    """Over-the-air uplink: concurrent analog transmission, power-controlled."""

    def aggregate(
        self,
        member_ids: Sequence[int],
        local_vectors: np.ndarray,
        round_index: int,
        weight_scale: float = 1.0,
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        """Eqs. (6)–(10) with Algorithm-2 power control over the members.

        ``info`` carries the σ/η used and the round's transmit energy;
        ``weight_scale`` is as for :meth:`OMAUplink.aggregate`.
        """
        return self.aircomp_group_update(
            member_ids, local_vectors, round_index, weight_scale=weight_scale
        )

    def upload_time(self, member_ids: Sequence[int], round_index: int) -> float:
        """``L_u`` whatever the number of members (Eq. 33)."""
        return self.aircomp_upload_latency()
