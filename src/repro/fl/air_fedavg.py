"""Air-FedAvg baseline: synchronous FL with over-the-air aggregation.

Reference [18] of the paper (Cao et al., JSAC 2022): the FedAvg schedule —
every worker participates in every round — but uploads happen concurrently
over the analog MAC with optimal power control.  The upload latency is the
AirComp symbol time ``L_u`` regardless of the number of workers, so the
single-round time is dominated by the *slowest* worker's local training
(straggler problem remains, which is what Air-FedGA improves on).

The mechanism is Air-FedGA with ``M = 1`` (Corollary 2): the grouped
schedule with its default one group of every worker
(:class:`~repro.fl.grouped.GroupedAsyncTrainer`) over the over-the-air
uplink (:class:`~repro.fl.uplink.AirCompUplink`).
"""

from __future__ import annotations

from .base import FLExperiment
from .grouped import GroupedAsyncTrainer
from .uplink import AirCompUplink

__all__ = ["AirFedAvgTrainer"]


class AirFedAvgTrainer(AirCompUplink, GroupedAsyncTrainer):
    """Synchronous over-the-air federated averaging over all workers."""

    name = "air_fedavg"

    def __init__(self, experiment: FLExperiment) -> None:
        # One group's rows are never stale: no staleness policy to take.
        super().__init__(experiment)
