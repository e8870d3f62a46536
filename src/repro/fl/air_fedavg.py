"""Air-FedAvg baseline: synchronous FL with over-the-air aggregation.

Reference [18] of the paper (Cao et al., JSAC 2022): the FedAvg schedule —
every worker participates in every round — but uploads happen concurrently
over the analog MAC with optimal power control.  The upload latency is the
AirComp symbol time ``L_u`` regardless of the number of workers, so the
single-round time is dominated by the *slowest* worker's local training
(straggler problem remains, which is what Air-FedGA improves on).

The mechanism is nothing but the barrier schedule
(:class:`~repro.fl.synchronous.SynchronousTrainer`) over the over-the-air
uplink (:class:`~repro.fl.uplink.AirCompUplink`).
"""

from __future__ import annotations

from .synchronous import SynchronousTrainer
from .uplink import AirCompUplink

__all__ = ["AirFedAvgTrainer"]


class AirFedAvgTrainer(AirCompUplink, SynchronousTrainer):
    """Synchronous over-the-air federated averaging over all workers."""

    name = "air_fedavg"
