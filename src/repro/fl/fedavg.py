"""FedAvg baseline: synchronous FL with orthogonal (OMA) model uploads.

Reference [11] of the paper (McMahan et al., AISTATS 2017).  Every round,
*all* workers train from the current global model, upload their local models
over orthogonal channel resources (TDMA here), and the server forms the
data-weighted average.  Two properties matter for the comparison:

* the server must wait for the slowest worker (straggler problem), and
* the upload phase takes time proportional to the number of workers, so the
  single-round time grows with N (left plot of Fig. 10).

The mechanism is nothing but the barrier schedule
(:class:`~repro.fl.synchronous.SynchronousTrainer`) over the reliable
uplink (:class:`~repro.fl.uplink.OMAUplink`); FedProx and FedDyn subclass
it and fill in the schedule's family hooks.
"""

from __future__ import annotations

from .synchronous import SynchronousTrainer
from .uplink import OMAUplink

__all__ = ["FedAvgTrainer"]


class FedAvgTrainer(OMAUplink, SynchronousTrainer):
    """Synchronous OMA federated averaging over all workers."""

    name = "fedavg"
