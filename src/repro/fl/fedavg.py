"""FedAvg baseline: synchronous FL with orthogonal (OMA) model uploads.

Reference [11] of the paper (McMahan et al., AISTATS 2017).  Every round,
*all* workers train from the current global model, upload their local models
over orthogonal channel resources (TDMA here), and the server forms the
data-weighted average.  Two properties matter for the comparison:

* the server must wait for the slowest worker (straggler problem), and
* the upload phase takes time proportional to the number of workers, so the
  single-round time grows with N (left plot of Fig. 10).

The mechanism is nothing but the grouped schedule with its default one
group of every worker (:class:`~repro.fl.grouped.GroupedAsyncTrainer`) over
the reliable uplink (:class:`~repro.fl.uplink.OMAUplink`); FedProx and
FedDyn subclass it and fill in the trainer's local-objective hooks.
"""

from __future__ import annotations

from .base import FLExperiment
from .grouped import GroupedAsyncTrainer
from .uplink import OMAUplink

__all__ = ["FedAvgTrainer"]


class FedAvgTrainer(OMAUplink, GroupedAsyncTrainer):
    """Synchronous OMA federated averaging over all workers."""

    name = "fedavg"

    def __init__(self, experiment: FLExperiment) -> None:
        # One group's rows are never stale: no staleness policy to take.
        super().__init__(experiment)
