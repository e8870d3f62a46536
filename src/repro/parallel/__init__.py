"""Multiprocess group-parallel execution (see ``docs/ARCHITECTURE.md``).

Air-FedGA's grouping-asynchronous schedule makes groups independent
between global commits, and within one group every member's local SGD is
independent by construction.  This package exploits the second property:
:class:`ProcessGroupExecutor` shards a group's intra-group training round
across a persistent pool of worker processes, moving stacked parameter
tensors through ``multiprocessing.shared_memory`` arenas so that no model
state is pickled per round, while reproducing the serial
:class:`~repro.nn.batched.BatchedWorkerEngine` call geometry exactly —
results are bit-identical to the serial event loop in float64.

Enable it through the config knob::

    AirFedGAConfig(parallelism=ParallelismConfig(mode="processes"))
"""

from .executor import ProcessGroupExecutor, UnsupportedModelError

__all__ = ["ProcessGroupExecutor", "UnsupportedModelError"]
