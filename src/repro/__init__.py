"""repro: reproduction of Air-FedGA (IPDPS 2025).

Air-FedGA is a grouping asynchronous federated learning mechanism that uses
over-the-air computation (AirComp) for intra-group model aggregation while
groups update the global model asynchronously.  This package contains:

* :mod:`repro.core` -- the mechanism (Algorithm 1), power control
  (Algorithm 2), worker grouping (Algorithm 3) and the convergence analysis
  (Theorem 1);
* :mod:`repro.nn` -- a NumPy neural-network substrate (layer and model
  specs, the batched group trainer) standing in for PyTorch;
* :mod:`repro.data` -- synthetic datasets and federated partitioners;
* :mod:`repro.channel` -- the wireless substrate: block fading, AirComp
  superposition over a noisy MAC with its Eq. (7) transmit energies, and
  OMA latency models;
* :mod:`repro.sim` -- the edge-heterogeneity latency model and the
  client-state (availability and fault) models;
* :mod:`repro.fl` -- runnable trainers for Air-FedGA and seven other
  mechanisms (FedAvg, TiFL, Air-FedAvg, Dynamic, FedProx, FedDyn,
  FedAsync), each a schedule run by one training loop;
* :mod:`repro.experiments` -- the harness reproducing every table and figure
  of the paper's evaluation section, plus the declarative
  :class:`~repro.experiments.scenario.Scenario` spec and concurrent
  :class:`~repro.experiments.sweep.SweepRunner` grid sweeps;
* :mod:`repro.registry` -- the generic component registry (datasets,
  partitioners, channels, latency models, mechanisms, models by name)
  behind the Scenario API.
"""

from . import channel, core, data, fl, nn, registry, sim

__version__ = "0.20.0"

__all__ = ["channel", "core", "data", "fl", "nn", "registry", "sim", "__version__"]
