"""Federated-learning mechanisms: the Air-FedGA trainer and its baselines.

Public entry points (documented in ``docs/API.md``):

* :func:`build_trainer` — construct a mechanism by registry name
  (``repro.registry.names("mechanism")`` lists them): ``"fedavg"``,
  ``"tifl"``, ``"air_fedavg"``, ``"dynamic"``, ``"air_fedga"`` (the
  paper's figure labels), or the comparison families ``"fedprox"``,
  ``"feddyn"`` and ``"fedasync"``;
* :class:`FLExperiment` — the experiment bundle every trainer consumes
  (dataset, partition, model factory, latency table, channel, config);
  local training runs on the vectorized group engine, so every model
  layer needs a batched kernel;
* :class:`BaseTrainer` — shared machinery (local updates, AirComp and
  OMA aggregation weighted by α_i = d_i / D from the data sizes,
  evaluation, each round's transmit energy on its history row).
  Trainers are context managers (``with build_trainer(...) as t:
  t.run(...)``);
* the axes a mechanism is assembled from — the schedules
  :class:`GroupedAsyncTrainer` (per-group commits; its default one group
  of every worker is the barrier round of FedAvg, FedProx, FedDyn,
  Air-FedAvg and Dynamic) and :class:`FedAsyncTrainer` (per-update
  commits), whose ``schedule`` generators yield :class:`CommitRow` s, each
  naming the :class:`Cohort` that trains for it, and the uplinks
  :class:`OMAUplink` / :class:`AirCompUplink` mixed into them;
* :class:`TrainingHistory` — the commit log every ``run()`` returns,
  one row per global update (including the device-fault counters);
* :class:`StalenessPolicy` and its ``constant`` / ``polynomial`` /
  ``hinge`` implementations — staleness-aware aggregation schedules
  (registry kind ``"staleness"``), coerced from names/mappings by
  :func:`resolve_staleness_policy`.
"""

from .base import BaseTrainer, Cohort, CommitRow, FLExperiment
from .history import TrainingHistory
from .uplink import AirCompUplink, OMAUplink
from .fedavg import FedAvgTrainer
from .fedprox import FedProxTrainer
from .feddyn import FedDynTrainer
from .fedasync import FedAsyncTrainer
from .air_fedavg import AirFedAvgTrainer
from .dynamic import DynamicTrainer
from .grouped import GroupedAsyncTrainer
from .staleness import (
    ConstantStaleness,
    HingeStaleness,
    PolynomialStaleness,
    StalenessPolicy,
    resolve_staleness_policy,
)
from .tifl import TiFLTrainer
from .air_fedga import AirFedGATrainer
from .registry import build_trainer

__all__ = [
    "FLExperiment",
    "BaseTrainer",
    "Cohort",
    "CommitRow",
    "TrainingHistory",
    "OMAUplink",
    "AirCompUplink",
    "FedAvgTrainer",
    "FedProxTrainer",
    "FedDynTrainer",
    "FedAsyncTrainer",
    "AirFedAvgTrainer",
    "DynamicTrainer",
    "GroupedAsyncTrainer",
    "TiFLTrainer",
    "AirFedGATrainer",
    "build_trainer",
    "StalenessPolicy",
    "ConstantStaleness",
    "PolynomialStaleness",
    "HingeStaleness",
    "resolve_staleness_policy",
]
