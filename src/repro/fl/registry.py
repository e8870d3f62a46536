"""Mechanism registry: build any of the registered mechanisms by name.

Backed by the generic component registry (:mod:`repro.registry`, kind
``"mechanism"``): ``repro.registry.names("mechanism")`` lists the
registered trainers and ``repro.registry.get("mechanism", name)`` returns
one; a declarative :class:`~repro.experiments.scenario.Scenario` builds
the whole experiment around it.
"""

from __future__ import annotations

from ..registry import check_kwargs, register
from .. import registry as _registry
from .air_fedavg import AirFedAvgTrainer
from .air_fedga import AirFedGATrainer
from .base import BaseTrainer, FLExperiment
from .dynamic import DynamicTrainer
from .fedasync import FedAsyncTrainer
from .fedavg import FedAvgTrainer
from .feddyn import FedDynTrainer
from .fedprox import FedProxTrainer
from .tifl import TiFLTrainer

__all__ = ["build_trainer"]

register("mechanism", "fedavg")(FedAvgTrainer)
register("mechanism", "tifl")(TiFLTrainer)
register("mechanism", "air_fedavg")(AirFedAvgTrainer)
register("mechanism", "dynamic")(DynamicTrainer)
register("mechanism", "air_fedga")(AirFedGATrainer)
register("mechanism", "fedprox")(FedProxTrainer)
register("mechanism", "feddyn")(FedDynTrainer)
register("mechanism", "fedasync")(FedAsyncTrainer)


def build_trainer(name: str, experiment: FLExperiment, **kwargs) -> BaseTrainer:
    """Instantiate a mechanism trainer by registry name.

    Extra keyword arguments are forwarded to the trainer constructor
    (e.g. ``num_tiers`` for TiFL, ``select_fraction`` for Dynamic,
    ``grouping_strategy`` for Air-FedGA).  Unknown mechanism names raise
    :class:`~repro.registry.UnknownComponentError` (a ``KeyError``) with
    close-match suggestions; unknown keyword arguments raise ``TypeError``
    listing the trainer's accepted constructor parameters instead of
    failing deep inside the trainer.
    """
    cls = _registry.get("mechanism", name)
    check_kwargs(cls, kwargs, context=f"mechanism {name!r}", exclude=("experiment",))
    return cls(experiment, **kwargs)
