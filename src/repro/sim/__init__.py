"""Simulation substrate: latency and device-fault models."""

from .latency import HeterogeneityModel, LatencyTable
from .clientstate import (
    AlwaysOnModel,
    BernoulliAvailability,
    ClientStateModel,
    CyclicAvailability,
    DropoutRejoinModel,
    LognormalAvailability,
    PartialCompletionModel,
)

__all__ = [
    "HeterogeneityModel",
    "LatencyTable",
    "ClientStateModel",
    "AlwaysOnModel",
    "BernoulliAvailability",
    "LognormalAvailability",
    "CyclicAvailability",
    "DropoutRejoinModel",
    "PartialCompletionModel",
]
