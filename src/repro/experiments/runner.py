"""Mechanism comparisons: several mechanisms on one scenario."""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from ..fl.history import TrainingHistory
from .scenario import Scenario

__all__ = ["run_comparison"]


def run_comparison(
    scenario: Scenario,
    mechanisms: Sequence[str] = ("air_fedga", "air_fedavg", "dynamic"),
    trainer_kwargs: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> Dict[str, TrainingHistory]:
    """Run several mechanisms on the *same* scenario (Figs. 3-6 style).

    Every mechanism gets a freshly built experiment with identical data,
    partition, heterogeneity and channel (same seeds), so the comparison
    isolates the mechanism itself.  ``trainer_kwargs`` maps a mechanism
    name to its constructor parameters; the scenario's own ``mechanism``
    section is ignored.
    """
    trainer_kwargs = trainer_kwargs or {}
    return {
        name: scenario.with_(
            mechanism={"name": name, "params": dict(trainer_kwargs.get(name, {}))}
        ).run()
        for name in mechanisms
    }
