"""Staleness-aware aggregation policies (registry kind ``"staleness"``).

Asynchronous FL mixes a group's update into a global model that may have
advanced ``τ`` rounds since the group last pulled it.  The FedAsync line
of work (Xie et al., which the paper cites) damps such stale updates with
a schedule ``s(τ) ∈ (0, 1]``: the commit becomes

    ``w_t = (1 − s(τ)) · w_{t−1} + s(τ) · aggregate(...)``

so fresh updates (``s = 1``) apply fully while stale ones are shrunk.
The schedule is a registered, serializable component with the three
classic shapes:

================  ====================================================
registry name     ``s(τ)``
================  ====================================================
``constant``      ``value`` (default 1: no damping, the paper's Eq. 10)
``polynomial``    ``1 / (1 + τ)^exponent``
``hinge``         ``1`` while ``τ ≤ b``, then ``1 / (a·(τ − b))``
================  ====================================================

All parameters are validated at construction (a negative exponent or a
non-positive ``a`` raises ``ValueError`` immediately instead of producing
NaN weights rounds later).  Trainers accept a policy name, a
``{"name": ..., "params": {...}}`` mapping (what a
:class:`~repro.experiments.scenario.Scenario` JSON carries) or a policy
instance; :func:`resolve_staleness_policy` performs the coercion.

>>> from repro.fl.staleness import resolve_staleness_policy
>>> policy = resolve_staleness_policy({"name": "hinge", "params": {"a": 2.0, "b": 1.0}})
>>> policy.weight(1), policy.weight(3)
(1.0, 0.25)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

from ..registry import create as _create, register as _register

__all__ = [
    "StalenessPolicy",
    "ConstantStaleness",
    "PolynomialStaleness",
    "HingeStaleness",
    "resolve_staleness_policy",
]


class StalenessPolicy:
    """A staleness-damping schedule ``s(τ)``; subclasses implement :meth:`weight`."""

    name = "base"

    def weight(self, staleness: int) -> float:
        """The mixing weight ``s(τ) ∈ (0, 1]`` for an update of staleness ``τ``."""
        raise NotImplementedError

    def __call__(self, staleness: int) -> float:
        return self.weight(staleness)


@_register("staleness", "constant")
@dataclass
class ConstantStaleness(StalenessPolicy):
    """``s(τ) = value`` regardless of staleness (1.0 disables damping)."""

    value: float = 1.0
    name = "constant"

    def __post_init__(self) -> None:
        if not 0.0 < self.value <= 1.0:
            raise ValueError(
                f"constant staleness weight must be in (0, 1], got {self.value}"
            )

    def weight(self, staleness: int) -> float:
        return self.value


@_register("staleness", "polynomial")
@dataclass
class PolynomialStaleness(StalenessPolicy):
    """``s(τ) = 1 / (1 + τ)^exponent`` — FedAsync's polynomial schedule.

    ``exponent = 0`` yields ``s ≡ 1`` (no damping), bit-for-bit the run
    without a policy.
    """

    exponent: float = 0.5
    name = "polynomial"

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError(
                f"staleness exponent must be non-negative, got {self.exponent}"
            )

    def weight(self, staleness: int) -> float:
        if staleness < 0:
            raise ValueError(f"staleness must be non-negative, got {staleness}")
        return 1.0 / (1.0 + staleness) ** self.exponent


@_register("staleness", "hinge")
@dataclass
class HingeStaleness(StalenessPolicy):
    """``s(τ) = 1`` for ``τ ≤ b``, else ``1 / (a·(τ − b))`` (FedAsync's hinge).

    Fresh-enough updates apply fully; beyond the ``b`` threshold the
    weight decays hyperbolically at rate ``a``.  Requires ``a·1 ≥ 1`` to
    keep ``s ≤ 1`` right after the hinge, i.e. ``a ≥ 1``.
    """

    a: float = 10.0
    b: float = 4.0
    name = "hinge"

    def __post_init__(self) -> None:
        if self.a < 1.0:
            raise ValueError(
                f"hinge slope a must be >= 1 (so s(τ) stays <= 1), got {self.a}"
            )
        if self.b < 0:
            raise ValueError(f"hinge threshold b must be non-negative, got {self.b}")

    def weight(self, staleness: int) -> float:
        if staleness < 0:
            raise ValueError(f"staleness must be non-negative, got {staleness}")
        if staleness <= self.b:
            return 1.0
        return 1.0 / (self.a * (staleness - self.b))


def resolve_staleness_policy(
    spec: Union[None, str, Mapping[str, Any], StalenessPolicy],
) -> Optional[StalenessPolicy]:
    """Coerce a trainer's staleness argument into a policy (or ``None``).

    Accepts ``None`` (no damping), a registry name string, a
    ``{"name": ..., "params": {...}}`` mapping, or an already constructed
    :class:`StalenessPolicy`.
    """
    if spec is None:
        return None
    if isinstance(spec, StalenessPolicy):
        return spec
    if isinstance(spec, str):
        return _create("staleness", spec)
    if isinstance(spec, Mapping):
        unknown = sorted(set(spec) - {"name", "params"})
        if unknown:
            raise ValueError(
                f"staleness mapping accepts only 'name' and 'params' keys, "
                f"got unknown {unknown}"
            )
        if "name" not in spec:
            raise ValueError("staleness mapping requires a 'name' key")
        params = dict(spec.get("params") or {})
        return _create("staleness", spec["name"], **params)
    raise ValueError(
        "staleness must be a policy name, a {'name': ..., 'params': ...} "
        f"mapping or a StalenessPolicy, got {type(spec).__name__}"
    )
