"""Declarative, serializable experiment specifications.

A :class:`Scenario` is a single typed document describing *everything*
about one federated-training simulation: the dataset, its Non-IID
partition, the wireless channel, the edge-heterogeneity timing model, the
mechanism, the training budget and the device-fault model.  Every
component is named in the generic registry (:mod:`repro.registry`), so
``Scenario.from_dict(json.load(f)).build().run(...)`` fully reproduces a
run from one JSON blob — no code edits, no hand-wired factories.

It is the only experiment document: the figure/table catalogue
(:mod:`repro.experiments.configs`) returns scenarios, and
:meth:`Scenario.build_experiment` is the only place an
:class:`~repro.fl.FLExperiment` is wired from one.  A ``Scenario``

* round-trips: ``Scenario.from_dict(s.to_dict()) == s``;
* validates at construction: unknown component names raise
  :class:`~repro.registry.UnknownComponentError` with did-you-mean
  suggestions, unknown mechanism parameters raise ``TypeError`` listing
  the accepted names, unknown section fields and non-finite, non-positive
  or non-integer numbers raise ``ValueError`` naming the dotted field;
* builds: :meth:`Scenario.build` returns a ready-to-run trainer and
  :meth:`Scenario.run` executes it under the scenario's budget;
* composes fluently: ``Scenario.default().with_(mechanism="fedavg",
  **{"timing.base_local_time": 2.0})``.

Seed discipline (the *seed ladder*, defined once in
:meth:`Scenario.build_experiment`): dataset, model and partition use
``seed``, the heterogeneity draw ``seed+1``, latency jitter ``seed+2``,
the channel ``seed+3`` and the client-state model ``seed+4``.
``benchmarks/catalogue_pins.json`` holds history digests of the catalogue
recorded before the hand-wired ``runner.build_experiment`` path was
deleted; ``benchmarks/test_catalogue.py`` checks the scenarios still
reproduce them.

Grid sweeps over scenarios (list-valued fields → cross product) are run
by :mod:`repro.experiments.sweep`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Type

import numpy as np

from .. import registry
from ..core.config import AirFedGAConfig, FaultConfig, require_count
from ..fl.base import BaseTrainer, FLExperiment
from ..fl.history import TrainingHistory
from ..fl.registry import build_trainer

__all__ = [
    "ComponentSpec",
    "DataSpec",
    "TimingSpec",
    "TrainingSpec",
    "FaultSpec",
    "Scenario",
    "SCENARIO_COMPONENT_KINDS",
]

#: Where each registry kind is reachable from a scenario document: the
#: dotted spec path naming a component of that kind.  The static-analysis
#: suite (rule ``REG003``) checks every registered kind appears here, so a
#: new component family cannot be registered without a route from the
#: declarative Scenario API.
SCENARIO_COMPONENT_KINDS: Dict[str, str] = {
    "data": "dataset",
    "model": "model",
    "partition": "partitioner",
    "channel": "channel",
    "timing.latency": "latency",
    "mechanism": "mechanism",
    "faults.clientstate": "clientstate",
    # Staleness policies have no dedicated section: they are named in the
    # params of staleness-aware mechanisms (e.g. fedasync's ``staleness``).
    "mechanism.params.staleness": "staleness",
}


def _jsonify(value: Any) -> Any:
    """Normalize params to JSON-native containers (tuples → lists).

    Keeps dataclass equality meaningful across a JSON round-trip: a spec
    constructed with a tuple and the same spec re-read from JSON (where
    the tuple came back as a list) compare equal.
    """
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    if isinstance(value, list):
        return [_jsonify(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


def _require_finite(value: Any, field_name: str, *, positive: bool) -> Any:
    """``value`` must be a finite real number, positive or non-negative.

    Returns it with a NumPy scalar turned into the Python number, so the
    section still serialises and compares equal after a JSON round-trip.
    """
    ok = (
        not isinstance(value, bool)
        and isinstance(value, (int, float, np.integer, np.floating))
        and math.isfinite(value)
        and (value > 0 if positive else value >= 0)
    )
    if not ok:
        kind = "positive" if positive else "non-negative"
        raise ValueError(
            f"{field_name} must be a finite {kind} number, got {value!r}"
        )
    return value.item() if isinstance(value, np.generic) else value


#: A class's resolved type hints, parsed once per class (read, never mutated).
_type_hints = functools.lru_cache(maxsize=None)(typing.get_type_hints)


def _dataclass_from_dict(
    cls: Type[Any], data: Mapping[str, Any], context: str
) -> Any:
    """Reconstruct a (possibly nested) dataclass from a plain mapping.

    Unknown keys raise ``ValueError`` with close-match suggestions, so a
    typo'd field in a hand-written JSON spec fails loudly instead of
    being silently dropped.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"{context} must be a mapping, got {type(data).__name__}")
    field_map = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(data) - set(field_map))
    if unknown:
        hints = registry._close_matches(unknown[0], list(field_map))
        suffix = f"; did you mean {hints[0]!r}?" if hints else ""
        raise ValueError(
            f"{context} has unknown field(s) {unknown}{suffix} "
            f"(accepted: {sorted(field_map)})"
        )
    types = _type_hints(cls)
    kwargs: Dict[str, Any] = {}
    for name, value in data.items():
        target = types.get(name)
        if dataclasses.is_dataclass(target) and isinstance(value, Mapping):
            value = _dataclass_from_dict(target, value, f"{context}.{name}")
        kwargs[name] = value
    return cls(**kwargs)


@dataclass
class ComponentSpec:
    """A registry component reference: a name plus constructor parameters."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"component name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.params, Mapping):
            raise ValueError(
                f"component params must be a mapping, got {type(self.params).__name__}"
            )
        self.params = _jsonify(dict(self.params))

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def coerce(cls, value: Any, context: str) -> "ComponentSpec":
        """Accept a ``ComponentSpec``, a bare name string, or a mapping."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            spec: "ComponentSpec" = _dataclass_from_dict(cls, value, context)
            return spec
        raise ValueError(
            f"{context} must be a component name, mapping or {cls.__name__}, "
            f"got {type(value).__name__}"
        )


@dataclass
class DataSpec(ComponentSpec):
    """The dataset section: a registered dataset and whether to flatten it."""

    name: str = "synthetic-mnist"
    flatten: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params), "flatten": self.flatten}


@dataclass
class TimingSpec:
    """The timing section: compute latency and edge heterogeneity.

    ``latency`` names a registered latency builder (kind ``"latency"``:
    ``"uniform"`` for the paper's κ ~ U[κ_min, κ_max] model,
    ``"homogeneous"`` for κ = 1).  ``base_local_time`` is the raw
    per-update time ``l̂_i`` in seconds; ``jitter_std`` adds optional
    per-round multiplicative jitter (the paper's model has none).
    """

    latency: str = "uniform"
    base_local_time: float = 6.0
    kappa_min: float = 1.0
    kappa_max: float = 10.0
    jitter_std: float = 0.0

    def __post_init__(self) -> None:
        self.base_local_time = _require_finite(
            self.base_local_time, "timing.base_local_time", positive=True
        )
        self.kappa_min = _require_finite(self.kappa_min, "timing.kappa_min", positive=True)
        self.kappa_max = _require_finite(self.kappa_max, "timing.kappa_max", positive=True)
        self.jitter_std = _require_finite(self.jitter_std, "timing.jitter_std", positive=False)


@dataclass
class TrainingSpec:
    """The training section: SGD hyper-parameters and the run budget."""

    learning_rate: float = 0.1
    local_steps: int = 2
    batch_size: int = 32
    max_rounds: int = 60
    max_time: Optional[float] = None
    eval_every: int = 1
    max_eval_samples: int = 256
    latency_model_dimension: Optional[int] = None

    def __post_init__(self) -> None:
        # A scenario is the only way into an experiment, so every number is
        # checked here: a NaN rate or a fractional count would otherwise
        # surface as a NaN loss or a TypeError deep inside NumPy.
        # ``max_rounds=0`` is the "round 0 only" run, as in ``BaseTrainer.run``.
        self.learning_rate = _require_finite(
            self.learning_rate, "training.learning_rate", positive=True
        )
        self.local_steps = require_count("training.local_steps", self.local_steps)
        self.batch_size = require_count("training.batch_size", self.batch_size)
        self.max_rounds = require_count("training.max_rounds", self.max_rounds, minimum=0)
        if self.max_time is not None:
            self.max_time = _require_finite(self.max_time, "training.max_time", positive=True)
        self.eval_every = require_count("training.eval_every", self.eval_every)
        self.max_eval_samples = require_count("training.max_eval_samples", self.max_eval_samples)
        self.latency_model_dimension = require_count(
            "training.latency_model_dimension", self.latency_model_dimension, optional=True
        )


@dataclass
class FaultSpec:
    """The faults section: device-realism model plus the group fault policy.

    ``clientstate`` names a registered client-state model (registry kind
    ``"clientstate"``: ``always-on``, ``bernoulli``, ``lognormal``,
    ``cyclic``, ``dropout-rejoin``, ``partial``; see
    :mod:`repro.sim.clientstate`).  The default ``always-on`` disables
    fault injection entirely — histories stay bit-identical to a scenario
    without a faults section.  The remaining fields map one-to-one onto
    :class:`repro.core.FaultConfig` (quorum fraction, retry/backoff
    escalation, survivor-weight renormalization, parking guard).

    The model receives ``num_workers`` and the derived seed ``seed + 4``
    automatically at build time (continuing the scenario's seed
    discipline), so two runs of the same scenario JSON replay identical
    fault trajectories.
    """

    clientstate: ComponentSpec = field(
        default_factory=lambda: ComponentSpec("always-on")
    )
    quorum_fraction: float = 0.5
    max_retries: int = 2
    retry_backoff: float = 1.0
    renormalize_survivors: bool = True
    max_consecutive_failures: int = 25

    def __post_init__(self) -> None:
        self.clientstate = ComponentSpec.coerce(
            self.clientstate, "scenario.faults.clientstate"
        )
        # Validates the policy fields eagerly (quorum fraction range etc.).
        self.to_fault_config()

    def to_fault_config(self) -> FaultConfig:
        """The :class:`~repro.core.FaultConfig` this section describes."""
        return FaultConfig(
            quorum_fraction=self.quorum_fraction,
            max_retries=self.max_retries,
            retry_backoff=self.retry_backoff,
            renormalize_survivors=self.renormalize_survivors,
            max_consecutive_failures=self.max_consecutive_failures,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "clientstate": self.clientstate.to_dict(),
            "quorum_fraction": self.quorum_fraction,
            "max_retries": self.max_retries,
            "retry_backoff": self.retry_backoff,
            "renormalize_survivors": self.renormalize_survivors,
            "max_consecutive_failures": self.max_consecutive_failures,
        }


@dataclass
class Scenario:
    """A complete, serializable specification of one simulation run.

    Sections
    --------
    ``data``/``model``/``partition``/``channel``/``mechanism``
        Registry component references (:class:`ComponentSpec`): a name in
        the corresponding registry kind plus constructor parameters.
    ``timing``
        The latency/heterogeneity model (:class:`TimingSpec`).
    ``training``
        SGD hyper-parameters and the run budget (:class:`TrainingSpec`).
    ``algorithm``
        The :class:`~repro.core.config.AirFedGAConfig` core-algorithm
        settings (AirComp physical layer, grouping ξ, convergence
        constants, dtype).
    ``faults``
        The device-realism layer (:class:`FaultSpec`): a client-state
        model (availability / dropout / partial work) plus the group-level
        quorum-and-retry policy.  Defaults to ``always-on`` (no faults).

    ``num_workers`` and ``seed`` are top-level because nearly every
    section consumes them; the component builders receive them
    automatically (datasets/models get ``seed``, partitions/channels/
    timing get ``num_workers`` plus the derived seeds ``seed+1``..
    ``seed+3``, see :meth:`build_experiment`).
    """

    name: str = "scenario"
    num_workers: int = 20
    seed: int = 0
    data: DataSpec = field(default_factory=DataSpec)
    model: ComponentSpec = field(default_factory=lambda: ComponentSpec("lr"))
    partition: ComponentSpec = field(default_factory=lambda: ComponentSpec("label-skew"))
    channel: ComponentSpec = field(default_factory=lambda: ComponentSpec("rayleigh"))
    timing: TimingSpec = field(default_factory=TimingSpec)
    mechanism: ComponentSpec = field(default_factory=lambda: ComponentSpec("air_fedga"))
    training: TrainingSpec = field(default_factory=TrainingSpec)
    algorithm: AirFedGAConfig = field(default_factory=AirFedGAConfig)
    faults: FaultSpec = field(default_factory=FaultSpec)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        self.num_workers = require_count("num_workers", self.num_workers)
        self.seed = require_count("seed", self.seed, minimum=0)
        if isinstance(self.data, Mapping):
            self.data = _dataclass_from_dict(DataSpec, self.data, "scenario.data")
        elif isinstance(self.data, str):
            self.data = DataSpec(name=self.data)
        elif not isinstance(self.data, DataSpec):
            raise ValueError(
                "scenario.data must be a dataset name, mapping or DataSpec, "
                f"got {type(self.data).__name__}"
            )
        self.model = ComponentSpec.coerce(self.model, "scenario.model")
        self.partition = ComponentSpec.coerce(self.partition, "scenario.partition")
        self.channel = ComponentSpec.coerce(self.channel, "scenario.channel")
        self.mechanism = ComponentSpec.coerce(self.mechanism, "scenario.mechanism")
        if isinstance(self.timing, Mapping):
            self.timing = _dataclass_from_dict(TimingSpec, self.timing, "scenario.timing")
        if isinstance(self.training, Mapping):
            self.training = _dataclass_from_dict(
                TrainingSpec, self.training, "scenario.training"
            )
        if isinstance(self.algorithm, Mapping):
            self.algorithm = _dataclass_from_dict(
                AirFedGAConfig, self.algorithm, "scenario.algorithm"
            )
        if isinstance(self.faults, Mapping):
            self.faults = _dataclass_from_dict(FaultSpec, self.faults, "scenario.faults")
        elif isinstance(self.faults, str):
            # Shorthand: a bare client-state model name with default policy.
            self.faults = FaultSpec(clientstate=ComponentSpec(self.faults))
        elif not isinstance(self.faults, FaultSpec):
            raise ValueError(
                "scenario.faults must be a client-state name, mapping or "
                f"FaultSpec, got {type(self.faults).__name__}"
            )
        # Component names must resolve now, not at build time: a typo'd
        # spec fails at construction with did-you-mean suggestions.
        registry.get("dataset", self.data.name)
        registry.get("model", self.model.name)
        registry.get("partitioner", self.partition.name)
        registry.get("channel", self.channel.name)
        registry.get("latency", self.timing.latency)
        clientstate_cls = registry.get("clientstate", self.faults.clientstate.name)
        registry.check_kwargs(
            clientstate_cls,
            dict(self.faults.clientstate.params),
            context=f"client-state model {self.faults.clientstate.name!r}",
            exclude=("num_workers", "seed"),
        )
        trainer_cls = registry.get("mechanism", self.mechanism.name)
        registry.check_kwargs(
            trainer_cls,
            dict(self.mechanism.params),
            context=f"mechanism {self.mechanism.name!r}",
            exclude=("experiment",),
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def default(cls) -> "Scenario":
        """A small, fast baseline scenario (seconds to run).

        Synthetic-MNIST with the paper's LR model at benchmark-tiny scale,
        label-skew Non-IID, Rayleigh fading, uniform κ ∈ [1, 10] and the
        Air-FedGA mechanism.  Meant as the starting point for
        :meth:`with_` chains and sweeps.
        """
        return cls(
            name="default",
            num_workers=8,
            data=DataSpec(
                name="synthetic-mnist",
                params={"num_train": 256, "num_test": 96, "image_size": 8},
                flatten=True,
            ),
            model=ComponentSpec(
                "lr", {"input_dim": 64, "hidden": 16, "num_classes": 10}
            ),
            training=TrainingSpec(max_rounds=8, max_eval_samples=96),
        )

    def with_(self, **overrides: Any) -> "Scenario":
        """Return a validated copy with fields overridden.

        Keys are scenario fields; nested fields use dotted paths (passed
        via ``**{...}`` unpacking).  Section values may be mappings
        (shallow-merged into the section) or, for component sections, a
        bare name string (replacing the component and resetting its
        params)::

            s = Scenario.default().with_(
                num_workers=16,
                mechanism="tifl",                         # name, params reset
                data={"flatten": True},                   # shallow merge
                **{"timing.base_local_time": 2.0},        # dotted leaf
                **{"mechanism.params": {"num_tiers": 3}},  # dotted section
            )
        """
        spec = self.to_dict()
        top_level = set(spec)
        for key, value in overrides.items():
            parts = key.split(".")
            if parts[0] not in top_level:
                hints = registry._close_matches(parts[0], top_level)
                suffix = f"; did you mean {hints[0]!r}?" if hints else ""
                raise ValueError(f"unknown scenario field {parts[0]!r}{suffix}")
            node: Dict[str, Any] = spec
            for part in parts[:-1]:
                nxt = node.get(part)
                if not isinstance(nxt, dict):
                    raise ValueError(
                        f"cannot descend into {key!r}: {part!r} is not a section"
                    )
                node = nxt
            leaf = parts[-1]
            current = node.get(leaf)
            if isinstance(current, dict) and isinstance(value, str) and "name" in current:
                # Component shorthand: replace the name, reset the params.
                node[leaf] = {**current, "name": value, "params": {}}
            elif isinstance(current, dict) and isinstance(value, Mapping):
                node[leaf] = {**current, **value}
            else:
                node[leaf] = value
        return Scenario.from_dict(spec)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable document fully describing this scenario."""
        return {
            "name": self.name,
            "num_workers": self.num_workers,
            "seed": self.seed,
            "data": self.data.to_dict(),
            "model": self.model.to_dict(),
            "partition": self.partition.to_dict(),
            "channel": self.channel.to_dict(),
            "timing": asdict(self.timing),
            "mechanism": self.mechanism.to_dict(),
            "training": asdict(self.training),
            "algorithm": asdict(self.algorithm),
            "faults": self.faults.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`; missing sections take their defaults."""
        scenario: "Scenario" = _dataclass_from_dict(cls, data, "scenario")
        return scenario

    def to_json(self, path: str | Path | None = None, indent: int = 2) -> str:
        """Serialize to JSON text, optionally writing it to ``path``."""
        text = json.dumps(self.to_dict(), indent=indent)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "Scenario":
        """Load from a JSON file path or a JSON text string."""
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            text = Path(source).read_text()
        else:
            text = source
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Building and running
    # ------------------------------------------------------------------
    def _model_factory(self) -> Callable[[], Any]:
        name = self.model.name
        params = {"seed": self.seed, **self.model.params}
        return lambda: registry.create("model", name, **params)

    def build_experiment(self) -> FLExperiment:
        """Materialize the :class:`~repro.fl.FLExperiment` this spec describes.

        This is the one place the seed ladder lives: the dataset, model
        and partition use ``seed``, the heterogeneity draw ``seed+1``, the
        latency jitter ``seed+2``, the channel ``seed+3`` and the
        client-state model ``seed+4``.
        """
        dataset = registry.create(
            "dataset", self.data.name, **{"seed": self.seed, **self.data.params}
        )
        if self.data.flatten:
            dataset = dataset.flattened()
        partition = registry.create(
            "partitioner",
            self.partition.name,
            dataset,
            num_workers=self.num_workers,
            seed=self.seed,
            **self.partition.params,
        )
        latency = registry.create(
            "latency",
            self.timing.latency,
            num_workers=self.num_workers,
            base_time=self.timing.base_local_time,
            kappa_min=self.timing.kappa_min,
            kappa_max=self.timing.kappa_max,
            jitter_std=self.timing.jitter_std,
            heterogeneity_seed=self.seed + 1,
            seed=self.seed + 2,
        )
        channel = registry.create(
            "channel",
            self.channel.name,
            num_workers=self.num_workers,
            seed=self.seed + 3,
            **self.channel.params,
        )
        # Device-realism layer: the client-state model continues the seed
        # ladder at seed+4.  The always-on model is built too (it validates
        # num_workers) but the trainer's fast path normalizes it away.
        clientstate = registry.create(
            "clientstate",
            self.faults.clientstate.name,
            num_workers=self.num_workers,
            seed=self.seed + 4,
            **self.faults.clientstate.params,
        )
        return FLExperiment(
            dataset=dataset,
            partition=partition,
            model_factory=self._model_factory(),
            latency=latency,
            channel=channel,
            config=replace(self.algorithm),
            learning_rate=self.training.learning_rate,
            local_steps=self.training.local_steps,
            batch_size=self.training.batch_size,
            eval_every=self.training.eval_every,
            max_eval_samples=self.training.max_eval_samples,
            seed=self.seed,
            latency_model_dimension=self.training.latency_model_dimension,
            clientstate=clientstate,
            fault=self.faults.to_fault_config(),
        )

    def build(self) -> BaseTrainer:
        """Build the mechanism trainer, ready to ``run()``."""
        return build_trainer(
            self.mechanism.name, self.build_experiment(), **self.mechanism.params
        )

    def run(self) -> TrainingHistory:
        """Build and run under the scenario's budget; returns the history."""
        with self.build() as trainer:
            return trainer.run(
                max_rounds=self.training.max_rounds,
                max_time=self.training.max_time,
            )
