"""Everything the benchmark knows about ``repro`` — the only module importing it.

Three jobs:

* turn a frozen workload document (``workloads.json``) plus a seed into a
  set-up and a run of the library, timed as two regions, with the outputs
  checked and fingerprinted (:func:`execute`);
* name the public callables the traced pass wraps (:func:`install_wrappers`);
* time, by direct call, the two kernels no workload can isolate
  (:func:`micro_rows`).

Only public names of ``repro`` are used, so a refactor behind them leaves
the benchmark running; a wrap target that no longer exists is skipped and
counted instead of raising (``bench.wrap_targets_missing``).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import registry
from repro.core.config import AirFedGAConfig, GroupingConfig
from repro.core.population import Population
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import SweepRunner
from repro.fl import registry as fl_registry
from repro.fl.base import FLExperiment

from .trace import NAME, PARENT, TAG, Tracer

__all__ = [
    "Outcome",
    "execute",
    "install_wrappers",
    "wrapped_callables",
    "power_control_counts",
    "micro_rows",
    "SPAN_NAMES",
]


# ----------------------------------------------------------------------
# Timed regions
# ----------------------------------------------------------------------
def _kernel_seconds() -> float:
    # Microseconds, where os.times() counts in 10 ms ticks.
    return resource.getrusage(resource.RUSAGE_SELF).ru_stime


class _Region:
    """Times a block; under a tracer the block is also a root span.

    ``seconds`` is wall time minus the CPU time the process spent in the
    kernel meanwhile.  At 1M workers that is page-fault time for arrays NumPy
    maps afresh on every repetition, and on this VM the same ~10k faults cost
    anything from 0.05 s to 2.5 s depending on how the host backs the memory
    that minute — more than the whole run.  Waiting (I/O, sleep) is not CPU
    time and stays in.
    """

    def __init__(self, tracer: Optional[Tracer], name: str, tag: str) -> None:
        self._tracer, self._name, self._tag = tracer, name, tag
        self.seconds = self.kernel_seconds = 0.0

    def __enter__(self) -> "_Region":
        if self._tracer is not None:
            self._index = self._tracer.begin(self._name, self._tag)
        self._kernel = _kernel_seconds()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        wall = time.perf_counter() - self._start
        self.kernel_seconds = _kernel_seconds() - self._kernel
        self.seconds = wall - self.kernel_seconds
        if self._tracer is not None:
            self._tracer.end(self._index)


@dataclass
class Outcome:
    """What one execution of a workload produced."""

    setup_s: float = 0.0
    run_s: float = 0.0
    #: Kernel CPU seconds left out of the two above.
    kernel_s: float = 0.0
    rounds: int = 0
    sim_time_s: float = 0.0
    final_accuracy: float = 0.0
    #: Simulated seconds at which the headline mechanism first reached the
    #: workload's target accuracy (0: no target named, or not reached).
    time_to_target_s: float = 0.0
    #: Digest of every simulated output; equal digests = bit-identical runs.
    fingerprint: str = ""
    #: Failed checks, in words; empty means the run is correct.
    problems: List[str] = field(default_factory=list)
    #: Counts read off public attributes after the run (per-layer extras).
    counters: Dict[str, float] = field(default_factory=dict)


def _digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _check_history(history: Any, label: str, problems: List[str]) -> None:
    if len(history) == 0:
        problems.append(f"{label}: empty history")
        return
    if not np.all(np.isfinite(history.losses())):
        problems.append(f"{label}: non-finite loss")
    if np.any(np.diff(history.times()) < 0):
        problems.append(f"{label}: simulated time decreases")


# ----------------------------------------------------------------------
# Building trainers from workload documents
# ----------------------------------------------------------------------
def _build_scenario_trainer(doc: Dict[str, Any], mechanism: Dict[str, Any], seed: int) -> Any:
    component = {"name": mechanism["name"], "params": mechanism["params"]}
    return Scenario.from_dict({**doc["scenario"], "seed": seed, "mechanism": component}).build()


def _build_replicated_trainer(doc: Dict[str, Any], mechanism: Dict[str, Any], seed: int) -> Any:
    """The partition-less XL recipe, from public API only.

    One small dataset served to every worker through overlapping zero-copy
    windows, lazy materialisation, index-contiguous groups.  Seeds follow
    the Scenario ladder (data ``seed``, heterogeneity ``seed+1``, latency
    ``seed+2``, channel ``seed+3``).
    """
    num_workers = int(doc["num_workers"])
    training = doc["training"]
    dataset = registry.create(
        "dataset", doc["dataset"]["name"], seed=seed, **doc["dataset"]["params"]
    ).flattened()
    latency = registry.create(
        "latency",
        "uniform",
        num_workers=num_workers,
        base_time=doc["base_local_time"],
        heterogeneity_seed=seed + 1,
        seed=seed + 2,
    )
    channel = registry.create(
        "channel",
        doc["channel"]["name"],
        num_workers=num_workers,
        seed=seed + 3,
        **doc["channel"]["params"],
    )
    population = Population.replicated(
        dataset, num_workers=num_workers, shard_size=doc["shard_size"], latency=latency
    )
    model, model_params = doc["model"]["name"], doc["model"]["params"]
    experiment = FLExperiment(
        dataset=dataset,
        partition=None,
        model_factory=lambda: registry.create("model", model, seed=seed, **model_params),
        latency=latency,
        channel=channel,
        config=AirFedGAConfig(grouping=GroupingConfig(xi=1.0)),
        learning_rate=training["learning_rate"],
        local_steps=training["local_steps"],
        batch_size=training["batch_size"],
        eval_every=training["eval_every"],
        max_eval_samples=training["max_eval_samples"],
        seed=seed,
        population=population,
        materialization="lazy",
    )
    return fl_registry.build_trainer(
        mechanism["name"],
        experiment,
        num_groups=max(1, num_workers // int(doc["group_size"])),
        **mechanism["params"],
    )


def _trainer_counters(trainer: Any, history: Any, counters: Dict[str, float]) -> None:
    """Add one trainer's public counters to the workload's totals."""

    def add(key: str, value: float) -> None:
        counters[key] = counters.get(key, 0.0) + float(value)

    add("pc_hits", trainer.pc_cache_hits)
    add("pc_misses", trainer.pc_cache_misses)
    add("state_nbytes", trainer.worker_state.nbytes)
    if trainer.population.store_built:
        add("store_nbytes", trainer.population.store.nbytes)
    for name, value in history.fault_counters().items():
        add(name, value)
    add("dispatches", trainer.worker_state.counters_summary()["dispatches"])


def _execute_trainers(
    doc: Dict[str, Any], seed: int, tracer: Optional[Tracer], out: Outcome
) -> None:
    build = _build_replicated_trainer if doc["kind"] == "replicated" else _build_scenario_trainer
    digests = []
    for position, mechanism in enumerate(doc["mechanisms"]):
        name = mechanism["name"]
        with _Region(tracer, "bench.setup", name) as setup:
            trainer = build(doc, mechanism, seed)
        with trainer:
            with _Region(tracer, "bench.run", name) as run:
                history = trainer.run(max_rounds=mechanism["max_rounds"])
            _trainer_counters(trainer, history, out.counters)
        out.setup_s += setup.seconds
        out.run_s += run.seconds
        out.kernel_s += setup.kernel_seconds + run.kernel_seconds
        out.rounds += history.total_rounds
        out.sim_time_s += history.total_time
        _check_history(history, name, out.problems)
        digests.append(_digest(history.to_dict()))
        if position == 0 and len(history):
            # The first mechanism listed is the headline one.
            out.final_accuracy = float(history.final_accuracy)
            target = doc.get("target_accuracy")
            reached = history.time_to_accuracy(target) if target is not None else None
            out.time_to_target_s = float(reached or 0.0)
    out.fingerprint = _digest(digests)


def _execute_sweep(
    doc: Dict[str, Any], seed: int, tracer: Optional[Tracer], scratch: Path, out: Outcome
) -> None:
    """A cold sweep over the grid, then the same sweep again on its cache."""
    per = int(doc["seeds_per_mechanism"])
    spec = {**doc["spec"], "seed": [seed * per + k for k in range(per)]}
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="sweep-", dir=scratch))
    try:
        with _Region(tracer, "bench.setup", "sweep") as setup:
            runners = [
                SweepRunner(
                    spec,
                    output=workdir / f"{label}.jsonl",
                    mode="serial",
                    retries=0,
                    cache_dir=workdir / "cache",
                )
                for label in ("cold", "warm")
            ]
        with _Region(tracer, "bench.run", "sweep") as run:
            start = time.perf_counter()
            cold = runners[0].run()
            middle = time.perf_counter()
            warm = runners[1].run()
            end = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.setup_s, out.run_s = setup.seconds, run.seconds
    out.kernel_s = setup.kernel_seconds + run.kernel_seconds
    points = len(runners[0])
    out.counters.update(
        points=points, cold_s=middle - start, warm_s=end - middle,
        warm_hits=sum(bool(row.get("cache_hit")) for row in warm),
    )
    errors = [row for row in cold + warm if "summary" not in row]
    for row in errors:
        out.problems.append(f"point {row['index']} ({row.get('mechanism')}): {row.get('error')}")
    if errors:
        return
    if out.counters["warm_hits"] != points:
        out.problems.append(f"warm sweep hit the cache {out.counters['warm_hits']}/{points} times")
    summaries = [row["summary"] for row in cold]
    if summaries != [row["summary"] for row in warm]:
        out.problems.append("warm sweep rows differ from the cold ones")
    if not all(math.isfinite(s["final_loss"]) for s in summaries):
        out.problems.append("non-finite final loss in a sweep row")
    out.rounds = int(sum(s["rounds"] for s in summaries))
    out.sim_time_s = float(sum(s["total_time_s"] for s in summaries))
    out.final_accuracy = float(np.mean([s["final_accuracy"] for s in summaries]))
    out.fingerprint = _digest([[row["summary"], row["faults"]] for row in cold])
    for row in cold:
        for name, value in row["faults"].items():
            out.counters[name] = out.counters.get(name, 0.0) + value


def execute(
    doc: Dict[str, Any], seed: int, tracer: Optional[Tracer], scratch: Path
) -> Outcome:
    """Set up and run one workload once; never raises for a failed check."""
    out = Outcome()
    if doc["kind"] == "sweep":
        _execute_sweep(doc, seed, tracer, scratch, out)
    else:
        _execute_trainers(doc, seed, tracer, out)
    return out


# ----------------------------------------------------------------------
# Wrap targets of the traced pass
# ----------------------------------------------------------------------
_CREATE_SPANS = {
    "dataset": "data.synthetic.make_dataset",
    "partitioner": "data.partition.build",
    "latency": "sim.latency.build",
    "channel": "channel.fading.build",
}


def _create_span(args: tuple, kwargs: dict) -> Optional[str]:
    kind = args[0] if args else kwargs.get("kind")
    return _CREATE_SPANS.get(kind)


def _run_group_tag(args: tuple, kwargs: dict, result: Any) -> Tuple[int, int, int]:
    """(first member, group size, local steps) of one ``run_group`` call."""
    ids = args[1]
    return int(ids[0]), len(ids), int(kwargs.get("local_steps", 0))


def _iterations_tag(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result.iterations)


#: ``(module, class or None, attribute, span, probe)``: the public callables
#: the traced pass wraps.  Function names a module imported with ``from x
#: import f`` are listed under the importing module, where the call looks
#: them up.
_TARGETS: List[Tuple[str, Optional[str], str, Any, Optional[Callable]]] = [
    ("repro.fl.base", "BaseTrainer", "local_update_group", "fl.base.local_update_group", None),
    ("repro.fl.base", "BaseTrainer", "aircomp_group_update", "fl.base.aggregate_group", None),
    ("repro.fl.base", "BaseTrainer", "exact_group_update", "fl.base.aggregate_group", None),
    ("repro.fl.base", "BaseTrainer", "evaluate_vector", "nn.models.evaluate", None),
    ("repro.fl.base", "BaseTrainer", "record_round", "fl.base.record_round", None),
    ("repro.fl.base", None, "aircomp_aggregate", "channel.aircomp.aggregate", None),
    ("repro.fl.base", None, "solve_power_control", "core.power_control.algorithm2", _iterations_tag),
    ("repro.fl.air_fedga", None, "solve_power_control", "core.power_control.algorithm2", _iterations_tag),
    ("repro.core.power_control", None, "solve_power_control", "core.power_control.algorithm2", _iterations_tag),
    ("repro.core.power_control", "PowerControlCache", "solve", "core.power_control.solve", None),
    ("repro.nn.batched", "BatchedWorkerEngine", "run_group", "nn.batched.run_group", _run_group_tag),
    ("repro.nn.batched", "BatchedWorkerEngine", "try_build", "nn.batched.build_engine", None),
    ("repro.fl.grouped", "GroupedAsyncTrainer", "group_compute_time", "sim.latency.compute_time", None),
    ("repro.sim.latency", "LatencyTable", "sample_times", "sim.latency.compute_time", None),
    ("repro.core.mechanism", "GroupAsyncScheduler", "receive_ready", "core.mechanism.scheduler", None),
    ("repro.core.mechanism", "GroupAsyncScheduler", "receive_group_ready", "core.mechanism.scheduler", None),
    ("repro.core.mechanism", "GroupAsyncScheduler", "complete_aggregation", "core.mechanism.scheduler", None),
    ("repro.core.mechanism", "GroupAsyncScheduler", "abort_group", "core.mechanism.scheduler", None),
    ("repro.core.population", "WorkerStateTable", "record_gains", "core.population.record", None),
    ("repro.core.population", "WorkerStateTable", "record_dispatch", "core.population.record", None),
    ("repro.core.population", "WorkerStateTable", "record_unavailable", "core.population.record", None),
    ("repro.core.population", "WorkerStateTable", "record_dropped", "core.population.record", None),
    ("repro.core.population", "WorkerStateTable", "record_commit", "core.population.record", None),
    ("repro.core.population", "Population", "from_dataset", "core.population.build", None),
    ("repro.core.population", "Population", "replicated", "core.population.build", None),
    ("repro.core.population", "Population", "worker_data_sequence", "core.population.build", None),
    ("repro.core.population", "Population", "class_counts", "core.population.build", None),
    ("repro.registry", None, "create", _create_span, None),
    ("repro.data.synthetic", "Dataset", "flattened", "data.synthetic.make_dataset", None),
    ("repro.experiments.scenario", "Scenario", "build_experiment", "experiments.scenario.build", None),
    ("repro.experiments.scenario", None, "build_trainer", "fl.trainer_init", None),
    ("repro.fl.registry", None, "build_trainer", "fl.trainer_init", None),
    ("repro.experiments.sweep", "SweepRunner", "run", "experiments.sweep.run", None),
    ("repro.experiments.runcache", "RunCache", "get", "experiments.runcache.io", None),
    ("repro.experiments.runcache", "RunCache", "put", "experiments.runcache.io", None),
]

#: ``(registry kind, method, span)``: methods wrapped on every registered
#: class of a kind and its bases, wherever a class defines them itself.
_KIND_TARGETS = [
    ("mechanism", "run", "fl.loop"),
    ("mechanism", "build_groups", "core.grouping.build_groups"),
    ("channel", "gains", "channel.fading.gains"),
    ("clientstate", "availability_mask", "sim.clientstate.masks"),
    ("clientstate", "survival_mask", "sim.clientstate.masks"),
    ("clientstate", "completion_fractions", "sim.clientstate.masks"),
]

#: Every span name a traced pass can produce, in reporting order.
SPAN_NAMES = list(
    dict.fromkeys(
        [t[3] for t in _TARGETS if isinstance(t[3], str)]
        + list(_CREATE_SPANS.values())
        + [t[2] for t in _KIND_TARGETS]
    )
)


def _resolve_targets() -> Tuple[List[Tuple[Any, str, Any, Optional[Callable]]], int]:
    """``(owner, attribute, span, probe)`` of every target that exists, and
    how many listed targets do not."""
    found: List[Tuple[Any, str, Any, Optional[Callable]]] = []
    missing = 0
    for module_name, class_name, attr, span, probe in _TARGETS:
        try:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
        except (ImportError, AttributeError):
            missing += 1
            continue
        if attr in vars(owner):
            found.append((owner, attr, span, probe))
        else:
            missing += 1
    for kind, attr, span in _KIND_TARGETS:
        owners = {
            cls: None
            for factory in registry.as_dict(kind).values()
            for cls in getattr(factory, "__mro__", ())
            if cls is not object and attr in vars(cls)
        }
        found += [(cls, attr, span, None) for cls in owners]
        missing += not owners
    return found, missing


def wrapped_callables() -> List[Any]:
    """What currently sits at every wrap target (tests compare before/after)."""
    return [vars(owner)[attr] for owner, attr, _, _ in _resolve_targets()[0]]


def install_wrappers(tracer: Tracer) -> int:
    """Wrap every target that exists; returns how many were missing."""
    found, missing = _resolve_targets()
    for owner, attr, span, probe in found:
        tracer.wrap(owner, attr, span, probe)
    return missing


def power_control_counts(spans: List[list]) -> Tuple[int, int, float]:
    """(cache lookups, misses, mean Algorithm-2 iterations) of a traced pass."""
    lookups = misses = solves = iterations = 0
    for span in spans:
        if span[NAME] == "core.power_control.solve":
            lookups += 1
        elif span[NAME] == "core.power_control.algorithm2":
            solves += 1
            iterations += span[TAG] or 0
            parent = span[PARENT]
            if parent >= 0 and spans[parent][NAME] == "core.power_control.solve":
                misses += 1
    return lookups, misses, (iterations / solves if solves else 0.0)


# ----------------------------------------------------------------------
# Direct-call micro rows
# ----------------------------------------------------------------------
def _median_ms(fn: Callable[[], Any], repeats: int) -> float:
    fn()  # first call binds buffers and fills the engine's caches
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples)) * 1e3


def _run_group_ms(
    model_name: str, params: Dict[str, Any], dtype: str, flat: bool, repeats: int
) -> float:
    from repro.nn.batched import BatchedWorkerEngine
    from repro.nn.params import parameter_dtype

    with parameter_dtype(dtype):
        model = registry.create("model", model_name, seed=0, **params)
    engine = BatchedWorkerEngine.try_build(model)
    if engine is None:
        return 0.0
    rng = np.random.default_rng(0)
    workers, samples = 10, 40
    shape = (samples, 64) if flat else (samples, 1, 8, 8)
    data = [
        (rng.standard_normal(shape).astype(dtype), rng.integers(0, 10, samples))
        for _ in range(workers)
    ]
    base = model.get_vector()
    out = np.empty((workers, engine.dimension), dtype=base.dtype)

    def call() -> None:
        engine.run_group(
            list(range(workers)), data, base, 1,
            learning_rate=0.1, local_steps=5, batch_size=32, seed=0, out=out,
        )

    return _median_ms(call, repeats)


def _aggregate_us(dim: int, group: int, repeats: int) -> Tuple[float, float]:
    from repro.channel import aircomp

    rng = np.random.default_rng(0)
    models = rng.standard_normal((group, dim))
    kwargs = dict(
        data_sizes=rng.uniform(10.0, 100.0, group),
        channel_gains=rng.uniform(0.5, 2.0, group),
        sigma_t=1.0, eta_t=1.0, noise_std=0.01,
    )
    noise = np.random.default_rng(1)
    workspace = aircomp.AirCompWorkspace()
    fast = _median_ms(
        lambda: aircomp.aircomp_aggregate(models, rng=noise, workspace=workspace, **kwargs),
        repeats,
    )
    reference = getattr(aircomp, "aircomp_aggregate_reference", None)
    slow = (
        _median_ms(lambda: reference(list(models), rng=noise, **kwargs), repeats)
        if reference is not None
        else 0.0
    )
    return fast * 1e3, slow * 1e3


def micro_rows(repeats: int = 5) -> Dict[str, float]:
    """Kernel timings at figure shapes, by direct call (10-worker group)."""
    rows: Dict[str, float] = {}
    mlp = {"input_dim": 64, "hidden": 32, "num_classes": 10}
    cnn = {"image_size": 8, "scale": 0.1, "num_classes": 10}
    for short, dtype in (("f64", "float64"), ("f32", "float32")):
        rows[f"nn.batched.run_group.mlp_{short}_ms"] = _run_group_ms("lr", mlp, dtype, True, repeats)
        rows[f"nn.batched.run_group.cnn_{short}_ms"] = _run_group_ms(
            "mnist_cnn", cnn, dtype, False, repeats
        )
    for label, dim, group in (("q20k_g8", 20_000, 8), ("q200k_g16", 200_000, 16)):
        fast, slow = _aggregate_us(dim, group, repeats)
        rows[f"channel.aircomp.aggregate.{label}_us"] = fast
        rows[f"channel.aircomp.aggregate_reference.{label}_us"] = slow
    return rows
