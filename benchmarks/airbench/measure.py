"""Run one workload for a fixed time and turn its samples into named metrics.

Protocol (closed loop, one process, one BLAS thread): repeat ``set-up → run``
of the workload until ``seconds`` have passed — every repetition builds its
trainers from scratch, so set-up is paid and timed each time — and report the
median over repetitions.  Every repetition's seconds leave out the process's
kernel CPU time (see ``adapter._Region``) and are divided by the host slowdown
measured around it (see ``hostspeed``).  End-to-end numbers always
come from untraced repetitions.  With ``trace`` on, untraced and traced
repetitions alternate; the traced ones give the per-layer numbers, the pair
gives the tracing overhead, and their histories must match bit for bit.

An operation is one repetition.  It fails when it raises or when a check on
its outputs fails (see ``adapter.execute``), when it does not reproduce the
first repetition's simulated outputs exactly, or when a traced repetition
differs from its untraced twin.
"""

from __future__ import annotations

import copy
import gc
import json
import resource
import statistics
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import adapter
from .hostspeed import HostClock
from .trace import END, NAME, PARENT, START, TAG, Tracer, aggregate, roots

__all__ = [
    "END_TO_END",
    "WORKLOADS",
    "workload_why",
    "per_layer_spec",
    "load_workload",
    "run_workload",
]

REPO_ROOT = Path(__file__).resolve().parents[2]
#: Everything the benchmark writes (sweep scratch, span dumps, result files)
#: goes under the checkout's gitignored ``results/``.
OUTPUT_DIR = REPO_ROOT / "results" / "airbench"

_DOCUMENTS = json.loads((Path(__file__).parent / "workloads.json").read_text())
WORKLOADS: List[str] = list(_DOCUMENTS)


def workload_why(name: str) -> str:
    """One line on why the workload exists (goes into ``BENCHMARK.json``)."""
    return _DOCUMENTS[name]["why"]


#: ``(name, unit, better, bound)`` — the bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("run_s", "s", "lower", 0.25),
    ("rounds_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

#: Units of host time; values in them are scaled by the host slowdown.
_HOST_TIME_UNITS = {"s": -1, "ms": -1, "us": -1, "1/s": 1}

_EXTRAS: List[Tuple[str, str, str]] = [
    ("fl.history.sim_time_s", "sim_s", "lower"),
    ("fl.history.final_accuracy", "ratio", "higher"),
    ("fl.history.time_to_target_s", "sim_s", "lower"),
    ("fl.loop.self_us_per_round", "us", "lower"),
    ("fl.grouped.quorum_retry_ratio", "ratio", "lower"),
    ("core.power_control.cache_hit_ratio", "ratio", "higher"),
    ("core.power_control.iterations_mean", "count", "lower"),
    ("nn.batched.worker_steps_per_s", "1/s", "higher"),
    ("nn.batched.run_group.first_visit_ms", "ms", "lower"),
    ("nn.batched.run_group.revisit_ms", "ms", "lower"),
    ("nn.models.evaluate.ms_per_call", "ms", "lower"),
    ("sim.clientstate.dropped_ratio", "ratio", "lower"),
    ("core.population.state_nbytes", "B", "lower"),
    ("core.population.store_nbytes", "B", "lower"),
    ("experiments.sweep.points_per_s_cold", "1/s", "higher"),
    ("experiments.sweep.points_per_s_warm", "1/s", "higher"),
    ("experiments.runcache.hit_ratio", "ratio", "higher"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.host_slowdown", "ratio", "lower"),
    ("bench.kernel_s", "s", "lower"),
    ("bench.span_coverage", "ratio", "higher"),
    ("bench.wrap_targets_missing", "count", "lower"),
]

_MICRO_NAMES = [
    f"nn.batched.run_group.{model}_{dtype}_ms"
    for dtype in ("f64", "f32")
    for model in ("mlp", "cnn")
] + [
    f"channel.aircomp.{fn}.{shape}_us"
    for shape in ("q20k_g8", "q200k_g16")
    for fn in ("aggregate", "aggregate_reference")
]


def per_layer_spec() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in reporting order."""
    spec: List[Tuple[str, str, str]] = []
    for span in adapter.SPAN_NAMES:
        spec += [
            (f"{span}.self_ms", "ms", "lower"),
            (f"{span}.share", "ratio", "lower"),
            (f"{span}.calls", "count", "lower"),
        ]
    spec += _EXTRAS
    spec += [(name, name.rsplit("_", 1)[1], "lower") for name in _MICRO_NAMES]
    return spec


# ----------------------------------------------------------------------
# Workload documents
# ----------------------------------------------------------------------
def load_workload(name: str, smoke: bool = False) -> Dict[str, Any]:
    """The frozen document of one workload; ``smoke`` shrinks it for tests."""
    if name not in _DOCUMENTS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    doc = copy.deepcopy(_DOCUMENTS[name])
    overrides = doc.pop("smoke")
    del doc["why"]
    if smoke:
        for path, value in overrides.items():
            node: Any = doc
            *parents, leaf = path.split(".")
            for part in parents:
                node = node[int(part)] if isinstance(node, list) else node[part]
            node[leaf] = value
    return doc


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
def _attempt(
    doc: Dict[str, Any], seed: int, tracer: Optional[Tracer], clock: HostClock
) -> Tuple[adapter.Outcome, float]:
    """One execution and the host slowdown around it (the clock was last
    read when the previous repetition, or the clock's construction, ended)."""
    gc.collect()  # the previous repetition's trainers, outside any timed region
    try:
        outcome = adapter.execute(doc, seed, tracer, OUTPUT_DIR)
    except Exception:  # a failed operation is counted, not fatal
        outcome = adapter.Outcome(problems=[traceback.format_exc()])
    return outcome, clock.slowdown()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(
    tracer: Tracer, traced: adapter.Outcome, slowdown: float, missing: int
) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (overhead is added later)."""
    spans = tracer.spans
    whole = aggregate(spans)
    in_run = aggregate(spans, "bench.run")
    zero = {"self_ns": 0, "total_ns": 0, "calls": 0}
    run_ns = in_run.get("bench.run", zero)["total_ns"]
    row: Dict[str, float] = {}
    for span in adapter.SPAN_NAMES:
        row[f"{span}.self_ms"] = whole.get(span, zero)["self_ns"] / 1e6
        row[f"{span}.share"] = _ratio(in_run.get(span, zero)["self_ns"], run_ns)
        row[f"{span}.calls"] = whole.get(span, zero)["calls"]

    # run_group per group: the first call of a group also concatenates its
    # data (the engine's per-group cache); tile calls nested in a call of the
    # same name are part of it.
    root_of = roots(spans)
    seen, first, again, steps = set(), [], [], 0
    for index, span in enumerate(spans):
        if span[NAME] != "nn.batched.run_group" or span[TAG] is None:
            continue
        if span[PARENT] >= 0 and spans[span[PARENT]][NAME] == span[NAME]:
            continue
        member, size, local_steps = span[TAG]
        key = (root_of[index], member, size)
        (again if key in seen else first).append((span[END] - span[START]) / 1e6)
        seen.add(key)
        steps += size * local_steps
    group = whole.get("nn.batched.run_group", zero)
    evaluate = whole.get("nn.models.evaluate", zero)
    lookups, misses, iterations = adapter.power_control_counts(spans)
    counters = traced.counters
    row.update(
        {
            "fl.history.sim_time_s": traced.sim_time_s,
            "fl.history.final_accuracy": traced.final_accuracy,
            # 0 = no target named for the workload, or not reached on this seed
            "fl.history.time_to_target_s": traced.time_to_target_s,
            "fl.loop.self_us_per_round": _ratio(
                whole.get("fl.loop", zero)["self_ns"] / 1e3, traced.rounds
            ),
            "fl.grouped.quorum_retry_ratio": _ratio(
                counters.get("quorum_retries", 0.0), traced.rounds
            ),
            "core.power_control.cache_hit_ratio": _ratio(lookups - misses, lookups),
            "core.power_control.iterations_mean": iterations,
            "nn.batched.worker_steps_per_s": _ratio(steps, group["total_ns"] / 1e9),
            "nn.batched.run_group.first_visit_ms": statistics.median(first) if first else 0.0,
            "nn.batched.run_group.revisit_ms": statistics.median(again) if again else 0.0,
            "nn.models.evaluate.ms_per_call": _ratio(
                evaluate["total_ns"] / 1e6, evaluate["calls"]
            ),
            "sim.clientstate.dropped_ratio": _ratio(
                counters.get("workers_dropped", 0.0), counters.get("dispatches", 0.0)
            ),
            "core.population.state_nbytes": counters.get("state_nbytes", 0.0),
            "core.population.store_nbytes": counters.get("store_nbytes", 0.0),
            "experiments.sweep.points_per_s_cold": _ratio(
                counters.get("points", 0.0), counters.get("cold_s", 0.0)
            ),
            "experiments.sweep.points_per_s_warm": _ratio(
                counters.get("points", 0.0), counters.get("warm_s", 0.0)
            ),
            "experiments.runcache.hit_ratio": _ratio(
                counters.get("warm_hits", 0.0), counters.get("points", 0.0)
            ),
            "bench.span_coverage": 1.0
            - _ratio(in_run.get("bench.run", zero)["self_ns"], run_ns),
            "bench.wrap_targets_missing": float(missing),
            "bench.kernel_s": traced.kernel_s,
        }
    )
    row = _on_nominal_host(row, slowdown)
    row["bench.host_slowdown"] = slowdown
    return row


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    min_reps: int = 3,
) -> Dict[str, Any]:
    """Measure one workload; returns the result object the driver reads.

    ``end_to_end`` comes from the untraced repetitions; ``per_layer`` (and
    the last traced repetition's ``spans``) only with ``trace``.  Repetitions
    stop when another one would overrun ``seconds`` (but not before
    ``min_reps``).
    """
    doc = load_workload(name, smoke)
    clock = HostClock()
    plain: List[Tuple[adapter.Outcome, float]] = []
    traced: List[Tuple[adapter.Outcome, float]] = []
    layer_rows: List[Dict[str, float]] = []
    problems: List[str] = []
    tracer: Optional[Tracer] = None
    failed = 0
    started = time.perf_counter()
    micro: Dict[str, float] = {}
    if trace:  # first, so that the repetitions get what is left of ``seconds``
        micro = adapter.micro_rows(repeats=1 if smoke else 5)
        micro = _on_nominal_host(micro, clock.slowdown())
    longest = 0.0
    while len(plain) < min_reps or time.perf_counter() - started + longest < seconds:
        rep_started = time.perf_counter()
        attempts = [_attempt(doc, seed, None, clock)]
        plain.append(attempts[0])
        if trace:
            tracer = Tracer()
            missing = adapter.install_wrappers(tracer)
            try:
                attempts.append(_attempt(doc, seed, tracer, clock))
            finally:
                tracer.remove()
            traced.append(attempts[1])
            layer_rows.append(_layer_metrics(tracer, *attempts[1], missing))
        for outcome, _ in attempts:
            if not outcome.problems and outcome.fingerprint != plain[0][0].fingerprint:
                outcome.problems.append("simulated outputs differ from the first repetition")
            failed += bool(outcome.problems)
            problems += outcome.problems
        longest = max(longest, time.perf_counter() - rep_started)

    good = [(o, slowdown) for o, slowdown in plain if o.run_s > 0]
    if not good:
        raise RuntimeError(f"no repetition of {name} completed:\n" + "\n".join(problems))
    run_median = statistics.median(o.run_s / slowdown for o, slowdown in good)
    end_to_end = {
        "run_s": run_median,
        "rounds_per_s": statistics.median(
            o.rounds * slowdown / o.run_s for o, slowdown in good
        ),
        "setup_s": statistics.median(o.setup_s / slowdown for o, slowdown in good),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = None
    if tracer is not None:
        per_layer = {
            key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]
        }
        traced_median = statistics.median(o.run_s / slowdown for o, slowdown in traced)
        per_layer["bench.trace_overhead_ratio"] = traced_median / run_median - 1.0
        per_layer.update(micro)
        tracer.write_jsonl(OUTPUT_DIR / f"spans-{name}-seed{seed}.jsonl", name)
    return {
        "correct": failed == 0,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "end_to_end": _with_units(end_to_end, {n: u for n, u, _, _ in END_TO_END}),
        "per_layer": per_layer and _with_units(per_layer, _PER_LAYER_UNITS),
        "problems": problems,
        "host_slowdown": statistics.median(slowdown for _, slowdown in plain),
        "spans": tracer.spans if tracer is not None else None,
    }


def _on_nominal_host(values: Dict[str, float], slowdown: float) -> Dict[str, float]:
    """Scale every value whose unit is host time by the host slowdown."""
    return {
        name: value * slowdown ** _HOST_TIME_UNITS.get(_PER_LAYER_UNITS[name], 0)
        for name, value in values.items()
    }


def _with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    """``{name: {"value", "unit"}}`` for exactly the names that have a unit."""
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


_PER_LAYER_UNITS = {name: unit for name, unit, _ in per_layer_spec()}
