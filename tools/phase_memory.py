"""Traced and resident memory of each phase of a replicated benchmark workload.

Builds the workload the way ``benchmarks/airbench/adapter.py`` does —
dataset, latency, channel, population, trainer, run — under
``tracemalloc`` and prints, per phase, the bytes live after it and the
peak traced while it ran (both in MB of Python-visible allocations, so
NumPy buffers count at full size whether or not their pages were touched).
Beside them stand the process's ``VmRSS`` after the phase and its
``VmHWM`` (the resident high-water mark so far), read from
``/proc/self/status`` in MiB, the unit of the benchmark's ``peak_rss_mb``:
the resident figures also hold what the allocator keeps of freed buffers,
and ``tracemalloc``'s own bookkeeping.
The trainer build and the run are split further into the stages listed in
``STAGES``, printed indented under their phase: each stage's callable is
wrapped from outside for the pass and put back afterwards, as
``benchmarks/airbench/trace.py`` wraps its spans.

    python3 tools/phase_memory.py --workload scale_1m --seed 0

``--passes N`` repeats the whole build-and-run pass N times in one process,
as the benchmark repeats a workload, and then prints ``VmRSS`` and ``VmHWM``
after each pass, once what it built is dropped: what the allocator keeps of
one pass's freed buffers shows as resident memory between passes and as a
high-water mark that still grows on the later ones.  The phase table is the
first pass's.

Run it with ``PYTHONPATH=<other checkout>/src`` to compare two trees.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path += [str(ROOT), str(ROOT / "src")]  # after PYTHONPATH, which may name another tree

from benchmarks.airbench.measure import load_workload  # noqa: E402
from repro import registry  # noqa: E402
from repro.core.config import AirFedGAConfig, GroupingConfig  # noqa: E402
from repro.core.population import Population  # noqa: E402
from repro.fl import FLExperiment  # noqa: E402
from repro.fl.registry import build_trainer  # noqa: E402

#: ``(module, owner in it or None, attribute or None, stage)``: the callables
#: whose calls are stages.  ``None`` as the attribute wraps every entry of a
#: dict owner; a generator function's stage is its first row (the run's
#: first dispatch).
STAGES: List[Tuple[str, Optional[str], Optional[str], str]] = [
    ("repro.fl.air_fedga", None, "solve_power_control", "power-control estimate"),
    ("repro.fl.grouped", "GroupedAsyncTrainer", "grouping_problem", "grouping problem"),
    ("repro.core.grouping", "GROUPING_STRATEGIES", None, "grouping"),
    ("repro.core.mechanism", "GroupAsyncScheduler", "__init__", "scheduler"),
    ("repro.fl.grouped", "GroupedAsyncTrainer", "schedule", "first dispatch"),
]


def resident_mib() -> Tuple[float, float]:
    """``VmRSS`` and ``VmHWM`` of this process in MiB (NaN without ``/proc``)."""
    fields = {}
    try:
        with open("/proc/self/status") as status:
            for line in status:
                key, _, value = line.partition(":")
                fields[key] = value
    except OSError:
        pass
    return tuple(  # type: ignore[return-value]
        int(fields[key].split()[0]) / 1024 if key in fields else float("nan")
        for key in ("VmRSS", "VmHWM")
    )


class TracedSpans:
    """Bytes live after and peak traced during nested spans, and the
    resident MiB after each.

    ``tracemalloc`` keeps one peak; each span start and end folds it into
    the running peak of every open span before resetting it, so a stage's
    reset does not hide its phase's peak.
    """

    def __init__(self) -> None:
        #: ``[depth, name, live after, peak during, VmRSS after, VmHWM after]``
        #: in start order.
        self.rows: List[list] = []
        self._open: List[int] = []

    def _fold(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        self._open = [max(p, peak) for p in self._open]
        tracemalloc.reset_peak()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._fold()
        row = [len(self._open), name, 0, 0, 0.0, 0.0]
        self.rows.append(row)
        self._open.append(0)
        try:
            yield
        finally:
            self._fold()
            row[3] = self._open.pop()
            row[2] = tracemalloc.get_traced_memory()[0]
            row[4:] = resident_mib()


def _stage(spans: TracedSpans, name: str, func: Any) -> Any:
    if inspect.isgeneratorfunction(func):

        @functools.wraps(func)
        def first_row(*args: Any, **kwargs: Any) -> Iterator[Any]:
            rows = func(*args, **kwargs)
            with spans.span(name):
                row = next(rows, None)
            if row is not None:
                yield row
                yield from rows

        return first_row

    @functools.wraps(func)
    def call(*args: Any, **kwargs: Any) -> Any:
        with spans.span(name):
            return func(*args, **kwargs)

    return call


def _owner(module: str, name: Optional[str]) -> Any:
    owner = importlib.import_module(module)
    return getattr(owner, name) if name else owner


@contextmanager
def staged(spans: TracedSpans, stages: Sequence[tuple]) -> Iterator[None]:
    """Each ``(owner, attribute or None, stage)`` wrapped as a span, meanwhile."""
    installed = []
    try:
        for owner, attr, name in stages:
            mapping = isinstance(owner, dict)
            table = owner if mapping else vars(owner)
            put = owner.__setitem__ if mapping else functools.partial(setattr, owner)
            for key in list(table) if attr is None else [attr]:
                installed.append((put, key, table[key]))
                put(key, _stage(spans, name, table[key]))
        yield
    finally:
        for put, key, func in reversed(installed):
            put(key, func)


def run_pass(doc: dict, seed: int) -> TracedSpans:
    """One build-and-run pass of the replicated workload ``doc``, its phases
    and stages traced; everything it built is dropped on return."""
    n, training = int(doc["num_workers"]), doc["training"]
    mechanism = doc["mechanisms"][0]
    model, model_params = doc["model"]["name"], doc["model"]["params"]
    built = {}
    phases = {
        "dataset": lambda: registry.create(
            "dataset", doc["dataset"]["name"], seed=seed, **doc["dataset"]["params"]
        ).flattened(),
        "latency": lambda: registry.create(
            "latency", "uniform", num_workers=n, base_time=doc["base_local_time"],
            heterogeneity_seed=seed + 1, seed=seed + 2,
        ),
        "channel": lambda: registry.create(
            "channel", doc["channel"]["name"], num_workers=n, seed=seed + 3,
            **doc["channel"]["params"],
        ),
        "population": lambda: Population.replicated(
            built["dataset"], num_workers=n, shard_size=doc["shard_size"],
            latency=built["latency"],
        ),
        "trainer build": lambda: build_trainer(
            mechanism["name"],
            FLExperiment(
                dataset=built["dataset"], partition=None,
                model_factory=lambda: registry.create("model", model, seed=seed, **model_params),
                latency=built["latency"], channel=built["channel"],
                config=AirFedGAConfig(grouping=GroupingConfig(xi=1.0)),
                learning_rate=training["learning_rate"], local_steps=training["local_steps"],
                batch_size=training["batch_size"], eval_every=training["eval_every"],
                max_eval_samples=training["max_eval_samples"], seed=seed,
                population=built["population"],
            ),
            num_groups=max(1, n // int(doc["group_size"])),
            **mechanism["params"],
        ),
        "run": lambda: built["trainer build"].run(max_rounds=mechanism["max_rounds"]),
    }
    spans = TracedSpans()
    tracemalloc.start()
    try:
        with staged(spans, [(_owner(m, o), attr, name) for m, o, attr, name in STAGES]):
            for name, phase in phases.items():
                with spans.span(name):
                    built[name] = phase()
    finally:
        tracemalloc.stop()
    return spans


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="scale_1m")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=1, help="build-and-run passes (default 1)")
    args = parser.parse_args(argv)
    doc = load_workload(args.workload)
    if doc["kind"] != "replicated":
        parser.error(f"{args.workload} is not a replicated workload")
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    # Each pass's spans, and VmRSS / VmHWM once what it built is dropped.
    passes = [(run_pass(doc, args.seed), resident_mib()) for _ in range(args.passes)]
    print(f"{args.workload} (seed {args.seed}): traced MB, resident MiB")
    print(f"{'phase / stage':<26} {'live after':>10} {'peak':>8} {'VmRSS':>8} {'VmHWM':>8}")
    for depth, name, live, peak, rss, hwm in passes[0][0].rows:
        print(
            f"{'  ' * depth + name:<26} {live / 1e6:>10.1f} {peak / 1e6:>8.1f}"
            f" {rss:>8.1f} {hwm:>8.1f}"
        )
    if args.passes > 1:
        print(f"\n{'pass':<26} {'VmRSS':>8} {'VmHWM':>8}")
        for number, (_, (rss, hwm)) in enumerate(passes, 1):
            print(f"{number:<26} {rss:>8.1f} {hwm:>8.1f}")

if __name__ == "__main__":
    main()
