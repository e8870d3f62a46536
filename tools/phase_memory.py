"""Traced memory of each phase of a replicated benchmark workload.

Builds the workload the way ``benchmarks/airbench/adapter.py`` does —
dataset, latency, channel, population, trainer, run — under
``tracemalloc`` and prints, per phase, the bytes live after it and the
peak traced while it ran (both in MB of Python-visible allocations, so
NumPy buffers count at full size whether or not their pages were touched).

    python3 tools/phase_memory.py --workload scale_1m --seed 0

Run it with ``PYTHONPATH=<other checkout>/src`` to compare two trees.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path += [str(ROOT), str(ROOT / "src")]  # after PYTHONPATH, which may name another tree

from benchmarks.airbench.measure import load_workload  # noqa: E402
from repro import registry  # noqa: E402
from repro.core.config import AirFedGAConfig, GroupingConfig  # noqa: E402
from repro.core.population import Population  # noqa: E402
from repro.fl import FLExperiment  # noqa: E402
from repro.fl.registry import build_trainer  # noqa: E402


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="scale_1m")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    doc = load_workload(args.workload)
    if doc["kind"] != "replicated":
        parser.error(f"{args.workload} is not a replicated workload")
    n, seed, training = int(doc["num_workers"]), args.seed, doc["training"]
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
    print(f"{args.workload} (seed {seed}): traced MB")
    print(f"{'phase':<14} {'live after':>10} {'peak':>8}")
    tracemalloc.start()
    try:
        for name, phase in phases.items():
            tracemalloc.reset_peak()
            built[name] = phase()
            live, peak = tracemalloc.get_traced_memory()
            print(f"{name:<14} {live / 1e6:>10.1f} {peak / 1e6:>8.1f}")
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    main()
