"""Legacy performance harness: the two tiers airbench does not hold yet.

The repo benchmark is ``benchmarks/airbench`` (``BENCHMARK.json``); its
``fig_mlp`` / ``fig_cnn`` workloads and ``channel.aircomp.aggregate*_us``
rows superseded this harness's grouped-round, CNN mini-run and
aggregation-micro tiers.  What remains here until airbench has the
corresponding workloads:

1. **grouped_round_xl** — the partition-less lazy-population round at
   10k/100k workers (rounds per second, peak RSS, build time; see
   :func:`bench_grouped_round_xl`);
2. **mechanism_convergence** — a Table-1-style convergence probe of the
   mechanism families (FedAvg / FedProx / FedDyn / FedAsync / Air-FedGA)
   on one seeded label-skew workload: final loss/accuracy, simulated time
   and wall-clock per mechanism, so successive PRs track *convergence*
   regressions alongside the timings.

Results are appended to ``BENCH_<label>.json`` (earlier runs in the
committed ``BENCH_perf_v1.json`` also carry the rows of the retired
tiers).  Run via ``make bench`` or ``python -m repro.experiments bench``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.config import AirFedGAConfig, GroupingConfig
from ..fl.base import FLExperiment
from ..fl.registry import build_trainer
from .configs import lr_mnist_config

__all__ = [
    "bench_grouped_round_xl",
    "bench_mechanism_convergence",
    "run_bench_suite",
    "write_bench_results",
    "main",
]


def _build_xl_trainer(num_workers: int, group_size: int, shard_size: int = 64):
    """Construct the partition-less XL Air-FedGA trainer (lazy population).

    The whole point of the tier is that nothing here is O(num_workers) in
    Python objects or sample storage: the dataset is one small shared
    buffer served through :meth:`Population.replicated` (overlapping
    zero-copy windows), worker state lives in the struct-of-arrays
    :class:`~repro.core.population.WorkerStateTable`, and the grouping is
    the O(N) ``contiguous`` strategy (int64 block arrays, no per-worker
    lists anywhere in the event loop).
    """
    from .. import registry
    from ..core.population import Population
    from ..sim.latency import build_uniform_latency

    dataset = registry.create(
        "dataset",
        "synthetic-mnist",
        num_train=2048,
        num_test=256,
        image_size=8,
        seed=0,
    ).flattened()
    latency = build_uniform_latency(
        num_workers=num_workers, base_time=1.0, heterogeneity_seed=1, seed=2
    )
    channel = registry.create(
        "channel", "static", num_workers=num_workers, spread=2.0, seed=3
    )
    population = Population.replicated(
        dataset,
        num_workers=num_workers,
        shard_size=shard_size,
        latency=latency,
    )
    experiment = FLExperiment(
        dataset=dataset,
        partition=None,
        model_factory=lambda: registry.create(
            "model", "lr", input_dim=64, hidden=16, num_classes=10, seed=0
        ),
        latency=latency,
        channel=channel,
        config=AirFedGAConfig(grouping=GroupingConfig(xi=1.0)),
        learning_rate=0.1,
        local_steps=1,
        batch_size=32,
        eval_every=1_000_000,
        max_eval_samples=32,
        seed=0,
        population=population,
        materialization="lazy",
    )
    return build_trainer(
        "air_fedga",
        experiment,
        grouping_strategy="contiguous",
        num_groups=max(1, num_workers // group_size),
    )


def _xl_worker(num_workers: int, rounds: int, group_size: int, conn) -> None:
    """Subprocess entry of the XL tier.

    Runs in a fresh ``spawn`` process so ``ru_maxrss`` — a process-lifetime
    high-water mark on Linux — measures exactly this trainer's peak and
    not whatever larger tier ran earlier in the parent.
    """
    import resource

    build_start = time.perf_counter()
    trainer = _build_xl_trainer(num_workers, group_size)
    build_s = time.perf_counter() - build_start
    start = time.perf_counter()
    trainer.run(max_rounds=rounds)
    elapsed = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    conn.send(
        {
            "num_workers": num_workers,
            "num_groups": len(trainer.groups),
            "group_size": group_size,
            "rounds_timed": rounds,
            "build_s": build_s,
            "s_per_round": elapsed / rounds,
            "rounds_per_sec": rounds / elapsed,
            "peak_rss_mb": peak_kb / 1024.0,
            "state_nbytes": int(trainer.worker_state.nbytes),
            "store_nbytes": int(trainer.population.store.nbytes),
            "materialization": "lazy",
        }
    )
    conn.close()


def bench_grouped_round_xl(
    num_workers: int,
    rounds: Optional[int] = None,
    group_size: int = 64,
    rss_budget_mb: Optional[float] = None,
) -> Dict[str, object]:
    """Time Air-FedGA event-loop rounds at 10k-1M workers, tracking peak RSS.

    Each worker count runs in its own freshly spawned subprocess and
    reports wall-clock per round plus ``getrusage`` peak RSS, so the rows
    are comparable across sizes and across runs.  ``rss_budget_mb`` turns
    the row into an assertion: a peak above the budget raises
    :class:`RuntimeError` instead of recording a regression silently (the
    CI smoke job runs the 10k tier under a 4 GB budget).

    The default round budget shrinks with the worker count (48 rounds at
    10k down to 8 at 1M) so the tier stays a smoke-scale measurement.
    """
    import multiprocessing as mp

    rounds = int(rounds or max(8, min(48, 2_000_000 // max(1, num_workers))))
    ctx = mp.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_xl_worker, args=(num_workers, rounds, group_size, child_conn)
    )
    proc.start()
    child_conn.close()
    try:
        row = parent_conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"grouped_round_xl subprocess for {num_workers} workers died "
            f"with exit code {proc.exitcode}"
        ) from None
    finally:
        parent_conn.close()
    proc.join()
    if rss_budget_mb is not None and row["peak_rss_mb"] > rss_budget_mb:
        raise RuntimeError(
            f"grouped_round_xl at {num_workers} workers peaked at "
            f"{row['peak_rss_mb']:.0f} MB RSS, over the "
            f"{rss_budget_mb:.0f} MB budget"
        )
    return row


#: The mechanism families compared by the convergence tier: the paper's
#: grouped mechanism plus the synchronous-regularized and asynchronous
#: baselines added for the Table-1-style comparison.
MECHANISM_FAMILIES = (
    ("fedavg", {}),
    ("fedprox", {"mu": 0.05}),
    ("feddyn", {"alpha_coef": 0.05}),
    ("fedasync", {}),
    ("air_fedga", {}),
)


def bench_mechanism_convergence(
    max_rounds: int = 20,
    num_workers: int = 10,
    families: Sequence = MECHANISM_FAMILIES,
) -> List[Dict[str, object]]:
    """Convergence probe of the mechanism families on one seeded workload.

    Every family runs the same label-skew LR-MNIST scenario (the fig3
    shape at smoke scale, fixed seed) for
    ``max_rounds`` global rounds — FedAsync counts per-update commits as
    rounds, so all rows spend a comparable number of local-training
    dispatches.  Rows record the convergence endpoints (first/final loss,
    final accuracy), the simulated round clock and the wall-clock cost,
    plus the mean recorded staleness (non-zero only for the asynchronous
    mechanisms).  Unlike the timing tiers this is a *trajectory* record:
    a change in ``final_loss`` at fixed seed means the mechanism's math
    changed, not just its speed.
    """
    rows: List[Dict[str, object]] = []
    for name, params in families:
        trainer = lr_mnist_config(
            num_workers=num_workers,
            num_train=30 * num_workers,
            image_size=8,
            hidden=16,
            max_rounds=max_rounds,
        ).with_(
            mechanism={"name": name, "params": dict(params)},
            training={
                "local_steps": 2,
                "batch_size": 16,
                "eval_every": 1,
                "max_eval_samples": 64,
            },
        ).build()
        start = time.perf_counter()
        history = trainer.run(max_rounds=max_rounds)
        wall = time.perf_counter() - start
        losses = [v for v in history.losses() if np.isfinite(v)]
        staleness = [
            r.staleness for r in history.records if r.num_participants > 0
        ]
        rows.append(
            {
                "mechanism": name,
                "params": dict(params),
                "num_workers": num_workers,
                "rounds": history.total_rounds,
                "initial_loss": float(losses[0]),
                "final_loss": float(losses[-1]),
                "final_accuracy": float(history.final_accuracy),
                "sim_time_s": float(history.total_time),
                "wall_s": wall,
                "mean_staleness": float(np.mean(staleness)) if staleness else 0.0,
            }
        )
    return rows


# ----------------------------------------------------------------------
def run_bench_suite(
    quick: bool = False,
    xl_worker_counts: Sequence[int] = (10_000, 100_000),
    xl_rounds: Optional[int] = None,
    xl_rss_budget_mb: Optional[float] = None,
) -> Dict[str, object]:
    """Run the two tiers and return one results record."""
    if quick:
        xl_worker_counts = tuple(w for w in xl_worker_counts if w <= 10_000) or (
            10_000,
        )
    grouped_xl = [
        bench_grouped_round_xl(
            w, rounds=xl_rounds, rss_budget_mb=xl_rss_budget_mb
        )
        for w in xl_worker_counts
    ]
    convergence = bench_mechanism_convergence(max_rounds=8 if quick else 20)
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "quick": quick,
        "grouped_round_xl": grouped_xl,
        "mechanism_convergence": convergence,
    }


def write_bench_results(
    record: Dict[str, object], label: str = "perf_v1", output_dir: str | Path = "."
) -> Path:
    """Append one benchmark record to ``BENCH_<label>.json``."""
    path = Path(output_dir) / f"BENCH_{label}.json"
    if path.exists():
        data = json.loads(path.read_text())
        if not isinstance(data.get("runs"), list):
            data = {"label": label, "runs": []}
    else:
        data = {"label": label, "runs": []}
    data["runs"].append(record)
    path.write_text(json.dumps(data, indent=2))
    return path


def format_bench_summary(record: Dict[str, object]) -> str:
    lines = ["Perf benchmark summary (XL population, convergence):"]
    for row in record.get("grouped_round_xl", []):
        lines.append(
            f"  grouped round XL (lazy population), "
            f"{row['num_workers']:>9,d} workers ({row['num_groups']} groups "
            f"of {row['group_size']}): "
            f"{row['s_per_round'] * 1e3:8.1f} ms/round "
            f"({row['rounds_per_sec']:.1f} rounds/s), "
            f"peak RSS {row['peak_rss_mb']:.0f} MB, "
            f"build {row['build_s']:.2f} s"
        )
    for row in record.get("mechanism_convergence", []):
        params = ", ".join(f"{k}={v}" for k, v in row["params"].items())
        lines.append(
            f"  convergence {row['mechanism']:>10s}"
            f"({params}): loss {row['initial_loss']:.3f} -> "
            f"{row['final_loss']:.3f}, acc {row['final_accuracy']:.3f} "
            f"in {row['rounds']} rounds "
            f"(sim {row['sim_time_s']:.0f} s, wall {row['wall_s']:.2f} s, "
            f"mean staleness {row['mean_staleness']:.1f})"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.experiments bench",
        description=(
            "Legacy perf harness: XL population and mechanism convergence "
            "(the repo benchmark is benchmarks/airbench)."
        ),
    )
    parser.add_argument("--label", default="perf_v1", help="suffix of BENCH_<label>.json")
    parser.add_argument("--output-dir", default=".", help="where to write the JSON")
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller sizes / fewer repeats (CI smoke mode)",
    )
    parser.add_argument(
        "--xl-only", action="store_true",
        help="run only the grouped_round_xl tier (CI smoke / scale probes)",
    )
    parser.add_argument(
        "--xl-workers", type=int, nargs="+", default=[10_000, 100_000],
        help="worker counts for the grouped_round_xl tier",
    )
    parser.add_argument(
        "--xl-rounds", type=int, default=None,
        help="rounds per XL size (default scales down with the worker count)",
    )
    parser.add_argument(
        "--xl-rss-budget-mb", type=float, default=None,
        help="fail if any XL row's peak RSS exceeds this many MB",
    )
    parser.add_argument(
        "--xl-jsonl", default=None,
        help="also write the XL rows to this JSONL file (CI artifact)",
    )
    parser.add_argument(
        "--convergence-only", action="store_true",
        help="run only the mechanism_convergence tier (CI smoke job)",
    )
    parser.add_argument(
        "--convergence-rounds", type=int, default=None,
        help="rounds for the mechanism_convergence tier (default 20, 8 with --quick)",
    )
    parser.add_argument(
        "--convergence-jsonl", default=None,
        help="also write the convergence rows to this JSONL file (CI artifact)",
    )
    args = parser.parse_args(argv)
    if args.xl_only:
        record: Dict[str, object] = {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "quick": args.quick,
            "grouped_round_xl": [
                bench_grouped_round_xl(
                    w,
                    rounds=args.xl_rounds,
                    rss_budget_mb=args.xl_rss_budget_mb,
                )
                for w in args.xl_workers
            ],
        }
    elif args.convergence_only:
        record = {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "quick": args.quick,
            "mechanism_convergence": bench_mechanism_convergence(
                max_rounds=args.convergence_rounds
                or (8 if args.quick else 20)
            ),
        }
    else:
        record = run_bench_suite(
            quick=args.quick,
            xl_worker_counts=tuple(args.xl_workers),
            xl_rounds=args.xl_rounds,
            xl_rss_budget_mb=args.xl_rss_budget_mb,
        )
    if args.xl_jsonl:
        jsonl_path = Path(args.xl_jsonl)
        jsonl_path.parent.mkdir(parents=True, exist_ok=True)
        with jsonl_path.open("w") as fh:
            for row in record.get("grouped_round_xl", []):
                fh.write(json.dumps(row) + "\n")
        print(f"wrote XL rows to {jsonl_path}")
    if args.convergence_jsonl:
        jsonl_path = Path(args.convergence_jsonl)
        jsonl_path.parent.mkdir(parents=True, exist_ok=True)
        with jsonl_path.open("w") as fh:
            for row in record.get("mechanism_convergence", []):
                fh.write(json.dumps(row) + "\n")
        print(f"wrote convergence rows to {jsonl_path}")
    path = write_bench_results(record, label=args.label, output_dir=args.output_dir)
    print(format_bench_summary(record))
    print(f"appended results to {path}")
    return 0
