"""Command-line driver for the reproduction experiments.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig3 --output results/fig3
    python -m repro.experiments run table3
    python -m repro.experiments compare lr_mnist --mechanisms air_fedga air_fedavg

``run`` executes the benchmark-scale version of one paper artefact (the same
configurations used by ``benchmarks/``) and writes the resulting series to
JSON (plus per-mechanism CSVs for the figure experiments) so they can be
plotted externally.  ``compare`` runs an ad-hoc mechanism comparison on one
of the four registered workloads.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import registry
from .configs import EXPERIMENT_CONFIGS
from .figures import (
    AIRCOMP_MECHANISMS,
    ALL_MECHANISMS,
    energy_vs_accuracy,
    grouping_boxplot_data,
    scalability_sweep,
    xi_sweep,
)
from .runner import run_comparison
from .scenario import Scenario
from .tables import emd_comparison, mechanism_comparison
from .reporting import format_table

__all__ = ["EXPERIMENTS", "main", "run_experiment"]


def _jsonable(obj):
    """Recursively convert NumPy scalars/arrays so json.dumps accepts them."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# ----------------------------------------------------------------------
# Experiment dispatch table
# ----------------------------------------------------------------------
def _budgeted(scenario: Scenario, max_time: float) -> Scenario:
    """The catalogue scenario with a simulated-time budget in seconds."""
    return scenario.with_(**{"training.max_time": max_time})


def _figure_comparison(config_name: str, mechanisms: Sequence[str]):
    def run(scale: float = 1.0) -> Dict[str, object]:
        scenario = _budgeted(EXPERIMENT_CONFIGS[config_name](), 1500.0 * scale)
        return {
            name: {
                "time": history.times().tolist(),
                "loss": history.losses().tolist(),
                "accuracy": history.accuracies().tolist(),
                "summary": history.summary(),
            }
            for name, history in run_comparison(scenario, mechanisms=mechanisms).items()
        }

    return run


EXPERIMENTS: Dict[str, Callable[..., Dict[str, object]]] = {
    "fig3": _figure_comparison("lr_mnist", AIRCOMP_MECHANISMS),
    "fig4": _figure_comparison("cnn_mnist", AIRCOMP_MECHANISMS),
    "fig5": _figure_comparison("cnn_cifar10", AIRCOMP_MECHANISMS),
    "fig6": _figure_comparison("vgg_imagenet100", AIRCOMP_MECHANISMS),
    "fig7": lambda scale=1.0: {
        "groups": grouping_boxplot_data(num_workers=int(100 * min(scale, 1.0)) or 20)
    },
    "fig8": lambda scale=1.0: {
        "xi_sweep": xi_sweep(
            _budgeted(EXPERIMENT_CONFIGS["lr_mnist"](), 1500.0 * scale),
            xi_values=(0.0, 0.3, 1.0),
        )
    },
    "fig9": lambda scale=1.0: {
        "energy": energy_vs_accuracy(
            _budgeted(EXPERIMENT_CONFIGS["cnn_mnist"](), 1500.0 * scale)
        )
    },
    "fig10": lambda scale=1.0: {
        "scalability": scalability_sweep(
            _budgeted(EXPERIMENT_CONFIGS["lr_mnist"](), 1000.0 * scale),
            worker_counts=(10, 20, 40),
            mechanisms=ALL_MECHANISMS,
        )
    },
    "table1": lambda scale=1.0: {"mechanisms": mechanism_comparison()},
    "table3": lambda scale=1.0: {"emd": emd_comparison()},
}


def run_experiment(
    name: str, output: Optional[str] = None, scale: float = 1.0
) -> Dict[str, object]:
    """Run one registered experiment and optionally persist its results."""
    try:
        fn = EXPERIMENTS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from exc
    if scale <= 0:
        raise ValueError("scale must be positive")
    results = _jsonable(fn(scale=scale))
    if output is not None:
        out_dir = Path(output)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.json").write_text(json.dumps(results, indent=2))
    return results


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Reproduce the tables and figures of the Air-FedGA paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments and workloads")

    run_p = sub.add_parser("run", help="run one experiment (fig3..fig10, table1, table3)")
    run_p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_p.add_argument("--output", "-o", default=None, help="directory for JSON results")
    run_p.add_argument(
        "--scale", type=float, default=1.0,
        help="time-budget multiplier (>1 runs longer, closer to the paper scale)",
    )

    cmp_p = sub.add_parser("compare", help="compare mechanisms on one workload")
    cmp_p.add_argument("workload", choices=sorted(EXPERIMENT_CONFIGS))
    cmp_p.add_argument(
        "--mechanisms", nargs="+", default=list(AIRCOMP_MECHANISMS),
        # Any registered mechanism is comparable, including the FedProx /
        # FedDyn / FedAsync families beyond the paper's five figures.
        choices=registry.names("mechanism"),
    )
    cmp_p.add_argument("--max-time", type=float, default=1500.0)
    cmp_p.add_argument("--workers", type=int, default=None)
    cmp_p.add_argument("--output", "-o", default=None)

    # Listed for ``--help`` only: ``main`` hands everything after ``bench``
    # to ``bench.main``, the one place the harness's flags are declared.
    sub.add_parser(
        "bench",
        add_help=False,
        help="legacy perf harness: process pool vs serial, XL population, "
        "mechanism convergence (appends to BENCH_<label>.json; flags: "
        "bench --help)",
    )

    sweep_p = sub.add_parser(
        "sweep",
        help="expand a scenario-grid JSON spec (list-valued fields are sweep "
        "axes) and run every point concurrently, streaming JSONL summaries",
    )
    sweep_p.add_argument("spec", help="path to the sweep spec (Scenario JSON)")
    sweep_p.add_argument(
        "--output", "-o", default="sweep_results.jsonl",
        help="JSONL results file, one row per completed run",
    )
    sweep_p.add_argument(
        "--max-workers", type=int, default=None,
        help="process-pool size (default: min(grid size, cpu count))",
    )
    sweep_p.add_argument(
        "--serial", action="store_true",
        help="run grid points in-process instead of on a process pool",
    )
    sweep_p.add_argument(
        "--resume", action="store_true",
        help="reuse the successful rows of the existing JSONL and execute "
        "only missing and failed grid points (identical seeds: the merged "
        "results are bit-identical to an uninterrupted run); refused when "
        "a row belongs to a different grid",
    )
    sweep_p.add_argument(
        "--cache-dir", default=None,
        help="content-addressed run cache directory; completed points found "
        "there are reused and marked cache_hit in their JSONL row",
    )
    sweep_p.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write a consolidated sweep report (markdown, or HTML when "
        "PATH ends in .html) after the sweep finishes",
    )

    report_p = sub.add_parser(
        "report",
        help="consolidate a sweep JSONL results file into a markdown/HTML "
        "report (overview, per-axis aggregates, fault counters, failures)",
    )
    report_p.add_argument("jsonl", help="path to the sweep JSONL results file")
    report_p.add_argument(
        "--output", "-o", default=None,
        help="report path (.html renders HTML, anything else markdown); "
        "default: print markdown to stdout",
    )
    report_p.add_argument(
        "--format", choices=["markdown", "html"], default=None,
        help="force the output format (default: inferred from --output suffix)",
    )
    report_p.add_argument("--title", default="Sweep report")
    return parser


def _command_list() -> str:
    lines = ["Experiments (run):"]
    for name in sorted(EXPERIMENTS):
        lines.append(f"  {name}")
    lines.append("Workloads (compare):")
    for name in sorted(EXPERIMENT_CONFIGS):
        lines.append(f"  {name}")
    return "\n".join(lines)


def _command_compare(args: argparse.Namespace) -> str:
    scenario = _budgeted(EXPERIMENT_CONFIGS[args.workload](), args.max_time)
    if args.workers is not None:
        scenario = scenario.with_(num_workers=args.workers)
    rows = []
    for name, history in run_comparison(scenario, mechanisms=args.mechanisms).items():
        rows.append(
            (
                name,
                history.total_rounds,
                history.average_round_time(),
                history.final_accuracy,
                history.total_energy,
            )
        )
        if args.output:
            out_dir = Path(args.output)
            out_dir.mkdir(parents=True, exist_ok=True)
            history.save_json(out_dir / f"{args.workload}_{name}.json")
            history.save_csv(out_dir / f"{args.workload}_{name}.csv")
    return format_table(
        ["mechanism", "rounds", "avg round (s)", "final acc", "energy (J)"],
        rows,
        title=f"Comparison on {args.workload} ({scenario.num_workers} workers)",
    )


def _command_sweep(args: argparse.Namespace) -> str:
    from .sweep import SweepRunner, sweep_axes

    spec = json.loads(Path(args.spec).read_text())
    axes = sweep_axes(spec)
    runner = SweepRunner(
        spec,
        output=args.output,
        max_workers=args.max_workers,
        mode="serial" if args.serial else "processes",
        cache_dir=args.cache_dir,
        resume=args.resume,
    )
    print(
        f"sweep: {len(runner)} run(s) over {len(axes)} axis(es) "
        f"{sorted(axes) if axes else ''} -> {args.output}"
        f"{' (resuming)' if args.resume else ''}"
    )
    rows = runner.run()
    table_rows = []
    for row in rows:
        if "error" in row:
            table_rows.append(
                (row["scenario"], row.get("mechanism", "?"), "-", "-", "-", row["error"])
            )
            continue
        summary = row["summary"]
        table_rows.append(
            (
                row["scenario"],
                row["mechanism"],
                int(summary["rounds"]),
                f"{summary['final_accuracy']:.3f}",
                "hit" if row.get("cache_hit") else "-",
                "-",
            )
        )
    hits = sum(1 for row in rows if row.get("cache_hit"))
    text = format_table(
        ["scenario", "mechanism", "rounds", "final acc", "cache", "error"],
        table_rows,
        title=(
            f"Sweep results ({len(rows)} runs, {hits} cache hit(s), "
            f"cpu_count={rows[0]['cpu_count']})"
        ),
    )
    if args.report:
        from .report import write_report

        path = write_report(rows, args.report, title=f"Sweep report: {args.spec}")
        text += f"\nreport written to {path}"
    return text


def _command_report(args: argparse.Namespace) -> str:
    from .report import load_rows, sweep_report, write_report

    rows = load_rows(args.jsonl)
    if args.output is None:
        return sweep_report(rows, fmt=args.format or "markdown", title=args.title)
    path = write_report(rows, args.output, fmt=args.format, title=args.title)
    return f"report over {len(rows)} row(s) written to {path}"


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro.experiments``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["bench"]:
        from .bench import main as bench_main

        return bench_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print(_command_list())
        return 0
    if args.command == "run":
        results = run_experiment(args.experiment, output=args.output, scale=args.scale)
        print(json.dumps(results, indent=2)[:2000])
        if args.output:
            print(f"\nfull results written to {Path(args.output) / (args.experiment + '.json')}")
        return 0
    if args.command == "compare":
        print(_command_compare(args))
        return 0
    if args.command == "sweep":
        print(_command_sweep(args))
        return 0
    if args.command == "report":
        print(_command_report(args))
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
