"""Command-line driver for the reproduction experiments.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig3 --output results/fig3
    python -m repro.experiments run table3
    python -m repro.experiments compare fig3 --mechanisms air_fedga air_fedavg

``run NAME`` calls NAME's driver on ``FIGURES[NAME]()`` from
:mod:`repro.experiments.configs`, the scenario ``benchmarks/test_NAME``
checks, and writes the resulting series to JSON so they can be plotted
externally.  ``compare`` runs an ad-hoc mechanism comparison on the same
catalogue's scenarios.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import registry
from ..fl.history import TrainingHistory
from .configs import FIGURES
from .figures import (
    AIRCOMP_MECHANISMS,
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
    """Recursively convert NumPy values and histories so json.dumps accepts them."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, TrainingHistory):
        return {
            "time": obj.times().tolist(),
            "loss": obj.losses().tolist(),
            "accuracy": obj.accuracies().tolist(),
            "summary": obj.summary(),
        }
    return obj


#: Artefact name -> (driver run on ``FIGURES[name]()``, key its result is
#: written under; ``None``: the driver's mapping is the document itself).
EXPERIMENTS: Dict[str, Tuple[Callable[[Scenario], Any], Optional[str]]] = {
    "fig3": (run_comparison, None),
    "fig4": (run_comparison, None),
    "fig5": (run_comparison, None),
    "fig6": (run_comparison, None),
    "fig7": (grouping_boxplot_data, "groups"),
    "fig8": (xi_sweep, "xi_sweep"),
    "fig9": (energy_vs_accuracy, "energy"),
    "fig10": (scalability_sweep, "scalability"),
    "table1": (mechanism_comparison, "mechanisms"),
    "table3": (emd_comparison, "emd"),
}


def run_experiment(
    name: str, output: Optional[str] = None, scale: float = 1.0
) -> Dict[str, object]:
    """Run one catalogue artefact and optionally persist its results.

    ``scale`` multiplies the scenario's simulated-time budget
    (``training.max_time``) and nothing else.
    """
    try:
        driver, key = EXPERIMENTS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from exc
    if not scale > 0:
        raise ValueError("scale must be positive")
    scenario = FIGURES[name]()
    if scenario.training.max_time is not None:
        scenario = scenario.with_(
            **{"training.max_time": scenario.training.max_time * scale}
        )
    result = _jsonable(driver(scenario))
    results = result if key is None else {key: result}
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

    sub.add_parser("list", help="list the experiments and their scenarios")

    run_p = sub.add_parser(
        "run",
        help="run one experiment (fig3..fig10, table1, table3) on its "
        "repro.experiments.configs.FIGURES scenario",
    )
    run_p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_p.add_argument("--output", "-o", default=None, help="directory for JSON results")
    run_p.add_argument(
        "--scale", type=float, default=1.0,
        help="time-budget multiplier (>1 runs longer, closer to the paper scale)",
    )

    cmp_p = sub.add_parser(
        "compare", help="compare mechanisms on one experiment's scenario"
    )
    cmp_p.add_argument("experiment", choices=sorted(FIGURES))
    cmp_p.add_argument(
        "--mechanisms", nargs="+", default=list(AIRCOMP_MECHANISMS),
        # Any registered mechanism is comparable, including the FedProx /
        # FedDyn / FedAsync families beyond the paper's five figures.
        choices=registry.names("mechanism"),
    )
    cmp_p.add_argument(
        "--max-time", type=float, default=None,
        help="simulated-time budget in seconds (default: the scenario's)",
    )
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
    lines = ["Experiments (run, compare):"]
    for name in sorted(FIGURES):
        scenario = FIGURES[name]()
        budget = scenario.training.max_time
        lines.append(
            f"  {name:7s} {scenario.name}, {scenario.num_workers} workers"
            + (f", {budget:g} s" if budget is not None else "")
        )
    return "\n".join(lines)


def _command_compare(args: argparse.Namespace) -> str:
    scenario = FIGURES[args.experiment]()
    if args.max_time is not None:
        scenario = scenario.with_(**{"training.max_time": args.max_time})
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
            history.save_json(out_dir / f"{args.experiment}_{name}.json")
            history.save_csv(out_dir / f"{args.experiment}_{name}.csv")
    return format_table(
        ["mechanism", "rounds", "avg round (s)", "final acc", "energy (J)"],
        rows,
        title=(
            f"Comparison on {args.experiment}: {scenario.name} "
            f"({scenario.num_workers} workers)"
        ),
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
