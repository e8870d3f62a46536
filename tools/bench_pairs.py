#!/usr/bin/env python
"""Alternating parent/change pairs of the repo benchmark, with the verdict.

    python tools/bench_pairs.py --workload scale_1m --parent HEAD --pairs 10
    make bench-pairs WORKLOAD=scale_1m PARENT=HEAD

Mirrors how ``BENCHMARK.json`` is judged (``choosing-metrics`` §8): both
sides are exported into sibling temporary directories — the parent
commit's files, and this checkout's tree (``HEAD``, or the commit ``git
stash create`` makes of its uncommitted edits to tracked files) — so
nothing but the code differs between them.  Untracked files under
``src/`` would not reach the export; the script refuses to run while
there are any.  Each pair runs the benchmark command once in each export
— same seed within a pair, a fresh seed per pair, the side that runs
first flipped on every other pair.  Per end-to-end metric it
prints both medians with quartiles, the pairs the change won, and one of

* ``gain`` — the change won at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the distance
  between the parent's quartiles;
* ``regression`` — the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes for the metric;
* ``unresolved`` — neither, but the parent's own quartile distance is wider
  than that bound, so "unchanged" cannot be told from a regression (unless
  every run of the change reads better than every run of the parent);
* ``unchanged`` — neither, inside the bound.

Raw samples go to ``results/bench_pairs_<workload>.json``.  With
``--record`` one compact record of the run is also appended to the
committed trajectory ``BENCH_pairs.json``: the sha of this checkout and
of the parent, the host (cores, affinity, BLAS threads), the workload and
per metric the medians, quartiles, pairs won and verdict.  Record from a
clean checkout, so that the sha names the code that ran.  A record whose
two sides ran the same files (``--parent HEAD`` from a clean checkout) is
marked ``"aa": true``: an A/A run, which measures the noise floor of the
verdicts rather than a change.  Everything the
script knows about the benchmark it reads from ``BENCHMARK.json``: the
command, the run length, the metric names, directions and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``runner(side, seed) -> {metric: value}`` for ``side`` in ``SIDES``.
Runner = Callable[[str, int], Dict[str, float]]
SIDES = ("parent", "change")
#: BLAS threads both sides run with (the benchmark command pins the same).
BLAS_THREADS = 1
#: The committed trajectory ``--record`` appends to, at the repository root.
TRAJECTORY = "BENCH_pairs.json"


def export_commit(repo: Path, commit: str, target: Path) -> None:
    """The committed files of ``commit`` under ``target``: ``git archive | tar -x``.

    Touches neither the index nor ``.git`` of ``repo`` — unlike a
    ``git worktree`` there is nothing to prune if the script is killed.
    """
    archive = subprocess.Popen(
        ["git", "-C", str(repo), "archive", "--format=tar", commit], stdout=subprocess.PIPE
    )
    try:
        subprocess.run(["tar", "-x", "-C", str(target)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise subprocess.CalledProcessError(archive.returncode, archive.args)


def _git(repo: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(repo), *args], stdout=subprocess.PIPE, text=True, check=True
    )
    return done.stdout.strip()


def export_sides(repo: Path, parent: str, scratch: Path) -> Dict[str, Path]:
    """``{"parent": ..., "change": ...}``: exports of ``parent`` and of this
    checkout's tree, in two sibling directories under ``scratch``."""
    untracked = _git(repo, "ls-files", "--others", "--exclude-standard", "--", "src").split()
    if untracked:
        raise SystemExit(f"untracked files under src/ would not run on the change side: {untracked}")
    commits = {"parent": parent, "change": _git(repo, "stash", "create") or "HEAD"}
    checkouts = {side: scratch / side for side in SIDES}
    for side in SIDES:
        checkouts[side].mkdir()
        export_commit(repo, commits[side], checkouts[side])
    return checkouts


def benchmark_runner(
    spec: dict, checkouts: Dict[str, Path], workload: str, seconds: float
) -> Runner:
    """Runs ``spec['command']`` in a side's checkout; parses its last stdout line."""

    def run(side: str, seed: int) -> Dict[str, float]:
        command = list(spec["command"]) + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]  # fmt: skip
        blas = {name: str(BLAS_THREADS) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        done = subprocess.run(
            command, cwd=checkouts[side], stdout=subprocess.PIPE, text=True, check=True,
            env={**os.environ, **blas},
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            raise RuntimeError(
                f"{side} seed {seed}: correct={result['correct']}, "
                f"{result['failed']} of {result['attempted']} operations failed"
            )
        return {name: float(m["value"]) for name, m in result["metrics"].items()}

    return run


def run_pairs(
    runner: Runner, pairs: int, first_seed: int, log: Callable[[str], None] = print
) -> List[dict]:
    """``pairs`` samples ``{"seed", "order", "parent": {...}, "change": {...}}``."""
    samples = []
    for k in range(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        sample: dict = {"seed": first_seed + k, "order": list(order)}
        for side in order:
            sample[side] = runner(side, first_seed + k)
        samples.append(sample)
        log(f"pair {k + 1}/{pairs} seed {sample['seed']} ({order[0]} first)")
    return samples


def _quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(samples: List[dict], metrics: List[dict]) -> List[dict]:
    """One row per end-to-end metric of ``BENCHMARK.json``: medians, quartiles,
    pairs won and the verdict (see the module docstring)."""
    rows = []
    for metric in metrics:
        name, sign = metric["name"], -1.0 if metric["better"] == "lower" else 1.0
        parent = [s["parent"][name] for s in samples]
        change = [s["change"][name] for s in samples]
        # ``sign * value``: larger is better, whatever the metric's direction.
        won = sum(sign * c > sign * p for p, c in zip(parent, change))
        lost = sum(sign * c < sign * p for p, c in zip(parent, change))
        p_lo, p_med, p_hi = _quartiles(parent)
        c_lo, c_med, c_hi = _quartiles(change)
        spread = p_hi - p_lo
        better_by = sign * (c_med - p_med)
        bound = metric["bound"] * abs(p_med)
        disjoint = min(sign * c for c in change) > max(sign * p for p in parent)
        if won >= 0.9 * len(samples) and better_by > spread:
            verdict = "gain"
        elif -better_by > bound:
            verdict = "regression"
        elif spread > bound and not disjoint:
            verdict = "unresolved"
        else:
            verdict = "unchanged"
        rows.append(
            {
                "metric": name, "unit": metric.get("unit", ""),
                "parent": [p_lo, p_med, p_hi], "change": [c_lo, c_med, c_hi],
                "ratio": c_med / p_med if p_med else float("nan"),
                "won": won, "lost": lost, "pairs": len(samples), "verdict": verdict,
            }
        )  # fmt: skip
    return rows


def format_rows(rows: List[dict]) -> str:
    lines = [
        f"{'metric':<14}{'parent median [q1, q3]':>32}{'change median [q1, q3]':>32}"
        f"{'ratio':>8}{'won':>7}  verdict"
    ]
    for row in rows:
        cells = [
            f"{med:.4g} [{lo:.4g}, {hi:.4g}]"
            for lo, med, hi in (row["parent"], row["change"])
        ]
        lines.append(
            f"{row['metric']:<14}{cells[0]:>32}{cells[1]:>32}{row['ratio']:>8.3f}"
            f"{row['won']:>4}/{row['pairs']:<2}  {row['verdict']}"
        )
    return "\n".join(lines)


def _rev(repo: Path, ref: str) -> str:
    return _git(repo, "rev-parse", ref)


def trajectory_record(repo: Path, parent: str, workload: str, rows: List[dict]) -> dict:
    """The compact ``BENCH_pairs.json`` record of one run's summary ``rows``."""
    dirty = subprocess.run(  # a change to anything but the trajectory itself
        ["git", "-C", str(repo), "status", "--porcelain", "--untracked-files=no",
         "--", ".", f":!{TRAJECTORY}"],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip()
    # The change side is HEAD's tree when nothing but the trajectory is dirty.
    aa = not dirty and _rev(repo, f"{parent}^{{tree}}") == _rev(repo, "HEAD^{tree}")
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "sha": _rev(repo, "HEAD"), "parent": _rev(repo, parent), "dirty": bool(dirty), "aa": aa,
        "host": {"cpu_count": os.cpu_count(), "affinity": affinity, "blas_threads": BLAS_THREADS},
        "workload": workload, "pairs": rows[0]["pairs"],
        "metrics": {
            row["metric"]: {
                "parent": [float(f"{v:.5g}") for v in row["parent"]],
                "change": [float(f"{v:.5g}") for v in row["change"]],
                "won": row["won"], "lost": row["lost"], "verdict": row["verdict"],
            }
            for row in rows
        },
    }  # fmt: skip


def main(argv: Optional[Sequence[str]] = None, runner: Optional[Runner] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=41)
    parser.add_argument("--repo", type=Path, default=REPO_ROOT)
    parser.add_argument(
        "--record", action="store_true", help="append a compact record to BENCH_pairs.json"
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((args.repo / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; BENCHMARK.json has {known}")
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        if runner is None:
            checkouts = export_sides(args.repo, args.parent, Path(scratch))
            runner = benchmark_runner(spec, checkouts, args.workload, seconds)
        samples = run_pairs(runner, args.pairs, args.first_seed)
    rows = summarise(samples, spec["end_to_end"])
    print(format_rows(rows))
    output = args.repo / "results" / f"bench_pairs_{args.workload}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "parent": args.parent, "seconds": seconds,
        "samples": samples, "summary": rows,
    }  # fmt: skip
    output.write_text(json.dumps(record, indent=1) + "\n")
    print(f"raw samples: {output}")
    if args.record:
        trajectory = args.repo / TRAJECTORY
        document = json.loads(trajectory.read_text()) if trajectory.exists() else {"records": []}
        document["records"].append(trajectory_record(args.repo, args.parent, args.workload, rows))
        trajectory.write_text(json.dumps(document, indent=1) + "\n")
        print(f"recorded in {trajectory}")
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
