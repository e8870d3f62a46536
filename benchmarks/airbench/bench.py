#!/usr/bin/env python3
"""Run the whole benchmark, or compare two of its result files.

    python3 benchmarks/airbench/bench.py [--seed 0] [--passes 5] [--seconds 10]
    python3 benchmarks/airbench/bench.py --smoke
    python3 benchmarks/airbench/bench.py --compare A.json B.json
    python3 benchmarks/airbench/bench.py --manifest > BENCHMARK.json

A full run makes ``--passes`` untraced passes over the six workloads, one
fresh ``run.py`` process per (workload, pass).  Passes go round-robin over
the workloads, in reverse order on odd passes, so that a slow phase of the
host lands on one sample of each workload instead of on every sample of one.
One traced process per workload follows and gives the per-layer numbers.
Every metric is printed by name with its unit — median, quartile distance and
sample count for the end-to-end ones — and the whole record, stamped with
what it was measured on, is written under ``results/airbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

_ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    # As in run.py: one BLAS thread, and the library found relative to this file.
    for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_variable] = "1"
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

import numpy as np  # noqa: E402

from benchmarks.airbench import hostspeed, measure  # noqa: E402

RUN_SECONDS = 20
_HERE = Path(__file__).resolve().parent
_RUN = str((_HERE / "run.py").relative_to(_ROOT))


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def manifest() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``, from the names the code defines."""
    return {
        "command": ["python3", _RUN],
        "paths": [str(_HERE.relative_to(_ROOT))],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": measure.workload_why(name)} for name in measure.WORKLOADS
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in measure.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in measure.per_layer_spec()
        ],
    }


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _stamp(seed: int, passes: int, seconds: float) -> Dict[str, Any]:
    """What the numbers were measured on."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": 1,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "dtype": "float64",
        "host_nominal_s": hostspeed.NOMINAL_S,
        "seed": seed,
        "passes": passes,
        "seconds": seconds,
    }


def _run_process(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable, _RUN, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=_ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    sys.stderr.write(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(unit: str, samples: List[float]) -> Dict[str, Any]:
    """Median, quartile distance and count of one metric's samples."""
    quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {
        "unit": unit,
        "median": statistics.median(samples),
        "iqr": quartiles[2] - quartiles[0],
        "n": len(samples),
        "samples": samples,
    }


def run_all(seed: int, passes: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    """Every workload, untraced passes then a traced one; returns the record."""
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in measure.WORKLOADS}
    traced: Dict[str, Dict[str, Any]] = {}
    if smoke:
        for name in measure.WORKLOADS:
            result = measure.run_workload(name, seed, 0.0, True, smoke=True, min_reps=1)
            results[name].append({**result, "metrics": result["end_to_end"]})
            traced[name] = {**result, "metrics": result["per_layer"]}
    else:
        for index in range(passes):
            order = measure.WORKLOADS if index % 2 == 0 else measure.WORKLOADS[::-1]
            for name in order:
                results[name].append(_run_process(name, seed, seconds, 0))
                print(f"pass {index + 1}/{passes}  {name}", file=sys.stderr)
        for name in measure.WORKLOADS:
            traced[name] = _run_process(name, seed, seconds, 1)
            print(f"traced  {name}", file=sys.stderr)
    record: Dict[str, Any] = {"stamp": _stamp(seed, passes, seconds), "workloads": {}}
    for name in measure.WORKLOADS:
        # In smoke mode the traced result is the untraced one's own process.
        runs = results[name] if smoke else results[name] + [traced[name]]
        record["workloads"][name] = {
            "ops_attempted": sum(run["attempted"] for run in runs),
            "ops_failed": sum(run["failed"] for run in runs),
            "end_to_end": {
                metric: _summary(unit, [run["metrics"][metric]["value"] for run in results[name]])
                for metric, unit, _, _ in measure.END_TO_END
            },
            "per_layer": traced[name]["metrics"],
        }
    return record


def print_record(record: Dict[str, Any]) -> None:
    print("measured on: " + json.dumps(record["stamp"]))
    for name, row in record["workloads"].items():
        print(f"\n== {name}: ops_attempted={row['ops_attempted']} ops_failed={row['ops_failed']}")
        for metric, cell in row["end_to_end"].items():
            print(
                f"  {metric:<44s} {cell['median']:>14.6g} {cell['unit']:<6s}"
                f" iqr {cell['iqr']:.3g}  n={cell['n']}"
            )
        for metric, cell in row["per_layer"].items():
            print(f"  {metric:<44s} {cell['value']:>14.6g} {cell['unit']}")


# ----------------------------------------------------------------------
# Comparing
# ----------------------------------------------------------------------
def verdict(base: Dict[str, Any], other: Dict[str, Any], better: str, bound: float) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one metric.

    ``worse``: the median moved the wrong way by more than the bound.
    ``better``: it moved the right way by more than the base's own quartile
    distance.  When either side's spread exceeds the bound the medians decide
    nothing — ``unresolved`` — unless every sample of one side beats every
    sample of the other.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * value is a cost
    a, b = base["median"], other["median"]
    worsening = sign * (b - a) / abs(a) if a else 0.0
    spread = max(base["iqr"] / abs(a) if a else 0.0, other["iqr"] / abs(b) if b else 0.0)
    if spread > bound:
        base_costs = [sign * s for s in base["samples"]]
        other_costs = [sign * s for s in other["samples"]]
        if max(other_costs) < min(base_costs):
            return "better"
        if min(other_costs) > max(base_costs):
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < 0 and abs(b - a) > base["iqr"]:
        return "better"
    return "same"


def compare(base_path: str, other_path: str) -> int:
    """Print one row per (workload, metric); exit code 1 if any is worse."""
    base = json.loads(Path(base_path).read_text())
    other = json.loads(Path(other_path).read_text())
    print(f"base  {base_path}: {json.dumps(base['stamp'])}")
    print(f"other {other_path}: {json.dumps(other['stamp'])}")
    header = ("workload", "metric", "base median", "base iqr", "other median", "other iqr",
              "other/base", "verdict")
    print("{:<20s} {:<14s} {:>12s} {:>10s} {:>12s} {:>10s} {:>10s}  {}".format(*header))
    worse = 0
    for name in measure.WORKLOADS:
        for metric, _, better, bound in measure.END_TO_END:
            a = base["workloads"][name]["end_to_end"][metric]
            b = other["workloads"][name]["end_to_end"][metric]
            outcome = verdict(a, b, better, bound)
            worse += outcome == "worse"
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            print(
                f"{name:<20s} {metric:<14s} {a['median']:>12.5g} {a['iqr']:>10.3g} "
                f"{b['median']:>12.5g} {b['iqr']:>10.3g} {ratio:>10.4f}  {outcome}"
            )
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, in-process, once")
    parser.add_argument("--output", help="result file (default: under results/airbench/)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "OTHER"))
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.compare:
        return compare(*args.compare)
    record = run_all(args.seed, args.passes, args.seconds, args.smoke)
    print_record(record)
    stamp = record["stamp"]
    output = Path(
        args.output
        or measure.OUTPUT_DIR / f"bench-{stamp['git_sha'][:10]}-seed{args.seed}-{int(time.time())}.json"
    )
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {output}")
    return 1 if any(row["ops_failed"] for row in record["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
