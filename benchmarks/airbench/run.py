#!/usr/bin/env python3
"""Measure one workload; the last line of standard output is the result.

    python3 benchmarks/airbench/run.py --workload fig_mlp --seed 0 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  Runs from any directory: the library is
found relative to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread, fixed before NumPy loads: the simulator is single-process
    # and the host has two cores, so more threads would time the scheduler.
    for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_variable] = "1"
    # Run as a script from any directory: the library sits next to this package.
    _root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_root), str(_root / "src")]

from benchmarks.airbench import measure  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=measure.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result["problems"]:
        print(problem, file=sys.stderr)
    print(f"host slowdown {result['host_slowdown']:.3f}", file=sys.stderr)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
