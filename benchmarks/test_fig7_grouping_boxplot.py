"""Figure 7: per-group spread of local training times at ξ = 0.3.

Paper result: with 100 heterogeneous workers (local training times 8.1 s to
61.6 s) Algorithm 3 clusters workers of comparable speed — e.g. group 7 spans
49.1-61.6 s.  This benchmark regenerates the box-plot data (min / quartiles /
max per group) and checks that every group's spread respects the ξ·Δl
constraint.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import FIGURES, format_table, grouping_boxplot_data


def test_fig7_grouping_boxplot(benchmark):
    scenario = FIGURES["fig7"]()
    xi = scenario.algorithm.grouping.xi
    data = benchmark.pedantic(
        grouping_boxplot_data, args=(scenario,), rounds=1, iterations=1
    )

    rows = []
    for group, times in sorted(data.items()):
        arr = np.asarray(times)
        rows.append(
            (
                group,
                len(times),
                float(arr.min()),
                float(np.percentile(arr, 25)),
                float(np.median(arr)),
                float(np.percentile(arr, 75)),
                float(arr.max()),
            )
        )
    print(
        f"\n=== Fig. 7 — grouping of {scenario.num_workers} heterogeneous "
        f"workers (xi = {xi}) ==="
    )
    print(
        format_table(
            ["group", "workers", "min (s)", "q25 (s)", "median (s)", "q75 (s)", "max (s)"],
            rows,
            precision=1,
        )
    )

    # Every worker is grouped exactly once.
    assert sum(len(v) for v in data.values()) == scenario.num_workers

    # The intra-group time-similarity constraint (36d): each group's spread is
    # bounded by xi * (global spread).
    all_times = np.concatenate([np.asarray(v) for v in data.values()])
    slack = xi * (all_times.max() - all_times.min())
    for times in data.values():
        arr = np.asarray(times)
        assert arr.max() - arr.min() <= slack + 1e-9

    # Groups are ordered by speed: medians increase left to right, as in the
    # paper's box plot.
    medians = [float(np.median(v)) for _, v in sorted(data.items())]
    assert all(a <= b + 1e-9 for a, b in zip(medians, medians[1:]))
