"""Figure 10: single-round and total training time vs. the number of workers.

Paper result (CNN on MNIST, N from 20 to 100):

* the average single-round time of FedAvg *grows* with N (sequential OMA
  uploads), while Air-FedAvg/Dynamic stay flat and TiFL/Air-FedGA *decrease*
  (more groups -> more frequent asynchronous updates);
* the total training time to 80% accuracy of the OMA mechanisms grows with
  N while that of the AirComp mechanisms decreases; at N = 100 the ordering
  is FedAvg (13755 s) > Dynamic (3799 s) > TiFL (3319 s) > Air-FedAvg
  (1536 s) > Air-FedGA (1077 s).
"""

from __future__ import annotations

from repro.experiments import ACCURACY_TARGETS, FIGURES, format_table, scalability_sweep


def test_fig10_scalability(benchmark):
    scenario = FIGURES["fig10"]()
    target = ACCURACY_TARGETS[scenario.name][0]
    results = benchmark.pedantic(
        scalability_sweep, args=(scenario,), rounds=1, iterations=1
    )
    worker_counts = sorted(results["fedavg"])

    print("\n=== Fig. 10 (left) — average single-round time (s) vs N ===")
    rows = [
        tuple([name] + [results[name][n]["avg_round_time"] for n in worker_counts])
        for name in results
    ]
    print(format_table(["mechanism"] + [f"N={n}" for n in worker_counts], rows, precision=2))

    print("\n=== Fig. 10 (right) — time to reach "
          f"{int(target*100)}% accuracy (s) vs N ===")
    rows = [
        tuple([name] + [results[name][n]["time_to_target"] for n in worker_counts])
        for name in results
    ]
    print(format_table(["mechanism"] + [f"N={n}" for n in worker_counts], rows, precision=1))

    small, large = worker_counts[0], worker_counts[-1]

    # FedAvg's single-round time grows with N (sequential OMA uploads).
    assert (
        results["fedavg"][large]["avg_round_time"]
        > results["fedavg"][small]["avg_round_time"]
    )
    # Air-FedGA's single-round time does not grow with N (more groups, more
    # frequent updates).
    assert (
        results["air_fedga"][large]["avg_round_time"]
        <= results["air_fedga"][small]["avg_round_time"] * 1.1
    )
    # AirComp aggregation keeps Air-FedAvg's round time roughly flat while
    # FedAvg's grows: at the largest N, Air-FedAvg rounds are shorter.
    assert (
        results["air_fedavg"][large]["avg_round_time"]
        < results["fedavg"][large]["avg_round_time"]
    )
    # At the largest worker count Air-FedGA reaches the target no later than
    # FedAvg (the paper's ordering at N = 100).
    ga = results["air_fedga"][large]["time_to_target"]
    fedavg = results["fedavg"][large]["time_to_target"]
    assert ga is not None
    if fedavg is not None:
        assert ga <= fedavg
