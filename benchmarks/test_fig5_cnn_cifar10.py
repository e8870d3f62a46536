"""Figure 5: Loss/Accuracy vs. time for CNN on CIFAR-10 (AirComp mechanisms).

Paper shape: the CIFAR-10 task saturates at a much lower accuracy than MNIST
(≈55-60% in the paper), with the same mechanism ordering: Air-FedGA first,
then Air-FedAvg, then Dynamic.
"""

from __future__ import annotations

from repro.experiments import ACCURACY_TARGETS, FIGURES

from .figure_utils import assert_air_fedga_competitive, run_and_report_figure


def test_fig5_cnn_cifar10(benchmark):
    scenario = FIGURES["fig5"]()
    targets = ACCURACY_TARGETS[scenario.name]

    histories = benchmark.pedantic(
        run_and_report_figure,
        args=(scenario, "Fig. 5 — CNN on synthetic CIFAR-10", targets),
        rounds=1,
        iterations=1,
    )

    for name, history in histories.items():
        assert history.best_accuracy() > 0.2, f"{name} failed to learn"
    # The harder task keeps accuracies below the MNIST workloads' plateau,
    # mirroring the paper's Fig. 4 vs Fig. 5 relationship.
    assert_air_fedga_competitive(histories, target=targets[0])
