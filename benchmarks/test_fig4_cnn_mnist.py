"""Figure 4: Loss/Accuracy vs. time for CNN on MNIST (AirComp mechanisms).

Paper shape: same ordering as Fig. 3 with the CNN model — Air-FedGA converges
fastest, Dynamic is slowest and jitters because its per-round worker
selection ignores the data distribution.
"""

from __future__ import annotations

from repro.experiments import ACCURACY_TARGETS, FIGURES

from .figure_utils import assert_air_fedga_competitive, run_and_report_figure


def test_fig4_cnn_mnist(benchmark):
    scenario = FIGURES["fig4"]()
    targets = ACCURACY_TARGETS[scenario.name]

    histories = benchmark.pedantic(
        run_and_report_figure,
        args=(scenario, "Fig. 4 — CNN on synthetic MNIST", targets),
        rounds=1,
        iterations=1,
    )

    for name, history in histories.items():
        assert history.best_accuracy() > 0.25, f"{name} failed to learn"
    assert_air_fedga_competitive(histories, target=targets[0])
