"""Figure 6: Loss/Accuracy vs. time for VGG-16 on ImageNet-100 (AirComp mechanisms).

Substitution: MiniVGG on a 20-class synthetic ImageNet-100
stand-in.  The paper's shape — Air-FedGA converging fastest among the three
AirComp mechanisms on the hardest workload, with overall accuracy well below
the MNIST workloads — is what this benchmark reproduces.
"""

from __future__ import annotations

from repro.experiments import ACCURACY_TARGETS, FIGURES

from .figure_utils import assert_air_fedga_competitive, run_and_report_figure


def test_fig6_vgg_imagenet100(benchmark):
    scenario = FIGURES["fig6"]()
    targets = ACCURACY_TARGETS[scenario.name]

    histories = benchmark.pedantic(
        run_and_report_figure,
        args=(scenario, "Fig. 6 — MiniVGG on synthetic ImageNet-100", targets),
        rounds=1,
        iterations=1,
    )

    chance = 1.0 / 20
    for name, history in histories.items():
        assert history.best_accuracy() > 2 * chance, f"{name} failed to learn"
    # On the hardest workload the curves cross early (as in the paper's
    # Fig. 6 insets); the ordering that matters is at the higher accuracy
    # level, where grouping asynchrony has amortized its staleness cost.
    assert_air_fedga_competitive(histories, target=targets[1])
