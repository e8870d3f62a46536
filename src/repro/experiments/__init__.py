"""Experiment harness reproducing the paper's tables and figures."""

from .configs import (
    ACCURACY_TARGETS,
    FIGURES,
    cnn_cifar10_config,
    cnn_mnist_config,
    fig3_config,
    fig4_config,
    fig5_config,
    fig6_config,
    lr_mnist_config,
    vgg_imagenet100_config,
)
from .runner import run_comparison
from .scenario import ComponentSpec, DataSpec, FaultSpec, Scenario, TimingSpec, TrainingSpec
from .runcache import RunCache, canonical_spec, spec_hash
from .sweep import SweepRunner, expand_grid, sweep_axes, sweep_points
from .report import load_rows, sweep_report, write_report
from .figures import (
    ALL_MECHANISMS,
    AIRCOMP_MECHANISMS,
    energy_vs_accuracy,
    grouping_boxplot_data,
    scalability_sweep,
    xi_sweep,
)
from .tables import emd_comparison, mechanism_comparison
from .reporting import format_float, format_series, format_table
from .cli import EXPERIMENTS, run_experiment
from .bench import run_bench_suite, write_bench_results

__all__ = [
    "ACCURACY_TARGETS",
    "FIGURES",
    "lr_mnist_config",
    "cnn_mnist_config",
    "cnn_cifar10_config",
    "vgg_imagenet100_config",
    "fig3_config",
    "fig4_config",
    "fig5_config",
    "fig6_config",
    "run_comparison",
    "Scenario",
    "ComponentSpec",
    "DataSpec",
    "TimingSpec",
    "TrainingSpec",
    "FaultSpec",
    "RunCache",
    "canonical_spec",
    "spec_hash",
    "SweepRunner",
    "expand_grid",
    "sweep_axes",
    "sweep_points",
    "load_rows",
    "sweep_report",
    "write_report",
    "grouping_boxplot_data",
    "xi_sweep",
    "energy_vs_accuracy",
    "scalability_sweep",
    "AIRCOMP_MECHANISMS",
    "ALL_MECHANISMS",
    "emd_comparison",
    "mechanism_comparison",
    "format_table",
    "format_series",
    "format_float",
    "EXPERIMENTS",
    "run_experiment",
    "run_bench_suite",
    "write_bench_results",
]
