"""Shared configuration for the benchmark harness.

Every benchmark reproduces one table or figure of the paper at *benchmark
scale*: the same structure (Non-IID label skew, κ ∈ [1, 10] heterogeneity,
1 MHz band, σ₀² = 1 W, Ê = 10 J, paper-scale model dimensions in the latency
model) but with synthetic data, scaled-down models and reduced time budgets
so the full suite finishes in minutes on a laptop CPU.

Each experiment runs exactly once per benchmark (``benchmark.pedantic`` with
one round); the printed tables are the reproduction artefacts.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
