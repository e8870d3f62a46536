"""Store-backed shards: where a trainer's data lives, and the retired knob.

Histories cannot show whether a worker's samples are copied; this module
checks that trainers read zero-copy views of one shared store.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments.scenario import Scenario


def test_lazy_trainer_serves_zero_copy_shards_and_counts_events():
    from repro.fl.registry import build_trainer

    scenario = Scenario.default()
    experiment = scenario.build_experiment()
    trainer = build_trainer(scenario.mechanism.name, experiment)
    store = trainer.population.store
    assert all(np.shares_memory(x, store.x) for x, _ in trainer._worker_data)
    trainer.run(max_rounds=4)
    counters = trainer.worker_state.counters_summary()
    assert counters["dispatches"] > 0
    assert counters["dropped"] == 0  # always-on default: nobody drops
    # All pooled group stacks were returned on commit.
    assert trainer.population.stack_pool.outstanding == 0


def test_replicated_rosters_reference_the_store():
    """4096 workers on the zero-copy store: a visited group keeps index lists, no samples."""
    from repro import registry
    from repro.core.config import AirFedGAConfig, GroupingConfig
    from repro.core.population import Population
    from repro.fl import FLExperiment
    from repro.fl.registry import build_trainer

    n = 4096
    dataset = registry.create(
        "dataset", "synthetic-mnist", seed=0, num_train=512, num_test=64, image_size=8
    ).flattened()
    latency = registry.create(
        "latency", "uniform", num_workers=n, base_time=1.0, heterogeneity_seed=1, seed=2
    )
    experiment = FLExperiment(
        dataset=dataset,
        partition=None,
        model_factory=lambda: registry.create(
            "model", "lr", seed=0, input_dim=64, hidden=16, num_classes=10
        ),
        latency=latency,
        channel=registry.create("channel", "static", num_workers=n, seed=3, spread=2.0),
        config=AirFedGAConfig(grouping=GroupingConfig(xi=1.0)),
        learning_rate=0.1,
        local_steps=1,
        batch_size=32,
        eval_every=8,
        max_eval_samples=32,
        seed=0,
        population=Population.replicated(dataset, num_workers=n, shard_size=64, latency=latency),
    )
    trainer = build_trainer(
        "air_fedga", experiment, num_groups=n // 64, grouping_strategy="contiguous"
    )
    history = trainer.run(max_rounds=8)
    assert history.total_rounds == 8
    store, rosters = trainer.population.store, trainer._engine._rosters
    assert len(rosters) == 8  # eight groups, each a first visit
    for roster in rosters.values():
        assert np.shares_memory(roster.x, store.x)
        assert np.shares_memory(roster.y, store.y)
    assert trainer.worker_state.dispatches.sum() == n + 8 * 64


def test_experiment_accepts_only_lazy_materialization():
    experiment = Scenario.default().build_experiment()
    assert dataclasses.replace(experiment, materialization="lazy").materialization == "lazy"
    with pytest.raises(ValueError, match="eager per-worker copies were removed"):
        dataclasses.replace(experiment, population=None, materialization="eager")
