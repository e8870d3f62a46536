"""A run's schedule is a pure function of the scenario: no model needed.

Every timing input — latency draws, groups, upload times, availability,
survival and partial-work draws, quorum escalation, Dynamic's ranking — is
independent of the model's parameters, so ``trainer.schedule(max_rounds)``
lists a run's commits without training anything.  These tests list the
schedule of a fresh trainer with local training disabled and check it
against the history the full run records: the same rounds, times, groups,
staleness and participant counts, and the same fault counters.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.channel import StaticChannel
from repro.core.population import Population
from repro.data import make_mnist_like
from repro.fl import AirFedGATrainer, FLExperiment, build_trainer
from repro.nn import LogisticRegressionMLP
from repro.sim import HeterogeneityModel, LatencyTable
from test_golden_trajectories import CASES, ROUNDS, _experiment

#: Every registered mechanism as it is, plus the golden pins' fault and
#: keyword variants.
SCHEDULES = {
    **{name: (name, None, {}) for name in registry.names("mechanism")},
    **{name: case for name, case in CASES.items() if case[1] or case[2]},
}


def _no_training(*args, **kwargs):
    raise AssertionError("listing a schedule must not train")


def _trainer(case: str):
    mechanism, transform, kwargs = SCHEDULES[case]
    experiment = _experiment()
    if transform is not None:
        experiment = transform(experiment)
    return build_trainer(mechanism, experiment, **kwargs)


@pytest.mark.parametrize("case", sorted(SCHEDULES))
def test_schedule_lists_the_runs_commits_without_training(case, monkeypatch):
    history = _trainer(case).run(max_rounds=ROUNDS)
    listed = _trainer(case)
    monkeypatch.setattr(listed, "local_update_group", _no_training)
    rows = list(listed.schedule(ROUNDS))
    assert [
        (r.round_index, r.time, r.group_id, r.staleness, len(r.participants))
        for r in rows
    ] == [
        (r.round_index, r.time, r.group_id, r.staleness, r.num_participants)
        for r in history.records[1:]
    ]
    assert listed.history.fault_counters() == history.fault_counters()


def test_a_million_worker_schedule_is_cheap(monkeypatch):
    """200 commits of 1M workers in 15,625 contiguous groups, untrained."""
    n, group = 1_000_000, 64
    dataset = make_mnist_like(num_train=256, num_test=64, image_size=8, seed=1).flattened()
    latency = LatencyTable(
        num_workers=n,
        base_time=2.0,
        heterogeneity=HeterogeneityModel(num_workers=n, seed=2),
        seed=3,
    )
    experiment = FLExperiment(
        dataset=dataset,
        partition=None,
        model_factory=lambda: LogisticRegressionMLP(input_dim=64, hidden=8, seed=3),
        latency=latency,
        channel=StaticChannel(num_workers=n, seed=4),
        population=Population.replicated(
            dataset, num_workers=n, shard_size=16, latency=latency
        ),
        materialization="lazy",
        max_eval_samples=32,
    )
    trainer = AirFedGATrainer(
        experiment, grouping_strategy="contiguous", num_groups=n // group
    )
    monkeypatch.setattr(trainer, "local_update_group", _no_training)
    rows = list(trainer.schedule(200))
    assert [r.round_index for r in rows] == list(range(1, 201))
    assert all(a.time <= b.time for a, b in zip(rows, rows[1:]))
    for r in rows:
        assert len(r.cohort.ids) == group and r.cohort.key == r.round_index
        assert r.staleness == r.round_index - r.cohort.base_version - 1
    # The first dispatch and one re-dispatch per commit, nothing trained.
    assert int(trainer.worker_state.dispatches.sum()) == n + 200 * group
    assert trainer.history.records == []
