"""Sampled rounds are evaluated a block at a time, and every record is filled.

``BaseTrainer.run`` appends each sampled round's record at once and copies
its global vector into a block; one ``evaluate_vector`` call fills the
block's records when it is full and when the run ends, however it ends.
Nothing may read a record before then, and nothing after it may find a
placeholder.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments import Scenario
from repro.fl.registry import build_trainer
from repro.nn import batched

#: 40 workers in groups of 3, every round sampled; 32 test rows of 64 features.
SCENARIO = dict(
    num_workers=40,
    mechanism={"name": "air_fedga", "params": {"grouping_strategy": "tier", "num_groups": 13}},
    data={
        "name": "synthetic-mnist",
        "flatten": True,
        "params": {"num_train": 800, "num_test": 64, "image_size": 8},
    },
    model={"name": "lr", "params": {"input_dim": 64, "hidden": 16}},
    partition={"name": "label-skew", "params": {"labels_per_worker": 1}},
    training={
        "learning_rate": 0.1, "local_steps": 1, "batch_size": 8,
        "eval_every": 1, "max_eval_samples": 32, "max_rounds": 40,
    },
)  # fmt: skip
FEDASYNC = {**SCENARIO, "mechanism": {"name": "fedasync", "params": {"buffer_size": 3}}}


def _history(monkeypatch, snapshots, fields=SCENARIO, rounds=40, before_run=None):
    """A run's history with ``snapshots`` per evaluation block."""
    monkeypatch.setattr(batched, "_EVAL_BLOCK_BYTES", snapshots * 32 * 64 * 8)
    scenario = Scenario.default().with_(**fields)
    experiment = scenario.build_experiment()
    with build_trainer(scenario.mechanism.name, experiment, **scenario.mechanism.params) as t:
        assert len(t._eval_block) == snapshots
        if before_run is not None:
            before_run(t)
        return t.run(max_rounds=rounds)


def _filled(history):
    return all(math.isfinite(r.loss) and math.isfinite(r.accuracy) for r in history.records)


@pytest.mark.parametrize(
    "fields, rounds",
    [(SCENARIO, 40), (SCENARIO, 0), (FEDASYNC, 40)],
    ids=["grouped", "no-rounds", "fedasync"],
)
def test_no_record_keeps_a_placeholder(monkeypatch, fields, rounds):
    """41 records in blocks of 7 (the last partial), the initial record alone,
    and FedAsync stopping with cohorts in flight.  Catches: no flush at the
    end of the run."""
    history = _history(monkeypatch, 7, fields, rounds)
    assert len(history.records) == rounds + 1 and _filled(history)


def test_blocks_give_the_records_of_one_evaluation_per_round(monkeypatch):
    """Catches: a record filled from another row of its block."""
    one, seven = _history(monkeypatch, 1), _history(monkeypatch, 7)
    assert one.to_dict() == seven.to_dict()
    assert len({r.loss for r in seven.records}) > 20


def test_a_stopped_run_matches_a_run_of_single_evaluations(monkeypatch):
    """The ninth commit raises in a run with blocks of 7 and in one with
    blocks of 1: both keep the same nine records, all filled.  Catches: a
    flush that is not in a ``finally``."""
    histories = []

    def failing(trainer):
        commit_update = trainer.commit_update

        def commit(row, local_vectors):
            if row.round_index == 9:
                raise RuntimeError("commit failed")
            return commit_update(row, local_vectors)

        trainer.commit_update = commit
        histories.append(trainer.history)

    for snapshots in (7, 1):
        with pytest.raises(RuntimeError, match="commit failed"):
            _history(monkeypatch, snapshots, before_run=failing)
    blocks, single = histories
    assert len(blocks.records) == 9 and _filled(blocks)
    assert blocks.to_dict() == single.to_dict()


def test_a_failing_flush_does_not_replace_the_commit_failure(monkeypatch):
    """The ninth commit raises, and so does the evaluation the run then makes
    of the rounds still waiting: the commit's error reaches the caller,
    nothing stays waiting, and a direct ``record_round`` afterwards is
    evaluated at once.  Catches: the end flush in a plain ``finally`` (the
    evaluation error replaces the commit's), and rounds kept waiting after a
    failed flush."""
    trainers = []

    def broken(vector):
        raise ValueError("evaluation failed")

    def failing(trainer):
        commit_update = trainer.commit_update

        def commit(row, local_vectors):
            if row.round_index == 9:
                trainer.evaluate_vector = broken
                raise RuntimeError("commit failed")
            return commit_update(row, local_vectors)

        trainer.commit_update = commit
        trainers.append(trainer)

    with pytest.raises(RuntimeError, match="commit failed"):
        _history(monkeypatch, 7, before_run=failing)
    (trainer,) = trainers
    assert not trainer._pending and not trainer._deferring
    assert [math.isnan(r.loss) for r in trainer.history.records] == [False] * 7 + [True] * 2
    del trainer.evaluate_vector
    record = trainer.record_round(100, trainer.history.records[-1].time, force_eval=True)
    assert math.isfinite(record.loss) and record is trainer.history.records[-1]


def test_evaluate_vector_takes_one_vector_or_a_block():
    """A ``(K, q)`` block gives the lists of what each ``(q,)`` row gives alone."""
    scenario = Scenario.default().with_(**SCENARIO)
    experiment = scenario.build_experiment()
    with build_trainer(scenario.mechanism.name, experiment, **scenario.mechanism.params) as t:
        rng = np.random.default_rng(0)
        block = t.global_vector + rng.standard_normal((3, t.global_vector.size))
        rows = [t.evaluate_vector(row) for row in block]
        assert t.evaluate_vector(block) == tuple(map(list, zip(*rows)))
        assert all(isinstance(v, float) for v in rows[0])
