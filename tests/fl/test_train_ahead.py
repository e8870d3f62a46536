"""How many engine calls a run makes: cohorts train ahead, several per call.

``BaseTrainer.run`` trains every dispatched cohort whose base version is
already committed in one ``run_group`` call, when the call trains each of
them exactly as a call of its own would (``tests/differential`` checks that
the histories are the same bits).  These guards pin the call counts, so a
refactor that silently undoes the batching — or widens it to cohorts it
must refuse — fails here.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import Scenario
from repro.fl.registry import build_trainer

#: 40 groups of 3 workers, batch 8: ``small_groups`` at a tenth of its rounds.
SMALL_GROUPS = dict(
    num_workers=120,
    mechanism={"name": "air_fedga", "params": {"grouping_strategy": "tier", "num_groups": 40}},
    data={
        "name": "synthetic-mnist",
        "flatten": True,
        "params": {"num_train": 2400, "num_test": 64, "image_size": 8},
    },
    model={"name": "lr", "params": {"input_dim": 64, "hidden": 16}},
    partition={"name": "label-skew", "params": {"labels_per_worker": 1}},
    channel={"name": "static", "params": {"spread": 2.0}},
    training={
        "learning_rate": 0.1, "local_steps": 1, "batch_size": 8,
        "eval_every": 100, "max_eval_samples": 32, "max_rounds": 300,
    },
)

#: A CNN on a Dirichlet split: members of one cohort draw different batch sizes.
RAGGED_CNN = dict(
    num_workers=12,
    mechanism="air_fedga",
    data={
        "name": "synthetic-mnist",
        "flatten": False,
        "params": {"num_train": 150, "num_test": 32, "image_size": 8},
    },
    model={"name": "mnist_cnn", "params": {"image_size": 8, "scale": 0.1}},
    partition="dirichlet",
    training={
        "batch_size": 8, "local_steps": 1, "eval_every": 10,
        "max_eval_samples": 32, "max_rounds": 20,
    },
)


def _calls(**fields):
    """``(group size of every run_group call, rounds committed, the members'
    batch sizes of every call over several cohorts)`` of one run."""
    scenario = Scenario.default().with_(**fields)
    experiment = scenario.build_experiment()
    batch = scenario.training.batch_size
    with build_trainer(scenario.mechanism.name, experiment, **scenario.mechanism.params) as t:
        sizes, merged, run_group = [], [], t._engine.run_group

        def counting(worker_ids, worker_data, base, round_index, **kwargs):
            sizes.append(len(worker_ids))
            if len(set(np.atleast_1d(round_index))) > 1:
                merged.append({min(batch, len(x)) for x, _ in worker_data})
            return run_group(worker_ids, worker_data, base, round_index, **kwargs)

        t._engine.run_group = counting
        history = t.run(max_rounds=scenario.training.max_rounds)
    return sizes, history.total_rounds, merged


def test_small_groups_train_in_few_calls():
    """300 commits of 3-worker cohorts: 38 calls of at most 24 members."""
    sizes, rounds, _ = _calls(**SMALL_GROUPS)
    assert rounds == 300 and sum(sizes) == 3 * rounds
    assert len(sizes) <= 40  # one call per cohort would be 300
    assert max(sizes) * 8 <= 192  # the per-call budget of gathered rows


def test_a_ragged_cnn_trains_one_call_per_cohort():
    sizes, rounds, _ = _calls(**RAGGED_CNN)
    assert rounds == 20 and len(sizes) == rounds


def test_only_cohorts_of_one_batch_size_share_a_call():
    """The same split with an MLP: some cohorts merge, never a ragged one."""
    mlp = {"name": "lr", "params": {"input_dim": 64, "hidden": 16}}
    data = {**RAGGED_CNN["data"], "flatten": True}
    sizes, rounds, merged = _calls(**{**RAGGED_CNN, "model": mlp, "data": data})
    assert merged and len(sizes) < rounds
    assert all(len(batches) == 1 for batches in merged)


def _slabs(**fields):
    """``(slabs, engine calls, pool)`` of one run, spying on the population's
    stack pool: per acquired slab its rows, and per release of it how many
    rows had committed from it by then."""
    scenario = Scenario.default().with_(**fields)
    experiment = scenario.build_experiment()
    with build_trainer(scenario.mechanism.name, experiment, **scenario.mechanism.params) as t:
        pool, calls = t.population.stack_pool, []
        acquire, release = pool.acquire, pool.release
        commit_update, run_group = t.commit_update, t._engine.run_group
        slabs = []

        def acquiring(*args):
            slab = acquire(*args)
            slabs.append({"slab": slab, "committed": 0, "releases": []})
            return slab

        def releasing(stack):
            for entry in slabs:
                if entry["slab"] is stack:
                    entry["releases"].append(entry["committed"])
            return release(stack)

        def committing(row, local_vectors):
            # The row's stack is a view of exactly one slab still lent out.
            (entry,) = [
                e for e in slabs
                if not e["releases"] and np.shares_memory(e["slab"], local_vectors)
            ]
            entry["committed"] += len(row.participants)
            return commit_update(row, local_vectors)

        def counting(worker_ids, *args, **kwargs):
            calls.append(len(worker_ids))
            return run_group(worker_ids, *args, **kwargs)

        pool.acquire, pool.release = acquiring, releasing
        t.commit_update, t._engine.run_group = committing, counting
        t.run(max_rounds=scenario.training.max_rounds)
    return slabs, calls, pool


def test_each_engine_call_trains_into_one_slab():
    slabs, calls, pool = _slabs(**SMALL_GROUPS)
    assert len(calls) < 300 and len(slabs) == len(calls)
    assert [len(entry["slab"]) for entry in slabs] == calls


def test_a_slab_goes_back_once_after_its_last_cohort_commits():
    slabs, _, pool = _slabs(**SMALL_GROUPS)
    assert all(entry["releases"] == [len(entry["slab"])] for entry in slabs)
    assert not pool._lent


def test_fedasync_hands_back_the_slabs_still_in_flight():
    """FedAsync's schedule stops with members of several merged 3-worker
    cohorts uncommitted: each slab goes back once, with the run."""
    fedasync = {"name": "fedasync", "params": {"buffer_size": 3}}
    slabs, calls, pool = _slabs(**{**SMALL_GROUPS, "mechanism": fedasync})
    assert max(calls[1:]) > 3  # cohorts after the first one merge
    assert all(len(entry["releases"]) == 1 for entry in slabs)
    assert any(entry["releases"][0] < len(entry["slab"]) for entry in slabs)
    assert not pool._lent
