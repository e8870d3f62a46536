"""Tests for the FedProx / FedDyn / FedAsync mechanism families.

Acceptance contract of the mechanism-families layer:

* all three are registered under the ``mechanism`` registry kind, build
  through :func:`build_trainer` with validated params, and run through the
  declarative :class:`Scenario` API (hence are sweepable);
* FedProx with ``mu = 0`` is *bit-identical* to FedAvg — the transform
  hook returns ``None`` and the untouched legacy code path runs;
* every family reproduces its history on the per-worker fallback, the
  step transforms included (``tests/differential/test_execution_axes.py``);
* FedDyn's per-worker drift state lives in the
  :class:`~repro.core.population.WorkerStateTable`;
* FedAsync commits per-update with recorded staleness and a strictly
  increasing clock, and refuses fault models it does not support.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import registry
from repro.fl import (
    FedAsyncTrainer,
    FedAvgTrainer,
    FedDynTrainer,
    FedProxTrainer,
    build_trainer,
)
from repro.fl.feddyn import DRIFT_FIELD
from repro.sim import BernoulliAvailability


def _trace(history):
    return [
        (r.round_index, r.time, r.loss, r.accuracy, r.staleness,
         r.num_participants)
        for r in history.records
    ]


# ----------------------------------------------------------------------
# registry / scenario plumbing
# ----------------------------------------------------------------------
class TestRegistryPlumbing:
    def test_families_registered(self):
        assert {"fedprox", "feddyn", "fedasync"} <= set(registry.names("mechanism"))

    def test_build_trainer_forwards_params(self, small_experiment):
        assert build_trainer("fedprox", small_experiment, mu=0.3).mu == 0.3
        assert (
            build_trainer("feddyn", small_experiment, alpha_coef=0.2).alpha_coef
            == 0.2
        )
        trainer = build_trainer(
            "fedasync", small_experiment, mix_weight=0.5, buffer_size=2
        )
        assert trainer.mix_weight == 0.5 and trainer.buffer_size == 2

    def test_unknown_param_rejected_with_context(self, small_experiment):
        with pytest.raises(TypeError, match="fedprox"):
            build_trainer("fedprox", small_experiment, proximal=0.1)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("fedprox", {"mu": 0.05}),
            ("feddyn", {"alpha_coef": 0.05}),
            ("fedasync", {"mix_weight": 0.7}),
        ],
    )
    def test_scenario_builds_and_runs_each_family(self, name, params):
        from repro.experiments.scenario import Scenario

        scenario = Scenario.default().with_(
            mechanism=name, **{"mechanism.params": params}
        )
        # Scenario specs survive JSON (what the sweep grid serializes).
        scenario = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        with scenario.build() as trainer:
            history = trainer.run(max_rounds=3)
        assert history.mechanism == name
        assert history.total_rounds == 3
        assert all(np.isfinite(r.loss) for r in history.records)

    def test_scenario_rejects_bad_family_param_eagerly(self):
        from repro.experiments.scenario import Scenario

        with pytest.raises(TypeError, match="feddyn"):
            Scenario.default().with_(
                mechanism="feddyn", **{"mechanism.params": {"lambda_": 0.1}}
            )


# ----------------------------------------------------------------------
# FedProx
# ----------------------------------------------------------------------
class TestFedProx:
    def test_mu_zero_bit_identical_to_fedavg(self, small_experiment):
        avg = FedAvgTrainer(small_experiment)
        h_avg = avg.run(max_rounds=4)
        prox = FedProxTrainer(small_experiment, mu=0.0)
        h_prox = prox.run(max_rounds=4)
        assert _trace(h_avg) == _trace(h_prox)
        assert np.array_equal(avg.global_vector, prox.global_vector)

    def test_mu_zero_takes_the_untransformed_path(self, small_experiment):
        trainer = FedProxTrainer(small_experiment, mu=0.0)
        assert trainer.local_step_transform([0, 1], trainer.global_vector, 1) is None

    def test_positive_mu_changes_the_trajectory(self, small_experiment):
        h_avg = FedAvgTrainer(small_experiment).run(max_rounds=3)
        h_prox = FedProxTrainer(small_experiment, mu=0.5).run(max_rounds=3)
        assert _trace(h_avg) != _trace(h_prox)

    def test_proximal_term_pulls_toward_base(self, quiet_experiment):
        # One local update with a huge mu barely moves off the base model;
        # the plain update moves strictly further.
        plain = FedAvgTrainer(quiet_experiment)
        prox = FedProxTrainer(quiet_experiment, mu=4.9)  # lr=0.2 -> lr*mu<1
        base = plain.global_vector.copy()
        (free,) = plain.local_update_group([0], base, 1)
        (pulled,) = prox.local_update_group([0], base, 1)
        assert np.linalg.norm(pulled - base) < np.linalg.norm(free - base)

    def test_param_validation(self, small_experiment):
        with pytest.raises(ValueError, match="mu"):
            FedProxTrainer(small_experiment, mu=-0.1)
        with pytest.raises(ValueError, match="overshoot"):
            FedProxTrainer(small_experiment, mu=5.1)  # lr=0.2 -> lr*mu >= 1


# ----------------------------------------------------------------------
# FedDyn
# ----------------------------------------------------------------------
class TestFedDyn:
    def test_drift_state_registered_and_updated(self, small_experiment):
        trainer = FedDynTrainer(small_experiment, alpha_coef=0.05)
        assert trainer.worker_state.field(DRIFT_FIELD) is trainer.drift
        assert trainer.drift.shape == (
            small_experiment.num_workers,
            trainer.model.dimension,
        )
        assert np.all(trainer.drift == 0.0)
        trainer.run(max_rounds=2)
        # Every worker participated, so every drift row moved.
        assert np.all(np.any(trainer.drift != 0.0, axis=1))

    def test_independent_populations_do_not_share_drift(self, small_experiment):
        trainer = FedDynTrainer(small_experiment, alpha_coef=0.05)
        trainer.run(max_rounds=2)
        fresh_exp = dataclasses.replace(small_experiment, population=None)
        fresh = FedDynTrainer(fresh_exp, alpha_coef=0.05)
        assert fresh.drift is not trainer.drift
        assert np.all(fresh.drift == 0.0)
        assert np.any(trainer.drift != 0.0)

    def test_differs_from_fedavg(self, small_experiment):
        h_avg = FedAvgTrainer(small_experiment).run(max_rounds=3)
        h_dyn = FedDynTrainer(small_experiment, alpha_coef=0.05).run(max_rounds=3)
        assert _trace(h_avg) != _trace(h_dyn)

    def test_param_validation(self, small_experiment):
        with pytest.raises(ValueError, match="alpha_coef"):
            FedDynTrainer(small_experiment, alpha_coef=0.0)
        with pytest.raises(ValueError, match="overshoot"):
            FedDynTrainer(small_experiment, alpha_coef=5.0)


# ----------------------------------------------------------------------
# FedAsync
# ----------------------------------------------------------------------
class TestFedAsync:
    def test_commits_record_staleness_and_increasing_clock(self, small_experiment):
        history = FedAsyncTrainer(small_experiment).run(max_rounds=12)
        rounds = [r for r in history.records if r.round_index > 0]
        assert len(rounds) == 12
        assert all(r.num_participants == 1 for r in rounds)
        # Slow workers' updates arrive stale once the model has advanced.
        assert max(r.staleness for r in rounds) > 0
        times = [r.time for r in rounds]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_staleness_damping_changes_trajectory(self, small_experiment):
        damped = FedAsyncTrainer(small_experiment).run(max_rounds=8)
        flat = FedAsyncTrainer(small_experiment, staleness="constant").run(
            max_rounds=8
        )
        assert _trace(damped) != _trace(flat)

    def test_buffered_variant_runs(self, small_experiment):
        history = FedAsyncTrainer(small_experiment, buffer_size=3).run(max_rounds=9)
        assert history.total_rounds == 9

    def test_param_validation(self, small_experiment):
        with pytest.raises(ValueError, match="mix_weight"):
            FedAsyncTrainer(small_experiment, mix_weight=0.0)
        with pytest.raises(ValueError, match="mix_weight"):
            FedAsyncTrainer(small_experiment, mix_weight=1.5)
        with pytest.raises(ValueError, match="buffer_size"):
            FedAsyncTrainer(small_experiment, buffer_size=0)

    def test_rejects_fault_models(self, small_experiment):
        exp = dataclasses.replace(
            small_experiment,
            clientstate=BernoulliAvailability(
                num_workers=small_experiment.num_workers, availability=0.5
            ),
        )
        with pytest.raises(ValueError, match="fault"):
            FedAsyncTrainer(exp)
