"""Fault-injection behaviour of the grouped event loop.

The acceptance contract of the device-realism layer (ISSUE 6 /
docs/ARCHITECTURE.md, "Fault model"):

* the ``always-on`` default keeps :class:`TrainingHistory` bit-identical
  to a run with no client-state model at all (an axis of
  ``tests/differential/test_execution_axes.py``);
* two runs of the same scenario JSON with a seeded fault model replay
  identical fault trajectories and histories;
* a mid-round dropout scenario completes, renormalizes survivor weights
  and reports non-zero fault counters;
* below-quorum rounds escalate retry → skip → park without advancing the
  global round counter.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import registry
from repro.core import FaultConfig
from repro.core.mechanism import GroupAsyncScheduler
from repro.core.timing import expected_dispatch_attempts, faulty_group_completion_time
from repro.experiments.scenario import FaultSpec, Scenario
from repro.fl import (
    AirFedGATrainer,
    DynamicTrainer,
    TiFLTrainer,
    build_trainer,
)
from repro.sim import (
    BernoulliAvailability,
    DropoutRejoinModel,
    PartialCompletionModel,
)


def _trace(history):
    """Every simulated per-round quantity the determinism contract covers."""
    return [
        (r.round_index, r.time, r.loss, r.accuracy, r.staleness, r.group_id,
         r.num_participants, r.round_energy_j, r.sigma, r.eta)
        for r in history.records
    ]


def _faulty_scenario(**fault_overrides):
    """The default tiny scenario with a seeded bernoulli dropout model."""
    faults = {
        "clientstate": {
            "name": "bernoulli",
            "params": {"availability": 0.7, "dropout_prob": 0.2},
        },
        "retry_backoff": 0.5,
    }
    faults.update(fault_overrides)
    return Scenario.default().with_(faults=faults)


def _with_bernoulli(base, availability, seed=13):
    """``base`` under a seeded Bernoulli availability model."""
    return dataclasses.replace(
        base,
        population=None,  # fresh WorkerStateTable per run
        clientstate=BernoulliAvailability(
            num_workers=base.num_workers, seed=seed, availability=availability
        ),
    )


class TestFaultConfigValidation:
    def test_quorum_fraction_range(self):
        with pytest.raises(ValueError, match="quorum_fraction"):
            FaultConfig(quorum_fraction=0.0)
        with pytest.raises(ValueError, match="quorum_fraction"):
            FaultConfig(quorum_fraction=1.5)

    def test_retry_and_parking_guards(self):
        with pytest.raises(ValueError, match="max_retries"):
            FaultConfig(max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            FaultConfig(retry_backoff=0.0)
        with pytest.raises(ValueError, match="max_consecutive_failures"):
            FaultConfig(max_consecutive_failures=0)

    def test_experiment_rejects_mismatched_clientstate(self, quiet_experiment):
        with pytest.raises(ValueError, match="disagree on the number of workers"):
            dataclasses.replace(
                quiet_experiment,
                clientstate=BernoulliAvailability(num_workers=30),
            )


class TestSchedulerAbort:
    def test_abort_resets_ready_without_advancing_round(self):
        scheduler = GroupAsyncScheduler([[0, 1], [2, 3]])
        for w in (0, 1):
            scheduler.receive_ready(w)
        scheduler.abort_group(0)
        assert scheduler.current_round == 0
        # The group can run the round again from scratch.
        for w in (0, 1):
            scheduler.receive_ready(w)
        event = scheduler.complete_aggregation(0)
        assert event.round_index == 1

    def test_abort_requires_a_complete_group(self):
        scheduler = GroupAsyncScheduler([[0, 1]])
        scheduler.receive_ready(0)
        with pytest.raises(RuntimeError, match="not complete"):
            scheduler.abort_group(0)


class TestSeededFaultReproducibility:
    @pytest.mark.chaos
    def test_same_scenario_json_replays_identical_trajectory(self):
        doc = json.loads(json.dumps(_faulty_scenario().to_dict()))

        def run():
            with Scenario.from_dict(doc).build() as trainer:
                history = trainer.run(max_rounds=8)
            return _trace(history), history.fault_counters()

        trace_a, faults_a = run()
        trace_b, faults_b = run()
        assert trace_a == trace_b
        assert faults_a == faults_b
        assert sum(faults_a.values()) > 0, "the seeded model must inject faults"

    def test_different_seeds_different_trajectories(self):
        def counters(seed):
            with _faulty_scenario().with_(seed=seed).build() as trainer:
                history = trainer.run(max_rounds=8)
            return _trace(history)

        assert counters(0) != counters(1)


class TestMidRoundDropout:
    @pytest.mark.chaos
    def test_dropout_run_completes_with_nonzero_counters(self):
        with _faulty_scenario().build() as trainer:
            history = trainer.run(max_rounds=8)
        faults = history.fault_counters()
        assert faults["workers_unavailable"] > 0
        assert faults["workers_dropped"] > 0
        # The run still made training progress.
        rounds = [r for r in history.records if r.round_index > 0]
        assert len(rounds) >= 8
        assert all(np.isfinite(r.loss) for r in rounds)
        # Degraded aggregations really excluded workers: at least one
        # committed round had fewer participants than its group's size.
        assert any(
            0 < r.num_participants < len(trainer.groups[r.group_id])
            for r in rounds
        )

    def test_survivor_weights_renormalized(self, quiet_experiment):
        # Unit-level check of the renormalization contract: scaling the
        # survivors' weights by Σα_members / Σα_survivors makes the
        # degraded aggregation carry the full group's data mass, so it
        # pulls the global model exactly scale× further from the base.
        trainer = AirFedGATrainer(quiet_experiment, grouping_strategy="tier", num_groups=1)
        members = trainer.groups[0]
        survivors = members[:-2]
        scale = float(
            trainer.alphas[members].sum() / trainer.alphas[survivors].sum()
        )
        assert scale > 1.0
        base = trainer.global_vector.copy()
        vectors = [base + (w + 1.0) for w in survivors]
        plain = trainer.exact_group_update(survivors, vectors).copy()
        scaled = trainer.exact_group_update(survivors, vectors, weight_scale=scale)
        assert np.linalg.norm(scaled - base) == pytest.approx(
            scale * np.linalg.norm(plain - base)
        )

    def test_weight_scale_one_is_bitwise_neutral(self, quiet_experiment):
        trainer = AirFedGATrainer(quiet_experiment)
        members = trainer.groups[0]
        vectors = [trainer.global_vector + w for w in members]
        a = trainer.exact_group_update(members, vectors).copy()
        b = trainer.exact_group_update(members, vectors, weight_scale=1.0)
        assert np.array_equal(a, b)

    def test_aircomp_update_accepts_weight_scale(self, quiet_experiment):
        trainer = AirFedGATrainer(quiet_experiment)
        members = trainer.groups[0]
        vectors = [trainer.global_vector + 0.01 for _ in members]
        scaled, _ = trainer.aggregate(members, vectors, 1, weight_scale=1.5)
        assert np.all(np.isfinite(scaled))

    def test_tifl_accepts_weight_scale(self, quiet_experiment):
        trainer = TiFLTrainer(quiet_experiment, num_tiers=2)
        members = trainer.groups[0]
        vectors = [trainer.global_vector + w for w in members]
        survivors = members[:1] if len(members) > 1 else members
        scaled, _ = trainer.aggregate(
            survivors, vectors[: len(survivors)], 1, weight_scale=2.0
        )
        assert np.all(np.isfinite(scaled))

    def test_invalid_weight_scale_rejected(self, quiet_experiment):
        trainer = AirFedGATrainer(quiet_experiment)
        members = trainer.groups[0]
        vectors = [trainer.global_vector for _ in members]
        with pytest.raises(ValueError, match="weight_scale"):
            trainer.aggregate(members, vectors, 1, weight_scale=0.0)


class TestQuorumEscalation:
    @pytest.mark.chaos
    def test_unreachable_fleet_parks_every_group(self):
        scenario = Scenario.default().with_(
            faults={
                "clientstate": {
                    "name": "bernoulli", "params": {"availability": 0.0},
                },
                "max_retries": 1,
                "retry_backoff": 0.5,
                "max_consecutive_failures": 4,
            }
        )
        with scenario.build() as trainer:
            history = trainer.run(max_rounds=8)
        faults = history.fault_counters()
        assert faults["groups_parked"] == len(trainer.groups)
        assert faults["quorum_retries"] > 0
        assert faults["quorum_skips"] > 0
        assert faults["workers_unavailable"] > 0
        # No aggregation ever happened: only the t=0 evaluation record.
        assert [r.round_index for r in history.records] == [0]

    def test_retries_consume_backoff_time(self, quiet_experiment):
        # availability=0.5 with a full-group quorum forces re-polls; the
        # recorded round times must grow by the configured backoff.
        exp = dataclasses.replace(
            quiet_experiment,
            clientstate=BernoulliAvailability(
                num_workers=quiet_experiment.num_workers, seed=3, availability=0.5
            ),
            fault=FaultConfig(quorum_fraction=1.0, retry_backoff=100.0),
        )
        trainer = AirFedGATrainer(exp)
        history = trainer.run(max_rounds=4)
        faults = history.fault_counters()
        assert faults["quorum_retries"] + faults["quorum_skips"] > 0
        # At least one round was delayed by a visible backoff window.
        times = [r.time for r in history.records if r.round_index > 0]
        assert times and max(times) >= 100.0

    def test_successful_round_resets_escalation_counters(self):
        with _faulty_scenario().build() as trainer:
            trainer.run(max_rounds=8)
            # After a completed run with mixed failures/successes, no group
            # that is still in play retains a stale escalation count.
            parked = trainer.history.groups_parked
            if parked == 0:
                assert all(
                    c < trainer.exp.fault.max_consecutive_failures
                    for c in trainer._consecutive_failures
                )


class TestPartialCompletion:
    def test_partial_updates_counted_and_times_unchanged(self, quiet_experiment):
        plain = AirFedGATrainer(quiet_experiment)
        history_plain = plain.run(max_rounds=6)

        exp = dataclasses.replace(
            quiet_experiment,
            clientstate=PartialCompletionModel(
                num_workers=quiet_experiment.num_workers, seed=5, partial_prob=0.7
            ),
        )
        partial = AirFedGATrainer(exp)
        history_partial = partial.run(max_rounds=6)

        faults = history_partial.fault_counters()
        assert faults["partial_updates"] > 0
        assert faults["workers_dropped"] == 0
        assert faults["groups_parked"] == 0
        # Partial work changes the models (losses) but not the schedule:
        # everyone stays available, so round times are bitwise equal.
        assert [r.time for r in history_partial.records] == [
            r.time for r in history_plain.records
        ]
        assert not np.array_equal(plain.global_vector, partial.global_vector)

    def test_partial_blend_shrinks_progress_toward_base(self, quiet_experiment):
        # The blend w ← base + f(w − base): with every worker completing
        # only a sliver of its round, the global model barely moves.
        def distance_travelled(clientstate):
            exp = dataclasses.replace(quiet_experiment, clientstate=clientstate)
            trainer = AirFedGATrainer(exp)
            start = trainer.global_vector.copy()
            history = trainer.run(max_rounds=4)
            return float(np.linalg.norm(trainer.global_vector - start)), history

        class _SliverModel(PartialCompletionModel):
            def completion_fraction(self, worker_id, round_index, sequence):
                self._check_worker(worker_id)
                return 0.01

        full, _ = distance_travelled(None)
        crawl, history = distance_travelled(
            _SliverModel(num_workers=quiet_experiment.num_workers, seed=5)
        )
        assert history.partial_updates > 0
        assert crawl < full * 0.5


class TestDropoutRejoin:
    @pytest.mark.chaos
    def test_rejoin_model_runs_and_drops_workers(self, quiet_experiment):
        exp = dataclasses.replace(
            quiet_experiment,
            clientstate=DropoutRejoinModel(
                num_workers=quiet_experiment.num_workers, seed=6,
                dropout_prob=0.3, rejoin_after=2,
            ),
            fault=FaultConfig(quorum_fraction=0.3, retry_backoff=0.5),
        )
        trainer = AirFedGATrainer(exp)
        history = trainer.run(max_rounds=10)
        faults = history.fault_counters()
        assert faults["workers_dropped"] > 0
        # Dropped workers sat out later dispatches.
        assert faults["workers_unavailable"] > 0
        rounds = [r for r in history.records if r.round_index > 0]
        assert rounds and all(np.isfinite(r.loss) for r in rounds)


class TestHistoryCounters:
    def test_counters_serialize_and_round_trip(self):
        with _faulty_scenario().build() as trainer:
            history = trainer.run(max_rounds=6)
        from repro.fl import TrainingHistory

        data = history.to_dict()
        assert data["faults"] == history.fault_counters()
        back = TrainingHistory.from_dict(json.loads(json.dumps(data)))
        assert back.fault_counters() == history.fault_counters()

    def test_unknown_counter_name_rejected(self):
        from repro.fl import TrainingHistory

        data = TrainingHistory(mechanism="air_fedga").to_dict()
        data["faults"] = {"not_a_counter": 3}
        with pytest.raises(ValueError, match="not_a_counter"):
            TrainingHistory.from_dict(data)


class TestFaultSpec:
    def test_round_trips_through_json(self):
        scenario = _faulty_scenario()
        doc = json.loads(json.dumps(scenario.to_dict()))
        back = Scenario.from_dict(doc)
        assert back.faults.to_dict() == scenario.faults.to_dict()

    def test_bare_model_name_shorthand(self):
        scenario = Scenario.default().with_(faults="bernoulli")
        assert scenario.faults.clientstate.name == "bernoulli"
        assert isinstance(scenario.faults, FaultSpec)

    def test_typo_in_model_name_fails_at_construction(self):
        with pytest.raises(KeyError, match="bernoulli"):
            Scenario.default().with_(faults="bernouli")

    def test_unknown_model_parameter_fails_at_construction(self):
        with pytest.raises((TypeError, ValueError)):
            Scenario.default().with_(
                faults={
                    "clientstate": {
                        "name": "bernoulli", "params": {"availabilty": 0.5},
                    }
                }
            )

    def test_policy_fields_validated_eagerly(self):
        with pytest.raises(ValueError, match="quorum_fraction"):
            FaultSpec(quorum_fraction=2.0)


class TestTimingHelpers:
    def test_expected_attempts_edge_cases(self):
        assert expected_dispatch_attempts(4, 1.0) == 1.0
        assert expected_dispatch_attempts(4, 0.0) == float("inf")

    def test_expected_attempts_monotone_in_availability(self):
        attempts = [
            expected_dispatch_attempts(8, p, quorum_fraction=0.5)
            for p in (0.3, 0.5, 0.9)
        ]
        assert attempts[0] > attempts[1] > attempts[2] >= 1.0

    def test_faulty_completion_time_reduces_to_plain_when_reliable(self):
        local = [2.0, 3.0, 5.0]
        plain = faulty_group_completion_time(local, upload_latency=1.0)
        assert plain == 6.0
        degraded = faulty_group_completion_time(
            local, upload_latency=1.0, availability=0.5, retry_backoff=2.0
        )
        assert degraded > plain


class TestSyncFamilyFaults:
    """Availability faults on the synchronous FedAvg-family round loop.

    The mechanism-families layer extends fault polling to the synchronous
    trainers: absent workers sit the round out, survivors are renormalized
    per ``FaultConfig``, and persistent per-worker mechanism state (FedDyn
    drift) both survives absence untouched and replays exactly under the
    seeded availability trajectory.
    """

    def _faulty_experiment(self, base):
        return _with_bernoulli(base, availability=0.6)

    def test_fedavg_polls_availability_and_renormalizes(self, quiet_experiment):
        from repro.fl import FedAvgTrainer

        exp = self._faulty_experiment(quiet_experiment)
        trainer = FedAvgTrainer(exp)
        history = trainer.run(max_rounds=10)
        faults = history.fault_counters()
        assert faults["workers_unavailable"] > 0
        rounds = [r for r in history.records if r.round_index > 0]
        assert any(
            0 < r.num_participants < exp.num_workers for r in rounds
        )
        assert all(np.isfinite(r.loss) for r in rounds)

    def test_feddyn_replays_exactly_across_dropout_rejoin(self, quiet_experiment):
        from repro.fl import FedDynTrainer

        def run():
            exp = self._faulty_experiment(quiet_experiment)
            trainer = FedDynTrainer(exp, alpha_coef=0.05)
            history = trainer.run(max_rounds=10)
            return (
                _trace(history),
                history.fault_counters(),
                trainer.drift.copy(),
                trainer.global_vector.copy(),
            )

        trace_a, faults_a, drift_a, gv_a = run()
        trace_b, faults_b, drift_b, gv_b = run()
        assert faults_a["workers_unavailable"] > 0
        assert trace_a == trace_b
        assert faults_a == faults_b
        # The persistent drift state is part of the replay contract:
        # bit-identical across the two seeded fault trajectories.
        assert np.array_equal(drift_a, drift_b)
        assert np.array_equal(gv_a, gv_b)

    def test_feddyn_drift_of_absent_workers_survives_untouched(
        self, quiet_experiment
    ):
        from repro.fl import FedDynTrainer

        trainer = FedDynTrainer(quiet_experiment, alpha_coef=0.05)
        trainer.drift[:] = 1.0
        snapshot = trainer.drift.copy()
        participants = [0, 2, 5]
        base = trainer.global_vector
        vectors = np.stack([base + (w + 1.0) for w in participants])
        trainer.post_local_update(participants, vectors, base, 1)
        absent = [w for w in range(quiet_experiment.num_workers) if w not in participants]
        # Participants' drift moved; absent workers' rows are bit-identical.
        assert np.all(trainer.drift[participants] != snapshot[participants])
        assert np.array_equal(trainer.drift[absent], snapshot[absent])


class TestEveryMechanismSeesTheFaultModel:
    """No registered mechanism silently ignores ``experiment.clientstate``.

    The schedules poll it (synchronous: at the barrier; grouped: at
    dispatch and completion) or refuse it at construction (FedAsync) —
    what must never happen again is a run that reports full participation
    and zero unavailable workers under a 50 % availability model.
    """

    ROUNDS = 6

    def _faulty_experiment(self, base):
        return _with_bernoulli(base, availability=0.5)

    @pytest.mark.parametrize("mechanism", registry.names("mechanism"))
    def test_polls_or_refuses(self, quiet_experiment, mechanism):
        exp = self._faulty_experiment(quiet_experiment)
        try:
            trainer = build_trainer(mechanism, exp)
        except ValueError as refusal:
            assert mechanism in str(refusal)
            return
        with trainer:
            history = trainer.run(max_rounds=self.ROUNDS)
        assert history.fault_counters()["workers_unavailable"] > 0
        rounds = [r for r in history.records if r.round_index > 0]
        expected = (
            [len(trainer.groups[r.group_id]) for r in rounds]
            if hasattr(trainer, "groups")
            else [exp.num_workers] * len(rounds)
        )
        assert any(
            r.num_participants < full for r, full in zip(rounds, expected)
        )

    def test_dynamic_never_selects_an_unavailable_worker(self, quiet_experiment):
        exp = self._faulty_experiment(quiet_experiment)
        trainer = DynamicTrainer(exp, select_fraction=0.5)
        all_ids = np.arange(exp.num_workers)
        for t in range(1, self.ROUNDS + 1):
            available = set(
                all_ids[exp.clientstate.availability_mask(all_ids, t, 0)].tolist()
            )
            selected, _ = trainer.select_participants(t)
            assert set(selected) <= available
            # The slot budget is a fraction of the population, capped by
            # how many workers checked in.
            assert len(selected) == min(len(available), 4)

    @pytest.mark.parametrize("mechanism", ["air_fedavg", "dynamic"])
    def test_all_absent_round_stands_still(self, quiet_experiment, mechanism):
        exp = _with_bernoulli(quiet_experiment, availability=0.0)
        trainer = build_trainer(mechanism, exp)
        initial = trainer.global_vector.copy()
        history = trainer.run(max_rounds=3)
        assert [r.num_participants for r in history.records] == [0, 0, 0, 0]
        assert [r.time for r in history.records] == [0.0, 0.0, 0.0, 0.0]
        assert history.workers_unavailable == 3 * exp.num_workers
        assert np.array_equal(trainer.global_vector, initial)
