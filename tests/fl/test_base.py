"""Unit tests for the shared FL trainer machinery."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.fl.base
from repro.channel import StaticChannel
from repro.fl import FLExperiment, build_trainer
from repro.fl.base import BaseTrainer
from repro.nn import Layer, LogisticRegressionMLP, SequentialModel
from repro.sim import LatencyTable


class TestFLExperimentValidation:
    def test_worker_count_mismatch_latency(self, small_dataset, small_partition, channel_model):
        bad_latency = LatencyTable(num_workers=3, base_time=1.0)
        with pytest.raises(ValueError, match="latency"):
            FLExperiment(
                dataset=small_dataset,
                partition=small_partition,
                model_factory=lambda: LogisticRegressionMLP(input_dim=64, hidden=8),
                latency=bad_latency,
                channel=channel_model,
            )

    def test_worker_count_mismatch_channel(self, small_dataset, small_partition, latency_table):
        bad_channel = StaticChannel(num_workers=3)
        with pytest.raises(ValueError, match="channel"):
            FLExperiment(
                dataset=small_dataset,
                partition=small_partition,
                model_factory=lambda: LogisticRegressionMLP(input_dim=64, hidden=8),
                latency=latency_table,
                channel=bad_channel,
            )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("learning_rate", 0.0),
            ("local_steps", 0),
            ("batch_size", 0),
            ("eval_every", 0),
            ("max_eval_samples", 0),
            ("latency_model_dimension", 0),
            # Each ran before: to NaN losses, or to a TypeError in the engine.
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("local_steps", 2.5),
            ("batch_size", True),
            ("eval_every", 1.5),
        ],
    )
    def test_hyperparameter_validation(
        self, small_dataset, small_partition, latency_table, channel_model, field, value
    ):
        kwargs = dict(
            dataset=small_dataset,
            partition=small_partition,
            model_factory=lambda: LogisticRegressionMLP(input_dim=64, hidden=8),
            latency=latency_table,
            channel=channel_model,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            FLExperiment(**kwargs)

    def test_num_workers_property(self, small_experiment):
        assert small_experiment.num_workers == 8


class TestBaseTrainerSetup:
    def test_alphas_sum_to_one(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        assert (trainer.data_sizes / trainer.total_data).sum() == pytest.approx(1.0)

    def test_global_vector_matches_factory_model(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        reference = small_experiment.model_factory().get_vector()
        np.testing.assert_array_equal(trainer.global_vector, reference)

    def test_run_not_implemented(self, small_experiment):
        # The one loop needs a timing policy: only the schedules define one.
        with pytest.raises(AttributeError, match="schedule"):
            BaseTrainer(small_experiment).run()

    def test_a_layer_without_a_kernel_fails_at_construction(self, small_experiment):
        """The batched engine is the only trainer: no per-worker loop takes over."""

        class _Unregistered(Layer):
            def forward(self, x, training=True):
                return x

            def backward(self, grad_out):
                return grad_out

        factory = small_experiment.model_factory
        small_experiment.model_factory = lambda: SequentialModel(
            [_Unregistered("custom"), *factory().layers]
        )
        message = r"'custom' \(_Unregistered\) has no batched kernel"
        with pytest.raises(ValueError, match=message):
            BaseTrainer(small_experiment)


def local_update(trainer, worker, base, round_index):
    """Worker ``worker``'s update: a one-member ``local_update_group``."""
    out = np.empty((1, trainer.model.dimension), dtype=trainer.global_vector.dtype)
    (updated,) = trainer.local_update_group([worker], base, round_index, out=out)
    return updated


class TestLocalUpdate:
    """One-member groups: ``local_update_group([w], base, r, out)`` is worker ``w``'s update."""

    def test_changes_parameters(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        base = trainer.global_vector.copy()
        updated = local_update(trainer, 0, base, round_index=1)
        assert not np.array_equal(updated, base)

    def test_does_not_modify_base_vector(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        base = trainer.global_vector.copy()
        snapshot = base.copy()
        local_update(trainer, 0, base, round_index=1)
        np.testing.assert_array_equal(base, snapshot)

    def test_deterministic_given_round_and_worker(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        base = trainer.global_vector
        a = local_update(trainer, 2, base, round_index=5)
        b = local_update(trainer, 2, base, round_index=5)
        np.testing.assert_array_equal(a, b)

    def test_different_rounds_sample_different_batches(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        base = trainer.global_vector
        a = local_update(trainer, 2, base, round_index=1)
        b = local_update(trainer, 2, base, round_index=2)
        assert not np.array_equal(a, b)

    def test_reduces_local_loss(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        x, y = trainer._worker_data[0]
        updated = local_update(trainer, 0, trainer.global_vector, round_index=1)
        # The engine pass evaluate_vector takes, on the worker's own data.
        (before, after), _ = trainer._engine.evaluate(
            np.stack([trainer.global_vector, updated]), x, y
        )
        assert after < before


class TestExactGroupUpdate:
    def test_all_workers_is_weighted_average(self, quiet_experiment):
        trainer = BaseTrainer(quiet_experiment)
        vectors = np.stack([
            trainer.global_vector + (i + 1.0) for i in range(quiet_experiment.num_workers)
        ])
        result = trainer.exact_group_update(range(quiet_experiment.num_workers), vectors)
        alphas = trainer.data_sizes / trainer.total_data
        expected = sum(a * v for a, v in zip(alphas, vectors))
        np.testing.assert_allclose(result, expected)

    def test_partial_group_keeps_rest_of_global(self, quiet_experiment):
        trainer = BaseTrainer(quiet_experiment)
        members = [0, 1]
        vectors = np.zeros((2, trainer.model.dimension))
        result = trainer.exact_group_update(members, vectors)
        beta = (trainer.data_sizes[members] / trainer.total_data).sum()
        np.testing.assert_allclose(result, (1 - beta) * trainer.global_vector)

    def test_length_mismatch_rejected(self, quiet_experiment):
        trainer = BaseTrainer(quiet_experiment)
        with pytest.raises(ValueError):
            trainer.exact_group_update([0, 1], trainer.global_vector[None])


def _capture_transmit_energies(monkeypatch):
    """Each ``aircomp_aggregate`` call's per-worker Eq. (7) energies, in
    call order, from a wrapper installed where the trainers look it up."""
    aggregate, spent = repro.fl.base.aircomp_aggregate, []

    def capture(*args, **kwargs):
        result = aggregate(*args, **kwargs)
        spent.append(result.transmit_energies.copy())
        return result

    monkeypatch.setattr(repro.fl.base, "aircomp_aggregate", capture)
    return spent


class TestAirCompGroupUpdate:
    def test_quiet_channel_matches_exact_update(self, quiet_experiment):
        """With negligible noise the OTA update converges to the ideal Eq. (8)."""
        trainer = BaseTrainer(quiet_experiment)
        members = list(range(quiet_experiment.num_workers))
        vectors = np.stack([trainer.global_vector + 0.01 * (i + 1) for i in members])
        # Both write the trainer's update buffer: keep the first result.
        exact = trainer.exact_group_update(members, vectors).copy()
        ota, info = trainer.aircomp_group_update(members, vectors, round_index=1)
        np.testing.assert_allclose(ota, exact, rtol=1e-3, atol=1e-5)
        assert info["round_energy_j"] >= 0

    def test_info_is_what_a_record_keeps(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        vectors = np.stack([trainer.global_vector for _ in range(2)])
        _, info = trainer.aircomp_group_update([0, 1], vectors, round_index=1)
        assert set(info) == {"sigma", "eta", "round_energy_j"}

    def test_energy_budget_respected(self, small_experiment, monkeypatch):
        spent = _capture_transmit_energies(monkeypatch)
        trainer = BaseTrainer(small_experiment)
        members = [0, 1, 2]
        vectors = np.stack([trainer.global_vector for _ in members])
        trainer.aircomp_group_update(members, vectors, round_index=1)
        budget = small_experiment.config.aircomp.energy_budget_j
        (per_worker,) = spent
        assert per_worker.shape == (len(members),)
        assert np.all(per_worker <= budget + 1e-6)

    @pytest.mark.parametrize("mechanism", ["air_fedga", "air_fedavg", "dynamic"])
    def test_records_account_every_aggregations_energy(
        self, small_experiment, monkeypatch, mechanism
    ):
        """The history is the energy record: at ``eval_every=1`` each commit's
        ``round_energy_j`` is its aggregation's Eq. (7) sum, and the last
        cumulative energy is the run's total."""
        spent = _capture_transmit_energies(monkeypatch)
        experiment = dataclasses.replace(small_experiment, eval_every=1)
        history = build_trainer(mechanism, experiment).run(max_rounds=6)
        energy = history.column("round_energy_j")
        committed = history.column("num_participants") > 0
        assert energy[committed].tolist() == [float(e.sum()) for e in spent]
        assert len(spent) > 0 and (energy[~committed] == 0.0).all()
        total = sum(float(e.sum()) for e in spent)
        assert history.total_energy == pytest.approx(total, rel=1e-12)

    def test_empty_group_rejected(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        with pytest.raises(ValueError):
            trainer.aircomp_group_update(
                [], np.empty((0, trainer.model.dimension)), round_index=1
            )


class TestLatencies:
    def test_aircomp_latency_uses_override_dimension(
        self, small_dataset, small_partition, latency_table, channel_model
    ):
        def make(dim):
            return FLExperiment(
                dataset=small_dataset,
                partition=small_partition,
                model_factory=lambda: LogisticRegressionMLP(input_dim=64, hidden=8),
                latency=latency_table,
                channel=channel_model,
                latency_model_dimension=dim,
            )

        small = BaseTrainer(make(10_000)).aircomp_upload_latency()
        large = BaseTrainer(make(1_000_000)).aircomp_upload_latency()
        assert large > small

    def test_oma_latency_grows_with_participants(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        few = trainer.oma_upload_latency([0, 1], round_index=0)
        many = trainer.oma_upload_latency(list(range(8)), round_index=0)
        assert many > few

    def test_record_round_eval_every(self, small_dataset, small_partition, latency_table, channel_model):
        exp = FLExperiment(
            dataset=small_dataset,
            partition=small_partition,
            model_factory=lambda: LogisticRegressionMLP(input_dim=64, hidden=8),
            latency=latency_table,
            channel=channel_model,
            eval_every=3,
            max_eval_samples=40,
        )
        trainer = BaseTrainer(exp)
        assert [trainer.record_round(t, float(t)) for t in (1, 2, 3)] == [0, 1, 2]
        row = trainer.record_round(4, 4.0, force_eval=True)
        history = trainer.history
        assert history.column("sampled").tolist() == [False, False, True, True]
        assert np.isnan(history.column("loss")[:2]).all()
        # Outside ``run`` a sampled round is evaluated at once, not deferred.
        evaluated = (history.column("loss")[row], history.column("accuracy")[row])
        assert evaluated == trainer.evaluate_vector(trainer.global_vector)
