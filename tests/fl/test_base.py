"""Unit tests for the shared FL trainer machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import StaticChannel
from repro.fl import FLExperiment
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
        assert trainer.alphas.sum() == pytest.approx(1.0)

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


class TestLocalUpdate:
    """One-member groups: ``local_update_group([w], base, r)`` is worker ``w``'s update."""

    def test_changes_parameters(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        base = trainer.global_vector.copy()
        (updated,) = trainer.local_update_group([0], base, round_index=1)
        assert not np.array_equal(updated, base)

    def test_does_not_modify_base_vector(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        base = trainer.global_vector.copy()
        snapshot = base.copy()
        trainer.local_update_group([0], base, round_index=1)
        np.testing.assert_array_equal(base, snapshot)

    def test_deterministic_given_round_and_worker(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        base = trainer.global_vector
        a = trainer.local_update_group([2], base, round_index=5)
        b = trainer.local_update_group([2], base, round_index=5)
        np.testing.assert_array_equal(a, b)

    def test_different_rounds_sample_different_batches(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        base = trainer.global_vector
        a = trainer.local_update_group([2], base, round_index=1)
        b = trainer.local_update_group([2], base, round_index=2)
        assert not np.array_equal(a, b)

    def test_reduces_local_loss(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        x, y = trainer._worker_data[0]
        (updated,) = trainer.local_update_group([0], trainer.global_vector, round_index=1)
        # The engine pass evaluate_vector takes, on the worker's own data.
        (before, after), _ = trainer._engine.evaluate(
            np.stack([trainer.global_vector, updated]), x, y
        )
        assert after < before


class TestExactGroupUpdate:
    def test_all_workers_is_weighted_average(self, quiet_experiment):
        trainer = BaseTrainer(quiet_experiment)
        vectors = [
            trainer.global_vector + (i + 1.0) for i in range(quiet_experiment.num_workers)
        ]
        result = trainer.exact_group_update(range(quiet_experiment.num_workers), vectors)
        expected = sum(a * v for a, v in zip(trainer.alphas, vectors))
        np.testing.assert_allclose(result, expected)

    def test_partial_group_keeps_rest_of_global(self, quiet_experiment):
        trainer = BaseTrainer(quiet_experiment)
        members = [0, 1]
        vectors = [trainer.global_vector * 0.0, trainer.global_vector * 0.0]
        result = trainer.exact_group_update(members, vectors)
        beta = trainer.alphas[members].sum()
        np.testing.assert_allclose(result, (1 - beta) * trainer.global_vector)

    def test_length_mismatch_rejected(self, quiet_experiment):
        trainer = BaseTrainer(quiet_experiment)
        with pytest.raises(ValueError):
            trainer.exact_group_update([0, 1], [trainer.global_vector])


class TestAirCompGroupUpdate:
    def test_quiet_channel_matches_exact_update(self, quiet_experiment):
        """With negligible noise the OTA update converges to the ideal Eq. (8)."""
        trainer = BaseTrainer(quiet_experiment)
        members = list(range(quiet_experiment.num_workers))
        vectors = [trainer.global_vector + 0.01 * (i + 1) for i in members]
        exact = trainer.exact_group_update(members, vectors)
        ota, info = trainer.aircomp_group_update(members, vectors, round_index=1)
        np.testing.assert_allclose(ota, exact, rtol=1e-3, atol=1e-5)
        assert info["round_energy_j"] >= 0

    def test_energy_budget_respected(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        members = [0, 1, 2]
        vectors = [trainer.global_vector for _ in members]
        _, info = trainer.aircomp_group_update(members, vectors, round_index=1)
        budget = small_experiment.config.aircomp.energy_budget_j
        per_worker = trainer.energy.per_worker[members]
        assert np.all(per_worker <= budget + 1e-6)

    def test_energy_accumulates_in_tracker(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        members = [0, 1]
        vectors = [trainer.global_vector for _ in members]
        trainer.aircomp_group_update(members, vectors, round_index=1)
        trainer.aircomp_group_update(members, vectors, round_index=2)
        assert len(trainer.energy.per_round) == 2
        assert trainer.energy.total > 0

    def test_empty_group_rejected(self, small_experiment):
        trainer = BaseTrainer(small_experiment)
        with pytest.raises(ValueError):
            trainer.aircomp_group_update([], [], round_index=1)


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
        assert trainer.record_round(1, 1.0) is None
        assert trainer.record_round(2, 2.0) is None
        assert trainer.record_round(3, 3.0) is not None
        record = trainer.record_round(4, 4.0, force_eval=True)
        # Outside ``run`` a sampled round is evaluated at once, not deferred.
        assert (record.loss, record.accuracy) == trainer.evaluate_vector(trainer.global_vector)
