"""Equivalence and regression tests for the allocation-free hot paths.

Covers: vectorized exact/AirComp aggregation vs. the reference loops (at
the channel level and through a whole trainer run), engine rosters,
power-control caching (hit counting, budget clamping) and the float32
simulation mode.  That the per-worker fallback of a kernel-less model, warm
rosters and reruns reproduce a history is one axis each of
``tests/differential/test_execution_axes.py``.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracle.aggregation import ideal_group_average, ideal_group_average_reference
from repro.channel import AirCompWorkspace, aircomp_aggregate, aircomp_aggregate_reference
from repro.core import AirCompConfig, AirFedGAConfig, PowerControlCache, solve_power_control
from repro.fl import FLExperiment
from repro.fl.base import BaseTrainer, Cohort, CommitRow
from repro.fl.uplink import AirCompUplink, OMAUplink
from repro.fl.registry import build_trainer
from repro.nn import LogisticRegressionMLP


# ----------------------------------------------------------------------
# Channel-level equivalence (vectorized vs. the seed's loops)
# ----------------------------------------------------------------------
class TestChannelEquivalence:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.models = rng.standard_normal((7, 500))
        self.sizes = rng.uniform(5.0, 50.0, 7)
        self.gains = rng.uniform(0.2, 3.0, 7)

    def test_ideal_average_matches_reference(self):
        vec = ideal_group_average(self.models, self.sizes)
        ref = ideal_group_average_reference(list(self.models), self.sizes)
        np.testing.assert_allclose(vec, ref, rtol=1e-13, atol=1e-13)

    def test_aircomp_matches_reference_noiseless(self):
        kwargs = dict(
            data_sizes=self.sizes, channel_gains=self.gains,
            sigma_t=1.3, eta_t=1.7, noise_std=0.0,
        )
        vec = aircomp_aggregate(self.models, rng=np.random.default_rng(1), **kwargs)
        ref = aircomp_aggregate_reference(
            list(self.models), rng=np.random.default_rng(1), **kwargs
        )
        np.testing.assert_allclose(vec.estimate, ref.estimate, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            vec.transmit_energies, ref.transmit_energies, rtol=1e-12
        )

    def test_aircomp_matches_reference_with_noise(self):
        """Both implementations consume the RNG identically, so the injected
        noise vector — and hence the whole estimate — agrees."""
        kwargs = dict(
            data_sizes=self.sizes, channel_gains=self.gains,
            sigma_t=0.8, eta_t=2.0, noise_std=0.05,
        )
        vec = aircomp_aggregate(self.models, rng=np.random.default_rng(7), **kwargs)
        ref = aircomp_aggregate_reference(
            list(self.models), rng=np.random.default_rng(7), **kwargs
        )
        np.testing.assert_allclose(vec.estimate, ref.estimate, rtol=1e-12, atol=1e-12)

    def test_workspace_reuse_no_stale_state(self):
        ws = AirCompWorkspace()
        kwargs = dict(
            data_sizes=self.sizes, channel_gains=self.gains,
            sigma_t=1.0, eta_t=1.0, noise_std=0.0,
        )
        first = aircomp_aggregate(
            self.models, rng=np.random.default_rng(2), workspace=ws, **kwargs
        ).estimate.copy()
        aircomp_aggregate(
            2.0 * self.models, rng=np.random.default_rng(2), workspace=ws, **kwargs
        )
        again = aircomp_aggregate(
            self.models, rng=np.random.default_rng(2), workspace=ws, **kwargs
        ).estimate
        np.testing.assert_array_equal(first, again)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("noise_std", [0.0, 0.05])
    def test_shared_squared_norms_change_nothing(self, dtype, noise_std):
        """A caller that already holds ||w_i||² (the trainer does, for the
        model bound) gets the result it would get without, to the bit."""
        models = self.models.astype(dtype)
        kwargs = dict(
            data_sizes=self.sizes, channel_gains=self.gains,
            sigma_t=0.8, eta_t=2.0, noise_std=noise_std,
        )
        sq_norms = np.einsum("ij,ij->i", models, models, dtype=np.float64)
        plain = aircomp_aggregate(models, rng=np.random.default_rng(7), **kwargs)
        shared = aircomp_aggregate(
            models, rng=np.random.default_rng(7), sq_norms=sq_norms, **kwargs
        )
        for name in ("estimate", "transmit_energies"):
            np.testing.assert_array_equal(getattr(shared, name), getattr(plain, name))
        assert shared.transmit_energies.dtype == np.float64

    def test_squared_norms_must_align(self):
        with pytest.raises(ValueError, match="sq_norms"):
            aircomp_aggregate(
                self.models, self.sizes, self.gains,
                sigma_t=1.0, eta_t=1.0, noise_std=0.0,
                rng=np.random.default_rng(0), sq_norms=np.ones(3),
            )

    def test_ragged_models_rejected(self):
        with pytest.raises(ValueError):
            aircomp_aggregate(
                [np.zeros(3), np.zeros(4)], [1.0, 1.0], [1.0, 1.0],
                sigma_t=1.0, eta_t=1.0, noise_std=0.0,
                rng=np.random.default_rng(0),
            )


# ----------------------------------------------------------------------
# Trainer-level equivalence
# ----------------------------------------------------------------------
class TestTrainerAggregation:
    def test_exact_group_update_matches_loop(self, quiet_experiment):
        trainer = BaseTrainer(quiet_experiment)
        rng = np.random.default_rng(3)
        members = [0, 2, 5]
        vectors = trainer.global_vector + rng.standard_normal(
            (len(members), trainer.model.dimension)
        )
        result = trainer.exact_group_update(members, vectors)
        alphas = trainer.data_sizes[members] / trainer.total_data
        reference = (1.0 - alphas.sum()) * trainer.global_vector
        for a, vec in zip(alphas, vectors):
            reference = reference + a * vec
        np.testing.assert_allclose(result, reference, rtol=1e-12, atol=1e-12)

    def test_exact_group_update_accepts_stacked_and_out(self, quiet_experiment):
        trainer = BaseTrainer(quiet_experiment)
        stacked = np.stack([trainer.global_vector * (i + 1) for i in range(3)])
        members = [1, 3, 4]
        first = trainer.exact_group_update(members, stacked).copy()
        buffered = trainer.exact_group_update(members, stacked)
        assert buffered is trainer._update_out
        np.testing.assert_array_equal(first, buffered)

    def test_aircomp_group_update_out_buffer(self, quiet_experiment):
        trainer = BaseTrainer(quiet_experiment)
        members = [0, 1, 2]
        vectors = np.stack([trainer.global_vector for _ in members])
        buffered, _ = trainer.aircomp_group_update(members, vectors, round_index=1)
        assert buffered is trainer._update_out

    @pytest.mark.parametrize(
        "mechanism,uplink", [("fedavg", OMAUplink), ("air_fedga", AirCompUplink)]
    )
    def test_warm_commit_allocates_no_model_sized_array(
        self, small_experiment, mechanism, uplink
    ):
        """A commit after the first binds no buffer: at q > 10⁵ and three
        members any O(q) temporary dwarfs the O(N) gain draw."""
        experiment = dataclasses.replace(
            small_experiment,
            model_factory=lambda: LogisticRegressionMLP(input_dim=64, hidden=300, seed=3),
        )
        trainer = build_trainer(mechanism, experiment)
        assert isinstance(trainer, uplink)
        q = trainer.model.dimension
        assert q > 100_000
        rng = np.random.default_rng(0)
        local_vectors = trainer.global_vector + rng.standard_normal((3, q))
        row = CommitRow(
            round_index=1, time=1.0, group_id=0, staleness=0, participants=[0, 1, 2],
            cohort=Cohort([0, 1, 2], 1, 0),
        )
        trainer.commit_update(row, local_vectors)
        tracemalloc.start()
        try:
            update, _, _ = trainer.commit_update(row._replace(round_index=2), local_vectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert update is trainer._update_out
        assert peak < q * local_vectors.itemsize // 8


def _reference_aggregate(models, *args, workspace=None, sq_norms=None, **kwargs):
    """``aircomp_aggregate`` by way of the per-member reference loop."""
    return aircomp_aggregate_reference(list(models), *args, **kwargs)


class _DirectSolver:
    """Stands in for a trainer's counting solver: calls the solver itself."""

    hits = misses = 0
    solve = staticmethod(solve_power_control)


class TestReferenceAggregator:
    def _history(self, fixtures, model_factory):
        small_dataset, small_partition, latency_table, static_channel = fixtures
        exp = FLExperiment(
            dataset=small_dataset,
            partition=small_partition,
            model_factory=model_factory,
            latency=latency_table,
            channel=static_channel,
            config=AirFedGAConfig(aircomp=AirCompConfig(noise_variance=1e-12)),
            learning_rate=0.2,
            local_steps=2,
            batch_size=16,
            max_eval_samples=60,
            seed=11,
        )
        return build_trainer("air_fedga", exp).run(max_rounds=12)

    def test_trainer_run_agrees_with_the_reference_aggregator(
        self, small_dataset, small_partition, latency_table, static_channel,
        model_factory, monkeypatch,
    ):
        """The one trainer-level differential against the oracle: a run
        whose Eq. 6–10 arithmetic goes through the per-member reference
        loop differs from the production run by reassociation only."""
        fixtures = (small_dataset, small_partition, latency_table, static_channel)
        plain = self._history(fixtures, model_factory)
        monkeypatch.setattr("repro.fl.base.aircomp_aggregate", _reference_aggregate)
        oracle = self._history(fixtures, model_factory)
        assert len(plain) == len(oracle)
        np.testing.assert_array_equal(plain.times(), oracle.times())
        np.testing.assert_allclose(plain.losses(), oracle.losses(), rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(plain.accuracies(), oracle.accuracies(), atol=1e-9)
        np.testing.assert_allclose(plain.energies(), oracle.energies(), rtol=1e-9)


class TestEngineRosters:
    """The engine keeps the round-independent part of a call per roster; a
    roster that shrinks under faults must not read its parent group's."""

    def _data(self, counts):
        rng = np.random.default_rng(5)
        return [
            (rng.standard_normal((c, 64)), rng.integers(0, 10, size=c))
            for c in counts
        ]

    def _run(self, engine, model, ids, data, round_index=3, batch_size=8):
        out = np.empty((len(ids), engine.dimension))
        engine.run_group(
            ids, [data[w] for w in ids], model.get_vector(), round_index,
            learning_rate=0.1, local_steps=2, batch_size=batch_size, seed=9, out=out,
        )
        return out

    def test_subset_of_a_cached_group_gets_its_own_entry(self):
        from repro.nn import BatchedWorkerEngine

        model = LogisticRegressionMLP(input_dim=64, hidden=16, seed=2)
        data = self._data([20, 5, 0, 12])  # ragged batches, one idle worker
        engine = BatchedWorkerEngine.try_build(model)
        fresh = lambda: BatchedWorkerEngine.try_build(model)  # noqa: E731
        full = self._run(engine, model, [0, 1, 2, 3], data)
        for roster in ([0, 3], [1, 2], [2], [3, 0]):
            np.testing.assert_array_equal(
                self._run(engine, model, roster, data),
                self._run(fresh(), model, roster, data),
            )
        # ... and the full group still finds its own entry, on a later
        # round and under another batch size alike.
        np.testing.assert_array_equal(self._run(engine, model, [0, 1, 2, 3], data), full)
        for kwargs in (dict(round_index=4), dict(batch_size=4)):
            np.testing.assert_array_equal(
                self._run(engine, model, [0, 1, 2, 3], data, **kwargs),
                self._run(fresh(), model, [0, 1, 2, 3], data, **kwargs),
            )
        np.testing.assert_array_equal(full[2], model.get_vector())

# ----------------------------------------------------------------------
# Power control without a memo
# ----------------------------------------------------------------------
class TestPowerControlCache:
    def test_every_aggregation_solves_its_own_inputs(
        self, small_dataset, small_partition, latency_table, static_channel, model_factory
    ):
        """Three identical aggregations solve three times, and each returns
        the closed form of its inputs."""
        exp = FLExperiment(
            dataset=small_dataset,
            partition=small_partition,
            model_factory=model_factory,
            latency=latency_table,
            channel=static_channel,
            seed=11,
        )
        trainer = build_trainer("air_fedavg", exp)
        members = [0, 1, 2]
        vectors = np.stack([trainer.global_vector for _ in members])
        expected = solve_power_control(
            trainer.data_sizes[members],
            static_channel.gains(1)[members],
            float(np.sqrt(np.einsum("ij,ij->i", vectors, vectors).max())),
            trainer._pc_config,
        )
        for _ in range(3):
            _, info = trainer.aircomp_group_update(members, vectors, round_index=1)
            assert (info["sigma"], info["eta"]) == (expected.sigma, expected.eta)
        assert (trainer.pc_cache_hits, trainer.pc_cache_misses) == (0, 3)

    def test_cache_is_always_on(
        self, small_dataset, small_partition, latency_table, static_channel, model_factory
    ):
        """No option turns the counting solver off; the trainer's counters read it."""
        with pytest.raises(TypeError, match="power_control_cache"):
            AirCompConfig(power_control_cache=False)
        with pytest.raises(TypeError):
            PowerControlCache(rel_tol=1e-3)
        exp = FLExperiment(
            dataset=small_dataset,
            partition=small_partition,
            model_factory=model_factory,
            latency=latency_table,
            channel=static_channel,
            seed=11,
        )
        trainer = build_trainer("air_fedavg", exp)
        trainer.run(max_rounds=4)
        cache = trainer._pc_cache
        assert isinstance(cache, PowerControlCache) and not vars(cache).keys() - {"hits", "misses"}
        assert (trainer.pc_cache_hits, trainer.pc_cache_misses) == (0, cache.misses)
        assert cache.misses > 0

    def test_cache_preserves_behaviour_on_fading_channel(
        self, small_dataset, small_partition, latency_table, channel_model, model_factory
    ):
        """The counting solver is transparent: a run through it is identical
        to one that calls :func:`solve_power_control` directly."""
        histories = {}
        for direct in (False, True):
            exp = FLExperiment(
                dataset=small_dataset,
                partition=small_partition,
                model_factory=model_factory,
                latency=latency_table,
                channel=channel_model,
                seed=11,
            )
            trainer = build_trainer("air_fedga", exp)
            if direct:
                trainer._pc_cache = _DirectSolver()
            histories[direct] = trainer.run(max_rounds=10)
        assert histories[True].to_dict() == histories[False].to_dict()

    def test_distinct_inputs_miss(self):
        cache = PowerControlCache()
        cfg = AirCompConfig(noise_variance=1e-5)
        sizes = np.array([10.0, 20.0])
        cache.solve(sizes, np.array([1.0, 1.0]), 5.0, cfg)
        cache.solve(sizes, np.array([1.0, 2.0]), 5.0, cfg)
        cache.solve(sizes, np.array([1.0, 1.0]), 50.0, cfg)
        assert cache.hits == 0
        assert cache.misses == 3


# ----------------------------------------------------------------------
# float32 simulation mode
# ----------------------------------------------------------------------
class TestFloat32Mode:
    def test_end_to_end_float32_run(
        self, small_dataset, small_partition, latency_table, static_channel, model_factory
    ):
        exp = FLExperiment(
            dataset=small_dataset,
            partition=small_partition,
            model_factory=model_factory,
            latency=latency_table,
            channel=static_channel,
            config=AirFedGAConfig(dtype="float32"),
            seed=11,
        )
        trainer = build_trainer("air_fedga", exp)
        assert trainer.global_vector.dtype == np.float32
        # The evaluation subset is cast once, not inside every forward pass.
        assert trainer._eval_x.dtype == np.float32
        assert small_dataset.x_test.dtype == np.float64
        history = trainer.run(max_rounds=8)
        assert np.isfinite(history.losses()).all()
        assert history.final_accuracy >= 0.0

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            AirFedGAConfig(dtype="float16")
