"""Equivalence and regression tests for the allocation-free hot paths.

Covers: vectorized exact/AirComp aggregation vs. the reference loops (at
the channel level and through a whole trainer run), engine rosters,
power-control caching (hit counting, budget clamping) and the float32
simulation mode.  That the per-worker fallback of a kernel-less model, warm
rosters and reruns reproduce a history is one axis each of
``tests/differential/test_execution_axes.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import (
    AirCompWorkspace,
    aircomp_aggregate,
    aircomp_aggregate_reference,
    ideal_group_average,
    ideal_group_average_reference,
)
from repro.core import AirCompConfig, AirFedGAConfig, PowerControlCache, solve_power_control
from repro.fl import FLExperiment
from repro.fl.base import BaseTrainer
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

    def test_ideal_average_out_buffer(self):
        out = np.empty(500)
        result = ideal_group_average(self.models, self.sizes, out=out)
        assert result is out
        np.testing.assert_allclose(
            out, ideal_group_average_reference(list(self.models), self.sizes),
            rtol=1e-13, atol=1e-13,
        )

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
        np.testing.assert_allclose(vec.received, ref.received, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            vec.transmit_energies, ref.transmit_energies, rtol=1e-12
        )
        np.testing.assert_array_equal(vec.transmit_powers, ref.transmit_powers)

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
        assert vec.noise_norm == pytest.approx(ref.noise_norm, rel=1e-12)

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
        for name in ("received", "estimate", "transmit_powers", "transmit_energies"):
            np.testing.assert_array_equal(getattr(shared, name), getattr(plain, name))
        assert shared.noise_norm == plain.noise_norm
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
        vectors = [
            trainer.global_vector + rng.standard_normal(trainer.model.dimension)
            for _ in members
        ]
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
        plain = trainer.exact_group_update(members, list(stacked))
        out = np.empty_like(trainer.global_vector)
        buffered = trainer.exact_group_update(members, stacked, out=out)
        assert buffered is out
        np.testing.assert_array_equal(plain, buffered)

    def test_aircomp_group_update_out_buffer(self, quiet_experiment):
        trainer = BaseTrainer(quiet_experiment)
        members = [0, 1, 2]
        vectors = np.stack([trainer.global_vector for _ in members])
        plain, _ = trainer.aircomp_group_update(members, vectors, round_index=1)
        # Fresh trainer to reset the noise RNG stream.
        trainer2 = BaseTrainer(quiet_experiment)
        out = np.empty_like(trainer2.global_vector)
        buffered, _ = trainer2.aircomp_group_update(
            members, vectors, round_index=1, out=out
        )
        assert buffered is out
        np.testing.assert_allclose(plain, buffered, rtol=1e-12, atol=1e-12)


def _reference_aggregate(models, *args, workspace=None, sq_norms=None, **kwargs):
    """``aircomp_aggregate`` by way of the per-member reference loop."""
    return aircomp_aggregate_reference(list(models), *args, **kwargs)


class _ExactSolver:
    """Stands in for a trainer's power-control cache: every call solves."""

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
        trainer = build_trainer("air_fedga", exp)
        # The power-control cache trades ~rel_tol sigma optimality for
        # speed; exact, so nothing but the path under test differs.
        trainer._pc_cache = _ExactSolver()
        return trainer.run(max_rounds=12)

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
# Power-control memoization
# ----------------------------------------------------------------------
class TestPowerControlCache:
    def test_cache_hits_on_repeated_aggregation(
        self, small_dataset, small_partition, latency_table, static_channel, model_factory
    ):
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
        # Identical (gains, sizes, bound) instances: first solves, rest hit.
        trainer.aircomp_group_update(members, vectors, round_index=1)
        trainer.aircomp_group_update(members, vectors, round_index=1)
        trainer.aircomp_group_update(members, vectors, round_index=1)
        assert trainer.pc_cache_hits == 2
        assert trainer.pc_cache_misses == 1

    def test_cache_hits_surface_in_round_records(
        self, small_dataset, small_partition, latency_table, static_channel, model_factory
    ):
        exp = FLExperiment(
            dataset=small_dataset,
            partition=small_partition,
            model_factory=model_factory,
            latency=latency_table,
            channel=static_channel,
            seed=11,
        )
        trainer = build_trainer("air_fedavg", exp)
        history = trainer.run(max_rounds=6)
        assert history.records[-1].pc_cache_hits == trainer.pc_cache_hits
        hits = [r.pc_cache_hits for r in history.records]
        assert hits == sorted(hits)  # cumulative counter never decreases

    def test_cache_is_always_on(
        self, small_dataset, small_partition, latency_table, static_channel, model_factory
    ):
        """No option turns the cache off; the trainer's counters read its cache."""
        with pytest.raises(TypeError, match="power_control_cache"):
            AirCompConfig(power_control_cache=False)
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
        assert isinstance(cache, PowerControlCache)
        assert (trainer.pc_cache_hits, trainer.pc_cache_misses) == (cache.hits, cache.misses)
        assert cache.misses > 0

    def test_cache_keeps_no_state_besides_its_bounded_entries(
        self, small_dataset, small_partition, latency_table, static_channel, model_factory
    ):
        """200 faulty rounds (a new survivor roster is a new key): whatever
        the cache holds afterwards is in ``_cache``, which the
        ``max_entries`` reset bounds — no per-group side table."""
        from repro import registry

        exp = FLExperiment(
            dataset=small_dataset,
            partition=small_partition,
            model_factory=model_factory,
            latency=latency_table,
            channel=static_channel,
            eval_every=50,
            seed=11,
            clientstate=registry.create(
                "clientstate", "dropout-rejoin",
                num_workers=small_partition.num_workers, seed=4,
                dropout_prob=0.3, rejoin_after=1,
            ),
        )
        trainer = build_trainer("air_fedga", exp)
        cache = trainer._pc_cache
        cache.max_entries = 8
        history = trainer.run(max_rounds=200)
        assert history.workers_dropped > 0
        assert cache.misses > cache.max_entries  # the reset has happened
        containers = {
            name for name, value in vars(cache).items()
            if isinstance(value, (dict, list, set, tuple))
        }
        assert containers == {"_cache"}
        assert len(cache._cache) <= cache.max_entries

    def test_hit_clamps_sigma_to_exact_cap(self):
        rel_tol = 1e-2
        cache = PowerControlCache(rel_tol=rel_tol)
        rng = np.random.default_rng(0)
        sizes = rng.uniform(10, 40, 5)
        gains = rng.uniform(0.5, 2.0, 5)
        cfg = AirCompConfig(noise_variance=1e-5)
        # Pick two bounds deterministically inside the same quantization
        # cell: the cell centre +/- a quarter of the grid step.
        step = np.log1p(rel_tol)
        centre = float(np.exp(np.round(np.log(10.0) / step) * step))
        low = centre * float(np.exp(-step / 4))
        high = centre * float(np.exp(step / 4))
        first = cache.solve(sizes, gains, low, cfg)
        # The larger bound hits the same key but tightens the energy cap;
        # the cached sigma must be clamped to stay feasible.
        second = cache.solve(sizes, gains, high, cfg)
        assert cache.hits == 1
        caps = gains * np.sqrt(cfg.energy_budget_j) / (sizes * high)
        assert second.sigma <= caps.min() + 1e-15
        assert first.sigma >= second.sigma

    def test_cache_preserves_behaviour_on_fading_channel(
        self, small_dataset, small_partition, latency_table, channel_model, model_factory
    ):
        """A Rayleigh channel makes every round a cache miss, and each miss
        is an ordinary from-cap solve — so the cached run is *identical*
        to one that solves every round."""
        histories = {}
        for exact in (False, True):
            exp = FLExperiment(
                dataset=small_dataset,
                partition=small_partition,
                model_factory=model_factory,
                latency=latency_table,
                channel=channel_model,
                seed=11,
            )
            trainer = build_trainer("air_fedga", exp)
            if exact:
                trainer._pc_cache = _ExactSolver()
            histories[exact] = trainer.run(max_rounds=10)
        np.testing.assert_array_equal(
            histories[True].energies(), histories[False].energies()
        )
        np.testing.assert_array_equal(
            histories[True].losses(), histories[False].losses()
        )

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
