"""Unit tests for the client-state (device-realism) models.

The contract under test (src/repro/sim/clientstate.py): every model's
draws come from dedicated per-(worker, round, sequence, purpose) RNG
streams seeded by the model seed, so trajectories are exactly
reproducible, draws for different workers/dispatches are independent,
and the ``always-on`` model injects no faults at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import registry
from repro.sim import (
    AlwaysOnModel,
    BernoulliAvailability,
    ClientStateModel,
    CyclicAvailability,
    DropoutRejoinModel,
    LognormalAvailability,
    PartialCompletionModel,
)


class TestBaseModel:
    def test_validates_num_workers_and_dropout_prob(self):
        with pytest.raises(ValueError, match="num_workers"):
            ClientStateModel(num_workers=0)
        with pytest.raises(ValueError, match="dropout_prob"):
            ClientStateModel(num_workers=4, dropout_prob=1.5)

    def test_worker_id_bounds_checked(self):
        model = ClientStateModel(num_workers=4)
        with pytest.raises(ValueError, match="invalid worker id"):
            model.available(4, 0, 0)
        with pytest.raises(ValueError, match="invalid worker id"):
            model.survives(-1, 0, 0)

    def test_default_model_is_fault_free(self):
        model = ClientStateModel(num_workers=4, seed=1)
        assert model.availability_mask(range(4), 3, 0).all()
        assert model.survival_mask(range(4), 3, 0).all()
        assert np.array_equal(model.completion_fractions(range(4), 3, 0), np.ones(4))

    def test_dropout_prob_drives_survival(self):
        model = ClientStateModel(num_workers=10, seed=2, dropout_prob=0.5)
        draws = [
            model.survival_mask(range(10), r, r).sum() for r in range(50)
        ]
        rate = sum(draws) / 500.0
        assert 0.4 < rate < 0.6

    def test_same_seed_same_trajectory(self):
        a = ClientStateModel(num_workers=6, seed=3, dropout_prob=0.3)
        b = ClientStateModel(num_workers=6, seed=3, dropout_prob=0.3)
        for r in range(10):
            assert np.array_equal(
                a.survival_mask(range(6), r, r), b.survival_mask(range(6), r, r)
            )

    def test_different_purpose_tags_use_independent_streams(self):
        # Survival and completion draws of the same (worker, round, seq)
        # must not share RNG state with availability draws: a model with
        # every fault type active exercises all three tags at once.
        model = PartialCompletionModel(
            num_workers=12, seed=4, partial_prob=0.5, dropout_prob=0.5
        )
        survive = model.survival_mask(range(12), 1, 0)
        fractions = model.completion_fractions(range(12), 1, 0)
        # Not a deterministic coupling: with shared streams these would be
        # perfectly correlated; with 12 workers at p=0.5 they cannot agree
        # everywhere for this seed (checked once, stable by construction).
        assert not np.array_equal(survive, fractions == 1.0)


class TestAlwaysOn:
    def test_flag_and_no_faults(self):
        model = AlwaysOnModel(num_workers=5, seed=9)
        assert model.is_always_on
        assert model.dropout_prob == 0.0
        assert model.availability_mask(range(5), 0, 0).all()
        assert model.survival_mask(range(5), 0, 0).all()

    def test_other_models_are_not_always_on(self):
        assert not BernoulliAvailability(num_workers=2).is_always_on
        assert not PartialCompletionModel(num_workers=2).is_always_on


class TestBernoulli:
    def test_validates_availability(self):
        with pytest.raises(ValueError, match="availability"):
            BernoulliAvailability(num_workers=4, availability=1.2)

    def test_availability_one_short_circuits(self):
        model = BernoulliAvailability(num_workers=4, seed=0, availability=1.0)
        for r in range(20):
            assert model.availability_mask(range(4), r, r).all()

    def test_empirical_rate_matches_probability(self):
        model = BernoulliAvailability(num_workers=20, seed=5, availability=0.7)
        total = sum(
            model.availability_mask(range(20), r, r).sum() for r in range(100)
        )
        assert 0.65 < total / 2000.0 < 0.75

    def test_draws_vary_with_sequence(self):
        # Retries (same round label, new sequence) must get fresh draws.
        model = BernoulliAvailability(num_workers=30, seed=6, availability=0.5)
        m0 = model.availability_mask(range(30), 1, 0)
        m1 = model.availability_mask(range(30), 1, 1)
        assert not np.array_equal(m0, m1)


class TestLognormal:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="sigma"):
            LognormalAvailability(num_workers=4, sigma=0.0)
        with pytest.raises(ValueError, match="floor"):
            LognormalAvailability(num_workers=4, floor=0.0)

    @staticmethod
    def _rates(model, rounds=100):
        """Each worker's share of ``rounds`` dispatches that found it available."""
        ids = np.arange(model.num_workers)
        return np.mean([model.availability_mask(ids, r, r) for r in range(rounds)], axis=0)

    def test_probs_normalized_and_floored(self):
        rates = self._rates(LognormalAvailability(num_workers=50, seed=7, sigma=2.0, floor=0.1))
        # The top rate normalises to 1: that worker answers every poll.
        assert rates.max() == 1.0
        # The floor keeps every worker reachable some of the time.
        assert rates.min() > 0.0
        # Heavy tail: the fleet is heterogeneous, not uniform.
        assert rates.std() > 0.05

    def test_rates_fixed_by_seed(self):
        a = self._rates(LognormalAvailability(num_workers=10, seed=8), rounds=20)
        b = self._rates(LognormalAvailability(num_workers=10, seed=8), rounds=20)
        assert np.array_equal(a, b)
        c = self._rates(LognormalAvailability(num_workers=10, seed=9), rounds=20)
        assert not np.array_equal(a, c)

    def test_flaky_workers_less_available(self):
        rates = self._rates(LognormalAvailability(num_workers=20, seed=10, sigma=1.5), 200)
        assert rates.max() - rates.min() > 0.5


class TestCyclic:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="period"):
            CyclicAvailability(num_workers=4, period=0.0)
        with pytest.raises(ValueError, match="low"):
            CyclicAvailability(num_workers=4, low=0.8, high=0.2)

    def test_probability_oscillates_within_bounds(self):
        model = CyclicAvailability(
            num_workers=4, seed=11, period=10.0, low=0.2, high=0.8
        )
        probs = [model.availability_probability(0, r) for r in range(40)]
        assert min(probs) >= 0.2 - 1e-12 and max(probs) <= 0.8 + 1e-12
        # The duty cycle actually swings across most of the [low, high] band.
        assert max(probs) - min(probs) > 0.4

    def test_phases_stagger_workers(self):
        model = CyclicAvailability(num_workers=8, seed=12, period=24.0)
        at_zero = [model.availability_probability(w, 0) for w in range(8)]
        assert len(set(np.round(at_zero, 6))) > 1


class TestDropoutRejoin:
    def test_validates_rejoin_after(self):
        with pytest.raises(ValueError, match="rejoin_after"):
            DropoutRejoinModel(num_workers=4, rejoin_after=0)

    def test_dropped_worker_sits_out_cooldown_then_rejoins(self):
        model = DropoutRejoinModel(
            num_workers=1, seed=13, dropout_prob=1.0, rejoin_after=3
        )
        assert model.available(0, 1, 0)
        assert not model.survives(0, 1, 0)  # drops at sequence 0
        # Down for sequences 1..3, eligible again from sequence 4.
        for seq in (1, 2, 3):
            assert not model.available(0, 1, seq)
        assert model.available(0, 1, 4)

    def test_stateful_trajectory_replays_identically(self):
        def trajectory():
            model = DropoutRejoinModel(
                num_workers=6, seed=14, dropout_prob=0.4, rejoin_after=2
            )
            trace = []
            for seq in range(30):
                avail = model.availability_mask(range(6), seq, seq)
                up = [w for w in range(6) if avail[w]]
                survive = model.survival_mask(up, seq, seq)
                trace.append((tuple(avail), tuple(survive)))
            return trace

        assert trajectory() == trajectory()


class TestPartialCompletion:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="partial_prob"):
            PartialCompletionModel(num_workers=4, partial_prob=-0.1)
        with pytest.raises(ValueError, match="min_fraction"):
            PartialCompletionModel(num_workers=4, min_fraction=0.0)

    def test_fractions_bounded_and_sometimes_partial(self):
        model = PartialCompletionModel(
            num_workers=10, seed=15, partial_prob=0.5, min_fraction=0.3
        )
        fractions = np.concatenate(
            [model.completion_fractions(range(10), r, r) for r in range(20)]
        )
        assert fractions.min() >= 0.3
        assert fractions.max() <= 1.0
        partial = fractions < 1.0
        assert 0.3 < partial.mean() < 0.7

    def test_partial_prob_zero_always_full(self):
        model = PartialCompletionModel(num_workers=4, seed=16, partial_prob=0.0)
        for r in range(10):
            assert np.array_equal(
                model.completion_fractions(range(4), r, r), np.ones(4)
            )


class TestRegistry:
    def test_all_models_registered(self):
        names = registry.names("clientstate")
        for name in (
            "always-on", "bernoulli", "lognormal", "cyclic",
            "dropout-rejoin", "partial",
        ):
            assert name in names

    def test_registry_create_round_trip(self):
        model = registry.create(
            "clientstate", "bernoulli", num_workers=7, seed=3, availability=0.8
        )
        assert isinstance(model, BernoulliAvailability)
        assert model.num_workers == 7
        assert model.availability == 0.8

    def test_typo_suggests_close_match(self):
        with pytest.raises(KeyError, match="bernoulli"):
            registry.create("clientstate", "bernouli", num_workers=4)
