"""Unit tests for the training-history container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl import RoundRecord, TrainingHistory


def record(i, time, acc, loss=1.0, energy=0.0, staleness=0):
    return RoundRecord(
        round_index=i,
        time=time,
        loss=loss,
        accuracy=acc,
        staleness=staleness,
        cumulative_energy_j=energy,
    )


def sample_history():
    h = TrainingHistory("test")
    accs = [0.1, 0.3, 0.5, 0.65, 0.8, 0.82]
    energies = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    for i, (a, e) in enumerate(zip(accs, energies)):
        h.append(record(i, time=float(10 * i), acc=a, loss=2.0 - a, energy=e,
                        staleness=i % 3))
    return h


class TestAppend:
    def test_length(self):
        assert len(sample_history()) == 6

    def test_rejects_time_going_backwards(self):
        h = TrainingHistory("test")
        h.append(record(0, 5.0, 0.1))
        with pytest.raises(ValueError):
            h.append(record(1, 4.0, 0.2))

    def test_allows_equal_times(self):
        h = TrainingHistory("test")
        h.append(record(0, 5.0, 0.1))
        h.append(record(1, 5.0, 0.2))
        assert len(h) == 2


class TestAccessors:
    def test_column_arrays(self):
        h = sample_history()
        np.testing.assert_allclose(h.times(), [0, 10, 20, 30, 40, 50])
        assert h.accuracies()[-1] == pytest.approx(0.82)
        assert h.losses()[0] == pytest.approx(1.9)
        assert h.energies()[-1] == pytest.approx(50.0)

    def test_final_and_best(self):
        h = sample_history()
        assert h.final_accuracy == pytest.approx(0.82)
        assert h.best_accuracy() == pytest.approx(0.82)
        assert h.final_loss == pytest.approx(2.0 - 0.82)
        assert h.total_time == 50.0
        assert h.total_rounds == 5
        assert h.total_energy == 50.0

    def test_empty_history_defaults(self):
        h = TrainingHistory("empty")
        assert h.final_accuracy == 0.0
        assert h.total_time == 0.0
        assert h.best_accuracy() == 0.0
        assert h.max_staleness() == 0
        assert h.average_round_time() == 0.0


class TestDerivedQueries:
    def test_time_to_accuracy(self):
        h = sample_history()
        assert h.time_to_accuracy(0.5) == 20.0
        assert h.time_to_accuracy(0.8) == 40.0
        assert h.time_to_accuracy(0.99) is None

    def test_time_to_accuracy_validates_target(self):
        with pytest.raises(ValueError):
            sample_history().time_to_accuracy(0.0)
        with pytest.raises(ValueError):
            sample_history().time_to_accuracy(1.5)

    def test_energy_to_accuracy(self):
        h = sample_history()
        assert h.energy_to_accuracy(0.5) == pytest.approx(20.0)
        assert h.energy_to_accuracy(0.95) is None

    def test_rounds_to_accuracy(self):
        h = sample_history()
        assert h.rounds_to_accuracy(0.65) == 3

    def test_max_staleness(self):
        assert sample_history().max_staleness() == 2

    def test_average_round_time(self):
        h = sample_history()
        # Last record is round 5 at time 50, independent of how many records
        # were actually evaluated.
        assert h.average_round_time() == pytest.approx(10.0)

    def test_summary_keys(self):
        s = sample_history().summary()
        for key in ("mechanism", "rounds", "total_time_s", "final_accuracy",
                    "total_energy_j", "max_staleness"):
            assert key in s
