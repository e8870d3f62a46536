"""Unit tests for the training-history container: one row per commit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.scenario import Scenario
from repro.fl import TrainingHistory


def sample_history():
    """Six sampled rows, 10 J and 10 s per commit."""
    h = TrainingHistory("test")
    accs = [0.1, 0.3, 0.5, 0.65, 0.8, 0.82]
    for i, a in enumerate(accs):
        h.append(i, float(10 * i), staleness=i % 3, round_energy_j=10.0 if i else 0.0,
                 sampled=True, loss=2.0 - a, accuracy=a)  # fmt: skip
    return h


class TestAppend:
    def test_length(self):
        assert len(sample_history()) == 6

    def test_rejects_time_going_backwards(self):
        h = TrainingHistory("test")
        h.append(0, 5.0)
        with pytest.raises(ValueError):
            h.append(1, 4.0)

    def test_allows_equal_times(self):
        h = TrainingHistory("test")
        h.append(0, 5.0)
        h.append(1, 5.0)
        assert len(h) == 2

    def test_columns_grow_past_their_first_allocation(self):
        h = TrainingHistory("test")
        for i in range(100):
            h.append(i, float(i), round_energy_j=1.0)
        np.testing.assert_array_equal(h.column("round_index"), np.arange(100))
        assert h.total_energy == 100.0


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

    def test_run_totals_count_rounds_after_the_last_sampled_one(self):
        """The run totals read every commit, not the sampled ones (the commit
        log of ROADMAP item 23)."""
        scenario = Scenario.default().with_(
            **{"training.eval_every": 5, "training.max_rounds": 7}
        )
        history = scenario.run()
        assert history.total_rounds == 7
        assert history.summary()["rounds"] == 7.0


def _unsampled_tail():
    """Three sampled rows, then two commits ``eval_every`` skips."""
    h = TrainingHistory("tail")
    for i, (stale, sampled) in enumerate([(0, 1), (1, 1), (2, 1), (7, 0), (3, 0)]):
        h.append(i, 5.0 * i, staleness=stale, group_id=i % 2, num_participants=2,
                 round_energy_j=0.5 * i, sampled=bool(sampled),
                 loss=1.0 / (i + 1) if sampled else np.nan,
                 accuracy=0.2 * i if sampled else np.nan)  # fmt: skip
    return h


class TestCommitLog:
    def test_series_read_the_sampled_rows(self):
        h = _unsampled_tail()
        assert len(h) == 5
        np.testing.assert_array_equal(h.times(), [0.0, 5.0, 10.0])
        np.testing.assert_array_equal(h.energies(), [0.0, 0.5, 1.5])
        assert h.final_accuracy == 0.4 and h.final_loss == pytest.approx(1 / 3)
        assert np.isnan(h.column("loss")[3:]).all()

    def test_totals_equal_the_last_commits(self):
        h = _unsampled_tail()
        assert (h.total_rounds, h.total_time) == (4, 20.0)
        assert h.total_energy == ((((0.0 + 0.5) + 1.0) + 1.5) + 2.0)
        assert h.average_round_time() == 5.0
        assert h.summary()["rounds"] == 4.0

    def test_max_staleness_reads_every_commit(self):
        h = _unsampled_tail()
        assert h.stalenesses().max() == 2
        assert h.max_staleness() == 7

    def test_cumulative_energy_adds_in_commit_order(self):
        rng = np.random.default_rng(3)
        energies = rng.lognormal(size=500)
        h = TrainingHistory("order")
        for i, e in enumerate(energies):
            h.append(i, float(i), round_energy_j=e)
        total = 0.0
        for e in energies:
            total += e
        assert h.total_energy == total

    def test_run_totals_equal_the_last_commit_of_the_schedule(self):
        """On a run whose last commits are not sampled, every total is the
        last commit's, and every commit of the schedule has its row."""
        scenario = Scenario.default().with_(
            **{"training.eval_every": 4, "training.max_rounds": 11}
        )
        rows = list(scenario.build().schedule(11))
        history = scenario.run()
        last = rows[-1]
        assert (history.total_rounds, history.total_time) == (last.round_index, last.time)
        assert len(history) == len(rows) + 1
        assert history.total_energy == history.cumulative_energy()[-1] > 0
        assert history.max_staleness() == max(row.staleness for row in rows)
        assert history.times()[-1] < history.total_time
