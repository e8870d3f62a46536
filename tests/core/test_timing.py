"""Unit tests for the training-time model (Eqs. 33-35 and 39)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AirCompConfig,
    AirFedGAConfig,
    GroupingProblem,
    average_round_time,
    estimated_max_staleness,
    group_completion_time,
    participation_frequencies,
)
from repro.core.grouping import _evaluate_grouping


class TestGroupCompletionTime:
    def test_slowest_member_plus_upload(self):
        assert group_completion_time([2.0, 5.0, 3.0], 1.5) == pytest.approx(6.5)

    def test_single_member(self):
        assert group_completion_time([4.0], 0.5) == pytest.approx(4.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            group_completion_time([], 1.0)
        with pytest.raises(ValueError):
            group_completion_time([0.0], 1.0)
        with pytest.raises(ValueError):
            group_completion_time([1.0], -1.0)


class TestAverageRoundTime:
    def test_single_group(self):
        assert average_round_time([10.0]) == pytest.approx(10.0)

    def test_harmonic_combination(self):
        # Two groups with times 10 and 10 -> updates arrive twice as often.
        assert average_round_time([10.0, 10.0]) == pytest.approx(5.0)

    def test_fast_group_dominates(self):
        # A very fast group makes global updates frequent even if another is slow.
        assert average_round_time([1.0, 1000.0]) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            average_round_time([])
        with pytest.raises(ValueError):
            average_round_time([1.0, 0.0])


class TestParticipationFrequencies:
    def test_sums_to_one(self):
        psi = participation_frequencies([3.0, 6.0, 9.0])
        assert psi.sum() == pytest.approx(1.0)

    def test_faster_group_participates_more(self):
        psi = participation_frequencies([1.0, 2.0])
        assert psi[0] == pytest.approx(2.0 / 3.0)

    def test_equal_times_equal_frequencies(self):
        psi = participation_frequencies([5.0, 5.0, 5.0])
        np.testing.assert_allclose(psi, 1.0 / 3.0)


class TestEstimatedMaxStaleness:
    def test_single_group_value(self):
        # One group: tau-hat = L_max * (1/L_max) = 1 (raw value before the
        # self-update correction in GroupingResult).
        assert estimated_max_staleness([7.0]) == pytest.approx(1.0)

    def test_equal_groups(self):
        # M equal groups: the slowest completes while M updates happen.
        assert estimated_max_staleness([4.0, 4.0, 4.0]) == pytest.approx(3.0)

    def test_increases_with_imbalance(self):
        balanced = estimated_max_staleness([5.0, 5.0])
        imbalanced = estimated_max_staleness([1.0, 9.0])
        assert imbalanced > balanced


class TestGroupTiming:
    """Eqs. 33-35 and 39 as :class:`GroupingResult` carries them."""

    def _timing(self, groups=([0, 1], [2])):
        problem = GroupingProblem(
            data_sizes=np.ones(3),
            class_counts=np.ones((3, 2)),
            local_times=np.array([2.0, 4.0, 8.0]),
            model_dimension=1000,
            config=AirFedGAConfig(
                aircomp=AirCompConfig(num_subchannels=100, symbol_duration_s=0.1)
            ),
        )
        return _evaluate_grouping(problem, [list(g) for g in groups], "probe")

    def test_upload_latency_formula(self):
        assert self._timing().upload_latency == pytest.approx(1.0)

    def test_group_times(self):
        np.testing.assert_allclose(self._timing().group_times, [5.0, 9.0])

    def test_round_time(self):
        t = self._timing()
        assert average_round_time(t.group_times) == pytest.approx(1.0 / (1 / 5.0 + 1 / 9.0))

    def test_frequencies_match_rates(self):
        t = self._timing()
        np.testing.assert_allclose(
            t.frequencies, np.array([1 / 5.0, 1 / 9.0]) / (1 / 5.0 + 1 / 9.0)
        )

    def test_tau_max_estimate_zero_for_single_group(self):
        assert self._timing(groups=([0, 1],)).tau_max_estimate == pytest.approx(0.0)

    def test_tau_max_estimate_positive_for_multiple_groups(self):
        assert self._timing().tau_max_estimate > 0.0

    def test_group_times_are_group_completion_times(self):
        t = self._timing()
        expected = [
            group_completion_time([2.0, 4.0], t.upload_latency),
            group_completion_time([8.0], t.upload_latency),
        ]
        assert t.group_times.tolist() == expected

    def test_upload_latency_does_not_depend_on_membership(self):
        assert self._timing(groups=([0], [1], [2])).upload_latency == self._timing().upload_latency

    def test_tau_max_estimate_is_eq39_less_the_self_update(self):
        # Eq. 39: 9 · (1/5 + 1/9) = 2.8 group updates per slowest round.
        t = self._timing()
        assert t.tau_max_estimate == pytest.approx(1.8)
        assert t.tau_max_estimate == estimated_max_staleness(t.group_times) - 1.0

    def test_rejects_empty_grouping(self):
        with pytest.raises(ValueError):
            self._timing(groups=())
