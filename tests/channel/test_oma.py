"""Unit tests for the OMA (TDMA) upload-latency model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import OMAConfig, tdma_round_time, worker_upload_time


CFG = OMAConfig(bandwidth_hz=1e6, transmit_power_w=1.0, noise_power_w=1e-3)


class TestOMAConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bandwidth_hz": 0.0},
            {"transmit_power_w": 0.0},
            {"noise_power_w": 0.0},
            {"bits_per_param": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OMAConfig(**kwargs)


class TestWorkerUploadTime:
    def test_positive(self):
        assert worker_upload_time(10_000, 1.0, CFG) > 0

    def test_scales_linearly_with_model_dimension(self):
        t1 = worker_upload_time(10_000, 1.0, CFG)
        t2 = worker_upload_time(20_000, 1.0, CFG)
        assert t2 == pytest.approx(2 * t1)

    def test_better_channel_is_faster(self):
        slow = worker_upload_time(10_000, 0.3, CFG)
        fast = worker_upload_time(10_000, 3.0, CFG)
        assert fast < slow

    def test_smaller_band_share_is_slower(self):
        full = worker_upload_time(10_000, 1.0, CFG, bandwidth_share=1.0)
        half = worker_upload_time(10_000, 1.0, CFG, bandwidth_share=0.5)
        assert half > full

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            worker_upload_time(0, 1.0, CFG)
        with pytest.raises(ValueError):
            worker_upload_time(10, 0.0, CFG)
        with pytest.raises(ValueError):
            worker_upload_time(10, 1.0, CFG, bandwidth_share=0.0)
        with pytest.raises(ValueError):
            worker_upload_time(10, 1.0, CFG, bandwidth_share=1.5)


class TestRoundTimes:
    def test_tdma_is_sum_of_worker_times(self):
        gains = [1.0, 2.0, 0.5]
        expected = sum(worker_upload_time(5000, g, CFG) for g in gains)
        assert tdma_round_time(5000, gains, CFG) == pytest.approx(expected)

    def test_tdma_grows_with_worker_count(self):
        """The OMA scalability problem: more workers, longer upload phase."""
        few = tdma_round_time(5000, np.ones(10), CFG)
        many = tdma_round_time(5000, np.ones(100), CFG)
        assert many == pytest.approx(10 * few)

    def test_empty_worker_list_rejected(self):
        with pytest.raises(ValueError):
            tdma_round_time(5000, [], CFG)

    def test_weaker_channel_lengthens_the_round(self):
        strong = tdma_round_time(5000, [1.0, 1.0], CFG)
        weak = tdma_round_time(5000, [1.0, 0.2], CFG)
        assert weak > strong

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError, match="channel_gain"):
            tdma_round_time(5000, [1.0, 0.0], CFG)
