"""Tests for history serialization and the staleness-damping extension."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.fl import AirFedGATrainer, TiFLTrainer, TrainingHistory, build_trainer


def make_history(n=5):
    h = TrainingHistory("air_fedga")
    for i in range(n):
        h.append(i, float(3 * i), staleness=i % 2, group_id=i % 3, num_participants=4,
                 round_energy_j=1.5, sigma=0.01, eta=1e-4, sampled=i != 3,
                 loss=2.0 - 0.1 * i, accuracy=0.1 * i)  # fmt: skip
    return h


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class TestHistorySerialization:
    def test_dict_roundtrip(self):
        h = make_history()
        restored = TrainingHistory.from_dict(h.to_dict())
        assert restored.mechanism == h.mechanism
        assert len(restored) == len(h)
        np.testing.assert_allclose(restored.times(), h.times())
        np.testing.assert_allclose(restored.accuracies(), h.accuracies())
        np.testing.assert_allclose(restored.energies(), h.energies())

    def test_from_dict_ignores_counters_no_longer_written(self):
        # Histories saved while the pipelined mode existed carry these.
        data = make_history().to_dict()
        data.update(pipeline_hits=7, pipeline_recomputes=1)
        restored = TrainingHistory.from_dict(data)
        assert len(restored) == 5
        assert "pipeline_hits" not in restored.to_dict()

    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            TrainingHistory.from_dict({"records": []})

    def test_json_roundtrip(self, tmp_path):
        h = make_history()
        path = h.save_json(tmp_path / "run" / "history.json")
        assert path.exists()
        restored = TrainingHistory.load_json(path)
        np.testing.assert_allclose(restored.losses(), h.losses())
        assert restored.column("group_id")[2] == h.column("group_id")[2]

    def test_json_is_strict_and_reads_null_back_as_nan(self, tmp_path, small_experiment):
        """A FedAvg history has no σ or η, and an unsampled row no loss:
        strict JSON writes them as ``null``, read back as NaN."""
        small_experiment.eval_every = 2
        h = build_trainer("fedavg", small_experiment).run(max_rounds=3)
        text = h.save_json(tmp_path / "fedavg.json").read_text()
        data = json.loads(text, parse_constant=_refuse_constant)
        assert data["columns"]["sigma"][-1] is None and data["columns"]["loss"][1] is None
        restored = TrainingHistory.load_json(tmp_path / "fedavg.json")
        assert np.isnan(restored.column("eta")).all()
        np.testing.assert_array_equal(restored.column("loss"), h.column("loss"))
        assert restored.to_dict() == h.to_dict()

    def test_from_dict_refuses_the_sampled_records_schema(self):
        with pytest.raises(ValueError, match="records.*0.20.0.*one row per commit"):
            TrainingHistory.from_dict({"mechanism": "fedavg", "records": []})

    def test_summary_embedded_in_dict(self):
        data = make_history().to_dict()
        assert data["summary"]["mechanism"] == "air_fedga"

    def test_csv_export(self, tmp_path):
        h = make_history()
        path = h.save_csv(tmp_path / "history.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(h) + 1  # header + one row per commit
        assert lines[0].startswith("round_index,time,loss,accuracy")


class TestStalenessDamping:
    def test_negative_exponent_rejected(self, small_experiment):
        with pytest.raises(ValueError):
            AirFedGATrainer(
                small_experiment,
                staleness={"name": "polynomial", "params": {"exponent": -1.0}},
            )

    def test_zero_exponent_matches_default(self, quiet_experiment):
        default = AirFedGATrainer(quiet_experiment).run(max_rounds=5)
        explicit = AirFedGATrainer(
            quiet_experiment,
            staleness={"name": "polynomial", "params": {"exponent": 0.0}},
        ).run(max_rounds=5)
        np.testing.assert_array_equal(default.accuracies(), explicit.accuracies())
        np.testing.assert_array_equal(default.losses(), explicit.losses())

    def test_damping_changes_trajectory_when_stale(self, quiet_experiment):
        plain = AirFedGATrainer(quiet_experiment, grouping_strategy="singleton")
        damped = AirFedGATrainer(
            quiet_experiment,
            grouping_strategy="singleton",
            staleness={"name": "polynomial", "params": {"exponent": 1.0}},
        )
        h_plain = plain.run(max_rounds=12)
        h_damped = damped.run(max_rounds=12)
        # Singleton groups guarantee staleness > 0 after the first rounds, so
        # the damped run must diverge from the plain one.
        assert h_plain.max_staleness() > 0
        assert not np.allclose(h_plain.losses(), h_damped.losses())

    def test_tifl_accepts_staleness_policy(self, small_experiment):
        trainer = TiFLTrainer(
            small_experiment,
            num_tiers=3,
            staleness={"name": "polynomial", "params": {"exponent": 0.5}},
        )
        history = trainer.run(max_rounds=5)
        assert history.total_rounds == 5
