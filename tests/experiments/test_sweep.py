"""Tests for the concurrent scenario-grid sweep runner."""

import json

import pytest

from repro.experiments import SweepRunner, expand_grid, sweep_axes, sweep_points
from repro.experiments.cli import main as cli_main


def tiny_spec(**extra):
    spec = {
        "name": "grid",
        "num_workers": 6,
        "seed": [0, 1],
        "data": {
            "name": "synthetic-mnist",
            "params": {"num_train": 120, "num_test": 60, "image_size": 8},
            "flatten": True,
        },
        "model": {"name": "lr", "params": {"input_dim": 64, "hidden": 8, "num_classes": 10}},
        "timing": {"base_local_time": 2.0},
        "training": {"max_rounds": 3, "max_eval_samples": 60},
        "algorithm": {"grouping": {"xi": [0.3, 1.0]}},
    }
    spec.update(extra)
    return spec


class TestGridExpansion:
    def test_axes_found_at_any_depth(self):
        axes = sweep_axes(tiny_spec())
        assert axes == {"seed": [0, 1], "algorithm.grouping.xi": [0.3, 1.0]}

    def test_cross_product_size_and_names(self):
        scenarios = expand_grid(tiny_spec())
        assert len(scenarios) == 4
        assert [s.name for s in scenarios] == [f"grid#{i}" for i in range(4)]

    def test_overrides_are_applied(self):
        points = sweep_points(tiny_spec())
        combos = {
            (overrides["seed"], overrides["algorithm.grouping.xi"])
            for _, overrides in points
        }
        assert combos == {(0, 0.3), (0, 1.0), (1, 0.3), (1, 1.0)}
        for scenario, overrides in points:
            assert scenario.seed == overrides["seed"]
            assert scenario.algorithm.grouping.xi == overrides["algorithm.grouping.xi"]

    def test_no_axes_yields_single_point(self):
        spec = tiny_spec(seed=0)
        spec["algorithm"] = {"grouping": {"xi": 0.3}}
        points = sweep_points(spec)
        assert len(points) == 1
        assert points[0][0].name == "grid"
        assert points[0][1] == {}

    def test_typo_fails_before_any_run(self):
        spec = tiny_spec()
        spec["mechanism"] = {"name": "air_fedgaa"}
        with pytest.raises(KeyError, match="unknown mechanism"):
            sweep_points(spec)


class TestSweepRunner:
    def test_serial_four_point_grid_writes_jsonl(self, tmp_path):
        out = tmp_path / "results.jsonl"
        rows = SweepRunner(tiny_spec(), output=out, mode="serial").run()
        assert [row["index"] for row in rows] == [0, 1, 2, 3]
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 4
        for row in lines:
            assert row["scenario"].startswith("grid#")
            assert row["mechanism"] == "air_fedga"
            assert set(row["overrides"]) == {"seed", "algorithm.grouping.xi"}
            assert row["summary"]["rounds"] == 3.0
            # Satellite: every row is self-describing for multi-core analysis.
            assert isinstance(row["cpu_count"], int) and row["cpu_count"] >= 1

    def test_concurrent_execution_of_four_point_grid(self, tmp_path):
        out = tmp_path / "results.jsonl"
        rows = SweepRunner(tiny_spec(), output=out, max_workers=2).run()
        assert [row["index"] for row in rows] == [0, 1, 2, 3]
        assert {
            (row["overrides"]["seed"], row["overrides"]["algorithm.grouping.xi"])
            for row in rows
        } == {(0, 0.3), (0, 1.0), (1, 0.3), (1, 1.0)}
        assert all("summary" in row for row in rows)
        # The JSONL file holds the same four rows (in completion order).
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert sorted(row["index"] for row in lines) == [0, 1, 2, 3]

    def test_a_cnn_sweep_on_processes_equals_the_serial_one(self, lanes):
        """The parent splits every conv tile across two lanes, so its lane
        thread runs when the pool forks; each worker trains on one lane."""
        lanes(2)
        spec = tiny_spec(
            num_workers=10,
            data={
                "name": "synthetic-mnist",
                "params": {"num_train": 200, "num_test": 40, "image_size": 8},
            },
            model={"name": "mnist_cnn", "params": {"image_size": 8, "scale": 0.1}},
        )
        serial = SweepRunner(spec, mode="serial").run()
        pooled = SweepRunner(spec, max_workers=2).run()
        assert all("summary" in row for row in serial)
        assert [(r["summary"], r["faults"]) for r in pooled] == [
            (r["summary"], r["faults"]) for r in serial
        ]

    def test_failed_point_becomes_error_row(self, tmp_path):
        # 50 workers on 120 samples makes the dirichlet min-sample
        # constraint unsatisfiable at build time.
        spec = tiny_spec(num_workers=[6, 500])
        spec["seed"] = 0
        spec["algorithm"] = {"grouping": {"xi": 0.3}}
        spec["partition"] = {"name": "dirichlet", "params": {}}
        rows = SweepRunner(spec, mode="serial").run()
        assert len(rows) == 2
        errors = [row for row in rows if "error" in row]
        assert len(errors) == 1
        assert errors[0]["overrides"]["num_workers"] == 500
        assert "summary" not in errors[0]

    def test_scenarios_sequence_accepted(self):
        scenarios = expand_grid(tiny_spec())[:2]
        runner = SweepRunner(scenarios, mode="serial")
        assert len(runner) == 2

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="mode"):
            SweepRunner(tiny_spec(), mode="threads")
        with pytest.raises(ValueError, match="max_workers"):
            SweepRunner(tiny_spec(), max_workers=0)
        with pytest.raises(ValueError, match="empty"):
            SweepRunner([])

    def test_invalid_spec_in_worker_becomes_error_row(self):
        # A pool worker re-validates the spec (e.g. a plug-in component
        # registered only in the parent with a spawn pool); construction
        # failures must yield an error row, not sink the sweep.
        from repro.experiments.sweep import _execute_point

        spec = tiny_spec(seed=0)
        spec["algorithm"] = {"grouping": {"xi": 0.3}}
        spec["mechanism"] = {"name": "only-in-parent"}
        row = _execute_point(0, spec, {})
        assert "unknown mechanism" in row["error"]
        assert row["scenario"] == "grid"
        assert row["cpu_count"] >= 1


class TestRetries:
    def _single_point(self):
        spec = tiny_spec(seed=0)
        spec["algorithm"] = {"grouping": {"xi": 0.3}}
        return spec

    def test_transient_failure_retried_to_success(self, monkeypatch):
        # A flaky first build (e.g. a transient shared-memory init error)
        # must be absorbed by the retry, yielding a clean success row that
        # still records the extra attempt.
        from repro.experiments import sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "_RETRY_BACKOFF_S", 0.0)
        real = sweep_mod.Scenario
        calls = {"n": 0}

        class Flaky:
            @staticmethod
            def from_dict(doc):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise OSError("transient shared-memory init failure")
                return real.from_dict(doc)

        monkeypatch.setattr(sweep_mod, "Scenario", Flaky)
        row = sweep_mod._execute_point(0, self._single_point(), {}, retries=1)
        assert row["attempts"] == 2
        assert "summary" in row
        assert "error" not in row and "traceback" not in row

    def test_exhausted_retries_emit_traceback_row(self, monkeypatch):
        from repro.experiments import sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "_RETRY_BACKOFF_S", 0.0)
        spec = self._single_point()
        spec["mechanism"] = {"name": "registered-only-in-parent"}
        row = sweep_mod._execute_point(0, spec, {}, retries=2)
        assert row["attempts"] == 3
        assert "unknown mechanism" in row["error"]
        # The full traceback makes a failed sweep debuggable from JSONL.
        assert "Traceback (most recent call last)" in row["traceback"]
        assert "summary" not in row

    def test_success_rows_carry_fault_counters(self):
        from repro.experiments.sweep import _execute_point

        row = _execute_point(0, self._single_point(), {})
        assert row["attempts"] == 1
        assert set(row["faults"]) == {
            "workers_unavailable", "workers_dropped", "partial_updates",
            "quorum_retries", "quorum_skips", "groups_parked",
        }
        # The tiny spec has no faults section: the always-on default
        # injects nothing.
        assert all(v == 0 for v in row["faults"].values())

    def test_runner_validates_retry_arguments(self):
        with pytest.raises(ValueError, match="retries"):
            SweepRunner(tiny_spec(), retries=-1)

    def test_faulty_sweep_axis_round_trips(self, tmp_path):
        # A sweep over client-state models: the faults section expands
        # like any other axis and each row reports its own counters.
        spec = self._single_point()
        spec["faults"] = {
            "clientstate": {
                "name": "bernoulli",
                "params": {"availability": [1.0, 0.6], "dropout_prob": 0.3},
            },
            "retry_backoff": 0.5,
        }
        out = tmp_path / "faults.jsonl"
        rows = SweepRunner(spec, output=out, mode="serial").run()
        assert len(rows) == 2
        by_avail = {
            row["overrides"]["faults.clientstate.params.availability"]: row
            for row in rows
        }
        assert all("summary" in row for row in rows)
        assert sum(by_avail[0.6]["faults"].values()) > 0
        assert by_avail[1.0]["faults"]["workers_dropped"] > 0


class TestRowSchemaGolden:
    """Golden-schema tests: the documented JSONL row keys downstream
    report tooling builds on (SWEEP_ROW_KEYS and friends) must all be
    present on real rows — a silently dropped key is a breaking change."""

    SUMMARY_KEYS = {
        "mechanism", "rounds", "total_time_s", "avg_round_time_s",
        "final_loss", "final_accuracy", "best_accuracy", "total_energy_j",
        "max_staleness",
    }

    def _single_point(self):
        spec = tiny_spec(seed=0)
        spec["algorithm"] = {"grouping": {"xi": 0.3}}
        return spec

    def test_success_rows_carry_exactly_the_documented_keys(self):
        from repro.experiments.sweep import SWEEP_SUCCESS_ROW_KEYS

        rows = SweepRunner(self._single_point(), mode="serial").run()
        assert set(rows[0]) == SWEEP_SUCCESS_ROW_KEYS
        assert not any(key.startswith("pipeline") for key in rows[0])
        assert "engine" not in rows[0]
        assert set(rows[0]["summary"]) == self.SUMMARY_KEYS
        assert rows[0]["cache_hit"] is False
        assert isinstance(rows[0]["spec_hash"], str) and len(rows[0]["spec_hash"]) == 64

    def test_every_streamed_row_carries_the_core_keys(self, tmp_path):
        from repro.experiments.sweep import SWEEP_ROW_KEYS

        out = tmp_path / "rows.jsonl"
        SweepRunner(tiny_spec(), output=out, mode="serial").run()
        for line in out.read_text().splitlines():
            row = json.loads(line)
            assert SWEEP_ROW_KEYS <= set(row)

    def test_error_rows_stay_within_the_documented_keys(self):
        from repro.experiments.sweep import (
            SWEEP_ERROR_ROW_KEYS,
            SWEEP_SUCCESS_ROW_KEYS,
        )

        spec = tiny_spec(num_workers=500, seed=0)
        spec["algorithm"] = {"grouping": {"xi": 0.3}}
        spec["partition"] = {"name": "dirichlet", "params": {}}
        rows = SweepRunner(spec, mode="serial", retries=0).run()
        (row,) = rows
        assert SWEEP_ERROR_ROW_KEYS <= set(row)
        assert set(row) <= SWEEP_ERROR_ROW_KEYS | SWEEP_SUCCESS_ROW_KEYS
        # Satellite regression: the failing point's resolved spec hash is
        # recorded so --resume can tell "failed" from "never started".
        assert isinstance(row["spec_hash"], str) and len(row["spec_hash"]) == 64

    def test_cache_hit_rows_match_the_success_schema(self, tmp_path):
        from repro.experiments.sweep import SWEEP_SUCCESS_ROW_KEYS

        spec = self._single_point()
        cache = tmp_path / "cache"
        first = SweepRunner(spec, mode="serial", cache_dir=cache).run()
        second = SweepRunner(spec, mode="serial", cache_dir=cache).run()
        assert first[0]["cache_hit"] is False
        assert second[0]["cache_hit"] is True
        assert second[0]["attempts"] == 0
        assert set(second[0]) == SWEEP_SUCCESS_ROW_KEYS
        assert second[0]["summary"] == first[0]["summary"]


class TestCacheAndResume:
    def test_relaunch_against_the_cache_skips_every_point(self, tmp_path):
        cache = tmp_path / "cache"
        first = SweepRunner(
            tiny_spec(), output=tmp_path / "a.jsonl", mode="serial", cache_dir=cache
        ).run()
        second = SweepRunner(
            tiny_spec(), output=tmp_path / "b.jsonl", mode="serial", cache_dir=cache
        ).run()
        assert all(row["cache_hit"] for row in second)
        assert [r["summary"] for r in second] == [r["summary"] for r in first]

    def test_resume_requires_an_output_path(self):
        with pytest.raises(ValueError, match="resume"):
            SweepRunner(tiny_spec(), resume=True)

    def test_resume_reexecutes_only_the_missing_point(self, tmp_path, monkeypatch):
        from repro.experiments import sweep as sweep_mod

        out = tmp_path / "rows.jsonl"
        reference = SweepRunner(tiny_spec(), output=out, mode="serial").run()
        # Simulate a kill that lost one completed row (and tore a line).
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:2]) + "\n" + lines[3] + "\n" + '{"torn')

        executed = []
        real = sweep_mod._execute_point

        def counting(*args, **kwargs):
            executed.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "_execute_point", counting)
        merged = SweepRunner(
            tiny_spec(), output=out, mode="serial", resume=True
        ).run()
        assert executed == [2]  # exactly the lost point, nothing else
        assert [row["index"] for row in merged] == [0, 1, 2, 3]
        # Bit-identical (float64) to the uninterrupted run, including the
        # re-executed point (identical seeds).
        assert [r["summary"] for r in merged] == [r["summary"] for r in reference]
        # The compacted stream covers every point exactly once.
        final = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["index"] for row in final] == [0, 1, 2, 3]

    def test_a_row_appended_after_a_torn_line_stays_readable(self, tmp_path, monkeypatch):
        from repro.experiments import sweep as sweep_mod
        from repro.experiments.runcache import read_jsonl_rows

        out = tmp_path / "rows.jsonl"
        SweepRunner(tiny_spec(), output=out, mode="serial").run()
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:2]) + "\n" + lines[2][:40])  # killed mid-row 2
        real = sweep_mod._execute_point

        class Killed(BaseException):
            pass

        def killed_at_point_3(index, *args):
            if index == 3:
                raise Killed  # the launch dies before its compaction
            return real(index, *args)

        monkeypatch.setattr(sweep_mod, "_execute_point", killed_at_point_3)
        with pytest.raises(Killed):
            SweepRunner(tiny_spec(), output=out, mode="serial", resume=True).run()
        assert [row["index"] for row in read_jsonl_rows(out)] == [0, 1, 2]

    def test_resume_of_a_complete_sweep_executes_nothing(self, tmp_path, monkeypatch):
        from repro.experiments import sweep as sweep_mod

        out = tmp_path / "rows.jsonl"
        SweepRunner(tiny_spec(), output=out, mode="serial").run()

        def explode(*args, **kwargs):  # pragma: no cover - must not be called
            raise AssertionError("resume re-executed a completed point")

        monkeypatch.setattr(sweep_mod, "_execute_point", explode)
        rows = SweepRunner(tiny_spec(), output=out, mode="serial", resume=True).run()
        assert len(rows) == 4 and all("summary" in row for row in rows)


class TestSweepCLI:
    def test_cli_runs_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec = tiny_spec()
        spec["algorithm"] = {"grouping": {"xi": 0.3}}  # 2 points
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "rows.jsonl"
        code = cli_main(
            ["sweep", str(spec_path), "--output", str(out), "--serial"]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 2
        printed = capsys.readouterr().out
        assert "Sweep results" in printed
        assert "grid#0" in printed
