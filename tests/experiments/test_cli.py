"""Tests for the command-line reproduction driver."""

from __future__ import annotations

import json

import pytest

from repro.experiments import EXPERIMENTS, FIGURES, run_experiment
from repro.experiments.cli import build_parser, main


def _refuse_non_json_constant(token):
    """``json.loads`` hook for ``NaN`` / ``Infinity``, which strict JSON lacks."""
    raise ValueError(f"{token} is not JSON")


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                    "table1", "table3"}
        assert set(EXPERIMENTS) == expected
        assert set(FIGURES) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("table3", scale=0.0)


class TestRunExperiment:
    def test_table3_runs_and_serializes(self, tmp_path):
        results = run_experiment("table3", output=str(tmp_path))
        assert "emd" in results
        written = json.loads((tmp_path / "table3.json").read_text())
        assert written["emd"]["original"] == pytest.approx(1.8, abs=0.05)

    def test_fig7_groups_the_catalogue_workers(self):
        groups = run_experiment("fig7")["groups"]
        assert sum(len(v) for v in groups.values()) == FIGURES["fig7"]().num_workers == 100

    def test_every_experiment_writes_its_json_at_a_small_budget(self, tmp_path):
        for name in sorted(EXPERIMENTS):
            results = run_experiment(name, output=str(tmp_path), scale=0.05)
            written = json.loads(
                (tmp_path / f"{name}.json").read_text(),
                parse_constant=_refuse_non_json_constant,
            )
            assert written.keys() == results.keys() and written


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "lr_mnist, 40 workers, 2500 s" in out

    def test_run_requires_known_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "fig99"])

    def test_compare_parser_defaults(self):
        args = build_parser().parse_args(["compare", "fig3"])
        assert args.experiment == "fig3"
        assert "air_fedga" in args.mechanisms
        assert args.max_time is None  # the catalogue's budget

    def test_run_table3_via_main(self, tmp_path, capsys):
        assert main(["run", "table3", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "table3.json").exists()

    def test_compare_via_main_writes_histories(self, tmp_path, capsys):
        code = main(
            [
                "compare", "fig3",
                "--mechanisms", "air_fedavg",
                "--max-time", "50",
                "--workers", "6",
                "--output", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "air_fedavg" in out and "lr_mnist (6 workers)" in out
        assert (tmp_path / "fig3_air_fedavg.json").exists()
        assert (tmp_path / "fig3_air_fedavg.csv").exists()
