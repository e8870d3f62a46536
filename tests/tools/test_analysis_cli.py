"""End-to-end tests for ``python -m tools.analysis`` (the CLI)."""

from __future__ import annotations

import json

from tools.analysis.__main__ import main


class TestNoBaselineMode:
    def test_violations_exit_nonzero(self, fixtures_dir, capsys):
        rc = main([str(fixtures_dir / "rng_bad.py"), "--no-baseline"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "RNG001" in out

    def test_clean_tree_exits_zero(self, fixtures_dir, capsys):
        rc = main([str(fixtures_dir / "rng_good.py"), "--no-baseline"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 finding(s)" in out


class TestBaselineMode:
    def test_update_then_rerun_is_green(self, fixtures_dir, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        target = str(fixtures_dir / "rng_bad.py")
        assert main([target, "--baseline", str(baseline), "--update-baseline"]) == 0
        assert main([target, "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "analyze: ok" in out

    def test_new_finding_fails_against_empty_baseline(
        self, fixtures_dir, tmp_path
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"version": 1, "findings": []}))
        rc = main([str(fixtures_dir / "rng_bad.py"), "--baseline", str(baseline)])
        assert rc == 1

    def test_stale_entry_fails_shrink_only(self, fixtures_dir, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "findings": [
                        {
                            "rule": "RNG001",
                            "path": "rng_good.py",
                            "line": 1,
                            "message": "long since fixed",
                            "hint": "",
                        }
                    ],
                }
            )
        )
        rc = main([str(fixtures_dir / "rng_good.py"), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "STALE" in out


class TestJsonAndListing:
    def test_json_report_written(self, fixtures_dir, tmp_path):
        report = tmp_path / "out" / "findings.json"
        main(
            [
                str(fixtures_dir / "rng_bad.py"),
                "--no-baseline",
                "--json",
                str(report),
            ]
        )
        document = json.loads(report.read_text())
        rules = {f["rule"] for f in document["findings"]}
        assert {"RNG001", "RNG002"} <= rules
        assert all(
            {"rule", "path", "line", "message", "hint"} <= set(f)
            for f in document["findings"]
        )

    def test_list_rules_prints_every_rule_id(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "RNG001",
            "RNG002",
            "RNG003",
            "RNG004",
            "ALLOC001",
            "ALLOC002",
            "REG001",
            "REG002",
            "REG003",
            "REG004",
            "DEAD001",
        ):
            assert rule in out


class TestRepoIsClean:
    def test_default_run_on_src_repro_is_green(self, capsys):
        assert main([]) == 0
        assert "analyze: ok" in capsys.readouterr().out
