"""Framework tests for ``tools.analysis.core``: findings, allows, baseline."""

from __future__ import annotations

import json

import pytest

from tools.analysis.core import Baseline, Checker, Finding, Module, run_checkers


def write_module(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


class TestFinding:
    def test_format_carries_location_rule_and_hint(self):
        f = Finding("RNG001", "pkg/mod.py", 12, "bad call", hint="use keyed rng")
        assert f.format() == "pkg/mod.py:12: RNG001 bad call  [fix: use keyed rng]"

    def test_fingerprint_is_line_number_free(self):
        a = Finding("ALLOC001", "m.py", 10, "np.zeros(...) allocates")
        b = Finding("ALLOC001", "m.py", 99, "np.zeros(...) allocates")
        assert a.fingerprint == b.fingerprint

    def test_to_dict_round_trips_through_baseline(self):
        f = Finding("REG001", "m.py", 3, "undocumented", hint="document it")
        baseline = Baseline.from_findings([f])
        assert baseline.fingerprints == [f.fingerprint]


class TestModuleAllows:
    def test_allow_comment_on_same_line(self, tmp_path):
        path = write_module(
            tmp_path, "m.py", "x = 1  # analyze: allow-alloc(first touch)\n"
        )
        module = Module(path, root=tmp_path)
        stmt = module.tree.body[0]
        assert module.allows("alloc", stmt)
        assert not module.allows("rng", stmt)

    def test_allow_comment_on_line_above_statement(self, tmp_path):
        path = write_module(
            tmp_path,
            "m.py",
            "# analyze: allow-rng(legacy seed path)\nx = 1\n",
        )
        module = Module(path, root=tmp_path)
        assert module.allows("rng", module.tree.body[0])

    def test_reasonless_allow_is_ignored(self, tmp_path):
        path = write_module(tmp_path, "m.py", "x = 1  # analyze: allow-alloc()\n")
        module = Module(path, root=tmp_path)
        assert not module.allows("alloc", module.tree.body[0])

    def test_allow_reason_text_is_recovered(self, tmp_path):
        path = write_module(
            tmp_path, "m.py", "x = 1  # analyze: allow-registry(test-only plug-in)\n"
        )
        module = Module(path, root=tmp_path)
        assert module.allow_reason("registry", 1) == "test-only plug-in"


class _StaticChecker(Checker):
    """Emits one fixed finding per module, twice (dedup fodder)."""

    name = "static"
    rules = {"TST001": "test rule"}

    def check_module(self, module):
        f = Finding("TST001", module.rel, 1, "same message")
        return [f, f]


class TestRunCheckers:
    def test_identical_findings_are_deduplicated(self, tmp_path):
        write_module(tmp_path, "m.py", "x = 1\n")
        findings = run_checkers([_StaticChecker()], [tmp_path], root=tmp_path)
        assert len(findings) == 1

    def test_findings_sorted_by_path_then_line(self, tmp_path):
        write_module(tmp_path, "b.py", "x = 1\n")
        write_module(tmp_path, "a.py", "x = 1\n")
        findings = run_checkers([_StaticChecker()], [tmp_path], root=tmp_path)
        assert [f.path for f in findings] == ["a.py", "b.py"]

    def test_directory_and_file_paths_both_accepted(self, tmp_path):
        path = write_module(tmp_path, "m.py", "x = 1\n")
        by_dir = run_checkers([_StaticChecker()], [tmp_path], root=tmp_path)
        by_file = run_checkers([_StaticChecker()], [path], root=tmp_path)
        assert by_dir == by_file


class TestBaseline:
    def test_missing_file_loads_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "missing.json")
        assert baseline.fingerprints == []

    def test_save_load_round_trip(self, tmp_path):
        f = Finding("RNG001", "m.py", 5, "bad")
        path = tmp_path / "baseline.json"
        Baseline.from_findings([f]).save(path)
        assert Baseline.load(path).fingerprints == [f.fingerprint]

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError, match="unsupported baseline format"):
            Baseline.load(path)

    def test_compare_splits_new_and_stale(self):
        old = Finding("RNG001", "m.py", 5, "grandfathered")
        gone = Finding("RNG001", "m.py", 9, "since fixed")
        new = Finding("ALLOC001", "m.py", 7, "fresh violation")
        baseline = Baseline.from_findings([old, gone])
        new_findings, stale = baseline.compare([old, new])
        assert new_findings == [new]
        assert stale == [gone.fingerprint]

    def test_compare_empty_baseline_everything_is_new(self):
        f = Finding("REG001", "m.py", 1, "undocumented")
        new_findings, stale = Baseline().compare([f])
        assert new_findings == [f]
        assert stale == []
