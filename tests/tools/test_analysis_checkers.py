"""Positive/negative fixture self-tests for every analysis checker.

Each checker must (a) fire on the deliberate violations in its ``*_bad``
fixture, (b) stay silent on the disciplined ``*_good`` twin, and (c)
honor the ``# analyze: allow-<tag>(reason)`` escape hatch.  The fixtures
under ``tests/tools/fixtures/`` are parsed, never imported.
"""

from __future__ import annotations

from tools.analysis import (
    HotPathAllocationChecker,
    RngDisciplineChecker,
    run_checkers,
)


def run_on(checker, fixtures_dir, filename):
    return run_checkers(
        [checker], [fixtures_dir / filename], root=fixtures_dir
    )


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TestRngDiscipline:
    def test_bad_fixture_fires_every_rule(self, fixtures_dir):
        findings = run_on(RngDisciplineChecker(), fixtures_dir, "rng_bad.py")
        assert rules_of(findings) == ["RNG001", "RNG002", "RNG003", "RNG004"]

    def test_bad_fixture_exact_counts(self, fixtures_dir):
        findings = run_on(RngDisciplineChecker(), fixtures_dir, "rng_bad.py")
        by_rule = {rule: 0 for rule in ("RNG001", "RNG002", "RNG003", "RNG004")}
        for f in findings:
            by_rule[f.rule] += 1
        # 2 module-state np calls + 1 reasonless-allow; 2 stdlib; 2 wall
        # clock; 2 entropy constructors.
        assert by_rule == {"RNG001": 3, "RNG002": 2, "RNG003": 2, "RNG004": 2}

    def test_reasoned_allow_is_suppressed(self, fixtures_dir):
        import re

        findings = run_on(RngDisciplineChecker(), fixtures_dir, "rng_bad.py")
        source = (fixtures_dir / "rng_bad.py").read_text().splitlines()
        reasoned = re.compile(r"allow-rng\([^)]+\)")
        for f in findings:
            # Neither the flagged line nor the one above carries a
            # *reasoned* allow (the reasonless one still fires).
            assert not reasoned.search(source[f.line - 1])
            assert not reasoned.search(source[f.line - 2])

    def test_good_fixture_is_silent(self, fixtures_dir):
        assert run_on(RngDisciplineChecker(), fixtures_dir, "rng_good.py") == []

    def test_findings_carry_keyed_stream_hint(self, fixtures_dir):
        findings = run_on(RngDisciplineChecker(), fixtures_dir, "rng_bad.py")
        rng001 = [f for f in findings if f.rule == "RNG001"]
        assert all("SeedSequence" in f.hint for f in rng001)


class TestHotPathAllocation:
    HOT = {"alloc_hot.py": {"Kernel.forward", "Kernel.backward"}}

    def checker(self):
        return HotPathAllocationChecker(hot_paths=self.HOT)

    def test_hot_scope_allocations_fire(self, fixtures_dir):
        findings = run_on(self.checker(), fixtures_dir, "alloc_hot.py")
        assert rules_of(findings) == ["ALLOC001"]
        # np.zeros, np.stack, .copy() and the comprehension's np.ones.
        assert len(findings) == 4

    def test_method_copy_is_caught(self, fixtures_dir):
        findings = run_on(self.checker(), fixtures_dir, "alloc_hot.py")
        assert any(".copy" in f.message for f in findings)

    def test_cold_paths_and_allows_are_silent(self, fixtures_dir):
        findings = run_on(self.checker(), fixtures_dir, "alloc_hot.py")
        lines = (fixtures_dir / "alloc_hot.py").read_text().splitlines()
        flagged = {f.line for f in findings}
        for lineno, line in enumerate(lines, start=1):
            if "allow-alloc(" in line or "cold" in line:
                assert lineno not in flagged

    def test_undeclared_module_is_skipped(self, fixtures_dir):
        checker = HotPathAllocationChecker(hot_paths={"other.py": {"*"}})
        assert run_on(checker, fixtures_dir, "alloc_hot.py") == []

    def test_star_scope_audits_everything(self, fixtures_dir):
        checker = HotPathAllocationChecker(hot_paths={"alloc_hot.py": {"*"}})
        findings = run_on(checker, fixtures_dir, "alloc_hot.py")
        # cold_helper's np.zeros now counts too (module body __init__ call
        # has the Kernel.__init__ qualname, also audited under "*").
        assert len(findings) > 4

    def test_declared_scope_missing_from_the_file_is_a_finding(self, fixtures_dir):
        # A renamed method must not drop out of the audit silently.
        checker = HotPathAllocationChecker(
            hot_paths={"alloc_hot.py": {"Kernel.backward", "Kernel.renamed_away"}}
        )
        findings = run_on(checker, fixtures_dir, "alloc_hot.py")
        assert rules_of(findings) == ["ALLOC002"]
        assert "Kernel.renamed_away" in findings[0].message

    def test_repo_hot_paths_are_declared_for_real_files(self):
        from tools.analysis import HOT_PATHS
        from tools.analysis.core import REPO_ROOT

        for rel in HOT_PATHS:
            assert (REPO_ROOT / rel).exists(), rel


