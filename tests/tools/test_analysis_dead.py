"""Fixture self-tests of ``DEAD001`` (``tools/analysis/dead.py``) on a
miniature repository written to ``tmp_path``: ``src/repro/exports.py``
defines the names, ``tools/`` and ``examples/`` read some, and ``tests/``
reads one that nothing else does."""

from __future__ import annotations

import json

import pytest

from tools.analysis import DeadExportChecker, run_checkers
from tools.analysis.__main__ import DEFAULT_BASELINE

EXPORTS = '''
import functools
__all__ = ["imported_only"]
def called_by_a_tool(): return called_within_src()
def called_within_src(): return 1
class ReadAsAnAttribute: pass
def _private_helper(): return 2
@functools.lru_cache(maxsize=None)
def decorated(): return 3
def reasonless_allow(): return 5  # analyze: allow-dead()
def never_read(): return 6
class NeverInstantiated: pass
def read_only_by_tests(): return 7
def imported_only(): return 8
def kept_on_purpose(): return 4  # analyze: allow-dead(a reasoned keep)
'''
TREE = {
    "src/repro/exports.py": EXPORTS,
    "tools/use.py": "from repro.exports import called_by_a_tool, imported_only\ncalled_by_a_tool()",
    "examples/run.py": "import repro.exports as exports\nexports.ReadAsAnAttribute()",
    "tests/test_exports.py": "from repro.exports import read_only_by_tests\nread_only_by_tests()",
}


@pytest.fixture
def tree(tmp_path):
    for rel, text in TREE.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    return tmp_path


def dead_names(tree, path="src/repro"):
    findings = run_checkers([DeadExportChecker(root=tree)], [tree / path], root=tree)
    assert {f.rule for f in findings} <= {"DEAD001"}
    return sorted(f.message.split()[0] for f in findings)


def test_names_nothing_outside_tests_reads_fire(tree):
    """Imports, ``__all__``, tests and a reasonless allow keep nothing alive;
    reads in src/, tools/ and examples/, a decorator, a leading underscore
    and a reasoned allow do."""
    assert dead_names(tree) == [
        "NeverInstantiated", "imported_only", "never_read",
        "read_only_by_tests", "reasonless_allow",
    ]


def test_skipped_without_src_repro_modules(tree):
    assert dead_names(tree, path="tools") == []


def test_the_baseline_holds_only_the_deliberate_keeps():
    entries = json.loads(DEFAULT_BASELINE.read_text())["findings"]
    assert {e["rule"] for e in entries} == {"DEAD001"}
    assert sorted(e["message"].split()[0] for e in entries) == [
        "aircomp_aggregate_reference", "expand_grid", "faulty_group_completion_time",
        "ideal_group_average", "ideal_group_average_reference",
        "lemma1_bound_sequence", "theorem1_bound",
    ]
