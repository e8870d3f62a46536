"""The aggregation oracles have no caller in production code.

``aircomp_aggregate_reference`` / ``ideal_group_average_reference`` are the
per-member loops the vectorised aggregators are tested (and, in airbench,
timed) against.  A production module that names one of them is a second
route through Eq. 6–10, so this walks the AST of every ``src/repro`` module
and fails on either name anywhere but where they are defined and exported.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
ORACLES = {"aircomp_aggregate_reference", "ideal_group_average_reference"}
ORACLE_HOMES = {SRC / "channel" / "aircomp.py", SRC / "channel" / "__init__.py"}


def oracle_mentions(path: Path):
    """``(line, name)`` of every identifier in ``path`` that is an oracle."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names = ()
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, ast.alias):
            names = (node.name.rsplit(".", 1)[-1], node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # getattr(module, "name") and __all__ entries.
            names = (node.value,)
        for name in names:
            if name in ORACLES:
                yield node.lineno, name


def test_the_oracles_are_still_defined_and_exported():
    for home in ORACLE_HOMES:
        assert {name for _, name in oracle_mentions(home)} == ORACLES


def test_no_production_module_names_an_oracle():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path not in ORACLE_HOMES
        for line, name in oracle_mentions(path)
    ]
    assert offenders == []
