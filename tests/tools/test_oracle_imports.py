"""The aggregation oracles have no caller in production code.

``aircomp_aggregate_reference`` is the per-member loop the vectorised
aggregator is tested (and, in airbench, timed) against; it is the one
oracle left in ``src/``, because airbench looks it up there.  A production
module that names it is a second route through Eq. 6–10, so this walks the
AST of every ``src/repro`` module and fails on the name anywhere but where
it is defined and exported.  The Eq. 15 oracles (``ideal_group_average*``)
live in ``tests/oracle/aggregation.py`` and nowhere in ``src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
ORACLES = {"aircomp_aggregate_reference"}
ORACLE_HOMES = {SRC / "channel" / "aircomp.py", SRC / "channel" / "__init__.py"}


def identifiers(path: Path):
    """``(line, name)`` of every identifier in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names = ()
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, ast.alias):
            names = (node.name.rsplit(".", 1)[-1], node.asname)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = (node.name,)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # getattr(module, "name") and __all__ entries.
            names = (node.value,)
        for name in names:
            if name:
                yield node.lineno, name


def oracle_mentions(path: Path):
    """``(line, name)`` of every identifier in ``path`` that is an oracle."""
    return [(line, name) for line, name in identifiers(path) if name in ORACLES]


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


def test_the_eq15_oracles_are_not_in_src():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in identifiers(path)
        if name.startswith("ideal_group_average")
    ]
    assert offenders == []
