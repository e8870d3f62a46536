"""The seed ladder (``seed``, ``seed+1`` … ``seed+4``) is written down once.

``Scenario.build_experiment`` derives every component seed from the
scenario's ``seed``.  A second copy of that arithmetic is how two build
paths drift apart, so this walks the AST of every ``src/repro`` module
(docstrings and comments are not code, so prose may still explain the
ladder) and fails on ``seed + <int>`` / ``<x>.seed + <int>`` anywhere but
``experiments/scenario.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
LADDER_HOME = SRC / "experiments" / "scenario.py"


def _is_seed(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "seed") or (
        isinstance(node, ast.Attribute) and node.attr == "seed"
    )


def _is_int_literal(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    )


def seed_arithmetic(path: Path):
    """``(line, source)`` of every ``seed + <int>`` expression in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
            continue
        for seed, offset in ((node.left, node.right), (node.right, node.left)):
            if _is_seed(seed) and _is_int_literal(offset):
                yield node.lineno, ast.unparse(node)


def test_the_ladder_lives_in_scenario_build_experiment():
    rungs = sorted(source for _, source in seed_arithmetic(LADDER_HOME))
    assert rungs == [f"self.seed + {k}" for k in (1, 2, 3, 4)]


def test_no_second_seed_ladder_in_src():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {source}"
        for path in sorted(SRC.rglob("*.py"))
        if path != LADDER_HOME
        for line, source in seed_arithmetic(path)
    ]
    assert offenders == []
