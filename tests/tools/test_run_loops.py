"""A mechanism is a schedule and an uplink, each written once.

Under ``src/repro/fl`` there are three ``run`` loops — the barrier schedule,
the grouped event loop and FedAsync's per-update heap — and two
``(aggregate, upload_time)`` pairs, the OMA and the AirComp uplink.  A fourth
loop or a third pair is how the copies drifted apart before (two of five
barrier loops ignored the fault model), so this walks the AST of every
module of the package and fails on a class that defines one outside those
homes.  ``BaseTrainer.run`` is the abstract declaration: it may exist, with
no body beyond ``raise NotImplementedError``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

FL = Path(__file__).resolve().parents[2] / "src" / "repro" / "fl"

SCHEDULES = {"SynchronousTrainer", "GroupedAsyncTrainer", "FedAsyncTrainer"}
UPLINKS = {"OMAUplink", "AirCompUplink"}


def _is_abstract(function: ast.FunctionDef) -> bool:
    """Nothing but an optional docstring and ``raise NotImplementedError``."""
    body = list(function.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return (
        len(body) == 1
        and isinstance(body[0], ast.Raise)
        and ast.unparse(body[0].exc).startswith("NotImplementedError")
    )


def definitions() -> Dict[str, Set[str]]:
    """``method name -> classes defining it``; abstract ones as ``Class[abstract]``."""
    found: Dict[str, Set[str]] = {}
    for path in sorted(FL.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    owner = cls.name + ("[abstract]" if _is_abstract(node) else "")
                    found.setdefault(node.name, set()).add(owner)
    return found


def test_three_run_loops():
    assert definitions()["run"] == SCHEDULES | {"BaseTrainer[abstract]"}


def test_two_uplinks():
    found = definitions()
    assert found["aggregate"] == UPLINKS
    assert found["upload_time"] == UPLINKS


def test_no_per_class_aggregation_wiring():
    assert "aggregate_group" not in definitions()
