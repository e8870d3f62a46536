"""A mechanism is a schedule and an uplink, each written once.

Under ``src/repro/fl`` there is one ``run`` loop, ``BaseTrainer.run``, which
trains, aggregates, commits and records the rows a ``schedule`` generator
yields; two classes define a ``schedule`` — the grouped policy, whose one
group of every worker is the barrier round, and FedAsync's per-update
policy — and two define ``(aggregate, upload_time)``, the OMA and the
AirComp uplink.  A second loop, a third schedule or a third pair is how the
copies drifted apart before (two of five barrier loops ignored the fault
model, and a barrier schedule of its own never lost a worker mid-round), so
this walks the AST of every module of the package and fails on a class that
defines one outside those homes.  Only the two event-driven
policies keep a heap.  Local training and evaluation have one path too, the
batched engine: outside ``repro.nn`` no module trains or evaluates a model
through scalar passes, inside it only the kernels of ``batched.py`` define
``forward`` / ``backward``, and no module imports a losses module (the
scalar stack is the test tree's oracle, ``tests/oracle/scalar.py``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
FL = SRC / "fl"

SCHEDULES = {"GroupedAsyncTrainer", "FedAsyncTrainer"}
UPLINKS = {"OMAUplink", "AirCompUplink"}


def definitions() -> Dict[str, Set[str]]:
    """``method name -> classes defining it``."""
    found: Dict[str, Set[str]] = {}
    for path in sorted(FL.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    found.setdefault(node.name, set()).add(cls.name)
    return found


def importers(module: str) -> Set[str]:
    """Modules of the package that import ``module``."""
    found: Set[str] = set()
    for path in sorted(FL.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            if module in names:
                found.add(path.name)
    return found


def test_one_run_loop():
    assert definitions()["run"] == {"BaseTrainer"}


def test_two_schedules():
    assert definitions()["schedule"] == SCHEDULES


def test_only_the_event_driven_policies_keep_a_heap():
    assert importers("heapq") == {"grouped.py", "fedasync.py"}


def test_two_uplinks():
    found = definitions()
    assert found["aggregate"] == UPLINKS
    assert found["upload_time"] == UPLINKS


def test_no_per_class_aggregation_wiring():
    assert "aggregate_group" not in definitions()


def scalar_training(path: Path):
    """``(line, what)`` of a ``local_update`` definition, a ``loss_and_grad``
    name, or an ``evaluate`` call on a model, in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef) and node.name == "local_update":
            yield node.lineno, "def local_update"
        elif isinstance(node, ast.Attribute) and node.attr == "loss_and_grad":
            yield node.lineno, "loss_and_grad"
        elif isinstance(node, ast.Attribute) and node.attr == "evaluate":
            receiver = node.value
            name = getattr(receiver, "attr", getattr(receiver, "id", ""))
            if name.lower() == "model":
                yield node.lineno, "Model.evaluate"


def scalar_passes(path: Path):
    """``(line, what)`` of a ``forward`` / ``backward`` definition or an import
    of a ``losses`` module in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef) and node.name in ("forward", "backward"):
            yield node.lineno, f"def {node.name}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any(name.rsplit(".", 1)[-1] == "losses" for name in names):
                yield node.lineno, "import losses"


def test_one_training_path():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        for line, what in [
            *(scalar_training(path) if path.parent != SRC / "nn" else ()),
            *(scalar_passes(path)),
        ]
        if path != SRC / "nn" / "batched.py" or what == "import losses"
    ]
    assert offenders == []
