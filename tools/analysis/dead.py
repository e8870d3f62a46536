"""Dead-export checker: every public top-level name in ``src/repro`` is read.

The simulator exists to run the paper's experiments, so a public function
or class that no run, figure, benchmark, tool or example refers to is
code only the tests reach: a second copy of something the running code
computes, or an API nothing drives.

Rule
----
``DEAD001``  an undecorated module-level public function or class under
             ``src/repro`` that no ``ast.Name`` / ``ast.Attribute`` in
             ``src/``, ``benchmarks/``, ``tools/`` or ``examples/`` names.
             Imports and ``__all__`` strings are not references, and
             nothing under ``tests/`` is.  Decorated definitions (registry
             entries) are reached through their decorator.

Escape hatch: ``# analyze: allow-dead(reason)`` on the ``def`` / ``class``
line.  The deliberate keeps are grandfathered in the baseline instead, so
each one is named in one place (docs/ARCHITECTURE.md "Checked
invariants" says why).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Set

from .core import REPO_ROOT, Checker, Finding, Project, iter_modules

__all__ = ["DeadExportChecker"]

#: The trees whose references keep a name alive.
REFERENCE_DIRS = ("src", "benchmarks", "tools", "examples")

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class DeadExportChecker(Checker):
    """DEAD001: public module-level names of ``src/repro`` something reads."""

    name = "dead-export"
    rules = {
        "DEAD001": "public module-level function/class that no code outside tests refers to",
    }
    allow_tag = "dead"

    def __init__(self, root: Path = REPO_ROOT) -> None:
        self.root = Path(root)

    def check_project(self, project: Project) -> Iterable[Finding]:
        scoped = [m for m in project.modules if m.rel.startswith("src/repro")]
        if not scoped:
            return []
        referenced = self._references()
        findings: List[Finding] = []
        for module in scoped:
            for node in module.tree.body:
                if (
                    isinstance(node, _DEFINITIONS)
                    and not node.name.startswith("_")
                    and not node.decorator_list
                    and node.name not in referenced
                    and not module.allows(self.allow_tag, node)
                ):
                    findings.append(
                        module.finding(
                            "DEAD001",
                            node,
                            f"{node.name} is referred to nowhere in "
                            f"{', '.join(d + '/' for d in REFERENCE_DIRS)}",
                            hint="delete it (a test-only helper belongs in tests/)",
                        )
                    )
        return findings

    def _references(self) -> Set[str]:
        """Every identifier read as a name or an attribute in the trees."""
        trees = [self.root / d for d in REFERENCE_DIRS if (self.root / d).is_dir()]
        names: Set[str] = set()
        for module in iter_modules(trees, root=self.root):
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
        return names
