"""Dead-export checker: every public name in ``src/repro`` is read.

The simulator exists to run the paper's experiments, so a public function
or class that no run, figure, benchmark, tool or example refers to is
code only the tests reach: a second copy of something the running code
computes, or an API nothing drives.

Rule
----
``DEAD001``  an undecorated module-level public function or class under
             ``src/repro``, or a public method or property of one of its
             module-level classes, that no ``ast.Name`` / ``ast.Attribute``
             in ``src/``, ``benchmarks/``, ``tools/`` or ``examples/``
             names.  Imports, strings and ``__all__`` entries are not
             references, and nothing under ``tests/`` is.  Decorated
             functions and classes (registry entries) are reached through
             their decorator; a member counts as read wherever any
             attribute of its spelling is, so the member check
             under-reports (``WorkerStateTable.field`` shares its name
             with ``dataclasses.field``).

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

#: The decorators a checked member may carry: the ways of defining one.
_MEMBER_DECORATORS = {"property", "classmethod", "staticmethod"}


def _public_members(cls: ast.ClassDef) -> Iterable[ast.AST]:
    """The public methods and properties ``cls`` defines in its body."""
    for node in cls.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and all(getattr(d, "id", None) in _MEMBER_DECORATORS for d in node.decorator_list)
        ):
            yield node


class DeadExportChecker(Checker):
    """DEAD001: public module-level names of ``src/repro`` something reads."""

    name = "dead-export"
    rules = {
        "DEAD001": "public module-level function/class, or public method/property of one "
        "of its classes, that no code outside tests refers to",
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
                if not isinstance(node, _DEFINITIONS) or node.name.startswith("_"):
                    continue
                candidates = [] if node.decorator_list else [(node.name, node)]
                if isinstance(node, ast.ClassDef):
                    candidates += [(f"{node.name}.{m.name}", m) for m in _public_members(node)]
                for label, definition in candidates:
                    if definition.name not in referenced and not module.allows(
                        self.allow_tag, definition
                    ):
                        findings.append(
                            module.finding(
                                "DEAD001",
                                definition,
                                f"{label} is referred to nowhere in "
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
