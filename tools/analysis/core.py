"""Core of the repo-specific static-analysis suite (``python -m tools.analysis``).

The suite enforces *structural* invariants that the runtime tests can only
sample: determinism (all randomness flows through keyed ``SeedSequence``
streams), O(1) per-round allocation on the declared hot paths, registry
consistency.  Each checker
walks the AST of one module (or inspects the imported project once) and
emits :class:`Finding` objects — ``file:line``, a stable rule id, a
message and a fix hint.

Escape hatches
--------------
A finding is suppressed by an ``# analyze: allow-<tag>(reason)`` comment
with a non-empty reason, placed on the flagged line, on the first line of
the enclosing statement, or on the line directly above it::

    stacked = np.asarray(vectors).copy()  # analyze: allow-alloc(copy must not mutate the arena)

Each checker documents its tag (``allow-rng``, ``allow-alloc``,
``allow-registry``, ``allow-dead``).  A reasonless ``allow-...()``
does not suppress anything.

Baseline
--------
Findings may be grandfathered in a committed baseline
(``tools/analysis/baseline.json``).  The baseline can only shrink: a
finding not in the baseline fails the run, and a baseline entry that no
longer fires fails the run too (remove it).  ``--update-baseline``
rewrites the file from the current findings.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "REPO_ROOT",
    "Finding",
    "Module",
    "Project",
    "Checker",
    "Baseline",
    "iter_modules",
    "run_checkers",
]

REPO_ROOT = Path(__file__).resolve().parents[2]

#: ``# analyze: allow-<tag>(reason)`` — the reason must be non-empty.
_ALLOW_RE = re.compile(r"#\s*analyze:\s*allow-([a-z]+)\(([^)]+)\)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str          # repo-relative posix path
    line: int
    message: str
    hint: str = ""

    @property
    def fingerprint(self) -> str:
        """Line-number-free identity used for baseline matching."""
        return f"{self.rule}::{self.path}::{self.message}"

    def format(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} {self.message}"
        if self.hint:
            text += f"  [fix: {self.hint}]"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
        }


class Module:
    """One parsed source file, with escape-hatch comment lookup."""

    def __init__(self, path: Path, root: Path = REPO_ROOT) -> None:
        self.path = Path(path)
        self.root = Path(root)
        self.rel = self.path.resolve().relative_to(self.root.resolve()).as_posix()
        self.source = self.path.read_text(encoding="utf-8")
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(self.path))
        # line number -> {tag: reason} for every allow comment in the file.
        self._allows: Dict[int, Dict[str, str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            for match in _ALLOW_RE.finditer(line):
                tag, reason = match.group(1), match.group(2).strip()
                if reason:
                    self._allows.setdefault(lineno, {})[tag] = reason

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def allow_reason(self, tag: str, *linenos: int) -> Optional[str]:
        """The escape-hatch reason covering any of ``linenos``, or ``None``."""
        for lineno in linenos:
            reason = self._allows.get(lineno, {}).get(tag)
            if reason is not None:
                return reason
        return None

    def allows(self, tag: str, node: ast.AST, stmt: Optional[ast.stmt] = None) -> bool:
        """Whether an ``allow-<tag>(reason)`` comment covers ``node``.

        Checked locations: the node's own line, the first line of the
        enclosing statement (when given), and the line directly above it.
        """
        linenos = [getattr(node, "lineno", 0)]
        if stmt is not None:
            linenos.extend([stmt.lineno, stmt.lineno - 1])
        else:
            linenos.append(getattr(node, "lineno", 1) - 1)
        return self.allow_reason(tag, *linenos) is not None

    def finding(
        self, rule: str, node: ast.AST, message: str, hint: str = ""
    ) -> Finding:
        return Finding(
            rule=rule,
            path=self.rel,
            line=getattr(node, "lineno", 1),
            message=message,
            hint=hint,
        )


@dataclass
class Project:
    """The whole analyzed tree, passed once to project-level checkers."""

    root: Path
    modules: List[Module] = field(default_factory=list)

    def module(self, rel: str) -> Optional[Module]:
        for mod in self.modules:
            if mod.rel == rel:
                return mod
        return None


class Checker:
    """Base class: override :meth:`check_module` and/or :meth:`check_project`.

    ``name`` labels the checker in reports; ``rules`` maps each emitted
    rule id to a one-line description (surfaced by ``--list-rules`` and
    the docs).
    """

    name: str = "checker"
    rules: Dict[str, str] = {}

    def check_module(self, module: Module) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()


def iter_modules(
    paths: Sequence[Path], root: Path = REPO_ROOT
) -> List[Module]:
    """Parse every ``*.py`` file under ``paths`` (files or directories)."""
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    modules = []
    for file in files:
        modules.append(Module(file, root=root))
    return modules


def run_checkers(
    checkers: Sequence[Checker],
    paths: Sequence[Path],
    root: Path = REPO_ROOT,
) -> List[Finding]:
    """Run every checker over every module, then the project-level passes."""
    project = Project(root=Path(root), modules=iter_modules(paths, root=root))
    findings: List[Finding] = []
    for checker in checkers:
        for module in project.modules:
            findings.extend(checker.check_module(module))
        findings.extend(checker.check_project(project))
    # Two identical calls on one line yield one finding (and baseline
    # fingerprints stay unique).
    findings = sorted(set(findings), key=lambda f: (f.path, f.line, f.rule))
    return findings


# ----------------------------------------------------------------------
# Baseline: committed grandfathered findings; may only shrink.
# ----------------------------------------------------------------------
class Baseline:
    """The committed set of grandfathered finding fingerprints."""

    VERSION = 1

    def __init__(self, entries: Optional[List[Dict[str, object]]] = None) -> None:
        self.entries = list(entries or [])

    @property
    def fingerprints(self) -> List[str]:
        return [
            f"{e['rule']}::{e['path']}::{e['message']}" for e in self.entries
        ]

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not Path(path).exists():
            return cls()
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(document, dict) or document.get("version") != cls.VERSION:
            raise ValueError(
                f"{path}: unsupported baseline format (expected version {cls.VERSION})"
            )
        entries = document.get("findings", [])
        if not isinstance(entries, list):
            raise ValueError(f"{path}: 'findings' must be a list")
        return cls(entries)

    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        return cls([f.to_dict() for f in findings])

    def save(self, path: Path) -> None:
        document = {"version": self.VERSION, "findings": self.entries}
        Path(path).write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf-8"
        )

    def compare(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], List[str]]:
        """``(new_findings, stale_fingerprints)`` vs the current run.

        ``new_findings`` are violations not grandfathered here (they fail
        the run); ``stale_fingerprints`` are baseline entries that no
        longer fire (the baseline must shrink — remove them).
        """
        known = set(self.fingerprints)
        current = {f.fingerprint for f in findings}
        new = [f for f in findings if f.fingerprint not in known]
        stale = sorted(known - current)
        return new, stale
