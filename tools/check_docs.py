#!/usr/bin/env python
"""Documentation checker: link integrity + executable examples + API coverage.

Mirrored by ``make docs-check`` and the CI ``docs`` job.  Five passes:

1. **link check** (``README.md`` + ``docs/*.md``) — every relative
   markdown link must point at an existing file (anchors are validated
   against the target's headings, GitHub-style slugs); external
   ``http(s)``/``mailto`` links are only syntax-checked, never fetched,
   so the job works offline.  Every backticked repo path (``src/…``,
   ``tests/…``, ``tools/…``, ``benchmarks/…``, ``docs/…``, ``examples/…``;
   globs allowed, a ``::test`` or ``:line`` suffix ignored) must exist and
   every ``make <target>`` must be a Makefile target, so a renamed file or
   a retired test fails here instead of going stale, and every backticked
   ``repro.…`` dotted name must resolve (longest importable module prefix,
   then attribute lookups), so a renamed class or method fails too;
2. **doctest** — every file containing ``>>>`` examples is run through
   :mod:`doctest` (``python -m doctest`` semantics), so the fenced
   examples in ``docs/API.md`` and ``docs/TUTORIAL.md`` are executed
   against the live library and cannot drift from the code;
3. **docstring doctest** — every ``src/repro`` module whose source
   contains ``>>>`` is imported and run through :func:`doctest.testmod`,
   so a docstring example cannot go stale unnoticed either;
4. **API coverage** — every symbol exported (``__all__``) from the public
   packages listed in :data:`API_COVERAGE_MODULES` must be mentioned in
   ``docs/API.md``, so a PR that adds an entry point without documenting
   it fails CI;
5. **markdown pointers** — every document a source file under
   :data:`POINTER_ROOTS` cites by name (an upper-case stem plus ``.md``,
   the convention of every document here; ``report.md`` is an output file)
   must exist relative to the repo root, ``docs/`` or the citing file's
   directory, so a comment cannot send the reader to a document that is
   gone.

Exit status is non-zero on any failure; run from the repo root with
``PYTHONPATH=src`` (the Makefile exports it; a fallback below inserts
``src/`` when invoked directly).
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

# Allow `python tools/check_docs.py` without an exported PYTHONPATH.
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

#: Public packages whose ``__all__`` exports must all appear in
#: ``docs/API.md`` (the curated index of entry points).
API_COVERAGE_MODULES = (
    "repro.fl",
    "repro.core",
    "repro.core.population",
    "repro.registry",
    "repro.experiments.scenario",
    "repro.experiments.sweep",
    "repro.experiments.runcache",
    "repro.experiments.report",
    "repro.sim",
    "repro.sim.clientstate",
    "repro.fl.staleness",
)

#: Directories whose ``*.py`` files may cite markdown documents by name.
POINTER_ROOTS = ("src", "benchmarks", "tools")

#: ``[text](target)`` — excludes images' leading ``!`` only in reporting;
#: image targets are checked like any other link.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_EXTERNAL = ("http://", "https://", "mailto:")
#: An inline code span (fenced blocks never match: their backticks are adjacent).
_CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
_REPO_PATH_RE = re.compile(r"^(?:src|tests|tools|benchmarks|docs|examples)/[^\s:]*")
_DOTTED_RE = re.compile(r"^repro(?:\.\w+)+")
_FENCED_RE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
_MAKE_RE = re.compile(r"^\s*(?:\$\s*)?make ([A-Za-z][\w-]*)", re.MULTILINE)
_TARGET_RE = re.compile(r"^([A-Za-z][\w-]*):", re.MULTILINE)
_MD_NAME_RE = re.compile(r"(?<![\w./-])(?:[\w.-]+/)*[A-Z][A-Z0-9_]*\.md\b")


def doc_files() -> List[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, spaces to hyphens, drop punctuation."""
    heading = re.sub(r"`([^`]*)`", r"\1", heading).strip().lower()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def heading_slugs(path: Path) -> List[str]:
    text = path.read_text(encoding="utf-8")
    return [github_slug(m.group(1)) for m in _HEADING_RE.finditer(text)]


def check_links(path: Path) -> List[str]:
    errors: List[str] = []
    text = path.read_text(encoding="utf-8")
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("<"):
            continue
        name, _, anchor = target.partition("#")
        if name:
            resolved = (path.parent / name).resolve()
            if not resolved.exists():
                errors.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
                continue
            anchor_file = resolved
        else:
            anchor_file = path
        if anchor and anchor_file.suffix == ".md":
            if anchor not in heading_slugs(anchor_file):
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}: missing anchor -> {target}"
                )
    return errors


def resolves(dotted: str) -> bool:
    """Whether ``repro.a.b.C.d`` names something: import the longest module
    prefix, then look the rest up as attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not hasattr(found, name):
                return False
            found = getattr(found, name)
        return True
    return False


def check_references(path: Path) -> List[str]:
    """Backticked repo paths and ``repro.…`` names must exist, and ``make``
    targets must be defined.

    Paths and names are read from inline code spans; ``make`` commands from
    those and from the lines of fenced blocks.
    """
    errors: List[str] = []
    makefile = REPO_ROOT / "Makefile"
    targets = set(_TARGET_RE.findall(makefile.read_text())) if makefile.exists() else set()
    rel = path.relative_to(REPO_ROOT)
    text = path.read_text(encoding="utf-8")
    spans = _CODE_SPAN_RE.findall(text)
    for span in spans:
        ref = _REPO_PATH_RE.match(span)
        if ref and not any(REPO_ROOT.glob(ref.group(0).rstrip("/"))):
            errors.append(f"{rel}: stale path -> {ref.group(0)}")
        name = _DOTTED_RE.match(span)
        if name and not resolves(name.group(0)):
            errors.append(f"{rel}: stale name -> {name.group(0)}")
    commands = "\n".join(spans + _FENCED_RE.findall(text))
    for target in _MAKE_RE.findall(commands):
        if target not in targets:
            errors.append(f"{rel}: unknown make target -> make {target}")
    return errors


def check_md_pointers() -> List[str]:
    """Markdown files named in source files must exist (see pass 5)."""
    errors: List[str] = []
    for root in POINTER_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            rel = path.relative_to(REPO_ROOT)
            for name in sorted(set(_MD_NAME_RE.findall(path.read_text(encoding="utf-8")))):
                bases = (REPO_ROOT, REPO_ROOT / "docs", path.parent)
                if not any((base / name).is_file() for base in bases):
                    errors.append(f"{rel}: missing document -> {name}")
    return errors


def run_doctests(path: Path) -> Tuple[int, int]:
    """Run the file's ``>>>`` examples; returns (failures, attempts)."""
    if ">>>" not in path.read_text(encoding="utf-8"):
        return 0, 0
    result = doctest.testfile(str(path), module_relative=False, verbose=False)
    return result.failed, result.attempted


def run_module_doctests() -> List[Tuple[str, int, int]]:
    """``doctest.testmod`` every ``src/repro`` module that has ``>>>`` examples.

    Returns ``(module name, failures, attempts)`` per such module.
    """
    src = REPO_ROOT / "src"
    results: List[Tuple[str, int, int]] = []
    for path in sorted((src / "repro").rglob("*.py")):
        if ">>>" not in path.read_text(encoding="utf-8"):
            continue
        parts = path.relative_to(src).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        result = doctest.testmod(importlib.import_module(name), verbose=False)
        results.append((name, result.failed, result.attempted))
    return results


def check_api_coverage(api_doc: Path) -> List[str]:
    """Every ``__all__`` export of the public packages must be documented.

    A symbol "appears" when it occurs in ``docs/API.md`` as a standalone
    word (not as a substring of a longer identifier), anywhere — prose,
    table cell or fenced example.
    """
    errors: List[str] = []
    if not api_doc.exists():
        return [f"{api_doc.relative_to(REPO_ROOT)}: file missing"]
    text = api_doc.read_text(encoding="utf-8")
    for module_name in API_COVERAGE_MODULES:
        try:
            module = importlib.import_module(module_name)
        except Exception as exc:  # pragma: no cover - import environment issue
            errors.append(f"cannot import {module_name}: {exc}")
            continue
        exported = getattr(module, "__all__", None)
        if not exported:
            errors.append(f"{module_name} defines no __all__ to check")
            continue
        for name in exported:
            if not re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", text):
                errors.append(
                    f"{api_doc.relative_to(REPO_ROOT)}: {module_name}.{name} "
                    "is exported but undocumented"
                )
    return errors


def main() -> int:
    failures = 0
    for path in doc_files():
        rel = path.relative_to(REPO_ROOT)
        errors = check_links(path) + check_references(path)
        for err in errors:
            print(f"LINK FAIL  {err}")
        failures += len(errors)
        failed, attempted = run_doctests(path)
        failures += failed
        status = "ok" if not (errors or failed) else "FAIL"
        print(
            f"{status:4s} {rel}  (links checked, {attempted} doctest "
            f"example{'s' if attempted != 1 else ''}, {failed} failed)"
        )
    for name, failed, attempted in run_module_doctests():
        failures += failed
        print(
            f"{'FAIL' if failed else 'ok':4s} {name}  ({attempted} docstring "
            f"example{'s' if attempted != 1 else ''}, {failed} failed)"
        )
    pointer_errors = check_md_pointers()
    for err in pointer_errors:
        print(f"LINK FAIL  {err}")
    failures += len(pointer_errors)
    print(
        f"{'ok' if not pointer_errors else 'FAIL':4s} .md pointers "
        f"({', '.join(POINTER_ROOTS)}): {len(pointer_errors)} missing"
    )
    coverage_errors = check_api_coverage(REPO_ROOT / "docs" / "API.md")
    for err in coverage_errors:
        print(f"API  FAIL  {err}")
    failures += len(coverage_errors)
    modules = ", ".join(API_COVERAGE_MODULES)
    print(
        f"{'ok' if not coverage_errors else 'FAIL':4s} API coverage "
        f"({modules}): {len(coverage_errors)} missing"
    )
    if failures:
        print(f"\ndocs check failed: {failures} problem(s)")
        return 1
    print("\ndocs check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
