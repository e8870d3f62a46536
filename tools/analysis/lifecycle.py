"""Resource-lifecycle checker: shared-memory segments close cleanly.

The multiprocess executor moves model state through a
``multiprocessing.shared_memory`` arena.  Leaked segments survive the
process (``/dev/shm`` fills up across a sweep).

Rules (module-granular heuristics — the structural property is "every
create has a matching release *somewhere on every path*", which the
fixtures pin down and code review enforces in detail):

``LIFE001``
    A module creates ``SharedMemory(create=True)`` but never calls both
    ``.close()`` and ``.unlink()``.
``LIFE002``
    A module attaches to an existing segment (``SharedMemory(name=...)``)
    but never calls ``.close()``.

Escape hatch: ``# analyze: allow-lifecycle(reason)``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from .core import Checker, Finding, Module
from .walk import CallSite, iter_calls

__all__ = ["ResourceLifecycleChecker"]


def _is_shared_memory_call(site: CallSite) -> bool:
    name = site.func_name
    return name is not None and name.split(".")[-1] == "SharedMemory"


def _creates(site: CallSite) -> bool:
    for keyword in site.node.keywords:
        if keyword.arg == "create":
            value = keyword.value
            return not (
                isinstance(value, ast.Constant) and value.value is False
            )
    return False


class ResourceLifecycleChecker(Checker):
    """LIFE001-LIFE002: arena create/close/unlink."""

    name = "resource-lifecycle"
    rules = {
        "LIFE001": "SharedMemory(create=True) without close()+unlink() in module",
        "LIFE002": "SharedMemory attach without close() in module",
    }
    allow_tag = "lifecycle"

    def check_module(self, module: Module) -> Iterable[Finding]:
        findings: List[Finding] = []
        creates: List[CallSite] = []
        attaches: List[CallSite] = []
        released: Set[str] = set()
        for site in iter_calls(module.tree):
            if _is_shared_memory_call(site):
                (creates if _creates(site) else attaches).append(site)
            name = site.func_name
            if name is not None and name.split(".")[-1] in (
                "close",
                "unlink",
            ):
                released.add(name.split(".")[-1])

        for site in creates:
            missing = sorted({"close", "unlink"} - released)
            if missing and not module.allows(self.allow_tag, site.node, site.stmt):
                findings.append(
                    module.finding(
                        "LIFE001",
                        site.node,
                        "SharedMemory(create=True) here but the module never "
                        f"calls {' / '.join('.' + m + '()' for m in missing)}",
                        "release the segment on every path (try/finally or a "
                        "close() method covering error paths)",
                    )
                )
        if "close" not in released:
            for site in attaches:
                if not module.allows(self.allow_tag, site.node, site.stmt):
                    findings.append(
                        module.finding(
                            "LIFE002",
                            site.node,
                            "SharedMemory attach here but the module never "
                            "calls .close()",
                            "close attached segments when the view is dropped",
                        )
                    )

        return findings
