"""repro-analyze: invariant-enforcing static analysis for this repository.

Run as ``python -m tools.analysis`` (or ``make analyze``).  See
:mod:`tools.analysis.core` for the framework, the sibling modules for the
checkers, and the "Checked invariants" section of ``docs/ARCHITECTURE.md``
for the enforced rules.
"""

from .alloc import HOT_PATHS, HotPathAllocationChecker
from .core import Baseline, Checker, Finding, Module, Project, run_checkers
from .dead import DeadExportChecker
from .registry_rules import RegistryConsistencyChecker
from .rng import RngDisciplineChecker

__all__ = [
    "Baseline",
    "Checker",
    "Finding",
    "Module",
    "Project",
    "run_checkers",
    "DeadExportChecker",
    "HOT_PATHS",
    "HotPathAllocationChecker",
    "RegistryConsistencyChecker",
    "RngDisciplineChecker",
    "default_checkers",
]


def default_checkers() -> list:
    """The checker set run by ``python -m tools.analysis``."""
    return [
        RngDisciplineChecker(),
        HotPathAllocationChecker(),
        RegistryConsistencyChecker(),
        DeadExportChecker(),
    ]
