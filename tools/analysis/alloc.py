"""Hot-path allocation checker: O(1) per-round allocation, by construction.

The batched engine's per-round cost model (see ``docs/PERFORMANCE.md``)
assumes the inner kernels and the event-loop bodies never allocate fresh
arrays: buffers are bound once per geometry, aggregation writes into
trainer-owned scratch, group stacks recycle through the population pool.
A stray ``np.zeros`` in a kernel silently turns O(1) per-round allocation
into O(rounds x q) garbage churn — invisible to correctness tests and only
caught by the XL RSS budget long after the fact.

``HOT_PATHS`` declares the audited set: for each file, the dotted scope
qualnames (``Class.method``) whose bodies must not allocate.  ``"*"``
audits every scope in the file.

Rules
-----
``ALLOC001``
    Allocating NumPy call (``np.zeros/empty/ones/full/array/copy/
    concatenate/stack/...``, the ``*_like`` variants) or an ``.copy()``
    method call inside a declared hot path.
``ALLOC002``
    A declared hot path names no function or class in its file — a
    renamed or deleted method would otherwise drop out of the audit
    without a sound.

Escape hatch: ``# analyze: allow-alloc(reason)`` — used for documented
one-time geometry binds, lazy first-touch promotions and fallback paths.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from .core import Checker, Finding, Module
from .walk import CallSite, import_map, iter_calls

__all__ = ["HotPathAllocationChecker", "HOT_PATHS", "ALLOCATING_CALLS"]

#: NumPy-namespace callables that materialize a fresh array.
ALLOCATING_CALLS: Set[str] = {
    "zeros",
    "empty",
    "ones",
    "full",
    "array",
    "copy",
    "concatenate",
    "stack",
    "vstack",
    "hstack",
    "dstack",
    "column_stack",
    "tile",
    "repeat",
    "empty_like",
    "zeros_like",
    "ones_like",
    "full_like",
    "arange",
    "linspace",
    "eye",
    "identity",
    "fromiter",
    "frombuffer",
}

#: The declared hot-path set: repo-relative file -> scope qualnames whose
#: bodies must stay allocation-free.  Kept in lockstep with the per-round
#: cost model documented in docs/PERFORMANCE.md and the "Checked
#: invariants" section of docs/ARCHITECTURE.md.
HOT_PATHS: Dict[str, Set[str]] = {
    # Batched per-step kernels: buffers come from _slab(), sized by
    # capacity and sliced, the steady-state forward/backward/step bodies
    # write in place; so does every lane's step loop, whatever thread runs it,
    # and the forward-only pass evaluating a block of snapshots.
    "src/repro/nn/batched.py": {
        "_Lane.train",
        "_ParamKernel.sgd_step",
        "_ParamKernel.scale_params",
        "_ParamKernel.add_offset",
        "_BatchedDense.forward",
        "_BatchedDense.backward",
        "_BatchedReLU.forward",
        "_BatchedReLU.backward",
        "_BatchedFlatten.forward",
        "_BatchedFlatten.backward",
        "_BatchedConv2D.forward",
        "_BatchedConv2D.backward",
        "_BatchedMaxPool2D.forward",
        "_BatchedMaxPool2D.backward",
        "_BatchedDropout.forward",
        "_BatchedDropout.backward",
        "BatchedWorkerEngine.evaluate",
    },
    # The schedules: pure timing generators, one commit row per global
    # update; their roster and dispatch stages.
    "src/repro/fl/synchronous.py": {"SynchronousTrainer.schedule"},
    "src/repro/fl/grouped.py": {
        "GroupedAsyncTrainer.schedule",
        "GroupedAsyncTrainer._dispatch_group",
        "GroupedAsyncTrainer._surviving_roster",
        "GroupedAsyncTrainer.group_compute_time",
    },
    "src/repro/fl/fedasync.py": {
        "FedAsyncTrainer.schedule",
        "FedAsyncTrainer.commit_update",
    },
    # The aggregation path: the two uplinks, alpha @ A into trainer-owned
    # buffers; and the per-round evaluation, which at eval_every=1 runs as
    # often.
    "src/repro/fl/uplink.py": {
        "OMAUplink.aggregate",
        "OMAUplink.upload_time",
        "AirCompUplink.aggregate",
        "AirCompUplink.upload_time",
    },
    # ... the aggregation primitives and the evaluation under them, and the
    # one loop applying every schedule's rows: train from a version
    # snapshot (several cohorts per call), blend, aggregate, the staleness
    # mix, commit (stacks from the population pool, snapshots from released
    # buffers).
    "src/repro/fl/base.py": {
        "BaseTrainer.run",
        "BaseTrainer._train_cohorts",
        "BaseTrainer._merge_batch",
        "BaseTrainer.commit_update",
        "BaseTrainer._hold",
        "BaseTrainer._take_base",
        "BaseTrainer.exact_group_update",
        "BaseTrainer.aircomp_group_update",
        "BaseTrainer._commit_global",
        "BaseTrainer._group_stack",
        "BaseTrainer.evaluate_vector",
        "BaseTrainer.record_round",
        "BaseTrainer._flush_evaluations",
    },
    "src/repro/nn/params.py": {"ParameterSet.from_vector"},
    "src/repro/nn/models.py": {"Model.evaluate"},
    # One lookup per aggregation; Algorithm 2 itself runs only on a miss.
    "src/repro/core/power_control.py": {"PowerControlCache.solve"},
    # Server-side protocol transitions and the helpers they call: O(1) per
    # event.
    "src/repro/core/mechanism.py": {
        "GroupAsyncScheduler.receive_ready",
        "GroupAsyncScheduler.receive_group_ready",
        "GroupAsyncScheduler.complete_aggregation",
        "GroupAsyncScheduler.abort_group",
        "GroupAsyncScheduler.group_of",
        "GroupAsyncScheduler._check_complete",
        "GroupAsyncScheduler._reset_ready",
    },
}

_HINT = (
    "write into a pre-bound buffer (out=/np.copyto), recycle through the "
    "pool, or justify with # analyze: allow-alloc(reason)"
)


def _defined_scopes(tree: ast.AST, prefix: str = "") -> Set[str]:
    """Dotted qualnames of every function and class defined in ``tree``."""
    found: Set[str] = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            found.add(qualname)
            found |= _defined_scopes(node, qualname + ".")
        elif isinstance(node, (ast.stmt, ast.excepthandler)):
            # A def under if/try/with keeps its enclosing scope's prefix.
            found |= _defined_scopes(node, prefix)
    return found


class HotPathAllocationChecker(Checker):
    """ALLOC001: no fresh-array calls inside the declared hot paths.
    ALLOC002: every declared hot path exists."""

    name = "hot-path-allocation"
    rules = {
        "ALLOC001": "allocating NumPy call inside a declared hot path",
        "ALLOC002": "declared hot path names no scope in its file",
    }
    allow_tag = "alloc"

    def __init__(self, hot_paths: Optional[Dict[str, Set[str]]] = None) -> None:
        self.hot_paths = HOT_PATHS if hot_paths is None else hot_paths

    def check_module(self, module: Module) -> Iterable[Finding]:
        scopes = self.hot_paths.get(module.rel)
        if not scopes:
            return []
        imports = import_map(module.tree)
        numpy_aliases = {a for a, o in imports.items() if o == "numpy"}
        findings: List[Finding] = [
            module.finding(
                "ALLOC002",
                module.tree,
                f"declared hot path {scope} names no function or class in "
                "this file, so nothing is audited under it",
                "rename the HOT_PATHS entry along with the scope, or drop it",
            )
            for scope in sorted(scopes - {"*"} - _defined_scopes(module.tree))
        ]
        for site in iter_calls(module.tree):
            if not self._in_hot_scope(site.qualname, scopes):
                continue
            reason = self._allocation(site, numpy_aliases)
            if reason is None:
                continue
            if module.allows(self.allow_tag, site.node, site.stmt):
                continue
            findings.append(
                module.finding(
                    "ALLOC001",
                    site.node,
                    f"{reason} allocates inside hot path {site.qualname}",
                    _HINT,
                )
            )
        return findings

    @staticmethod
    def _in_hot_scope(qualname: str, scopes: Set[str]) -> bool:
        if "*" in scopes:
            return bool(qualname)
        # A nested scope (closure, comprehension helper) inherits the
        # hot-path property of its enclosing function.
        return any(
            qualname == scope or qualname.startswith(scope + ".")
            for scope in scopes
        )

    @staticmethod
    def _allocation(site: CallSite, numpy_aliases: Set[str]) -> Optional[str]:
        name = site.func_name
        if name is not None:
            parts = name.split(".")
            if (
                len(parts) == 2
                and parts[0] in numpy_aliases
                and parts[1] in ALLOCATING_CALLS
            ):
                return f"{name}(...)"
        # ``.copy()`` method call — a fresh array regardless of receiver
        # (covers chained receivers like ``np.asarray(v).copy()``).
        func = site.node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "copy"
            and not (name and name.split(".")[0] in numpy_aliases)
        ):
            return f"{name or '<expr>.copy'}(...)"
        return None
