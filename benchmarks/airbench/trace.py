"""Span recorder for the traced pass: wrappers go on from outside, spans stay in memory.

The benchmark times layers of ``src/repro`` without editing them: a
:class:`Tracer` replaces a public callable (a method on a class, a function
name in a module) by a wrapper that records one span per call — name, start,
end, the span that caused it — and puts the original back afterwards.
Nothing here touches an RNG, so a traced run reproduces the untraced history
bit for bit (the benchmark checks that on every traced pass).

Self time of a span is its duration minus the part its direct children
cover; summed per name that also handles recursion (the tile calls of
``BatchedWorkerEngine.run_group`` are children with the parent's name).
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = ["Tracer", "aggregate", "roots", "NAME", "START", "END", "PARENT", "TAG"]

#: A span name, or a function of the call's ``(args, kwargs)`` that picks one
#: (``None`` = do not record this call).
SpanName = Union[str, Callable[[tuple, dict], Optional[str]]]
#: Reads one small value off a finished call — ``(args, kwargs, result)`` —
#: stored as the span's tag (group identity, solver iterations, ...).
Probe = Callable[[tuple, dict, Any], Any]

# Span record layout (a list, cheaper than an object on 10^5 calls).
NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    """Records spans and owns the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, tag: Any = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, tag])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack.pop()

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(
        self, owner: Any, attr: str, name: SpanName, probe: Optional[Probe] = None
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``owner`` is a class or a module and ``attr`` must be defined on it
        directly (not inherited), so that :meth:`remove` restores exactly
        what was there — ``classmethod``/``staticmethod`` objects included.
        """
        raw = vars(owner)[attr]
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if binder is not None else raw
        begin, end, spans = self.begin, self.end, self.spans

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_name = name if isinstance(name, str) else name(args, kwargs)
            if span_name is None:
                return func(*args, **kwargs)
            index = begin(span_name)
            try:
                result = func(*args, **kwargs)
            finally:
                end(index)
            if probe is not None:
                spans[index][TAG] = probe(args, kwargs, result)
            return result

        setattr(owner, attr, binder(wrapper) if binder is not None else wrapper)
        self._installed.append((owner, attr, raw))

    def remove(self) -> None:
        """Put every wrapped callable back (idempotent)."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write_jsonl(self, path: Path, workload: str) -> None:
        """One JSON line per span; the root's tag names the mechanism."""
        root_of = roots(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start_ns": span[START],
                            "end_ns": span[END],
                            "parent": span[PARENT],
                            "workload": workload,
                            "mechanism": self.spans[root_of[index]][TAG],
                        }
                    )
                    + "\n"
                )


def roots(spans: List[list]) -> List[int]:
    """Index of each span's top-level ancestor (parents precede children)."""
    root_of: List[int] = []
    for index, span in enumerate(spans):
        parent = span[PARENT]
        root_of.append(index if parent < 0 else root_of[parent])
    return root_of


def aggregate(spans: List[list], root_name: Optional[str] = None) -> Dict[str, Dict[str, float]]:
    """Per-name ``self_ns`` / ``total_ns`` / ``calls``.

    With ``root_name`` only spans under a root of that name count (the
    benchmark's ``bench.run`` region, say).  ``total_ns`` leaves out spans
    nested in a span of their own name, so recursion is not counted twice.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    root_of = roots(spans)
    out: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        if root_name is not None and spans[root_of[index]][NAME] != root_name:
            continue
        row = out.setdefault(span[NAME], {"self_ns": 0, "total_ns": 0, "calls": 0})
        duration = span[END] - span[START]
        row["self_ns"] += duration - child_ns[index]
        parent = span[PARENT]
        if parent < 0 or spans[parent][NAME] != span[NAME]:
            row["total_ns"] += duration
            row["calls"] += 1
    return out
