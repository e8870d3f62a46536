"""Concurrent, resumable scenario-grid sweeps with streamed JSONL results.

A *sweep spec* is a scenario document (:meth:`Scenario.to_dict` shape, or
any subset of it) in which any scalar leaf may instead hold a **list of
values**; every list is a sweep axis and the grid is their cross product::

    {
      "name": "xi-vs-seed",
      "seed": [0, 1, 2],
      "algorithm": {"grouping": {"xi": [0.0, 0.3, 1.0]}},
      ...
    }

expands to 9 scenarios.  :func:`sweep_axes` lists the axes,
:func:`expand_grid` materializes the scenarios and :class:`SweepRunner`
executes them — concurrently on a process pool (scenarios are
independent simulations, so they parallelize perfectly) — streaming one
JSON line per completed run to a results file.

**Durability.**  The JSONL stream is the sweep's only checkpoint:

* every row carries the point's resolved ``spec_hash``
  (:func:`~repro.experiments.runcache.spec_hash` — content address of the
  canonical resolved scenario), success and error rows alike, so later
  launches can tell *which simulation* a row belongs to;
* with ``resume=True`` (CLI ``--resume``) the runner reuses every
  successful row of the existing stream and re-executes **only** missing
  and failed points.  Seeds live in the spec, so re-executed points are
  bit-identical (float64) to an uninterrupted run; after a resumed run
  the JSONL is compacted to exactly one row per grid point, in grid
  order.  A row whose ``index`` lies outside the grid, or whose
  ``spec_hash`` is not that point's, was written for a different grid,
  and the resume is refused.

An optional content-addressed **run cache**
(:class:`~repro.experiments.runcache.RunCache`, ``cache_dir=``) shares
completed summaries *across* sweeps: any point whose resolved spec hash
is already cached is emitted immediately with ``cache_hit: true`` and
``attempts: 0``.

Every row is self-describing for downstream tooling
(:mod:`repro.experiments.report`): see :data:`SWEEP_ROW_KEYS` /
:data:`SWEEP_SUCCESS_ROW_KEYS` / :data:`SWEEP_ERROR_ROW_KEYS` — the
documented, golden-tested JSONL schema.

Exposed on the CLI as ``python -m repro.experiments sweep spec.json``
(``--resume``, ``--cache-dir``, ``--report``).
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..nn.batched import use_one_lane
from .runcache import RunCache, read_jsonl_rows, spec_hash
from .scenario import Scenario

__all__ = [
    "SWEEP_ERROR_ROW_KEYS",
    "SWEEP_ROW_KEYS",
    "SWEEP_SUCCESS_ROW_KEYS",
    "SweepRunner",
    "expand_grid",
    "sweep_axes",
    "sweep_points",
]

#: Keys present on **every** JSONL row (success, error or cache hit).
#: ``attempts`` counts executions consumed *this launch* (0 for a cache
#: hit); ``cache_hit`` is true when the row was served from the run
#: cache.  Golden-tested by ``tests/experiments/test_sweep.py``.
SWEEP_ROW_KEYS = frozenset(
    {"index", "scenario", "spec_hash", "overrides", "cpu_count", "attempts", "cache_hit"}
)

#: Additional keys on successful rows (the documented report-tooling
#: surface: per-run summary and device-fault counters).
SWEEP_SUCCESS_ROW_KEYS = SWEEP_ROW_KEYS | frozenset({"mechanism", "summary", "faults"})

#: Additional keys on rows whose point failed every attempt.  The
#: ``spec_hash`` (inherited from :data:`SWEEP_ROW_KEYS`) is what lets a
#: later ``--resume`` distinguish "failed, retry me" from "never started".
SWEEP_ERROR_ROW_KEYS = SWEEP_ROW_KEYS | frozenset({"error", "traceback"})


def _find_axes(node: Mapping[str, Any], prefix: str = "") -> List[Tuple[str, List[Any]]]:
    axes: List[Tuple[str, List[Any]]] = []
    for key, value in node.items():
        path = f"{prefix}{key}"
        if isinstance(value, Mapping):
            axes.extend(_find_axes(value, prefix=f"{path}."))
        elif isinstance(value, list):
            axes.append((path, list(value)))
    return axes


def _set_leaf(node: Dict[str, Any], path: str, value: Any) -> None:
    parts = path.split(".")
    for part in parts[:-1]:
        node = node[part]
    node[parts[-1]] = value


def sweep_axes(spec: Mapping[str, Any]) -> Dict[str, List[Any]]:
    """The sweep axes of a spec: dotted leaf path → list of values.

    Axis order follows document order, which fixes the expansion order of
    :func:`expand_grid` (last axis varies fastest).
    """
    return dict(_find_axes(spec))


def sweep_points(spec: Mapping[str, Any]) -> List[Tuple[Scenario, Dict[str, Any]]]:
    """Expand a sweep spec into ``(scenario, axis-values)`` grid points.

    Every list-valued leaf becomes an axis; the grid is the cross
    product.  A spec with no lists yields a single point.  Each scenario
    is named ``{base}#{i}`` (grid index ``i``) so JSONL rows are
    distinguishable, and each is validated at construction — a typo
    anywhere in the spec fails before any run starts.
    """
    axes = _find_axes(spec)
    base_name = str(spec.get("name", "scenario"))
    points: List[Tuple[Scenario, Dict[str, Any]]] = []
    value_lists = [values for _, values in axes]
    for index, combo in enumerate(itertools.product(*value_lists)):
        doc = copy.deepcopy(dict(spec))
        overrides = {path: value for (path, _), value in zip(axes, combo)}
        for path, value in overrides.items():
            _set_leaf(doc, path, value)
        doc["name"] = f"{base_name}#{index}" if axes else base_name
        points.append((Scenario.from_dict(doc), overrides))
    return points


def expand_grid(spec: Mapping[str, Any]) -> List[Scenario]:
    """The scenarios of a sweep spec's grid (see :func:`sweep_points`)."""
    return [scenario for scenario, _ in sweep_points(spec)]


#: Seconds slept before the first retry of a failed point (scaled
#: linearly for later attempts).
_RETRY_BACKOFF_S = 0.5


def _execute_point(
    index: int,
    scenario_dict: Dict[str, Any],
    overrides: Dict[str, Any],
    retries: int = 1,
    point_hash: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one grid point; returns its JSONL row.  Must stay module-level
    (and take only JSON-native arguments) so process pools can pickle it.

    An exception raised while building or running the point is retried
    ``retries`` times, after :data:`_RETRY_BACKOFF_S` seconds of real-time
    backoff, before the point is given up on; the emitted error row then
    carries the exception *and* its full traceback string so a failed
    sweep is debuggable from the JSONL alone.  A pool worker that dies
    (OOM-killed, SIGKILL) raises no exception here: the pool breaks and
    :meth:`SweepRunner.run` raises ``BrokenProcessPool``, after which
    ``resume=True`` finishes the grid.  ``attempts`` records how many
    executions the row consumed either way, and ``point_hash`` (the
    resolved :func:`~repro.experiments.runcache.spec_hash`, computed by
    the parent where the spec is known valid) is stamped on success
    **and** error rows so ``--resume`` can match rows back to grid points.
    """
    row: Dict[str, Any] = {
        "index": index,
        "scenario": str(scenario_dict.get("name", "scenario")),
        "spec_hash": point_hash,
        "overrides": overrides,
        "cpu_count": os.cpu_count(),
        "cache_hit": False,
    }
    for attempt in range(retries + 1):
        row["attempts"] = attempt + 1
        try:
            # Inside the try: a pool worker re-validates the spec, and e.g. a
            # component registered only in the parent process must yield an
            # error row, not abort the sweep.
            scenario = Scenario.from_dict(scenario_dict)
            row["mechanism"] = scenario.mechanism.name
            history = scenario.run()
            row["summary"] = history.summary()
            row["faults"] = history.fault_counters()
            row.pop("error", None)
            row.pop("traceback", None)
            break
        except Exception as exc:  # one failed point must not sink the sweep
            row["error"] = f"{type(exc).__name__}: {exc}"
            row["traceback"] = traceback.format_exc()
            if attempt < retries:
                time.sleep(_RETRY_BACKOFF_S * (attempt + 1))
    return row


class SweepRunner:
    """Expand a scenario grid and execute it, streaming JSONL summaries.

    Parameters
    ----------
    spec:
        A sweep spec mapping (list-valued leaves are axes), or an already
        expanded sequence of :class:`Scenario` objects.
    output:
        Path of the JSONL results file (one row per completed run,
        written and flushed as runs finish — a crashed sweep keeps every
        completed row).  ``None`` collects rows in memory only.
    max_workers:
        Process-pool size; ``None`` uses ``min(grid size, cpu_count)``.
    mode:
        ``"processes"`` (default) runs grid points concurrently on a
        forked ``concurrent.futures.ProcessPoolExecutor`` whose workers
        train every group on one core (the sweep already occupies the
        others); ``"serial"`` runs them in-process, where the batched
        engine may split a large group across the cores (useful under
        doctest).  A platform without ``fork`` runs the points serially.
    retries:
        How many times a point whose run raised is re-executed (with
        real-time backoff) before its error row — carrying the exception
        and the full traceback string — is emitted.  Default 1.  A killed
        pool worker is not retried: ``run`` raises ``BrokenProcessPool``.
    cache_dir:
        Root of a content-addressed :class:`~repro.experiments.runcache
        .RunCache`.  Points whose resolved spec hash is already cached
        are emitted immediately (``cache_hit: true``, ``attempts: 0``);
        every newly successful point is written back to the cache.
        ``None`` (default) disables caching.
    resume:
        Continue an interrupted sweep instead of restarting it: reuse
        every successful row of the existing JSONL, then execute only the
        missing and failed points (identical seeds ⇒ bit-identical
        float64 summaries).  Requires ``output``; refuses (``ValueError``)
        when a row of the existing JSONL belongs to a different grid.
        With no JSONL yet (first launch) it behaves like a fresh run.
    """

    def __init__(
        self,
        spec: Mapping[str, Any] | Sequence[Scenario],
        output: str | Path | None = None,
        max_workers: Optional[int] = None,
        mode: str = "processes",
        retries: int = 1,
        cache_dir: str | Path | None = None,
        resume: bool = False,
    ) -> None:
        if mode not in ("processes", "serial"):
            raise ValueError(f"mode must be 'processes' or 'serial', got {mode!r}")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1 when given")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if isinstance(spec, Mapping):
            self.points = sweep_points(spec)
        else:
            self.points = [(scenario, {}) for scenario in spec]
        if not self.points:
            raise ValueError("sweep grid is empty")
        self.output = Path(output) if output is not None else None
        if resume and self.output is None:
            raise ValueError("resume=True requires an output path to reconcile")
        self.max_workers = max_workers
        self.mode = mode
        self.retries = retries
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.resume = resume
        #: Resolved content address of every grid point, in grid order.
        self.point_hashes = [spec_hash(scenario) for scenario, _ in self.points]

    def __len__(self) -> int:
        return len(self.points)

    def _reconcile(self) -> Dict[int, Dict[str, Any]]:
        """The successful rows of the existing JSONL, by grid index.

        Every row must belong to this grid: its ``index`` inside it and
        its ``spec_hash`` that point's.  Any other row was written for a
        different grid (an edited spec, reordered axes), and mixing its
        results in would be silent corruption, so the resume is refused
        naming the row.  Error rows are not reused: their points run again.
        """
        reused: Dict[int, Dict[str, Any]] = {}
        assert self.output is not None
        if not self.output.exists():
            return reused
        for number, row in enumerate(read_jsonl_rows(self.output), start=1):
            index = row.get("index")
            in_grid = isinstance(index, int) and 0 <= index < len(self.points)
            if not in_grid or row.get("spec_hash") != self.point_hashes[index]:
                raise ValueError(
                    f"cannot resume: row {number} of {self.output} (index "
                    f"{index!r}, scenario {row.get('scenario')!r}) was written "
                    "for a different grid; the spec or its expansion changed "
                    "— start a fresh output instead"
                )
            if "summary" in row and "error" not in row:
                reused[index] = row
        return reused

    def run(self) -> List[Dict[str, Any]]:
        """Execute every grid point; returns the rows ordered by grid index."""
        cache = RunCache(self.cache_dir) if self.cache_dir is not None else None
        reused = self._reconcile() if self.resume else {}
        appending = bool(self.resume and self.output is not None and self.output.exists())
        handle = None
        if self.output is not None:
            self.output.parent.mkdir(parents=True, exist_ok=True)
            handle = self.output.open("a" if appending else "w")
            if appending and not self.output.read_text().endswith("\n"):
                # End the torn last line a killed launch left, or the first
                # row appended here would be unreadable until compaction.
                handle.write("\n")
        rows: List[Dict[str, Any]] = list(reused.values())

        def emit(row: Dict[str, Any]) -> None:
            rows.append(row)
            if handle is not None:
                handle.write(json.dumps(row) + "\n")
                handle.flush()
            if cache is not None and "summary" in row and not row.get("cache_hit"):
                cache.put(row["spec_hash"], row)

        payloads = []
        for index, (scenario, overrides) in enumerate(self.points):
            if index in reused:
                continue
            point_hash = self.point_hashes[index]
            if cache is not None:
                hit = cache.get(point_hash)
                if hit is not None:
                    emit(
                        {
                            **hit,
                            "index": index,
                            "scenario": scenario.name,
                            "spec_hash": point_hash,
                            "overrides": overrides,
                            "attempts": 0,
                            "cache_hit": True,
                        }
                    )
                    continue
            payloads.append(
                (index, scenario.to_dict(), overrides, self.retries, point_hash)
            )

        try:
            if self.mode == "serial" or len(payloads) == 1:
                for payload in payloads:
                    emit(_execute_point(*payload))
            elif payloads:
                self._run_pool(payloads, emit)
        finally:
            if handle is not None:
                handle.close()
        rows = sorted(rows, key=lambda r: r["index"])
        if appending:
            # A resumed stream may hold superseded rows (an error row whose
            # point has now succeeded, duplicates from an earlier torn
            # launch); compact to exactly one row per grid point.
            self._compact(rows)
        return rows

    def _compact(self, rows: List[Dict[str, Any]]) -> None:
        """Atomically rewrite the JSONL as one row per point, grid order."""
        assert self.output is not None
        tmp = self.output.with_name(self.output.name + ".tmp")
        with tmp.open("w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        os.replace(tmp, self.output)

    def _run_pool(self, payloads, emit) -> None:
        import multiprocessing

        workers = self.max_workers or min(len(payloads), os.cpu_count() or 1)
        workers = min(workers, len(payloads))
        try:
            context = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=context, initializer=use_one_lane
            )
        except (ValueError, OSError):
            # No fork on this platform: degrade to serial rather than fail
            # the sweep.
            for payload in payloads:
                emit(_execute_point(*payload))
            return
        with pool:
            pending = {pool.submit(_execute_point, *payload) for payload in payloads}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                # Stream rows as runs finish so partial sweeps are useful.
                for future in done:
                    emit(future.result())
