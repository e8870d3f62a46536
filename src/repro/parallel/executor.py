"""Process-pool group executor: multi-core intra-group local training.

One grouped round trains ``G`` independent per-worker SGD runs from the
same base model.  The serial :class:`~repro.nn.batched.BatchedWorkerEngine`
already fuses them into leading-group-axis tensor ops inside one process;
:class:`ProcessGroupExecutor` adds the next multiplicative axis by
splitting the group into contiguous *shards* and running each shard's
batched engine on a persistent worker process.

Data flow (see ``docs/ARCHITECTURE.md`` for the diagram):

* **pool lifecycle** — a :class:`concurrent.futures.ProcessPoolExecutor`
  is spawned once per trainer; each worker process builds its own engine
  from a picklable :class:`~repro.nn.batched.EngineSpec` in its
  initializer (with the default ``fork`` start method nothing is pickled
  at all; with ``spawn`` the spec and training data are pickled exactly
  once at start-up, never per round);
* **shared-memory arena** — the group's base vector and the stacked
  ``(G, q)`` result live in ``multiprocessing.shared_memory`` segments;
  workers map them as NumPy views
  (:func:`~repro.nn.batched.shared_stack_view`) and write their shard's
  rows in place, so a round moves model state through page-cache-free
  shared mappings instead of pickles or pipes;
* **result reduction ordering** — shards are contiguous row ranges of the
  group, so the parent reassembles the stack by construction; the
  subsequent AirComp aggregation, power control and channel-noise draws
  all stay in the parent process and consume their RNG streams in the
  serial order.

Determinism: per-worker mini-batch streams are derived from
``SeedSequence([seed, worker_id, round_index, tag])`` — a *keyed* spawn of
the experiment seed that is independent of which pool process trains the
worker — and shards replicate the serial engine's padding/tiling geometry
(``pad_to`` pins ragged shards to the full group's batch dimension; conv
shards align to the engine's group tile).  Result: runs are
bit-identical to the serial event loop, float32 included — the processes
axis of ``tests/differential/test_execution_axes.py``.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.batched import (
    BatchedWorkerEngine,
    EngineSpec,
    model_shard_safe,
    shared_stack_view,
)
from ..nn.models import Model

__all__ = ["ProcessGroupExecutor", "UnsupportedModelError"]


class UnsupportedModelError(ValueError):
    """The model cannot be sharded across processes (no batched engine, or
    active Dropout whose group-spanning RNG stream cannot be split)."""


# ----------------------------------------------------------------------
# Worker-process side.  Module-level state + functions: the pool pickles
# only small task tuples per dispatch (ids, row offset, round index).
# ----------------------------------------------------------------------
class _WorkerState:
    def __init__(
        self,
        engine: BatchedWorkerEngine,
        worker_data: Sequence[Tuple[np.ndarray, np.ndarray]],
        shms: List[SharedMemory],
        base: np.ndarray,
        out: np.ndarray,
        hyper: Dict[str, object],
    ) -> None:
        self.engine = engine
        self.worker_data = worker_data
        # Keeps the mappings behind ``base`` / ``out`` alive.
        self.shms = shms
        self.base = base
        self.out = out
        self.hyper = hyper


_STATE: Optional[_WorkerState] = None


def _attach(name: str) -> SharedMemory:
    # The parent owns (and unlinks) the segments; the resource tracker is
    # shared across the process tree, so attaching here must neither
    # register nor unregister the name — SharedMemory(name=...) re-adding
    # it to the tracker's set is a no-op, and the parent's unlink clears
    # it exactly once.
    return SharedMemory(name=name)


def _init_worker(
    spec: EngineSpec,
    worker_data: Sequence[Tuple[np.ndarray, np.ndarray]],
    base_name: str,
    out_name: str,
    out_rows: int,
    dimension: int,
    dtype_str: str,
    hyper: Dict[str, object],
) -> None:
    global _STATE
    dtype = np.dtype(dtype_str)
    base_shm = _attach(base_name)
    out_shm = _attach(out_name)
    _STATE = _WorkerState(
        engine=spec.build(),
        worker_data=worker_data,
        shms=[base_shm, out_shm],
        base=np.frombuffer(base_shm.buf, dtype=dtype, count=dimension),
        out=shared_stack_view(out_shm.buf, out_rows, dimension, dtype),
        hyper=hyper,
    )


def _run_shard(
    row0: int, ids: List[int], round_index: int, pad_to: Optional[int]
) -> int:
    """Train one contiguous shard of a group into its rows of the arena."""
    st = _STATE
    assert st is not None, "pool worker used before initialization"
    st.engine.run_group(
        ids,
        [st.worker_data[w] for w in ids],
        st.base,
        round_index,
        learning_rate=st.hyper["learning_rate"],
        local_steps=st.hyper["local_steps"],
        batch_size=st.hyper["batch_size"],
        seed=st.hyper["seed"],
        out=st.out[row0 : row0 + len(ids)],
        pad_to=pad_to,
    )
    return row0


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------
#: Shared-memory objects whose mapping could not be closed because NumPy
#: views of it were still alive at teardown.  Keeping them referenced here
#: (after unlinking the name) stops SharedMemory.__del__ from retrying the
#: close and spraying BufferErrors at interpreter exit; the OS reclaims
#: the mapping when the process ends.
_PARKED_SEGMENTS: List[SharedMemory] = []


def _cleanup(holder: Dict[str, object]) -> None:
    """Finalizer shared by close()/GC/atexit: idempotent teardown."""
    pool = holder.pop("pool", None)
    if pool is not None:
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass
    views = holder.pop("views", None)
    if views is not None:
        # Drop the arena views first so the mmap has no exported pointers
        # left (unless a caller still holds a donated stack view).
        views.clear()
    for shm in holder.pop("shms", ()):
        try:
            shm.unlink()
        except Exception:
            pass
        try:
            shm.close()
        except BufferError:
            _PARKED_SEGMENTS.append(shm)
        except Exception:
            pass


class ProcessGroupExecutor:
    """Schedules intra-group training rounds onto a worker-process pool.

    Parameters
    ----------
    model:
        The trainer's model; validated for batched-engine support and
        shard safety (raises :class:`UnsupportedModelError` otherwise).
    worker_data:
        Per-worker ``(x, y)`` training subsets, indexed by worker id.
    learning_rate, local_steps, batch_size, seed:
        The worker-side SGD hyper-parameters (fixed per experiment).
    num_processes:
        Pool size; ``None`` uses ``os.cpu_count()``.
    start_method:
        ``"fork"`` (default; zero-copy inheritance), ``"spawn"`` or
        ``"forkserver"``.
    max_restarts:
        Pool-crash recovery budget *per dispatch*: a dispatch that hits a
        broken pool respawns it and retries this many times, then falls
        back to an in-process engine run, so a crashed worker never loses
        a round or changes its result.
    """

    def __init__(
        self,
        model: Model,
        worker_data: Sequence[Tuple[np.ndarray, np.ndarray]],
        *,
        learning_rate: float,
        local_steps: int,
        batch_size: int,
        seed: int,
        num_processes: Optional[int] = None,
        start_method: str = "fork",
        max_restarts: int = 1,
    ) -> None:
        # build_spec first: it produces the accurate diagnostic for
        # non-sequential / kernel-less / parameter-less models; the
        # shard-safety check then only ever fires for actual Dropout.
        try:
            self._spec = BatchedWorkerEngine.build_spec(model)
        except ValueError as exc:
            raise UnsupportedModelError(str(exc)) from exc
        if not model_shard_safe(model):
            raise UnsupportedModelError(
                "model contains active Dropout layers; their worker-major "
                "RNG stream spans the whole group and cannot be sharded "
                "across processes (train it with parallelism mode 'none')"
            )
        probe = self._spec.build()
        self.dimension = probe.dimension
        self.dtype = np.dtype(probe.dtype)
        self.group_tile = probe.group_tile
        # The probe doubles as the crash-recovery fallback engine (its
        # stacked buffers are only allocated on first use).
        self._fallback_engine: BatchedWorkerEngine = probe
        self._worker_data = list(worker_data)
        self._batch_size = int(batch_size)
        self._hyper: Dict[str, object] = {
            "learning_rate": float(learning_rate),
            "local_steps": int(local_steps),
            "batch_size": int(batch_size),
            "seed": int(seed),
        }
        self.num_processes = int(num_processes or os.cpu_count() or 1)
        self.start_method = start_method
        self.max_restarts = int(max_restarts)
        #: Dispatch statistics (pool respawns and in-process fallbacks are
        #: how crash recovery is observed from tests and benchmarks).
        self.dispatches = 0
        self.restarts = 0
        self.fallbacks = 0

        rows = len(self._worker_data)
        itemsize = self.dtype.itemsize
        self._rows = rows
        # One arena: the group's base vector and its stacked (rows, q)
        # result.  A result view stays valid until the next dispatch.
        base_shm = SharedMemory(create=True, size=max(1, self.dimension * itemsize))
        out_shm = SharedMemory(
            create=True, size=max(1, rows * self.dimension * itemsize)
        )
        # The arena views live in the holder (not on self) so _cleanup can
        # drop them before closing the mappings in every teardown path.
        self._holder: Dict[str, object] = {
            "shms": [base_shm, out_shm],
            "views": [
                np.frombuffer(base_shm.buf, dtype=self.dtype, count=self.dimension),
                shared_stack_view(out_shm.buf, rows, self.dimension, self.dtype),
            ],
        }
        self._finalizer = weakref.finalize(self, _cleanup, self._holder)
        self._spawn_pool()

    @property
    def _base_view(self) -> np.ndarray:
        return self._holder["views"][0]

    @property
    def _out_view(self) -> np.ndarray:
        return self._holder["views"][1]

    # ------------------------------------------------------------------
    def _spawn_pool(self) -> None:
        self._holder["pool"] = ProcessPoolExecutor(
            max_workers=self.num_processes,
            mp_context=get_context(self.start_method),
            initializer=_init_worker,
            initargs=(
                self._spec,
                self._worker_data,
                *(shm.name for shm in self._holder["shms"]),
                self._rows,
                self.dimension,
                self.dtype.str,
                self._hyper,
            ),
        )

    def _respawn_pool(self) -> None:
        """Replace a broken pool (shut the remains down, spawn a fresh one)."""
        pool = self._pool
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        self._spawn_pool()

    @property
    def _pool(self) -> Optional[ProcessPoolExecutor]:
        return self._holder.get("pool")

    @property
    def closed(self) -> bool:
        return "pool" not in self._holder

    def worker_pids(self) -> List[int]:
        """PIDs of the live pool processes (empty before the first dispatch
        when the pool spawns workers on demand)."""
        pool = self._pool
        if pool is None:
            return []
        return [p.pid for p in getattr(pool, "_processes", {}).values()]

    # ------------------------------------------------------------------
    def _plan_shards(
        self, ids: Sequence[int]
    ) -> Tuple[List[Tuple[int, int]], Optional[int]]:
        """Split ``ids`` into contiguous ``(start, stop)`` shards.

        Two rules keep sharded execution bit-identical to the serial call:

        * convolutional engines tile groups internally
          (``group_tile``), so shard boundaries must fall on tile
          multiples — each shard then re-tiles into exactly the serial
          call's tiles;
        * untiled (dense) engines run the whole group as one padded
          tensor, so every shard is pinned to the *group's* padded batch
          dimension via ``pad_to``.
        """
        n = len(ids)
        tile = self.group_tile
        if tile is not None and n > tile:
            units = (n + tile - 1) // tile
            shards = min(self.num_processes, units)
            per, extra = divmod(units, shards)
            bounds, start = [], 0
            for s in range(shards):
                take = (per + (1 if s < extra else 0)) * tile
                stop = min(n, start + take)
                bounds.append((start, stop))
                start = stop
            return [b for b in bounds if b[0] < b[1]], None
        shards = min(self.num_processes, n)
        per, extra = divmod(n, shards)
        bounds, start = [], 0
        for s in range(shards):
            stop = start + per + (1 if s < extra else 0)
            bounds.append((start, stop))
            start = stop
        batches = [
            min(self._batch_size, self._worker_data[w][0].shape[0]) for w in ids
        ]
        active = [b for b in batches if b > 0]
        pad_to = max(active) if active else None
        return [b for b in bounds if b[0] < b[1]], pad_to

    def stack(self, group_size: int) -> np.ndarray:
        """Donated ``(G, q)`` view into the shared result arena.

        The trainer uses this as its group stack so worker processes write
        updated models directly into the memory the aggregation reads —
        the round performs no result copy at all.  The next
        :meth:`run_group` dispatch overwrites it, matching the trainer's
        own buffer-reuse contract.
        """
        if self.closed:
            raise RuntimeError("executor is closed")
        if group_size > self._rows:
            raise ValueError(
                f"group of {group_size} exceeds the arena ({self._rows} rows)"
            )
        return self._out_view[:group_size]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _run_on_pool(
        self,
        shards: List[Tuple[int, int]],
        ids: List[int],
        round_index: int,
        pad_to: Optional[int],
    ) -> bool:
        """Submit one task per shard and wait; ``False`` if the pool broke
        (at submit time or while a shard was running)."""
        try:
            futures = [
                self._pool.submit(
                    _run_shard, start, ids[start:stop], round_index, pad_to
                )
                for start, stop in shards
            ]
            for f in futures:
                f.result()
        except BrokenExecutor:
            return False
        return True

    def _run_fallback(self, ids: List[int], round_index: int) -> None:
        """Last line of defence: run the round in-process.  Same engine,
        same geometry (full group, serial call tree) — the result is
        identical, only the parallelism is lost for this dispatch."""
        self.fallbacks += 1
        self._fallback_engine.run_group(
            ids,
            [self._worker_data[w] for w in ids],
            self._base_view,
            round_index,
            learning_rate=self._hyper["learning_rate"],
            local_steps=self._hyper["local_steps"],
            batch_size=self._hyper["batch_size"],
            seed=self._hyper["seed"],
            out=self._out_view[: len(ids)],
        )

    def run_group(
        self,
        worker_ids: Sequence[int],
        base_vector: np.ndarray,
        round_index: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Train the group's local round on the pool; return the ``(G, q)``
        stack (the donated arena view unless ``out`` is supplied).

        Pool crashes are recovered here: a dispatch that finds or leaves
        the pool broken respawns it and resubmits its shards, up to
        ``max_restarts + 1`` submissions in total, then runs on the
        in-process fallback engine — bit-identical either way.
        """
        if self.closed:
            raise RuntimeError("executor is closed")
        ids = list(worker_ids)
        if len(ids) == 0:
            raise ValueError("at least one worker required")
        if len(ids) > self._rows:
            raise ValueError(
                f"group of {len(ids)} exceeds the arena ({self._rows} rows)"
            )
        np.copyto(self._base_view, base_vector)
        shards, pad_to = self._plan_shards(ids)
        self.dispatches += 1
        for _ in range(self.max_restarts + 1):
            if self._run_on_pool(shards, ids, round_index, pad_to):
                break
            # The respawn shuts the broken pool's remains down, so the
            # arena has no concurrent writer left afterwards.
            self.restarts += 1
            self._respawn_pool()
        else:
            self._run_fallback(ids, round_index)
        result = self._out_view[: len(ids)]
        if out is not None:
            np.copyto(out, result)
            return out
        return result

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and release the shared-memory arenas."""
        _cleanup(self._holder)

    def __enter__(self) -> "ProcessGroupExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
