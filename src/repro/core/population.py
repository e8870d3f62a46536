"""Population-scale worker state: struct-of-arrays tables + lazy shard views.

The simulation historically materialized one Python object and one private
dataset copy per worker, which walls the bench at a few hundred workers.
This module is the deliberate accessor surface that replaces those
per-worker touchpoints so the core scales to millions of simulated
devices:

* :class:`WorkerStateTable` — one NumPy array per per-worker field (data
  sizes, aggregation weights, nominal latencies, staleness, availability
  counters, last channel gains).  No per-worker Python objects; the whole
  table for 1M workers is a few hundred megabytes at float64.
* :class:`SharedDatasetStore` — a single ``(x, y)`` sample store plus
  ``starts``/``stops`` offset arrays.  ``store.shard(w)`` returns a
  zero-copy :class:`ShardView` (``np.shares_memory`` with the store is
  ``True``); nothing is allocated per worker.
* :class:`Population` — the facade trainers talk to.  It owns the state
  table, builds the store lazily, and serves every worker's data as a
  shard view backed by that store — the only way a trainer sees it.
* :class:`StackPool` — stacked ``(G, q)`` tensors are materialized only
  for groups currently training and recycled on commit, so in-flight
  stacks — not ``num_workers`` — bound the working set.

Bit-identity contract: :meth:`SharedDatasetStore.from_partition` shards
equal the legacy per-worker copies (``x_train[indices]``) in value, and the
state table repeats the legacy trainer init's float64 operations
(``astype(np.float64)``, the conditional ``np.maximum(sizes, 1e-9)``
floor, ``float(sizes.sum())`` normalization), so training histories are
those of the per-worker-copy simulator to the last bit.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a data<->core cycle
    from ..data.partition import Partition
    from ..data.synthetic import Dataset

__all__ = [
    "ShardView",
    "WorkerStateTable",
    "SharedDatasetStore",
    "StackPool",
    "Population",
]

class ShardView(NamedTuple):
    """One worker's training data as ``(x, y)``.

    Both arrays are contiguous slice views into the shared store
    (zero-copy).  The class is a 2-tuple, so legacy call sites that unpack
    ``x, y = worker_data[i]`` or index ``worker_data[i][0]`` keep working.
    """

    x: np.ndarray
    y: np.ndarray

    @property
    def num_samples(self) -> int:
        return int(self.x.shape[0])


@dataclass
class WorkerStateTable:
    """Struct-of-arrays per-worker simulation state.

    Parameters
    ----------
    raw_sizes:
        Integer per-worker sample counts ``d_i``; only ``sizes`` keeps them
        (float64 holds integer counts exactly).
    latencies:
        Nominal per-worker local-training times ``l_i`` (``NaN`` when no
        latency model is attached).

    Derived fields reproduce the legacy trainer init exactly: ``sizes`` is
    ``raw_sizes.astype(float64)`` floored at ``1e-9`` only when some entry
    is non-positive, ``total_size = float(sizes.sum())`` and
    ``alphas = sizes / total_size``.  The event-loop counters ``staleness``
    (at the last commit), ``dispatches``, ``unavailable`` and ``dropped``
    are int32 ``(N,)`` arrays.
    """

    raw_sizes: InitVar[np.ndarray]
    latencies: Optional[np.ndarray] = None
    sizes: np.ndarray = field(init=False, repr=False)
    alphas: np.ndarray = field(init=False, repr=False)
    total_size: float = field(init=False, default=0.0)
    gains: Optional[np.ndarray] = field(init=False, default=None, repr=False)
    gains_round: int = field(init=False, default=-1)
    staleness: np.ndarray = field(init=False, repr=False)
    dispatches: np.ndarray = field(init=False, repr=False)
    unavailable: np.ndarray = field(init=False, repr=False)
    dropped: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, raw_sizes: np.ndarray) -> None:
        raw = np.asarray(raw_sizes)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("raw_sizes must be a non-empty 1-D array")
        n = raw.size
        # Exact op sequence of the legacy BaseTrainer init (bit-identity).
        sizes = raw.astype(np.int64, copy=False).astype(np.float64)
        if np.any(sizes <= 0):
            sizes = np.maximum(sizes, 1e-9)
        self.sizes = sizes
        self.total_size = float(sizes.sum())
        self.alphas = sizes / self.total_size
        if self.latencies is None:
            self.latencies = np.full(n, np.nan, dtype=np.float64)
        else:
            self.latencies = np.asarray(self.latencies, dtype=np.float64)
            if self.latencies.shape != (n,):
                raise ValueError(
                    f"latencies shape {self.latencies.shape} != ({n},)"
                )
        self.staleness = np.zeros(n, dtype=np.int32)
        self.dispatches = np.zeros(n, dtype=np.int32)
        self.unavailable = np.zeros(n, dtype=np.int32)
        self.dropped = np.zeros(n, dtype=np.int32)
        # Registered mechanism state (struct-of-arrays): name -> (N,) or
        # (N, width) array.  See register_field.
        self._fields: Dict[str, np.ndarray] = {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_partition(
        cls, partition: "Partition", latency=None
    ) -> "WorkerStateTable":
        """Build from a :class:`~repro.data.partition.Partition`.

        ``latency`` may be any object with a ``nominal`` array property
        (e.g. :class:`~repro.sim.latency.LatencyTable`).
        """
        nominal = getattr(latency, "nominal", None) if latency is not None else None
        return cls(raw_sizes=partition.data_sizes(), latencies=nominal)

    # -- accessors ------------------------------------------------------

    @property
    def num_workers(self) -> int:
        return int(self.sizes.size)

    # -- registered mechanism fields ------------------------------------

    def register_field(
        self,
        name: str,
        width: int = 1,
        dtype=np.float64,
        fill: float = 0.0,
    ) -> np.ndarray:
        """Register (or fetch) a named per-worker state array.

        Mechanisms that carry persistent per-worker optimizer state (e.g.
        FedDyn's drift vectors) store it here as one struct-of-arrays
        field — ``(N,)`` for scalars, ``(N, width)`` for per-worker
        vectors — so the state is O(1)-addressable at population scale
        and survives worker dropout/rejoin untouched.  Registration is
        idempotent: re-registering with the same shape and dtype returns
        the existing array (values preserved); a mismatching spec raises
        :class:`ValueError`.
        """
        if width < 1:
            raise ValueError(f"field width must be >= 1, got {width}")
        dt = np.dtype(dtype)
        n = self.num_workers
        shape = (n,) if width == 1 else (n, int(width))
        existing = self._fields.get(name)
        if existing is not None:
            if existing.shape != shape or existing.dtype != dt:
                raise ValueError(
                    f"field {name!r} already registered with shape "
                    f"{existing.shape} dtype {existing.dtype}, requested "
                    f"shape {shape} dtype {dt}"
                )
            return existing
        arr = np.full(shape, fill, dtype=dt)
        self._fields[name] = arr
        return arr

    def field(self, name: str) -> np.ndarray:
        """The registered state array for ``name`` (KeyError if absent)."""
        try:
            return self._fields[name]
        except KeyError:
            known = sorted(self._fields)
            raise KeyError(
                f"no registered field {name!r}; registered fields: {known}"
            ) from None

    @property
    def nbytes(self) -> int:
        total = 0
        for arr in (
            self.sizes,
            self.alphas,
            self.latencies,
            self.staleness,
            self.dispatches,
            self.unavailable,
            self.dropped,
        ):
            if arr is not None:
                total += arr.nbytes
        if self.gains is not None:
            total += self.gains.nbytes
        for arr in self._fields.values():
            total += arr.nbytes
        return total

    # -- event-loop recorders (all O(group size), vectorized writes) ----

    def record_gains(self, round_index: int, gains: np.ndarray) -> None:
        """Reference (not copy) the most recent full-population gain draw."""
        self.gains = gains
        self.gains_round = int(round_index)

    def record_dispatch(self, member_ids: np.ndarray) -> None:
        self.dispatches[member_ids] += 1

    def record_unavailable(self, member_ids: np.ndarray) -> None:
        if len(member_ids):
            self.unavailable[member_ids] += 1

    def record_dropped(self, member_ids: np.ndarray) -> None:
        if len(member_ids):
            self.dropped[member_ids] += 1

    def record_commit(self, member_ids: np.ndarray, staleness: int) -> None:
        self.staleness[member_ids] = int(staleness)

    def counters_summary(self) -> Dict[str, int]:
        return {
            "dispatches": int(self.dispatches.sum()),
            "unavailable": int(self.unavailable.sum()),
            "dropped": int(self.dropped.sum()),
            "max_staleness": int(self.staleness.max()),
        }


class _ShardSequence(Sequence):
    """Lazy ``Sequence[ShardView]`` over a store — O(1) memory, no copies.

    Covers every worker of ``store``, or the workers ``ids`` in that order
    (what a slice or an id list indexes out).  Both attributes are public:
    the batched engine reads a roster's row windows off them and gathers
    from the store itself rather than from per-member views.
    """

    __slots__ = ("store", "ids")

    def __init__(self, store: "SharedDatasetStore", ids: Optional[np.ndarray] = None) -> None:
        self.store = store
        self.ids = ids

    def __len__(self) -> int:
        return self.store.num_workers if self.ids is None else len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            index = np.arange(*index.indices(len(self)))
        if isinstance(index, (list, np.ndarray)):
            index = np.asarray(index, dtype=np.int64)
            return _ShardSequence(self.store, index if self.ids is None else self.ids[index])
        i = int(index)
        if i < 0:
            i += len(self)
        return self.store.shard(i if self.ids is None else int(self.ids[i]))

    def __iter__(self) -> Iterator[ShardView]:
        for i in range(len(self)):
            yield self[i]


@dataclass
class SharedDatasetStore:
    """One shared ``(x, y)`` sample store with per-worker offset windows.

    Worker ``w`` owns rows ``starts[w]:stops[w]``; :meth:`shard` returns
    contiguous slice views, never copies.  Two layouts are supported:

    * :meth:`from_partition` — reorder the dataset once so every worker's
      rows are contiguous (one O(n) copy total, equal in value to the
      legacy per-worker ``x_train[indices]`` copies);
    * :meth:`replicated` — alias the original dataset arrays outright and
      give workers overlapping windows (zero copies of any sample; the
      XL-scale construction).
    """

    x: np.ndarray
    y: np.ndarray
    starts: np.ndarray
    stops: np.ndarray
    num_classes: int
    copied: bool = True

    def __post_init__(self) -> None:
        self.starts = np.asarray(self.starts, dtype=np.int64)
        self.stops = np.asarray(self.stops, dtype=np.int64)
        if self.starts.shape != self.stops.shape or self.starts.ndim != 1:
            raise ValueError("starts/stops must be matching 1-D arrays")
        if self.starts.size == 0:
            raise ValueError("store must describe at least one worker")
        if len(self.x) != len(self.y):
            raise ValueError("x and y row counts differ")
        n = len(self.x)
        if self.starts.size and (
            self.starts.min() < 0
            or np.any(self.stops < self.starts)
            or self.stops.max() > n
        ):
            raise ValueError("offset windows out of bounds")

    @property
    def num_workers(self) -> int:
        return int(self.starts.size)

    @property
    def num_samples(self) -> int:
        return int(len(self.x))

    def data_sizes(self) -> np.ndarray:
        return self.stops - self.starts

    def shard(self, worker_id: int) -> ShardView:
        """Zero-copy ``(x, y)`` slice views for one worker."""
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(f"invalid worker id {worker_id}")
        s = self.starts[worker_id]
        e = self.stops[worker_id]
        return ShardView(self.x[s:e], self.y[s:e])

    def shards(self) -> _ShardSequence:
        """Lazy sequence of all shard views (no per-worker allocation)."""
        return _ShardSequence(self)

    def class_counts(self) -> np.ndarray:
        """Per-worker label histograms, ``(N, K)``: the transpose of a
        class-major C-contiguous ``(K, N)`` table in the narrowest dtype that
        holds the longest window (uint8 up to 255 rows, uint16 up to 65,535,
        else int32).  Class ``c``'s row is ``prefix[stops] - prefix[starts]``
        over one ``(n + 1,)`` int32 prefix sum of ``y == c``, taken in int32
        and then cast; O(K·(n + N)), correct for overlapping (replicated)
        windows.
        """
        labels, k = np.asarray(self.y), self.num_classes
        if labels.size and (labels.min() < 0 or labels.max() >= k):
            raise ValueError("partition labels out of range for num_classes")
        longest = int(self.data_sizes().max())
        narrow = np.uint8 if longest <= 255 else np.uint16 if longest <= 65535 else np.int32
        counts = np.empty((k, self.num_workers), dtype=narrow)
        prefix = np.zeros(labels.size + 1, dtype=np.int32)
        upper = np.empty(self.num_workers, dtype=np.int32)
        lower = np.empty(self.num_workers, dtype=np.int32)
        for c, row in enumerate(counts):
            np.cumsum(labels == c, dtype=np.int32, out=prefix[1:])
            # Windows lie in [0, n] (checked at construction): "clip" skips
            # the buffered bounds check of the default "raise".
            np.take(prefix, self.stops, out=upper, mode="clip")
            np.take(prefix, self.starts, out=lower, mode="clip")
            np.subtract(upper, lower, out=row, casting="unsafe")
        return counts.T

    @property
    def nbytes(self) -> int:
        return (
            self.x.nbytes + self.y.nbytes + self.starts.nbytes + self.stops.nbytes
        )

    @classmethod
    def from_partition(
        cls, dataset: "Dataset", partition: "Partition"
    ) -> "SharedDatasetStore":
        """Reorder the training set so each worker's rows are contiguous.

        Shard *values* equal the legacy per-worker ``x_train[indices]`` copies
        exactly (same fancy index, then a contiguous slice of the result).
        """
        arrays = [
            partition.worker_indices(w) for w in range(partition.num_workers)
        ]
        sizes = np.array([a.size for a in arrays], dtype=np.int64)
        if sizes.sum() > 0:
            perm = np.concatenate([a for a in arrays if a.size])
        else:
            perm = np.empty(0, dtype=np.int64)
        offsets = np.zeros(partition.num_workers + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return cls(
            x=dataset.x_train[perm],
            y=dataset.y_train[perm],
            starts=offsets[:-1],
            stops=offsets[1:],
            num_classes=dataset.num_classes,
            copied=True,
        )

    @classmethod
    def replicated(
        cls,
        dataset: "Dataset",
        num_workers: int,
        shard_size: int,
        stride: int = 1,
    ) -> "SharedDatasetStore":
        """Alias the dataset arrays; workers get overlapping windows.

        Fully zero-copy: ``store.x is dataset.x_train``.  Worker ``w``
        reads rows ``(w·stride) mod (n − shard_size + 1)`` onward, so a
        small dataset serves arbitrarily many simulated workers with O(N)
        *offsets* but O(1) sample storage — the million-worker layout.
        """
        n = dataset.num_train
        if shard_size < 1 or shard_size > n:
            raise ValueError(
                f"shard_size must be in [1, {n}], got {shard_size}"
            )
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        window = n - shard_size + 1
        starts = (np.arange(num_workers, dtype=np.int64) * stride) % window
        return cls(
            x=dataset.x_train,
            y=dataset.y_train,
            starts=starts,
            stops=starts + shard_size,
            num_classes=dataset.num_classes,
            copied=False,
        )


class StackPool:
    """Recycled ``(rows, dim)`` buffers for in-flight group stacks.

    A trainer acquires one slab per engine call and releases it once the
    call's last cohort has committed, so steady-state training reuses the
    same few buffers regardless of how many distinct group sizes exist.
    :meth:`release` is a no-op for arrays the pool does not own, which
    keeps call sites simple.
    """

    def __init__(self, max_free: int = 4) -> None:
        self._free: List[np.ndarray] = []
        self._lent: Dict[int, np.ndarray] = {}
        self._max_free = max_free

    def acquire(self, rows: int, dim: int, dtype=np.float64) -> np.ndarray:
        if rows < 1 or dim < 1:
            raise ValueError("rows and dim must be >= 1")
        dtype = np.dtype(dtype)
        best = -1
        for i, buf in enumerate(self._free):
            if buf.shape[1] != dim or buf.dtype != dtype or buf.shape[0] < rows:
                continue
            if best < 0 or buf.shape[0] < self._free[best].shape[0]:
                best = i
        base = self._free.pop(best) if best >= 0 else np.empty((rows, dim), dtype)
        self._lent[id(base)] = base
        return base[:rows]

    def release(self, stack: Optional[np.ndarray]) -> bool:
        """Return a stack to the pool; ``False`` when it isn't pool-owned.  A view
        starting past a lent buffer's first row raises: it would free the whole buffer."""
        if not isinstance(stack, np.ndarray):
            return False
        base = stack if stack.base is None else stack.base
        owned = self._lent.get(id(base))
        if owned is None:
            return False
        if stack.ctypes.data != owned.ctypes.data:
            raise ValueError("release the stack acquire() returned, not a view of its rows")
        del self._lent[id(base)]
        if len(self._free) < self._max_free:
            self._free.append(owned)
        return True

    @property
    def outstanding(self) -> int:
        return len(self._lent)

    @property
    def free_buffers(self) -> int:
        return len(self._free)


class Population:
    """Facade over the worker-state table and the shared dataset store.

    This is the surface trainers use instead of reaching into per-worker
    objects: ``population.shard(w)`` for zero-copy data access,
    ``population.worker_data_sequence()`` for the trainer's data sequence,
    ``population.stack_pool`` for recycled per-group ``(G, q)`` stacks,
    and ``population.state`` for every per-worker scalar field.
    """

    def __init__(
        self,
        state: WorkerStateTable,
        *,
        dataset: Optional["Dataset"] = None,
        partition: Optional["Partition"] = None,
        store: Optional[SharedDatasetStore] = None,
    ) -> None:
        self.state = state
        self.dataset = dataset
        self.partition = partition
        self._store = store
        self.stack_pool = StackPool()
        n = state.num_workers
        if partition is not None and partition.num_workers != n:
            raise ValueError(
                f"partition has {partition.num_workers} workers, state has {n}"
            )
        if store is not None and store.num_workers != n:
            raise ValueError(
                f"store has {store.num_workers} workers, state has {n}"
            )
        if store is None and (dataset is None or partition is None):
            raise ValueError(
                "population needs either a prebuilt store or a dataset "
                "and partition to build one from"
            )

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_dataset(
        cls,
        dataset: "Dataset",
        partition: "Partition",
        latency=None,
    ) -> "Population":
        """Standard construction from an experiment's dataset + partition."""
        state = WorkerStateTable.from_partition(partition, latency=latency)
        return cls(state, dataset=dataset, partition=partition)

    @classmethod
    def replicated(
        cls,
        dataset: "Dataset",
        num_workers: int,
        shard_size: int,
        latency=None,
        stride: int = 1,
    ) -> "Population":
        """XL-scale construction: overlapping zero-copy windows, no partition."""
        store = SharedDatasetStore.replicated(
            dataset, num_workers=num_workers, shard_size=shard_size, stride=stride
        )
        nominal = getattr(latency, "nominal", None) if latency is not None else None
        state = WorkerStateTable(raw_sizes=store.data_sizes(), latencies=nominal)
        return cls(state, dataset=dataset, store=store)

    # -- data access ----------------------------------------------------

    @property
    def num_workers(self) -> int:
        return self.state.num_workers

    @property
    def store(self) -> SharedDatasetStore:
        """The shared store, built lazily on first shard access."""
        if self._store is None:
            self._store = SharedDatasetStore.from_partition(
                self.dataset, self.partition
            )
        return self._store

    @property
    def store_built(self) -> bool:
        return self._store is not None

    def shard(self, worker_id: int) -> ShardView:
        """Zero-copy view of one worker's rows in the shared store."""
        return self.store.shard(worker_id)

    def worker_data_sequence(self) -> Sequence[ShardView]:
        """The trainer's per-worker data: a lazy view sequence over the
        store (O(1) memory, no per-worker copies)."""
        return self.store.shards()

    def class_counts(self) -> np.ndarray:
        """Per-worker label histograms (partition-cached when available)."""
        if self.partition is not None:
            return self.partition.class_counts()
        return self.store.class_counts()

    @property
    def nbytes(self) -> int:
        """Resident bytes of the state table plus any *copied* store."""
        total = self.state.nbytes
        if self._store is not None and self._store.copied:
            total += self._store.nbytes
        return total
