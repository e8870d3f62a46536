"""Population-scale worker state: struct-of-arrays tables + lazy shard views.

The accessor surface that holds no Python object and no dataset copy per
worker, so the core scales to millions of simulated devices:

* :class:`WorkerStateTable` — one NumPy array per per-worker field (data
  sizes, nominal latencies, staleness, availability counters, last channel
  gains); one value repeated for every worker is one zero-stride entry.
* :class:`SharedDatasetStore` — a single ``(x, y)`` sample store plus
  per-worker ``starts``/``sizes`` row windows.  ``store.shard(w)`` returns a
  zero-copy :class:`ShardView` (``np.shares_memory`` with the store is
  ``True``); nothing is allocated per worker.
* :class:`ClassCountView` — the store's per-worker label histograms, served
  block by block from one per-class prefix sum, never as an ``(N, K)`` table.
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

import math
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
    "ClassCountView",
    "StackPool",
    "Population",
]

#: Workers per pass of a walk over every store window (bounds its scratch).
_BLOCK = 1 << 16


def _index_dtype(rows: int) -> type:  # the narrowest exact row index into ``rows`` rows
    return np.int32 if rows < 2**31 else np.int64


def _resident_bytes(a: np.ndarray) -> int:
    """The bytes ``a``'s buffer spans: one entry along a zero-stride axis."""
    if not a.size:
        return 0
    return a.itemsize + sum((d - 1) * abs(k) for d, k in zip(a.shape, a.strides))


class ShardView(NamedTuple):
    """One worker's training data as ``(x, y)``.

    Both arrays are contiguous slice views into the shared store
    (zero-copy).  The class is a 2-tuple, so legacy call sites that unpack
    ``x, y = worker_data[i]`` or index ``worker_data[i][0]`` keep working.
    """

    x: np.ndarray
    y: np.ndarray


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
    is non-positive, served as a read-only view (zero-stride, one float,
    when ``raw_sizes`` is: the replicated layout's), and
    ``total_size = float(sizes.sum())``; the weights
    ``α_i = sizes[i] / total_size`` of Eqs. (8)/(10) are computed where they
    are read, for the workers read.  The event-loop counters ``staleness``
    (at the last commit), ``dispatches``, ``unavailable`` and ``dropped``
    are int32 ``(N,)`` arrays.
    """

    raw_sizes: InitVar[np.ndarray]
    latencies: Optional[np.ndarray] = None
    sizes: np.ndarray = field(init=False, repr=False)
    total_size: float = field(init=False, default=0.0)
    gains: Optional[np.ndarray] = field(init=False, default=None, repr=False)
    staleness: np.ndarray = field(init=False, repr=False)
    dispatches: np.ndarray = field(init=False, repr=False)
    unavailable: np.ndarray = field(init=False, repr=False)
    dropped: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, raw_sizes: np.ndarray) -> None:
        raw = np.asarray(raw_sizes)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("raw_sizes must be a non-empty 1-D array")
        n = raw.size
        # Exact op sequence of the legacy BaseTrainer init (bit-identity), on
        # the distinct entries: a zero-stride input converts its one entry.
        distinct = raw[:1] if raw.strides == (0,) else raw
        sizes = distinct.astype(np.int64, copy=False).astype(np.float64)
        if np.any(sizes <= 0):
            sizes = np.maximum(sizes, 1e-9)
        self.sizes = np.broadcast_to(sizes, (n,))
        self.total_size = float(self.sizes.sum())
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

    @property
    def nbytes(self) -> int:
        """Resident bytes: what each array's buffer spans (one entry along a
        zero-stride axis), not ``size * itemsize``."""
        arrays = (self.sizes, self.latencies, self.staleness, self.dispatches,
                  self.unavailable, self.dropped, self.gains, *self._fields.values())
        return sum(_resident_bytes(a) for a in arrays if a is not None)

    # -- event-loop recorders (all O(group size), vectorized writes) ----

    def record_gains(self, round_index: int, gains: np.ndarray) -> None:
        """Reference (not copy) the most recent full-population gain draw."""
        self.gains = gains

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
    """One shared ``(x, y)`` sample store with per-worker row windows.

    Worker ``w`` owns rows ``starts[w] : starts[w] + sizes[w]`` (int32 starts
    below 2³¹ rows; int64 sizes, a zero-stride view kept as one entry);
    :meth:`shard` returns contiguous slice views, never copies.  Two layouts:

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
    sizes: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        starts, sizes = np.asarray(self.starts), np.asarray(self.sizes)
        kinds = {starts.dtype.kind, sizes.dtype.kind}
        if starts.shape != sizes.shape or starts.ndim != 1 or not kinds <= {"i", "u"}:
            raise ValueError("starts/sizes must be matching 1-D integer arrays")
        if starts.size == 0:
            raise ValueError("store must describe at least one worker")
        if len(self.x) != len(self.y):
            raise ValueError("x and y row counts differ")
        n = len(self.x)
        last_row = max(  # max(starts + sizes), one block of workers at a time
            np.add(starts[i : i + _BLOCK], sizes[i : i + _BLOCK], dtype=np.int64).max()
            for i in range(0, starts.size, _BLOCK)
        )
        if starts.min() < 0 or sizes.min() < 0 or last_row > n:
            raise ValueError("offset windows out of bounds")
        self.starts = starts.astype(_index_dtype(n), copy=False)
        self.sizes = sizes.astype(np.int64, copy=False)

    @property
    def num_workers(self) -> int:
        return int(self.starts.size)

    def shard(self, worker_id: int) -> ShardView:
        """Zero-copy ``(x, y)`` slice views for one worker."""
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(f"invalid worker id {worker_id}")
        s = int(self.starts[worker_id])
        e = s + int(self.sizes[worker_id])
        return ShardView(self.x[s:e], self.y[s:e])

    def shards(self) -> _ShardSequence:
        """Lazy sequence of all shard views (no per-worker allocation)."""
        return _ShardSequence(self)

    @property
    def nbytes(self) -> int:
        """Resident bytes, as :attr:`WorkerStateTable.nbytes` counts them."""
        return sum(map(_resident_bytes, (self.x, self.y, self.starts, self.sizes)))

    @classmethod
    def from_partition(
        cls, dataset: "Dataset", partition: "Partition"
    ) -> "SharedDatasetStore":
        """Reorder the training set so each worker's rows are contiguous.

        Shard *values* equal the legacy per-worker ``x_train[indices]`` copies
        exactly (same fancy index, then a contiguous slice of the result).
        """
        arrays = [partition.worker_indices(w) for w in range(partition.num_workers)]
        sizes = np.array([a.size for a in arrays], dtype=np.int64)
        perm = np.concatenate([np.empty(0, dtype=np.int64)] + [a for a in arrays if a.size])
        return cls(
            x=dataset.x_train[perm],
            y=dataset.y_train[perm],
            starts=np.cumsum(sizes) - sizes,
            sizes=sizes,
            num_classes=dataset.num_classes,
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
        # (w·stride) mod window repeats every window / gcd(stride, window)
        # workers: one O(n) cycle, copied row by row into the narrow starts.
        cycle = np.arange(window // math.gcd(stride, window), dtype=np.int64) * stride % window
        starts = np.empty(num_workers, dtype=_index_dtype(n))
        whole = num_workers - num_workers % cycle.size
        starts[:whole].reshape(-1, cycle.size)[:] = cycle
        starts[whole:] = cycle[: num_workers - whole]
        return cls(
            x=dataset.x_train,
            y=dataset.y_train,
            starts=starts,
            sizes=np.broadcast_to(np.int64(shard_size), (num_workers,)),
            num_classes=dataset.num_classes,
        )


class ClassCountView:
    """A store's per-worker label histograms ``d_i^k``, shape ``(N, K)``,
    served from one class-major prefix sum and never held as a table.

    ``prefix[c, r]`` counts label ``c`` in rows ``[0, r)``, so worker ``w``'s
    count of ``c`` is ``prefix[c, starts[w] + sizes[w]] - prefix[c, starts[w]]``:
    non-negative, since the labels are range-checked here and every window
    lies in ``[0, n]``.  ``view[rows]`` (an id, an id array or a slice)
    returns those rows' counts, :meth:`totals` sums every window in one pass
    and ``np.asarray`` materialises the table.
    """

    def __init__(self, store: SharedDatasetStore) -> None:
        labels, k = np.asarray(store.y), store.num_classes
        if labels.size and (labels.min() < 0 or labels.max() >= k):
            raise ValueError("partition labels out of range for num_classes")
        self.starts, self.sizes, self.shape = store.starts, store.sizes, (store.num_workers, k)
        self.prefix = np.zeros((k, labels.size + 1), dtype=_index_dtype(labels.size))
        self.dtype = self.prefix.dtype
        np.cumsum(labels == np.arange(k)[:, None], axis=1, dtype=self.dtype, out=self.prefix[:, 1:])

    def __getitem__(self, rows) -> np.ndarray:
        lower = np.asarray(self.starts[rows], dtype=np.intp)
        upper = (lower + self.sizes[rows]).ravel()
        block = np.empty((self.shape[1], lower.size), self.dtype)  # class-major
        for prefix, counts in zip(self.prefix, block):
            # Windows lie in [0, n]: "clip" skips the buffered bounds check.
            prefix.take(upper, out=counts, mode="clip")
            counts -= prefix.take(lower.ravel(), mode="clip")
        return block.T.reshape(*lower.shape, -1)

    def totals(self) -> np.ndarray:
        """Per-class sums, int64 ``(K,)``: the prefix dotted with how many
        windows end minus start at each row, a block of workers at a time."""
        net = np.zeros(self.prefix.shape[1], dtype=np.int64)
        for i in range(0, self.shape[0], _BLOCK):
            lower = self.starts[i : i + _BLOCK]
            net += np.bincount(lower + self.sizes[i : i + _BLOCK], minlength=net.size)
            net -= np.bincount(lower, minlength=net.size)
        return self.prefix @ net

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self[:], dtype=dtype)


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
        state = WorkerStateTable(raw_sizes=store.sizes, latencies=nominal)
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

    def class_counts(self):
        """Per-worker label histograms (partition-cached, else a store view)."""
        if self.partition is not None:
            return self.partition.class_counts()
        return ClassCountView(self.store)
