"""Worker grouping strategies.

The central algorithm is the paper's greedy worker-grouping algorithm
(Algorithm 3), which builds the grouping one worker at a time so as to
minimize the estimated total training time

    L(x) = L · (1 + τ̂_max) · log_B A                          (P4, Eq. 48)

subject to the intra-group time-similarity constraint

    L_j(x) − L_u − l_i ≤ ξ · Δl   for every v_i ∈ V_j.        (Eq. 36d)

Four alternative strategies are provided for the baselines and ablations:

* :func:`tier_grouping` — TiFL-style tiers formed purely by local-training
  time quantiles (ignores data distribution),
* :func:`random_grouping` — uniformly random assignment into a fixed number
  of groups,
* :func:`singleton_grouping` — every worker its own group (Table III's
  'Original' column, the fully asynchronous limit ξ → 0), and
* :func:`contiguous_grouping` — index-contiguous blocks, for 1M workers,
  where greedy's ~0.1 ms per worker would add up to minutes.

Every strategy returns its groups as int32 (below 2³¹ workers) views of one
member array: tier, random, singleton and contiguous of their own order
array (an argsort, a permutation, an ``arange``), scored in bounded memory.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..channel.aircomp import aircomp_latency
from .config import AirFedGAConfig
from .population import ClassCountView, _index_dtype
from .timing import estimated_max_staleness, participation_frequencies

__all__ = [
    "GroupingProblem",
    "GroupingResult",
    "greedy_grouping",
    "tier_grouping",
    "random_grouping",
    "singleton_grouping",
    "contiguous_grouping",
    "GROUPING_STRATEGIES",
]


@dataclass
class GroupingProblem:
    """Inputs to a grouping decision.

    Attributes
    ----------
    data_sizes:
        Per-worker data sizes ``d_i``.
    class_counts:
        Per-worker per-class counts ``d_i^k`` (shape workers x classes), or
        a store's :class:`~repro.core.population.ClassCountView`.
    local_times:
        Per-worker local-training times ``l_i`` (Section V-A, estimated from
        historical measurements; here from the latency table).
    model_dimension:
        Model dimension ``q`` used for the AirComp upload latency.
    config:
        Core configuration (grouping slack ξ, AirComp physical parameters,
        convergence constants).
    c_max:
        The power-control error term C plugged into the objective; the
        caller typically computes it once with
        :func:`repro.core.power_control.solve_power_control`.
    """

    data_sizes: np.ndarray
    class_counts: np.ndarray
    local_times: np.ndarray
    model_dimension: int
    config: AirFedGAConfig = field(default_factory=AirFedGAConfig)
    c_max: float = 0.0
    #: Per-class totals ``Σ_i d_i^k``, in the dtype every count sum uses.
    class_totals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.data_sizes = np.asarray(self.data_sizes, dtype=np.float64)
        # Counts are exact in any integer dtype or as float64: an integer
        # table is kept as given (no N x K copy) and summed in int64, one
        # class column at a time, so that sums cannot wrap.  A store's view
        # holds non-negative integers by construction and sums itself.
        view = isinstance(self.class_counts, ClassCountView)
        counts = self.class_counts if view else np.asarray(self.class_counts)
        if counts.dtype.kind not in "iu":
            counts = counts.astype(np.float64, copy=False)
        self.class_counts = counts
        self.local_times = np.asarray(self.local_times, dtype=np.float64)
        n = self.data_sizes.shape[0]
        if n == 0:
            raise ValueError("at least one worker required")
        if self.class_counts.shape[0] != n:
            raise ValueError("class_counts must have one row per worker")
        if self.local_times.shape[0] != n:
            raise ValueError("local_times must have one entry per worker")
        # NaN and inf would reach the objective.  min and max propagate NaN,
        # so each test fails on it; an integer table holds no NaN or inf.
        sizes, times = self.data_sizes, self.local_times
        if not (sizes.min() >= 0 and (view or counts.min(initial=0) >= 0)):
            raise ValueError("data sizes and class counts must be non-negative")
        if not times.min() > 0:
            raise ValueError("local training times must be positive")
        largest = sizes.max()
        if not largest > 0:  # every β_j would be 0 / 0
            raise ValueError("data sizes must not all be zero")
        finite = largest < np.inf and times.max() < np.inf
        if not finite or counts.dtype.kind == "f" and not counts.max(initial=0) < np.inf:
            raise ValueError("data sizes, class counts and local times must be finite")
        if self.model_dimension <= 0:
            raise ValueError("model_dimension must be positive")
        if not 0 <= self.c_max < np.inf:
            raise ValueError("c_max must be finite and non-negative")
        wide = np.float64 if counts.dtype.kind == "f" else np.int64
        self.class_totals = (
            counts.totals() if view else np.array([col.sum(dtype=wide) for col in counts.T])
        )

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return int(self.data_sizes.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.class_counts.shape[1])

    def global_distribution(self) -> np.ndarray:
        """λ_k over all workers (uniform if the dataset were empty)."""
        s = self.class_totals.sum()
        if s <= 0:
            return np.full(self.num_classes, 1.0 / self.num_classes)
        return self.class_totals / s

    def upload_latency(self) -> float:
        """L_u (Eq. 33): the AirComp upload time, the same for every group."""
        air = self.config.aircomp
        return aircomp_latency(self.model_dimension, air.num_subchannels, air.symbol_duration_s)

    def time_spread(self) -> float:
        """Δl = max l_i − min l_i."""
        return float(self.local_times.max() - self.local_times.min())


@dataclass
class GroupingResult:
    """A concrete grouping plus the quantities needed downstream.

    ``groups`` are the non-empty groups as int32 (below 2³¹ workers) member
    arrays, back-to-back views of one array: they index per-worker arrays
    directly, with no per-worker Python objects at XL scale.
    """

    groups: List[np.ndarray]
    objective: float
    group_times: np.ndarray
    frequencies: np.ndarray
    betas: np.ndarray
    lambdas: np.ndarray
    upload_latency: float
    tau_max_estimate: float
    strategy: str = "greedy"

    @property
    def num_groups(self) -> int:
        return len(self.groups)


# ----------------------------------------------------------------------
# Shared evaluation of a candidate grouping
# ----------------------------------------------------------------------
def _evaluate_grouping(
    problem: GroupingProblem, groups: Sequence[Sequence[int]], strategy: str
) -> GroupingResult:
    """Score a grouping given as member lists or arrays (empty ones dropped);
    the result's groups are views of one int32 copy of them."""
    kept = [g for g in groups if len(g) > 0]
    if not kept:
        raise ValueError("grouping has no non-empty groups")
    bounds, dtype = np.array([0, *accumulate(map(len, kept))]), _index_dtype(problem.num_workers)
    return _score(problem, np.concatenate(kept, dtype=dtype), bounds, strategy)


#: Most members one block of whole groups holds (a larger group is a block
#: of its own): a pass over every member keeps a few MB of scratch at any
#: worker count.
_BLOCK_MEMBERS = 1 << 16


def _blocks(cuts: List[int]) -> Iterator[Tuple[int, int]]:
    """``(lo, hi)`` per block of groups ``lo:hi``, group j at ``cuts[j]:cuts[j + 1]``."""
    lo = 0
    while lo < len(cuts) - 1:
        hi = max(lo + 1, bisect_right(cuts, cuts[lo] + _BLOCK_MEMBERS) - 1)
        yield lo, hi
        lo = hi


def member_blocks(groups: Sequence[Sequence[int]]) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """``(lo, members, starts)`` per block of whole groups (as many as fit, at
    least one): the members of groups ``lo`` on as one int64 array, and where
    each group begins in it.  Every pass over all members walks these, so
    none copies more than one block."""
    cuts = [0, *accumulate(map(len, groups))]
    for lo, hi in _blocks(cuts):
        yield lo, np.concatenate(groups[lo:hi], dtype=np.int64), np.subtract(cuts[lo:hi], cuts[lo])


def member_range(groups: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """The smallest and the largest member of ``groups``, block by block."""
    ends = [(int(block.min()), int(block.max())) for _, block, _ in member_blocks(groups)]
    return min(low for low, _ in ends), max(high for _, high in ends)


def _score(
    problem: GroupingProblem, order: np.ndarray, bounds: np.ndarray, strategy: str
) -> GroupingResult:
    """Score the grouping whose group j is ``order[bounds[j]:bounds[j + 1]]``.

    Per-group quantities are segment reductions (``np.maximum.reduceat`` /
    ``np.add.reduceat``) over blocks of whole groups, at most
    ``_BLOCK_MEMBERS`` members each, slices of ``order``.  Each segment
    reduces on its own, so the float64 results match the per-group
    ``max``/``sum`` reductions exactly: objectives and greedy decisions are
    bit-identical.  The result's groups are views of ``order``.
    """
    cuts = bounds.tolist()
    groups = [order[a:b] for a, b in zip(cuts, cuts[1:])]
    upload = problem.upload_latency()  # L_j = max_i l_i + L_u (Eq. 34)
    group_times, sums = np.empty(len(groups)), np.empty(len(groups))
    counts = np.empty((len(groups), problem.num_classes))
    for lo, hi in _blocks(cuts):
        ids, starts = order[cuts[lo] : cuts[hi]], bounds[lo:hi] - cuts[lo]
        # A run of consecutive ids reads every per-worker array as a slice.
        in_order = ids[-1] - ids[0] == ids.size - 1 and np.all(ids[1:] > ids[:-1])
        rows = slice(int(ids[0]), int(ids[-1]) + 1) if in_order else ids
        group_times[lo:hi] = np.maximum.reduceat(problem.local_times[rows], starts) + upload
        sums[lo:hi], counts[lo:hi] = _segment_sums(problem, rows, starts)
    betas = sums / float(problem.data_sizes.sum())
    lambdas = _lambdas(counts, problem.global_distribution())
    psi = participation_frequencies(group_times)
    tau = max(0.0, estimated_max_staleness(group_times) - 1.0)
    (objective,) = _objectives(problem, group_times[None], betas[None], lambdas[None])
    return GroupingResult(
        groups=groups,
        objective=objective,
        group_times=group_times,
        frequencies=psi,
        betas=betas,
        lambdas=lambdas,
        upload_latency=upload,
        tau_max_estimate=tau,
        strategy=strategy,
    )


def _segment_sums(problem: GroupingProblem, rows, starts: np.ndarray):
    """Size sums and class-count rows of the segments of workers ``rows`` (ids
    or a slice) that begin at ``starts``, each segment reduced on its own."""
    # Counts: one class column at a time, summed in the totals' dtype (int64
    # for any integer table).
    counts = np.empty((starts.size, problem.num_classes))
    for k, column in enumerate(problem.class_counts[rows].T):
        counts[:, k] = np.add.reduceat(column, starts, dtype=problem.class_totals.dtype)
    # ``ndarray.sum`` is 0 + pairwise(all members) while ``reduceat`` is
    # first + pairwise(rest): a leading zero per segment makes the two
    # the same float (sizes carry a 1e-9 floor, so the order can matter).
    members = problem.data_sizes[rows]
    zero_slots = starts + np.arange(starts.size)
    is_member = np.ones(members.size + starts.size, dtype=bool)
    is_member[zero_slots] = False
    sizes = np.zeros(is_member.size)
    sizes[is_member] = members
    return np.add.reduceat(sizes, zero_slots), counts


def _lambdas(counts: np.ndarray, global_dist: np.ndarray) -> np.ndarray:
    """Λ_j of each float64 class-count row: the L1 distance of its label
    distribution (uniform for an empty row) from the global one."""
    size = counts.sum(axis=1, keepdims=True)
    uniform = np.full(counts.shape, 1.0 / counts.shape[1])
    return np.abs(np.divide(counts, size, out=uniform, where=size > 0) - global_dist).sum(axis=1)


def _objectives(problem: GroupingProblem, times, betas, lambdas) -> List[float]:
    """The P4 objective ``L · (1 + τ̂_max) · log_B A`` (Eq. 48) of each row's
    grouping, rows of L_j, β_j and Λ_j: the one objective, read by every
    greedy placement and, on one row, by :func:`_score`.

    ``A = (ε − δ) / (F(w0) − F(w*))``, δ is Theorem 1's residual and ``B``
    its un-exponentiated contraction base (``inf`` outside (0, 1)).  When
    δ ≥ ε, as under strong label skew for every grouping, the round count
    is infinite; ``A`` is then clamped to 1e-3 and the value multiplied by
    ``1 + (δ − ε)/ε``, so candidates stay ranked by round time, staleness
    and skew.  A row's value does not depend on the rows beside it."""
    c = problem.config.convergence
    mu, gamma, L = c.strong_convexity_mu, c.learning_rate_gamma, c.smoothness_L
    eps = c.target_epsilon
    rates = 1.0 / times
    rate_sums = rates.sum(axis=1)
    psi = rates / rate_sums[:, None]
    wbs = np.matmul(psi[:, None, :], betas[:, :, None])[:, 0, 0]
    weights = gamma * L * lambdas**2 * c.gradient_bound_G**2 + L**2 * problem.c_max
    columns = rate_sums, times.max(axis=1, initial=0.0), wbs, (psi * betas * weights).sum(axis=1)
    objectives = []
    for rate_sum, top, wb, numerator in zip(*(column.tolist() for column in columns)):
        b = 1.0 - (2.0 * mu * gamma - mu / L) * wb
        if not 0.0 < b < 1.0:
            objectives.append(math.inf)
            continue
        delta = numerator / ((2.0 * mu * gamma * L - mu) * wb)
        a, penalty = (eps - delta) / c.initial_gap, 1.0
        if not delta < eps:
            a, penalty = 1e-3, 1.0 + (delta - eps) / eps
        rounds = math.log(max(a, 1e-3)) / math.log(b)
        round_time, tau = 1.0 / rate_sum, max(0.0, top * rate_sum - 1.0)
        # A >= 1 is converged by the bound: the round time alone decides.
        objectives.append(round_time if a >= 1.0 else round_time * (1.0 + tau) * rounds * penalty)
    return objectives


class _Groups:
    """Algorithm 3's groups as rows of ``state`` (L_j, β_j, Λ_j, fastest
    time, size sum, class counts); row ``len(members)`` is the empty group a
    new one starts from.  A row is what :func:`_score` computes for the group,
    bit for bit, so a placement is scored from the rows it changes: max and
    min are exact in any order, counts are integers, and an *exact*
    problem's sizes and counts (integer-valued, totals below 2**53) sum
    exactly in any order.  Any other problem (fractional sizes, the 1e-9
    floor of empty workers) re-reduces a changed row as ``_score`` does."""

    def __init__(self, problem: GroupingProblem):
        sizes, counts, n = problem.data_sizes, problem.class_counts, problem.num_workers
        self.problem, self.upload = problem, problem.upload_latency()
        self.limit = problem.config.grouping.xi * problem.time_spread() + 1e-12
        self.total, self.global_dist = float(sizes.sum()), problem.global_distribution()
        integral = (a.dtype.kind in "iu" or np.array_equal(a, np.floor(a)) for a in (sizes, counts))
        self.exact = all(integral) and max(self.total, float(problem.class_totals.sum())) < 2**53
        self.members: List[List[int]] = [[]]
        self.group_of = np.zeros(n, dtype=np.int64)
        self.state = np.zeros((n + 1, 5 + problem.num_classes))
        self.state[:, 0], self.state[:, 3] = -np.inf, np.inf

    def rows(self, workers, groups: np.ndarray, leaving: bool = False) -> Tuple[np.ndarray, ...]:
        """The rows of ``groups[i]`` joined (left) by ``workers[i]``, with
        (36d) met or not; a leaver's L_j and fastest time are the caller's."""
        rows, t = self.state[groups], self.problem.local_times[workers]  # workers: ids or one id
        if not leaving:
            rows[:, 0] = np.maximum(rows[:, 0], t + self.upload)
            rows[:, 3] = np.minimum(rows[:, 3], t)
        if self.exact:
            sign = -1.0 if leaving else 1.0
            rows[:, 4] += sign * self.problem.data_sizes[workers]
            rows[:, 5:] += sign * self.problem.class_counts[workers]
        else:
            lists = [
                [m for m in self.members[j] if m != w] if leaving else self.members[j] + [w]
                for w, j in zip(np.broadcast_to(workers, groups.shape).tolist(), groups.tolist())
            ]
            starts = np.array([0, *accumulate(map(len, lists))][:-1])
            ids = np.fromiter(chain.from_iterable(lists), np.int64)
            rows[:, 4], rows[:, 5:] = _segment_sums(self.problem, ids, starts)
        rows[:, 1] = rows[:, 4] / self.total
        rows[:, 2] = _lambdas(rows[:, 5:], self.global_dist)
        # (36d): the fastest member waits longest.
        return rows, rows[:, 0] - self.upload - rows[:, 3] <= self.limit

    def trials(self, width: int, cols: np.ndarray, rows: np.ndarray) -> List[float]:
        """Objectives of the first ``width`` groups with ``cols[r]`` replaced by ``rows[r]``."""
        table = self.state[:width, :3].T[:, None].repeat(len(cols), axis=1)
        table[:, np.arange(len(cols))[:, None], cols] = rows[..., :3].transpose(2, 0, 1)
        return _objectives(self.problem, *table)

    def place(self, worker: int) -> None:
        """Algorithm 3's step: ``worker`` joins the feasible group of least objective
        (the first of near-ties), else a group of its own, scored last and
        only when it could displace a finite best."""
        width = len(self.members) - 1
        rows, ok = self.rows(worker, np.arange(width + 1))
        cols, best, j = np.flatnonzero(ok[:width]), math.inf, width
        for i, value in enumerate(self.trials(width, cols[:, None], rows[cols, None])):
            if value < best - 1e-15:
                best, j = value, int(cols[i])
        alone = np.array([[width]]), rows[None, [width]]
        if best < math.inf and ok[width] and self.trials(width + 1, *alone)[0] < best - 1e-15:
            j = width
        self.members[j].append(worker)
        if j == width:
            self.members.append([])
        self.state[j], self.group_of[worker] = rows[j], j

    def refine(self) -> None:
        """Local search: each worker in turn moves to the first other feasible
        group that strictly lowers the objective (the greedy pass fixes groups
        before most workers are seen, which under label skew leaves easy
        gains).  A pass that moves nobody is the last of ``refine_passes`` (0:
        the paper's one pass).  Until a move the rows stand still, so a chunk
        of workers (about 4096 candidate-by-group cells) is scored at once."""
        n, width, times = self.problem.num_workers, len(self.members) - 1, self.problem.local_times
        if width < 2:
            return
        current = np.ascontiguousarray(self.state[:width, :3].T)[:, None]
        best = _objectives(self.problem, *current)[0]
        for _ in range(self.problem.config.grouping.refine_passes):
            moved, start = False, 0
            while start < n:
                visit = np.arange(start, min(start + max(1, 4096 // width**2), n))
                workers, groups = visit.repeat(width), np.tile(np.arange(width), visit.size)
                (join, ok), sources = self.rows(workers, groups), self.group_of[workers]
                sizes = np.array([len(m) for m in self.members])[sources]
                sel, start = np.flatnonzero(ok & (groups != sources) & (sizes > 1)), visit[-1] + 1
                if sel.size == 0:
                    continue
                workers, sources, targets, join = (x[sel] for x in (workers, sources, groups, join))
                leave = self.rows(workers, sources, leaving=True)[0]
                # Only the slowest member's leaving changes the source's L_j.
                for i in np.flatnonzero(times[workers] + self.upload == leave[:, 0]):
                    rest = [m for m in self.members[sources[i]] if m != workers[i]]
                    leave[i, 0] = times[rest].max() + self.upload
                both = np.stack([leave, join], axis=1)
                objectives = self.trials(width, np.column_stack([sources, targets]), both)
                hits = np.flatnonzero(np.array(objectives) < best - 1e-12)
                if hits.size:
                    (w, s, j), i = (int(x[hits[0]]) for x in (workers, sources, targets)), hits[0]
                    self.members[s].remove(w)
                    self.members[j].append(w)
                    leave[i, 3] = times[self.members[s]].min()
                    self.state[s], self.state[j], self.group_of[w] = leave[i], join[i], j
                    best, moved, start = objectives[i], True, w + 1
            if not moved:
                break


# ----------------------------------------------------------------------
# Algorithm 3: greedy grouping
# ----------------------------------------------------------------------
def greedy_grouping(problem: GroupingProblem) -> GroupingResult:
    """The paper's greedy worker-grouping algorithm (Algorithm 3).

    Workers are visited in descending order of data size.  Each worker is
    tentatively placed into every existing group and into a fresh singleton
    group; the placement with the smallest objective among those satisfying
    the time-similarity constraint (36d) is kept.  A singleton group always
    satisfies the constraint, so the algorithm always terminates with a
    complete assignment.  A worker's placements are scored in one batch over
    the G groups' running state (:class:`_Groups`), O(G²) array work each,
    and the grouping itself once, at the end.

    Ties in data size are broken by a seeded random permutation rather than
    by worker index: under the paper's label-skew partition consecutive
    worker indices hold the same class, and visiting them in index order
    would force the greedy to fill early groups with a single class before
    any other class has been seen.
    """
    rng = np.random.default_rng(problem.config.grouping.tie_break_seed)
    jitter = rng.permutation(problem.num_workers)
    order = np.lexsort((jitter, -problem.data_sizes))
    if not problem.config.grouping.sort_descending_by_data:
        order = np.arange(problem.num_workers)
    groups = _Groups(problem)
    for worker in order.tolist():
        groups.place(worker)
    groups.refine()
    return _evaluate_grouping(problem, groups.members, "greedy")


# ----------------------------------------------------------------------
# Baseline strategies
# ----------------------------------------------------------------------
def _split_grouping(
    problem: GroupingProblem, order: np.ndarray, num_groups: int, strategy: str
) -> GroupingResult:
    """``order`` cut as ``np.array_split`` cuts it: ``num_groups`` consecutive
    blocks, the first ``N mod num_groups`` of them one member longer.  An
    int64 order is cast to the index dtype (and freed) before scoring."""
    if num_groups < 1:
        raise ValueError("num_groups must be >= 1")
    order = order.astype(_index_dtype(problem.num_workers), copy=False)
    num_groups = min(num_groups, problem.num_workers)
    base, extra = divmod(problem.num_workers, num_groups)
    steps = np.arange(num_groups + 1)
    return _score(problem, order, steps * base + np.minimum(steps, extra), strategy)


def tier_grouping(problem: GroupingProblem, num_groups: int) -> GroupingResult:
    """TiFL-style tiers: sort workers by local-training time, split in quantiles.

    This only looks at timing, not at the label distribution, which is why
    its average EMD stays high in Table III.
    """
    return _split_grouping(problem, problem.local_times.argsort(kind="stable"), num_groups, "tier")


def random_grouping(
    problem: GroupingProblem, num_groups: int, seed: int = 0
) -> GroupingResult:
    """Uniformly random assignment into ``num_groups`` groups (ablation)."""
    rng = np.random.default_rng(seed)
    return _split_grouping(problem, rng.permutation(problem.num_workers), num_groups, "random")


def singleton_grouping(problem: GroupingProblem) -> GroupingResult:
    """Every worker forms its own group (the 'Original' column of Table III).

    This is also the fully-asynchronous limit ξ → 0 discussed around Fig. 8.
    """
    n = problem.num_workers
    return _split_grouping(problem, np.arange(n, dtype=_index_dtype(n)), n, "singleton")


def contiguous_grouping(problem: GroupingProblem, num_groups: int) -> GroupingResult:
    """Index-contiguous blocks of workers.

    No candidate evaluations and no per-worker Python objects: the groups
    are views of one ``arange``.  The ``scale_1m`` benchmark workload groups
    its 1M workers this way; greedy's ~0.1 ms per worker is minutes there.
    """
    order = np.arange(problem.num_workers, dtype=_index_dtype(problem.num_workers))
    return _split_grouping(problem, order, num_groups, "contiguous")


#: Every strategy by name, behind one signature ``(problem, num_groups,
#: seed)``; a strategy ignores the arguments it has no use for (``greedy``
#: and ``singleton`` fix the group count themselves, only ``random`` draws).
GROUPING_STRATEGIES: Dict[str, Callable[[GroupingProblem, int, int], GroupingResult]] = {
    "greedy": lambda problem, num_groups, seed: greedy_grouping(problem),
    "tier": lambda problem, num_groups, seed: tier_grouping(problem, num_groups),
    "random": random_grouping,
    "singleton": lambda problem, num_groups, seed: singleton_grouping(problem),
    "contiguous": lambda problem, num_groups, seed: contiguous_grouping(problem, num_groups),
}
