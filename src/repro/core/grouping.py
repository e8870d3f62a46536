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
* :func:`contiguous_grouping` — index-contiguous blocks; O(N) with no
  per-worker Python objects, the strategy used by the XL (10k–1M worker)
  bench tiers where greedy's O(N²) evaluations are unaffordable.

Every strategy returns its groups in one form: int64 member arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..channel.aircomp import aircomp_latency
from .config import AirFedGAConfig
from .convergence import grouping_objective
from .timing import (
    average_round_time,
    estimated_max_staleness,
    participation_frequencies,
)

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
        Per-worker per-class counts ``d_i^k`` (shape workers x classes).
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
        # class column at a time, so that sums cannot wrap.
        counts = np.asarray(self.class_counts)
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
        if np.any(self.data_sizes < 0) or self.class_counts.min(initial=0) < 0:
            raise ValueError("data sizes and class counts must be non-negative")
        if np.any(self.local_times <= 0):
            raise ValueError("local training times must be positive")
        if self.model_dimension <= 0:
            raise ValueError("model_dimension must be positive")
        if self.c_max < 0:
            raise ValueError("c_max must be non-negative")
        wide = np.float64 if counts.dtype.kind == "f" else np.int64
        self.class_totals = np.array([column.sum(dtype=wide) for column in counts.T])

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

    def time_spread(self) -> float:
        """Δl = max l_i − min l_i."""
        return float(self.local_times.max() - self.local_times.min())


@dataclass
class GroupingResult:
    """A concrete grouping plus the quantities needed downstream.

    ``groups`` are the non-empty groups as int64 member arrays, back-to-back
    views of one array: they index per-worker arrays directly, with no
    per-worker Python objects at XL scale.
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
    """Score one candidate grouping; its groups become int64 arrays.

    Per-group quantities are segment reductions over one flat int64 member
    array (``np.maximum.reduceat`` / ``np.add.reduceat``) — no Python loop
    over groups or members.  The float64 results match the per-group
    ``max``/``sum`` reductions exactly, so objectives and greedy decisions
    are bit-identical.  The result's groups are views of that array: the
    caller's lists or arrays are neither kept nor modified.
    """
    cfg = problem.config
    kept = [g for g in groups if len(g) > 0]
    if not kept:
        raise ValueError("grouping has no non-empty groups")
    # Group j owns flat[firsts[j]:ends[j]], the view the result keeps.
    ends = list(accumulate(map(len, kept)))
    firsts = [0, *ends[:-1]]
    flat = np.concatenate(kept, dtype=np.int64)
    members = [flat[a:b] for a, b in zip(firsts, ends)]
    starts = np.array(firsts)

    # L_u (Eq. 33) is membership-independent; L_j = max_i l_i + L_u (Eq. 34).
    upload = aircomp_latency(
        problem.model_dimension,
        cfg.aircomp.num_subchannels,
        cfg.aircomp.symbol_duration_s,
    )
    group_times = np.maximum.reduceat(problem.local_times[flat], starts) + upload

    # ``ndarray.sum`` is 0 + pairwise(all members) while ``reduceat`` is
    # first + pairwise(rest): a leading zero per segment makes the two the
    # same float (sizes carry a 1e-9 floor, so the order can matter).
    zero_slots = starts + np.arange(starts.size)
    is_member = np.ones(flat.size + starts.size, dtype=bool)
    is_member[zero_slots] = False
    sizes = np.zeros(is_member.size)
    sizes[is_member] = problem.data_sizes[flat]
    total_data = float(problem.data_sizes.sum())
    betas = np.add.reduceat(sizes, zero_slots) / total_data

    # Counts are integer-valued, exact in any summation order: one class at
    # a time, summed in the totals' dtype (int64 for any integer table).
    # Members in index order (contiguous, singleton) reduce each column as it
    # lies; otherwise the gather is O(N) per class, never O(N·K) at once.
    in_order = flat.size == problem.num_workers and np.array_equal(flat, np.arange(flat.size))
    wide = problem.class_totals.dtype
    counts = np.empty((len(kept), problem.num_classes))
    for k, column in enumerate(problem.class_counts.T):
        counts[:, k] = np.add.reduceat(column if in_order else column[flat], starts, dtype=wide)
    group_size = counts.sum(axis=1, keepdims=True)
    dists = np.divide(
        counts,
        group_size,
        out=np.full_like(counts, 1.0 / problem.num_classes),
        where=group_size > 0,
    )
    lambdas = np.abs(dists - problem.global_distribution()).sum(axis=1)

    psi = participation_frequencies(group_times)
    tau = max(0.0, estimated_max_staleness(group_times) - 1.0)
    objective = grouping_objective(
        cfg.convergence,
        round_time=average_round_time(group_times),
        tau_max=tau,
        psi=psi,
        beta=betas,
        lambdas=lambdas,
        c_max=problem.c_max,
    )
    return GroupingResult(
        groups=members,
        objective=float(objective),
        group_times=group_times,
        frequencies=psi,
        betas=betas,
        lambdas=lambdas,
        upload_latency=upload,
        tau_max_estimate=tau,
        strategy=strategy,
    )


def _constraint_satisfied(
    problem: GroupingProblem, members: Sequence[int], upload_latency: float
) -> bool:
    """Check Eq. (36d) for one group: every member's wait is within ξ·Δl."""
    times = problem.local_times[list(members)]
    group_time = float(times.max()) + upload_latency
    slack = problem.config.grouping.xi * problem.time_spread()
    # L_j − L_u − l_i ≤ ξ Δl  for all members (the slowest member trivially
    # satisfies it with wait 0).
    return bool(np.all(group_time - upload_latency - times <= slack + 1e-12))


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
    complete assignment.  Worst-case complexity is O(N²) group evaluations.

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

    groups: List[List[int]] = []
    # Upload latency is the same for every grouping (Eq. 33 does not depend
    # on group membership), so compute it once for the constraint check.
    upload_latency = aircomp_latency(
        problem.model_dimension,
        problem.config.aircomp.num_subchannels,
        problem.config.aircomp.symbol_duration_s,
    )

    for worker in order:
        worker = int(worker)
        best_objective = float("inf")
        best_index: Optional[int] = None
        # Candidate placements: every existing group plus a new singleton.
        candidates = list(range(len(groups))) + [len(groups)]
        for j in candidates:
            if j < len(groups):
                trial_members = groups[j] + [worker]
            else:
                trial_members = [worker]
            if not _constraint_satisfied(problem, trial_members, upload_latency):
                continue
            # A shallow copy: the evaluation copies the members it keeps.
            trial_groups = list(groups)
            if j < len(groups):
                trial_groups[j] = trial_members
            else:
                trial_groups.append(trial_members)
            result = _evaluate_grouping(problem, trial_groups, "greedy")
            if result.objective < best_objective - 1e-15:
                best_objective = result.objective
                best_index = j
        if best_index is None:
            # All placements infeasible in the objective sense (e.g. every
            # candidate returned inf); fall back to a fresh singleton group,
            # which is always constraint-feasible.
            best_index = len(groups)
        if best_index == len(groups):
            groups.append([worker])
        else:
            groups[best_index].append(worker)

    groups = _refine_grouping(problem, groups, upload_latency)
    return _evaluate_grouping(problem, groups, "greedy")


def _refine_grouping(
    problem: GroupingProblem,
    groups: List[List[int]],
    upload_latency: float,
) -> List[List[int]]:
    """Local-search refinement of the greedy assignment.

    The single greedy pass fixes each worker's group the moment it is
    visited, before most of the population has been seen; under strong label
    skew that leaves easy objective improvements on the table (e.g. two
    same-class workers stuck in the same group while another group of the
    same speed band misses that class entirely).  This pass repeatedly tries
    to *relocate* one worker to another constraint-feasible group and keeps
    any move that strictly decreases the same P4 objective the greedy pass
    minimizes.  The number of passes is bounded by
    ``GroupingConfig.refine_passes`` (0 disables refinement and recovers the
    paper's one-pass algorithm exactly).
    """
    passes = problem.config.grouping.refine_passes
    if passes <= 0 or len(groups) < 2:
        return groups
    current = [list(g) for g in groups]
    best = _evaluate_grouping(problem, current, "greedy").objective
    for _ in range(passes):
        improved = False
        for worker in range(problem.num_workers):
            source = next(
                (j for j, members in enumerate(current) if worker in members), None
            )
            if source is None or len(current[source]) <= 1:
                continue
            for target in range(len(current)):
                if target == source:
                    continue
                trial_members = current[target] + [worker]
                if not _constraint_satisfied(problem, trial_members, upload_latency):
                    continue
                trial = list(current)
                trial[source] = [w for w in current[source] if w != worker]
                trial[target] = trial_members
                trial_groups = [g for g in trial if g]
                objective = _evaluate_grouping(problem, trial_groups, "greedy").objective
                if objective < best - 1e-12:
                    current = trial_groups
                    best = objective
                    improved = True
                    break
        if not improved:
            break
    return current


# ----------------------------------------------------------------------
# Baseline strategies
# ----------------------------------------------------------------------
def _split_grouping(
    problem: GroupingProblem, order: np.ndarray, num_groups: int, strategy: str
) -> GroupingResult:
    """``order`` cut into ``num_groups`` near-equal consecutive blocks."""
    if num_groups < 1:
        raise ValueError("num_groups must be >= 1")
    chunks = np.array_split(order, min(num_groups, problem.num_workers))
    return _evaluate_grouping(problem, chunks, strategy)


def tier_grouping(problem: GroupingProblem, num_groups: int) -> GroupingResult:
    """TiFL-style tiers: sort workers by local-training time, split in quantiles.

    This only looks at timing, not at the label distribution, which is why
    its average EMD stays high in Table III.
    """
    order = np.argsort(problem.local_times, kind="stable")
    return _split_grouping(problem, order, num_groups, "tier")


def random_grouping(
    problem: GroupingProblem, num_groups: int, seed: int = 0
) -> GroupingResult:
    """Uniformly random assignment into ``num_groups`` groups (ablation)."""
    order = np.random.default_rng(seed).permutation(problem.num_workers)
    return _split_grouping(problem, order, num_groups, "random")


def singleton_grouping(problem: GroupingProblem) -> GroupingResult:
    """Every worker forms its own group (the 'Original' column of Table III).

    This is also the fully-asynchronous limit ξ → 0 discussed around Fig. 8.
    """
    groups = [[i] for i in range(problem.num_workers)]
    return _evaluate_grouping(problem, groups, "singleton")


def contiguous_grouping(problem: GroupingProblem, num_groups: int) -> GroupingResult:
    """Index-contiguous blocks of workers.

    The only strategy whose cost is O(N) in both time and Python objects:
    no per-worker lists, no candidate evaluations.  Combined with the
    replicated shared-dataset store this is what the ``grouped_round_xl``
    bench tiers use at 10k–1M workers; at those scales greedy's O(N²)
    objective evaluations are unaffordable and tier/random still build
    O(N) Python lists.
    """
    if num_groups < 1:
        raise ValueError("num_groups must be >= 1")
    num_groups = min(num_groups, problem.num_workers)
    # np.array_split's sizes (the first ``extra`` blocks hold one more), as
    # slices of one arange instead of one swapaxes round trip per block.
    ids = np.arange(problem.num_workers, dtype=np.int64)
    base, extra = divmod(problem.num_workers, num_groups)
    steps = np.arange(num_groups + 1)
    bounds = (steps * base + np.minimum(steps, extra)).tolist()
    groups = [ids[a:b] for a, b in zip(bounds, bounds[1:])]
    return _evaluate_grouping(problem, groups, "contiguous")


#: Every strategy by name, behind one signature ``(problem, num_groups,
#: seed)``; a strategy ignores the arguments it has no use for (``greedy``
#: and ``singleton`` fix the group count themselves, only ``random`` draws).
GROUPING_STRATEGIES: Dict[str, Callable[[GroupingProblem, int, int], GroupingResult]] = {
    "greedy": lambda problem, num_groups, seed: greedy_grouping(problem),
    "tier": lambda problem, num_groups, seed: tier_grouping(problem, num_groups),
    "random": random_grouping,
    "singleton": lambda problem, num_groups, seed: singleton_grouping(problem),
    "contiguous": lambda problem, num_groups, seed: contiguous_grouping(
        problem, num_groups
    ),
}
