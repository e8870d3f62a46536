"""Algorithm 3 as it was first coded: the reference of the incremental search.

:func:`greedy_grouping` tries each candidate placement of a worker by
re-scoring the whole trial grouping with ``_evaluate_grouping`` and the
scalar objective of :mod:`oracle.convergence` (:func:`_evaluate`), and
:func:`_refine_grouping` does the same for each relocation it tries.
:func:`repro.core.grouping.greedy_grouping` scores the same placements from
per-group running state; ``tests/oracle/test_grouping.py`` checks
that the two return the same grouping and the same floats, bit for bit.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.core.grouping import GroupingProblem, GroupingResult, _evaluate_grouping
from repro.core.timing import average_round_time
from repro.experiments.scenario import Scenario

from oracle.convergence import grouping_objective


def grouping_problem(scenario: Scenario) -> GroupingProblem:
    """Algorithm 3's inputs for ``scenario``'s workers, as its trainer builds
    them, with data sizes of their own (the trainer's are read-only)."""
    problem = scenario.build().grouping_problem()
    return dataclasses.replace(problem, data_sizes=problem.data_sizes.copy())


def _evaluate(problem: GroupingProblem, groups: Sequence[Sequence[int]]) -> GroupingResult:
    """``_evaluate_grouping``'s result with its objective from the scalar
    oracle, so the loop's objective does not come from ``_objectives``."""
    result = _evaluate_grouping(problem, groups, "greedy")
    objective = grouping_objective(
        problem.config.convergence,
        round_time=average_round_time(result.group_times),
        tau_max=result.tau_max_estimate,
        psi=result.frequencies,
        beta=result.betas,
        lambdas=result.lambdas,
        c_max=problem.c_max,
    )
    return dataclasses.replace(result, objective=objective)


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
    upload_latency = problem.upload_latency()

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
            result = _evaluate(problem, trial_groups)
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
    return _evaluate(problem, groups)


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
    best = _evaluate(problem, current).objective
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
                objective = _evaluate(problem, trial_groups).objective
                if objective < best - 1e-12:
                    current = trial_groups
                    best = objective
                    improved = True
                    break
        if not improved:
            break
    return current
