"""Core contribution: the Air-FedGA mechanism and its optimization algorithms."""

from .config import (
    AirCompConfig,
    AirFedGAConfig,
    ConvergenceConfig,
    FaultConfig,
    GroupingConfig,
)
from .timing import (
    average_round_time,
    estimated_max_staleness,
    expected_dispatch_attempts,
    faulty_group_completion_time,
    group_completion_time,
    participation_frequencies,
)
from .convergence import (
    ConvergenceBound,
    grouping_objective,
    lemma1_bound_sequence,
    lemma1_decay,
    lemma1_residual,
    rounds_to_epsilon,
    theorem1_bound,
    theorem1_delta,
    theorem1_rho,
)
from .power_control import (
    PowerControlCache,
    PowerControlResult,
    optimal_eta,
    solve_power_control,
)
from .grouping import (
    GROUPING_STRATEGIES,
    GroupingProblem,
    GroupingResult,
    contiguous_grouping,
    greedy_grouping,
    random_grouping,
    singleton_grouping,
    tier_grouping,
)
from .mechanism import AggregationEvent, GroupAsyncScheduler
from .population import (
    Population,
    SharedDatasetStore,
    ShardView,
    StackPool,
    WorkerStateTable,
)

__all__ = [
    "AirCompConfig",
    "GroupingConfig",
    "ConvergenceConfig",
    "FaultConfig",
    "AirFedGAConfig",
    "group_completion_time",
    "average_round_time",
    "participation_frequencies",
    "estimated_max_staleness",
    "expected_dispatch_attempts",
    "faulty_group_completion_time",
    "lemma1_decay",
    "lemma1_residual",
    "lemma1_bound_sequence",
    "theorem1_rho",
    "theorem1_delta",
    "theorem1_bound",
    "rounds_to_epsilon",
    "grouping_objective",
    "ConvergenceBound",
    "PowerControlCache",
    "PowerControlResult",
    "optimal_eta",
    "solve_power_control",
    "GroupingProblem",
    "GroupingResult",
    "greedy_grouping",
    "tier_grouping",
    "random_grouping",
    "singleton_grouping",
    "contiguous_grouping",
    "GROUPING_STRATEGIES",
    "AggregationEvent",
    "GroupAsyncScheduler",
    "WorkerStateTable",
    "ShardView",
    "SharedDatasetStore",
    "StackPool",
    "Population",
]
