"""Algorithm 3 from running per-group state against the re-scoring loop.

:func:`repro.core.grouping.greedy_grouping` scores a worker's placements
from per-group running rows; :func:`oracle.grouping.greedy_grouping`
re-scores the whole trial grouping for every placement.  They must return
the same groups, in the same member order, and the same floats, bit for bit.
The draws cover ties in size, zero sizes and the population's 1e-9 floor,
fractional sizes and counts, every branch of ``grouping_objective`` and
every search option.  ``_objectives`` is also checked row by row against
``grouping_objective``: a rounding slip there rarely flips a placement.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import AirFedGAConfig, ConvergenceConfig, GroupingConfig, GroupingProblem
from repro.core import grouping
from repro.core.convergence import theorem1_delta
from repro.core.timing import (
    average_round_time,
    estimated_max_staleness,
    participation_frequencies,
)
from repro.experiments.scenario import Scenario

from oracle.convergence import grouping_objective
from oracle.grouping import greedy_grouping as oracle_greedy_grouping, grouping_problem

#: Convergence constants that reach each branch of ``grouping_objective``:
#: b ∉ (0, 1) (inf), δ ≥ ε (penalised), δ < ε with A < 1, and A ≥ 1 (the
#: round time alone).
CONVERGENCE = {
    "flat": ConvergenceConfig(strong_convexity_mu=0.0),
    "penalised": ConvergenceConfig(),
    "converging": ConvergenceConfig(gradient_bound_G=0.1, target_epsilon=0.5),
    "converged": ConvergenceConfig(gradient_bound_G=0.01, initial_gap=0.01),
}


@st.composite
def problems(draw):
    """A grouping problem with the data shapes the population produces and
    the edge cases the running state must survive."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes_kind = draw(st.sampled_from(["counts", "ties", "zeros", "floor", "fractional"]))
    # Label skew: each worker holds one or two classes.
    counts = np.zeros((n, k), dtype=np.int64)
    for w in range(n):
        held = rng.choice(k, size=min(k, int(rng.integers(1, 3))), replace=False)
        counts[w, held] = rng.integers(1, 40, size=held.size)
    if sizes_kind in ("zeros", "floor"):
        counts[rng.random(n) < 0.3] = 0
    sizes = counts.sum(axis=1).astype(np.float64)
    if sizes_kind == "ties":
        sizes = rng.choice([10.0, 20.0, 30.0], size=n)
    elif sizes_kind == "floor":
        sizes = np.maximum(sizes, 1e-9)
    elif sizes_kind == "fractional":
        sizes = rng.uniform(0.1, 50.0, size=n)
    assume(sizes.max() > 0)  # all-zero sizes are refused (test_all_zero_sizes_are_refused)
    table = draw(st.sampled_from(["int64", "int32", "float64", "shares"]))
    if table == "shares":
        # Fractional counts: a worker's size split evenly over its classes.
        held = np.maximum((counts > 0).sum(axis=1, keepdims=True), 1)
        class_counts = (counts > 0) * sizes[:, None] / held
    else:
        class_counts = counts.astype(table)
    times = rng.uniform(0.5, 10.0, size=n)
    if draw(st.booleans()):
        times = np.round(times)  # ties in local time
    config = AirFedGAConfig(
        grouping=GroupingConfig(
            xi=draw(st.sampled_from([0.0, 0.3, 1.0])),
            refine_passes=draw(st.sampled_from([0, 1, 3])),
            sort_descending_by_data=draw(st.booleans()),
            tie_break_seed=draw(st.integers(0, 3)),
        ),
        convergence=CONVERGENCE[draw(st.sampled_from(sorted(CONVERGENCE)))],
    )
    return GroupingProblem(
        data_sizes=sizes,
        class_counts=class_counts,
        local_times=times,
        model_dimension=draw(st.sampled_from([10_000, 500_000])),
        config=config,
        c_max=draw(st.sampled_from([0.0, 0.02, 1.5])),
    )


def assert_same_grouping(got, want):
    assert [g.tolist() for g in got.groups] == [g.tolist() for g in want.groups]
    assert all(g.dtype == np.int32 for g in got.groups)
    for name in ("group_times", "frequencies", "betas", "lambdas"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("objective", "tau_max_estimate", "upload_latency"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


@given(problem=problems())
@settings(max_examples=300)
def test_greedy_grouping_equals_the_re_scoring_loop(problem):
    assert_same_grouping(grouping.greedy_grouping(problem), oracle_greedy_grouping(problem))


@pytest.mark.parametrize("floor", [False, True], ids=["exact", "floor"])
@pytest.mark.parametrize("workers, seed", [(40, 0), (40, 1), (40, 2), (100, 3)])
def test_default_scenario_problems_group_as_the_loop_groups_them(workers, seed, floor):
    """The paper's label-skewed workers, where refinement moves workers and
    groups outgrow eight members (a pairwise sum is then no running sum);
    ``floor`` gives one worker the population's 1e-9 size."""
    scenario = Scenario.default().with_(
        num_workers=workers, seed=seed, **{"data.params.num_train": 16 * workers}
    )
    problem = dataclasses.replace(grouping_problem(scenario), c_max=0.02 * seed)
    if floor:
        problem.data_sizes[seed] = 1e-9
    result = grouping.greedy_grouping(problem)
    assert max(len(g) for g in result.groups) >= 8
    assert_same_grouping(result, oracle_greedy_grouping(problem))


@st.composite
def objective_rows(draw):
    """A batch of groupings as rows of (L_j, β_j, Λ_j)."""
    rows, width = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = rng.uniform(0.5, 10.0, size=(rows, width)) ** draw(st.sampled_from([1, 3]))
    betas = rng.dirichlet(np.ones(width), size=rows) * rng.uniform(0.2, 1.0, size=(rows, 1))
    lambdas = rng.uniform(0.0, 2.0, size=(rows, width))
    name = draw(st.sampled_from(sorted(CONVERGENCE)))
    return times, betas, lambdas, name, draw(st.sampled_from([0.0, 0.02, 1.5]))


@given(batch=objective_rows())
@settings(max_examples=200)
def test_batched_objectives_equal_grouping_objective_row_by_row(batch):
    times, betas, lambdas, name, c_max = batch
    problem = GroupingProblem(
        data_sizes=np.ones(1),
        class_counts=np.ones((1, 1)),
        local_times=np.ones(1),
        model_dimension=1,
        config=AirFedGAConfig(convergence=CONVERGENCE[name]),
        c_max=c_max,
    )
    got = grouping._objectives(problem, times, betas, lambdas)
    for row, value in enumerate(got):
        want = grouping_objective(
            problem.config.convergence,
            round_time=average_round_time(times[row]),
            tau_max=max(0.0, estimated_max_staleness(times[row]) - 1.0),
            psi=participation_frequencies(times[row]),
            beta=betas[row],
            lambdas=lambdas[row],
            c_max=c_max,
        )
        assert repr(value) == repr(float(want))


@pytest.mark.parametrize("name", sorted(CONVERGENCE))
def test_each_convergence_preset_reaches_its_branch(name):
    times, betas, lambdas = np.array([2.0, 3.0, 5.0]), np.full(3, 0.3), np.full(3, 0.5)
    cfg = CONVERGENCE[name]
    psi = participation_frequencies(times)
    mu, gamma, L = cfg.strong_convexity_mu, cfg.learning_rate_gamma, cfg.smoothness_L
    b = 1.0 - (2.0 * mu * gamma - mu / L) * float(np.dot(psi, betas))
    problem = GroupingProblem(
        data_sizes=np.ones(1),
        class_counts=np.ones((1, 1)),
        local_times=np.ones(1),
        model_dimension=1,
        config=AirFedGAConfig(convergence=cfg),
    )
    (value,) = grouping._objectives(problem, times[None], betas[None], lambdas[None])
    if name == "flat":
        assert b == 1.0 and value == math.inf
        return
    delta = theorem1_delta(cfg, psi, betas, lambdas, 0.0)
    a = (cfg.target_epsilon - delta) / cfg.initial_gap
    branch = {
        "penalised": delta >= cfg.target_epsilon,
        "converging": delta < cfg.target_epsilon and a < 1.0,
        "converged": a >= 1.0 and value == average_round_time(times),
    }
    assert 0.0 < b < 1.0 and branch[name] and math.isfinite(value)


def test_fig_mlp_problem_is_scored_once(monkeypatch):
    """Greedy scores a whole grouping once, at the end; the re-scoring loop
    scored each of fig_mlp's 132 placements and relocations."""
    problem = fig_mlp_problem(monkeypatch)
    calls = []
    score = grouping._score
    monkeypatch.setattr(grouping, "_score", lambda *a: calls.append(1) or score(*a))
    result = grouping.greedy_grouping(problem)
    assert len(calls) == 1
    monkeypatch.undo()
    assert_same_grouping(result, oracle_greedy_grouping(problem))


def fig_mlp_problem(monkeypatch) -> GroupingProblem:
    """The grouping problem Algorithm 3 solves when ``fig_mlp``'s air_fedga
    trainer is built at seed 0."""
    root = Path(__file__).resolve().parents[2]
    doc = json.loads((root / "benchmarks/airbench/workloads.json").read_text())["fig_mlp"]
    seen = []
    greedy = grouping.greedy_grouping
    monkeypatch.setattr(grouping, "greedy_grouping", lambda p: seen.append(p) or greedy(p))
    mechanism = {"name": "air_fedga", "params": {}}
    Scenario.from_dict({**doc["scenario"], "seed": 0, "mechanism": mechanism}).build()
    monkeypatch.setattr(grouping, "greedy_grouping", greedy)
    (problem,) = seen
    assert problem.num_workers == 40
    return problem
