"""Eq. (30)'s error term is the error a trainer's aggregation makes.

:func:`~repro.channel.aircomp.aggregation_error_term` is the expected
squared error ``‖y/(D_j√η) − Σ (d_i/D_j) w_i‖²`` of the whole aggregated
vector.  A trainer draws each of the q entries' noise at σ₀²/L (L the
paper-scale upload dimension) and hands power control the vector's noise
power q·σ₀²/L.  With every member holding one vector of norm W_t the term is
exact, not a bound, so the mean realised error of many seeded aggregations
must match the solver's ``error_term`` within the sampling error of a mean.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.channel.aircomp import aircomp_aggregate
from repro.core.power_control import solve_power_control
from repro.fl import build_trainer

#: Aggregations per draw; the tolerance below shrinks as 1/√SAMPLES.
SAMPLES = 400


@pytest.mark.parametrize("latency_dimension", [None, 101_770])
@pytest.mark.parametrize("seed", range(3))
def test_mean_realised_error_matches_the_error_term(small_experiment, seed, latency_dimension):
    experiment = dataclasses.replace(
        small_experiment, latency_model_dimension=latency_dimension
    )
    trainer = build_trainer("air_fedavg", experiment)
    q = trainer.model.dimension
    rng = np.random.default_rng(seed)
    members = rng.choice(experiment.num_workers, size=rng.integers(1, 6), replace=False)
    sizes = trainer.data_sizes[members]
    gains = rng.uniform(0.2, 2.0, members.size)
    w = rng.standard_normal(q) * rng.uniform(0.1, 3.0)
    bound = float(np.linalg.norm(w))
    pc = solve_power_control(sizes, gains, bound, trainer._pc_config)

    group = float(sizes.sum())
    noise_rng = np.random.default_rng([seed, 1])
    models = np.tile(w, (members.size, 1))
    errors = [
        float(np.sum((aircomp_aggregate(
            models, sizes, gains, pc.sigma, pc.eta, trainer._noise_std, noise_rng,
            total_data_size=group,
        ).estimate - w) ** 2))
        for _ in range(SAMPLES)
    ]  # fmt: skip

    # The error is ‖b + z‖²: the bias b = (σ/√η − 1)·w, and z has q entries of
    # variance v.  Its variance is 4‖b‖²v + 2qv², so the mean's is that / SAMPLES.
    v = trainer._noise_std**2 / (group**2 * pc.eta)
    bias = (pc.sigma / np.sqrt(pc.eta) - 1.0) ** 2 * bound**2
    std_of_mean = np.sqrt((4 * bias * v + 2 * q * v**2) / SAMPLES)
    assert abs(np.mean(errors) - pc.error_term) <= 5 * std_of_mean, (
        np.mean(errors) / pc.error_term
    )
