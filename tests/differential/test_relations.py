"""The paper's special cases, as relations between two documents.

The execution axes ask whether every way of computing a document gives one
history; these ask whether that history is the right one.  Air-FedAvg is
Air-FedGA with ``M = 1`` (Corollary 2), noiseless Air-FedAvg learns as
FedAvg, and FedProx, TiFL and the staleness policies each reduce to a
simpler mechanism at one parameter value.  Each
relation runs both documents and compares their histories column by column
and counter by counter: bit for bit, except where docs/ARCHITECTURE.md
("Schedules, uplinks, groupings") states a tolerance and its cause.  Each
docstring names the mutation the relation catches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import FIGURES, Scenario

#: ``Scenario.default()`` for 12 rounds, every round evaluated.
DEFAULT = Scenario.default().with_(**{"training.max_rounds": 12, "training.eval_every": 1})


def _history(scenario, mechanism, **params):
    """``scenario``'s columns and fault counters under ``mechanism(**params)``."""
    history = scenario.with_(mechanism={"name": mechanism, "params": params}).run()
    return {"columns": history.to_dict()["columns"], "faults": history.fault_counters()}


@pytest.mark.parametrize("scenario", [DEFAULT, FIGURES["fig3"]()], ids=["default", "fig3"])
def test_one_group_air_fedga_is_air_fedavg(scenario):
    """Air-FedGA with one ``contiguous`` group is Air-FedAvg, every column bit
    for bit, ``max_time`` cut included.  Catches: the default one-group
    ``build_groups`` listing the workers in reverse (``α @ A`` sums in
    another order)."""
    one_group = _history(scenario, "air_fedga", grouping_strategy="contiguous", num_groups=1)
    assert one_group == _history(scenario, "air_fedavg")


def test_noiseless_air_fedavg_learns_as_fedavg():
    """With σ₀² = 0 on a ``static`` channel, Eq. (44) gives √η = σ, so the
    AirComp estimate Σ σ d_i w_i / (D √η) is FedAvg's Σ d_i w_i / D up to
    rounding: loss within ``rtol=1e-14`` (2.4e-16 measured) and accuracy
    exact on every sampled round.  Time and energy differ by design (the
    uplinks differ).  Catches: the estimate dropping its ``1/√η``
    (``aircomp_aggregate`` dividing by ``D`` alone)."""
    noiseless = DEFAULT.with_(
        **{"channel.name": "static", "algorithm.aircomp.noise_variance": 0.0}
    )
    air = _history(noiseless, "air_fedavg")["columns"]
    fedavg = _history(noiseless, "fedavg")["columns"]
    for name in ("round_index", "sampled", "accuracy"):
        assert air[name] == fedavg[name], name
    assert all(air["sampled"])
    np.testing.assert_allclose(air["loss"], fedavg["loss"], rtol=1e-14)


def test_fedprox_without_the_proximal_term_is_fedavg():
    """``mu = 0`` takes FedAvg's untouched step.  Catches: FedProx falling
    back to its default ``mu`` when given 0 (``self.mu or 0.01``)."""
    assert _history(DEFAULT, "fedprox", mu=0.0) == _history(DEFAULT, "fedavg")


def test_one_tier_tifl_is_fedavg():
    """One tier is every worker in one group over the OMA uplink.  The tier
    lists its workers by latency and FedAvg's group by id, so ``α @ A`` adds
    the same rows in another order: loss within ``rtol=1e-14`` (2.4e-16
    measured; sorting the tier makes it exact), every other column exact.
    Catches: TiFL building ``num_tiers + 1`` tiers."""
    tifl, fedavg = _history(DEFAULT, "tifl", num_tiers=1), _history(DEFAULT, "fedavg")
    np.testing.assert_allclose(tifl["columns"].pop("loss"), fedavg["columns"].pop("loss"), rtol=1e-14)
    assert tifl == fedavg


def test_constant_staleness_is_no_policy():
    """``constant`` at its default is Eq. (10) undamped.  Catches: a default
    ``value`` below 1."""
    plain = _history(DEFAULT, "air_fedga")
    assert _history(DEFAULT, "air_fedga", staleness="constant") == plain
    assert max(plain["columns"]["staleness"]) > 0  # stale commits were mixed


def test_polynomial_staleness_of_exponent_zero_is_no_policy():
    """``s(τ) = 1 / (1 + τ)^0 = 1``.  Catches: ``resolve_staleness_policy``
    dropping a mapping's ``params`` (the default exponent 0.5 damps)."""
    policy = {"name": "polynomial", "params": {"exponent": 0.0}}
    assert _history(DEFAULT, "air_fedga", staleness=policy) == _history(DEFAULT, "air_fedga")
