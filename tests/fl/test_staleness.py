"""Tests for the staleness-policy component (registry kind ``"staleness"``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import registry
from repro.fl import (
    AirFedGATrainer,
    ConstantStaleness,
    HingeStaleness,
    PolynomialStaleness,
    StalenessPolicy,
    resolve_staleness_policy,
)
from repro.fl.registry import build_trainer


class TestPolicies:
    def test_constant_weight(self):
        policy = ConstantStaleness(value=0.5)
        assert policy.weight(0) == 0.5
        assert policy.weight(100) == 0.5

    def test_constant_validates_range(self):
        with pytest.raises(ValueError, match="in \\(0, 1\\]"):
            ConstantStaleness(value=0.0)
        with pytest.raises(ValueError, match="in \\(0, 1\\]"):
            ConstantStaleness(value=1.5)

    def test_polynomial_matches_legacy_formula_bitwise(self):
        # The legacy inline expression of the grouped event loop; the
        # policy must reproduce it bit-for-bit so histories recorded
        # before the policy registry keep their values.
        for exponent in (0.25, 0.5, 1.0, 2.0):
            policy = PolynomialStaleness(exponent=exponent)
            for tau in range(0, 12):
                legacy = 1.0 / (1.0 + tau) ** exponent
                assert policy.weight(tau) == legacy

    def test_polynomial_exponent_zero_is_identity(self):
        policy = PolynomialStaleness(exponent=0.0)
        assert policy.weight(7) == 1.0

    def test_polynomial_validates_exponent_and_staleness(self):
        with pytest.raises(ValueError, match="non-negative"):
            PolynomialStaleness(exponent=-0.5)
        with pytest.raises(ValueError, match="staleness"):
            PolynomialStaleness(exponent=0.5).weight(-1)

    def test_hinge_flat_then_hyperbolic(self):
        policy = HingeStaleness(a=2.0, b=3.0)
        assert policy.weight(0) == 1.0
        assert policy.weight(3) == 1.0
        assert policy.weight(4) == 0.5
        assert policy.weight(5) == 0.25

    def test_hinge_validates_parameters(self):
        with pytest.raises(ValueError, match="a must be >= 1"):
            HingeStaleness(a=0.5)
        with pytest.raises(ValueError, match="b must be non-negative"):
            HingeStaleness(b=-1.0)

    def test_weights_stay_in_unit_interval(self):
        for policy in (
            ConstantStaleness(0.7),
            PolynomialStaleness(1.5),
            HingeStaleness(a=1.0, b=0.0),
        ):
            for tau in range(0, 20):
                assert 0.0 < policy.weight(tau) <= 1.0

    def test_callable_protocol(self):
        policy = PolynomialStaleness(exponent=1.0)
        assert policy(3) == policy.weight(3)


class TestResolve:
    def test_none_disables_damping(self):
        assert resolve_staleness_policy(None) is None

    def test_polynomial_mapping_carries_exponent(self):
        policy = resolve_staleness_policy(
            {"name": "polynomial", "params": {"exponent": 0.5}}
        )
        assert isinstance(policy, PolynomialStaleness)
        assert policy.exponent == 0.5

    def test_negative_exponent_rejected(self):
        # Validated at construction, not as NaN weights rounds later.
        with pytest.raises(ValueError, match="non-negative"):
            resolve_staleness_policy(
                {"name": "polynomial", "params": {"exponent": -1.0}}
            )

    def test_name_string_resolved_via_registry(self):
        policy = resolve_staleness_policy("constant")
        assert isinstance(policy, ConstantStaleness)

    def test_mapping_with_params(self):
        policy = resolve_staleness_policy(
            {"name": "hinge", "params": {"a": 4.0, "b": 1.0}}
        )
        assert isinstance(policy, HingeStaleness)
        assert (policy.a, policy.b) == (4.0, 1.0)

    def test_instance_passes_through(self):
        policy = HingeStaleness()
        assert resolve_staleness_policy(policy) is policy

    def test_mapping_shape_validated(self):
        with pytest.raises(ValueError, match="unknown"):
            resolve_staleness_policy({"name": "hinge", "prams": {}})
        with pytest.raises(ValueError, match="'name'"):
            resolve_staleness_policy({"params": {}})

    def test_garbage_type_rejected(self):
        with pytest.raises(ValueError, match="StalenessPolicy"):
            resolve_staleness_policy(3.14)

    def test_registry_kind_exists(self):
        assert set(registry.names("staleness")) >= {
            "constant", "polynomial", "hinge"
        }


class TestTrainerIntegration:
    def _run(self, experiment, **kwargs):
        trainer = AirFedGATrainer(experiment, **kwargs)
        history = trainer.run(max_rounds=8)
        return trainer.global_vector.copy(), [
            (r.round_index, r.time, r.loss, r.staleness) for r in history.records
        ]

    def test_mapping_and_instance_policy_bit_identical(self, quiet_experiment):
        gv_mapping, trace_mapping = self._run(
            quiet_experiment,
            staleness={"name": "polynomial", "params": {"exponent": 0.5}},
        )
        gv_policy, trace_policy = self._run(
            quiet_experiment, staleness=PolynomialStaleness(exponent=0.5)
        )
        assert np.array_equal(gv_mapping, gv_policy)
        assert trace_mapping == trace_policy

    def test_polynomial_exponent_zero_matches_no_policy(self, quiet_experiment):
        gv_off, trace_off = self._run(quiet_experiment)
        gv_zero, trace_zero = self._run(
            quiet_experiment,
            staleness={"name": "polynomial", "params": {"exponent": 0.0}},
        )
        assert np.array_equal(gv_off, gv_zero)
        assert trace_off == trace_zero

    def test_constant_one_matches_no_damping(self, quiet_experiment):
        gv_off, trace_off = self._run(quiet_experiment)
        gv_const, trace_const = self._run(quiet_experiment, staleness="constant")
        assert np.array_equal(gv_off, gv_const)
        assert trace_off == trace_const

    def test_damping_changes_the_model_when_staleness_occurs(self, quiet_experiment):
        gv_off, trace_off = self._run(quiet_experiment)
        assert any(r[3] > 0 for r in trace_off[1:]), "scenario must have staleness"
        gv_damped, _ = self._run(
            quiet_experiment, staleness={"name": "constant", "params": {"value": 0.2}}
        )
        assert not np.array_equal(gv_off, gv_damped)

    def test_trainer_rejects_negative_exponent(self, quiet_experiment):
        with pytest.raises(ValueError, match="non-negative"):
            AirFedGATrainer(
                quiet_experiment,
                staleness={"name": "polynomial", "params": {"exponent": -0.1}},
            )

    @pytest.mark.parametrize("mechanism", ["air_fedga", "tifl", "fedasync"])
    def test_trainers_take_no_staleness_exponent(self, quiet_experiment, mechanism):
        """One spelling of the polynomial schedule: the policy."""
        with pytest.raises(TypeError, match="staleness_exponent"):
            registry.get("mechanism", mechanism)(
                quiet_experiment, staleness_exponent=0.5
            )
        with pytest.raises(TypeError, match="accepted parameters"):
            build_trainer(mechanism, quiet_experiment, staleness_exponent=0.5)
