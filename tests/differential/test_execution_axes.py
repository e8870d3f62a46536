"""One history per seed, however a round is executed.

Algorithm 1 defines one training history per scenario and seed.  How the
simulator computes a round must not change it: batched or on the per-worker
oracle, on one lane or split across threads, store-backed shards or private
per-worker copies (the ``eager`` axis), warm or evicted rosters, any conv
tile, the ``always-on`` fast path or the fault path under a model that injects
nothing (the ``faultless`` axis), cohorts trained ahead several per engine
call or one per call at its own row.  One hypothesis
strategy draws small :class:`Scenario` documents over every registered
mechanism, partition and client-state model, three model families, both
channels, ragged groupings and both dtypes.  Each document's reference run
(one lane, batched engine, store-backed shards, default roster budget) is
compared leaf by leaf of ``history.to_dict()`` against every axis that
applies.

The ``fallback`` axis runs the whole history on the test tree's
per-worker oracle (``ScalarEngine`` of ``tests/oracle/scalar.py``): every
member trained alone through the scalar layers, every record from the
oracle's ``evaluate``.

``TOLERANCE`` is the whole envelope.  Every non-zero entry is
reassociation on a ragged group: the oracle runs the scalar layers' GEMM
shapes, and a conv tile pads to its own largest batch.  With every
member's mini-batch the same size (the ``iid`` draws) float64 is
bit-identical on every axis, the oracle included.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import registry
from repro.experiments.scenario import Scenario
from repro.fl import base
from repro.fl.registry import build_trainer
from repro.nn import batched

#: Axis -> dtype -> largest relative difference allowed on any float of a
#: history (0.0: bit-identical).  Largest measured over 120 random draws of
#: this strategy: fallback 4.0e-16 (float64) and 2.1e-6 (float32, CNNs; the
#: MLP is exact in float32), conv tile 1 4.0e-16 and 2.0e-7, tile 5 exact.
TOLERANCE = {
    "fallback": {"float64": 1e-13, "float32": 2e-5},
    "threads": {"float64": 0.0, "float32": 0.0},
    "eager": {"float64": 0.0, "float32": 0.0},
    "roster_budget": {"float64": 0.0, "float32": 0.0},
    "tile_1": {"float64": 1e-13, "float32": 2e-5},
    "tile_5": {"float64": 1e-13, "float32": 2e-5},
    "faultless": {"float64": 0.0, "float32": 0.0},
    "one_cohort": {"float64": 0.0, "float32": 0.0},
}

#: Model -> (dataset section, model params); every image is 8x8.
MODELS = {
    "lr": ({"name": "synthetic-mnist", "flatten": True}, {"input_dim": 64, "hidden": 16}),
    "mnist_cnn": ({"name": "synthetic-mnist", "flatten": False}, {"image_size": 8, "scale": 0.1}),
    "mini_vgg": (
        {"name": "synthetic-cifar10", "flatten": False},
        {"image_size": 8, "blocks": 2, "base_channels": 4, "hidden": 8, "num_classes": 10},
    ),
}

#: Client-state model -> params that inject faults within a few rounds.
FAULTS = {
    "always-on": {},
    "bernoulli": {"availability": 0.6, "dropout_prob": 0.2},
    "cyclic": {"period": 3.0, "dropout_prob": 0.2},
    "dropout-rejoin": {"dropout_prob": 0.3, "rejoin_after": 1},
    "lognormal": {"sigma": 1.0, "dropout_prob": 0.2},
    "partial": {"partial_prob": 0.7, "dropout_prob": 0.1},
}

#: A client-state model that injects nothing but is not flagged always-on, so
#: the poll, roster, survival and renormalisation steps of the fault path run.
FAULTLESS = {
    "clientstate": {"name": "bernoulli", "params": {"availability": 1.0, "dropout_prob": 0.0}}
}

#: Mechanism params under which the step transforms act.
MECHANISM_PARAMS = {"fedprox": {"mu": 0.1}, "feddyn": {"alpha_coef": 0.05}}


def _scenario(mechanism, model, partition, fault, channel, workers, xi, dtype, seed):
    """The document; ``fedasync`` refuses fault models, so it runs always-on."""
    fault = "always-on" if mechanism == "fedasync" else fault
    data, params = MODELS[model]
    return Scenario.default().with_(
        name=f"{mechanism}/{model}/{partition}/{fault}/{channel}"
        f"/n={workers}/xi={xi}/{dtype}/{seed}",
        num_workers=workers,
        seed=seed,
        data={**data, "params": {"num_train": 12 * workers, "num_test": 32, "image_size": 8}},
        model={"name": model, "params": params},
        partition=partition,
        channel=channel,
        mechanism={"name": mechanism, "params": MECHANISM_PARAMS.get(mechanism, {})},
        training={"batch_size": 8, "max_rounds": 4, "max_eval_samples": 32},
        algorithm={"dtype": dtype, "grouping": {"xi": xi}},
        faults={"clientstate": {"name": fault, "params": FAULTS[fault]}, "retry_backoff": 0.5},
    )


scenarios = st.builds(
    _scenario,
    mechanism=st.sampled_from(registry.names("mechanism")),
    model=st.sampled_from(sorted(MODELS)),
    partition=st.sampled_from(registry.names("partitioner")),
    fault=st.sampled_from(sorted(FAULTS)),
    channel=st.sampled_from(["static", "rayleigh"]),
    workers=st.integers(3, 16),
    xi=st.sampled_from([0.0, 0.3, 1.0]),
    dtype=st.sampled_from(["float64", "float32"]),
    seed=st.integers(0, 2**16),
)


@contextlib.contextmanager
def _lanes(count):
    """This process trains on ``count`` lanes, splitting every tile it can."""
    with ThreadPoolExecutor(1) as pool, pytest.MonkeyPatch.context() as patch:
        patch.setitem(batched._LANES, os.getpid(), (count, pool if count > 1 else None))
        patch.setattr(batched, "_LANE_MIN_WRITES", 0)
        yield


def _run(scenario, experiment=lambda exp: exp, trainer_hook=lambda trainer: None, lanes=1):
    """``scenario``'s history on ``lanes`` lanes, its experiment and trainer edited first."""
    with _lanes(lanes):
        exp = experiment(scenario.build_experiment())
        with build_trainer(scenario.mechanism.name, exp, **scenario.mechanism.params) as t:
            trainer_hook(t)
            return t.run(max_rounds=scenario.training.max_rounds).to_dict()


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}")
    elif isinstance(node, list):
        for k, item in enumerate(node):
            yield from _leaves(item, f"{path}[{k}]")
    else:
        yield path, node


def _assert_same_history(reference, got, rtol, where):
    if rtol == 0.0:
        assert json.dumps(got, sort_keys=True) == json.dumps(reference, sort_keys=True), where
        return
    want, have = list(_leaves(reference)), list(_leaves(got))
    assert [path for path, _ in want] == [path for path, _ in have], where
    for (path, a), (_, b) in zip(want, have):
        if isinstance(a, float) and not (math.isnan(a) and math.isnan(b)):
            assert math.isclose(a, b, rel_tol=rtol), (where, path, a, b)
        elif not isinstance(a, float):
            assert a == b, (where, path, a, b)


def _axes(scenario, scalar_engine, eager_copies):
    """Axis name -> a run of ``scenario`` on that axis."""

    def oracle(trainer):
        trainer._engine = scalar_engine(trainer.model)

    def roster_budget():
        owned = []

        def watch(trainer):
            engine, run_group = trainer._engine, trainer._engine.run_group

            def counting(*args, **kwargs):
                out = run_group(*args, **kwargs)
                owned.append(engine._cached_bytes)
                return out

            engine.run_group = counting

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batched, "_ROSTER_CACHE_BYTES", 1)
            history = _run(scenario, trainer_hook=watch)
        assert max(owned, default=0) <= 1, f"roster_budget: {scenario.name}"
        return history

    def one_cohort():
        """Every cohort trains in a call of its own, at its row."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(base, "_MERGE_ROWS", 0)
            return _run(scenario)

    def tile(size):
        return lambda: _run(scenario, trainer_hook=lambda t: setattr(t._engine, "_tile", size))

    axes = {
        "fallback": lambda: _run(scenario, trainer_hook=oracle),
        "threads": lambda: _run(scenario, lanes=2),
        "eager": lambda: _run(scenario, trainer_hook=eager_copies),
        "roster_budget": roster_budget,
        "one_cohort": one_cohort,
    }
    if scenario.model.name != "lr":
        axes["tile_1"], axes["tile_5"] = tile(1), tile(5)
    # fedasync refuses fault models.
    if scenario.faults.clientstate.name == "always-on" and scenario.mechanism.name != "fedasync":
        axes["faultless"] = lambda: _run(scenario.with_(faults=FAULTLESS))
    return axes


#: Pinned documents, each the shape a retired hand-written pair checked; each
#: pin runs every axis as a test of its own, so a failure names both.
PINS = {
    # A ragged MLP group of 9 on two lanes: each run keeps the group's padding.
    "ragged_mlp": ("air_fedga", "lr", "dirichlet", "always-on", "static", 9, 1.0, "float64", 2),
    # A ragged CNN group of 13 > the 12-wide conv tile: the lanes split each tile.
    "cnn_13": ("air_fedga", "mnist_cnn", "dirichlet", "always-on", "static", 13, 1.0, "float64", 0),
    # Uniform batches: every axis bit-identical in float64, the fallback included.
    "uniform_cnn": ("fedavg", "mnist_cnn", "iid", "always-on", "static", 13, 1.0, "float64", 6),
    # Dropout-rejoin: survivor subsets of the groups are rosters of their own.
    "rejoin": ("air_fedga", "lr", "label-skew", "dropout-rejoin", "static", 12, 0.3, "float64", 2),
    # Step transforms (FedProx, FedDyn) and single-worker commits on the oracle.
    "fedprox": ("fedprox", "mnist_cnn", "label-skew", "bernoulli", "static", 6, 0.3, "float64", 3),
    "feddyn": ("feddyn", "lr", "dirichlet", "always-on", "rayleigh", 7, 0.3, "float32", 4),
    "fedasync": ("fedasync", "lr", "iid", "always-on", "static", 5, 0.3, "float64", 5),
    # With the pins above, every mechanism and client-state model runs, whatever the draws.
    "dynamic":("dynamic", "mini_vgg", "iid", "lognormal", "rayleigh", 8, 0.3, "float32", 7),
    "tifl": ("tifl", "lr", "dirichlet", "partial", "static", 10, 0.3, "float64", 8),
    "air_fedavg": ("air_fedavg", "lr", "label-skew", "cyclic", "rayleigh", 6, 0.0, "float32", 9),
    # Ragged batches, a CNN and faults: no cohort may share a call.
    "refused": (
        "air_fedga", "mnist_cnn", "dirichlet", "bernoulli", "static", 12, 0.0, "float64", 1
    ),
}

PIN_AXES = [
    (pin, axis) for pin, args in PINS.items() for axis in _axes(_scenario(*args), None, None)
]
_references = {}


def _check(scenario, axis, run):
    """``run`` (``scenario`` on ``axis``) against the reference, within ``TOLERANCE``."""
    if scenario.name not in _references:
        _references[scenario.name] = _run(scenario)
    dtype = scenario.algorithm.dtype
    exact = dtype == "float64" and scenario.partition.name == "iid"  # every batch is 8
    rtol = 0.0 if exact else TOLERANCE[axis][dtype]
    _assert_same_history(_references[scenario.name], run(), rtol, f"{axis}: {scenario.name}")


@pytest.mark.parametrize(("pin", "axis"), PIN_AXES)
def test_pinned_document_reproduces_the_reference(pin, axis, scalar_engine, eager_copies):
    scenario = _scenario(*PINS[pin])
    _check(scenario, axis, _axes(scenario, scalar_engine, eager_copies)[axis])


@settings(
    max_examples=8,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scenario=scenarios)
def test_every_execution_axis_reproduces_the_reference(scenario, scalar_engine, eager_copies):
    for axis, run in _axes(scenario, scalar_engine, eager_copies).items():
        _check(scenario, axis, run)
