"""Seeded golden-trajectory regression pins for the core mechanisms.

Each test runs a fully seeded 10-round trajectory of one mechanism on a
self-contained tiny workload (constructed inline, independent of the
shared fixtures, so the pins can only move when *library* behaviour
moves) and compares the per-round loss and accuracy sequences against
values recorded when the pin was laid down, plus the simulated clock and
— for the faulted run — the exact fault counters.  The ``air_fedga_faults``
and ``fedasync`` pins and every ``time`` column were recorded before the
grouped event loop lost its pipelined mode, so they hold the loop's
retry / skip / degraded-round scheduling fixed across that rewrite.

Tolerances are tight-but-not-bitwise (``rtol=1e-9``): bit-exactness
would couple the pins to the host BLAS's reduction order, while 1e-9
still catches any real change to the training math — a changed RNG
stream, step rule, aggregation weight or noise model shifts these
sequences by orders of magnitude more.

Regenerate after an *intended* trajectory change with::

    PYTHONPATH=src python tests/fl/test_golden_trajectories.py
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.channel import StaticChannel
from repro.core import AirCompConfig, AirFedGAConfig, FaultConfig
from repro.data import make_mnist_like, partition_label_skew
from repro.fl import FLExperiment, build_trainer
from repro.nn import LogisticRegressionMLP
from repro.sim import DropoutRejoinModel, HeterogeneityModel, LatencyTable

NUM_WORKERS = 8
ROUNDS = 10


def _experiment() -> FLExperiment:
    """The pinned workload: tiny MLP, label-skew MNIST-like, static channel."""
    dataset = make_mnist_like(
        num_train=240, num_test=80, image_size=8, seed=123
    ).flattened()
    partition = partition_label_skew(dataset, num_workers=NUM_WORKERS, seed=7)
    return FLExperiment(
        dataset=dataset,
        partition=partition,
        model_factory=lambda: LogisticRegressionMLP(
            input_dim=64, hidden=16, num_classes=10, seed=3
        ),
        latency=LatencyTable(
            num_workers=NUM_WORKERS,
            base_time=2.0,
            heterogeneity=HeterogeneityModel(num_workers=NUM_WORKERS, seed=5),
        ),
        channel=StaticChannel(num_workers=NUM_WORKERS, mean_gain=1.0, seed=9),
        config=AirFedGAConfig(aircomp=AirCompConfig(noise_variance=1e-12)),
        learning_rate=0.2,
        local_steps=2,
        batch_size=16,
        eval_every=1,
        max_eval_samples=60,
        seed=11,
    )


def _faulted(experiment: FLExperiment) -> FLExperiment:
    """Mid-round dropouts with a cool-down: over 10 rounds the groups
    ([2, 2, 1, 3] workers) hit below-quorum retries, skips and degraded
    (survivor-renormalised) rounds — every branch of the fault path."""
    return dataclasses.replace(
        experiment,
        clientstate=DropoutRejoinModel(
            num_workers=NUM_WORKERS, seed=21, dropout_prob=0.3, rejoin_after=2
        ),
        fault=FaultConfig(quorum_fraction=0.6, max_retries=1, retry_backoff=0.5),
    )


#: Pin name -> (mechanism, experiment transform).
CASES = {
    "fedavg": ("fedavg", None),
    "air_fedavg": ("air_fedavg", None),
    "tifl": ("tifl", None),
    "air_fedga": ("air_fedga", None),
    "air_fedga_faults": ("air_fedga", _faulted),
    "fedasync": ("fedasync", None),
}


def _run(case: str):
    mechanism, transform = CASES[case]
    experiment = _experiment()
    if transform is not None:
        experiment = transform(experiment)
    return build_trainer(mechanism, experiment).run(max_rounds=ROUNDS)


#: Pinned column -> TrainingHistory accessor.
COLUMNS = {"loss": "losses", "accuracy": "accuracies", "time": "times"}


def _assert_matches(history, pin) -> None:
    assert len(history) == ROUNDS + 1
    for key, expected in pin.items():
        if key == "faults":
            assert history.fault_counters() == expected
            continue
        np.testing.assert_allclose(
            getattr(history, COLUMNS[key])(),
            expected,
            rtol=1e-9,
            atol=1e-12,
            err_msg=key,
        )


# Pinned (loss, accuracy, simulated time) sequences: initial evaluation + 10 rounds.
# GOLDEN_BEGIN (generated by running this module as a script)
GOLDEN = {
    'fedavg': {
        'loss': [2.586633094774735, 2.325271187777454, 2.151886679558763, 2.0112863283342155, 1.9012600514448013, 1.7992656379217502, 1.6947375107737987, 1.6320622106225309, 1.5583447193954532, 1.4885003629146325, 1.4203732498304218],
        'accuracy': [0.15, 0.2, 0.3, 0.31666666666666665, 0.36666666666666664, 0.38333333333333336, 0.45, 0.45, 0.43333333333333335, 0.55, 0.5333333333333333],
        'time': [0.0, 16.58099816506074, 33.16199633012148, 49.742994495182224, 66.32399266024296, 82.90499082530371, 99.48598899036446, 116.06698715542521, 132.64798532048596, 149.2289834855467, 165.80998165060745],
    },
    'air_fedavg': {
        'loss': [2.586633094774735, 2.3252711425118084, 2.151886637434649, 2.0112862688793434, 1.901260001386973, 1.7992655777121702, 1.6947374538488957, 1.6320621799684851, 1.558344711634127, 1.4885003155830179, 1.4203731917316385],
        'accuracy': [0.15, 0.2, 0.3, 0.31666666666666665, 0.36666666666666664, 0.38333333333333336, 0.45, 0.45, 0.43333333333333335, 0.55, 0.5333333333333333],
        'time': [0.0, 16.545334215256887, 33.09066843051377, 49.63600264577066, 66.18133686102755, 82.72667107628443, 99.27200529154132, 115.8173395067982, 132.3626737220551, 148.908007937312, 165.4533421525689],
    },
    'tifl': {
        'loss': [2.586633094774735, 2.534840206964402, 2.516566430771174, 2.4336999337410257, 2.447248317440363, 2.3757034675665176, 2.390513271151226, 2.4097816508650025, 2.356882175558454, 2.386070594157205, 2.329074627102615],
        'accuracy': [0.15, 0.11666666666666667, 0.11666666666666667, 0.15, 0.13333333333333333, 0.13333333333333333, 0.1, 0.16666666666666666, 0.13333333333333333, 0.21666666666666667, 0.23333333333333334],
        'time': [0.0, 2.9802686303207793, 5.9605372606415585, 8.910155841590292, 8.940805890962338, 11.28537608620952, 11.921074521283117, 14.901343151603896, 16.494810621142324, 16.547692208982365, 17.820311683180584],
    },
    'air_fedga': {
        'loss': [2.586633094774735, 2.534840188686562, 2.516566417239992, 2.5154724423754926, 2.400409097064346, 2.3596050280300096, 2.3865711496283026, 2.405626664621942, 2.3817801134892695, 2.385748730812746, 2.290992112189101],
        'accuracy': [0.15, 0.11666666666666667, 0.11666666666666667, 0.1, 0.11666666666666667, 0.13333333333333333, 0.1, 0.16666666666666666, 0.18333333333333332, 0.18333333333333332, 0.18333333333333332],
        'time': [0.0, 2.973152642869816, 5.946305285739632, 8.919457928609447, 9.354917697559975, 11.278260098758556, 11.892610571479262, 14.865763214349077, 16.545334215256887, 17.838915857218893, 18.709835395119953],
    },
    'air_fedga_faults': {
        'loss': [2.586633094774735, 2.465195703272018, 2.4433319140030436, 2.426661031965206, 2.4314085983849107, 2.3803367631597974, 2.40324526754288, 2.432468116474659, 2.475957756425295, 2.3237753806298644, 2.3476498005923503],
        'accuracy': [0.15, 0.15, 0.13333333333333333, 0.11666666666666667, 0.11666666666666667, 0.11666666666666667, 0.15, 0.18333333333333332, 0.2, 0.18333333333333332, 0.23333333333333334],
        'time': [0.0, 9.354917697559975, 17.85616321434908, 28.27082114295853, 31.243973785828345, 35.32998029627567, 41.6586317144378, 44.63178435730762, 47.60493700017744, 47.81551064437923, 51.13120264577066],
        'faults': {'workers_unavailable': 22, 'workers_dropped': 11, 'partial_updates': 0, 'quorum_retries': 18, 'quorum_skips': 9, 'groups_parked': 0},
    },
    'fedasync': {
        'loss': [2.586633094774735, 2.8252697504302433, 2.545587714892286, 2.759782391652066, 2.7192868284358394, 2.4895337268063025, 2.6396629100922833, 2.5037230720009886, 2.579625716697188, 2.4377459436200644, 2.579728564234252],
        'accuracy': [0.15, 0.1, 0.2, 0.1, 0.18333333333333332, 0.2, 0.16666666666666666, 0.13333333333333333, 0.2, 0.18333333333333332, 0.15],
        'time': [0.0, 2.819711483969495, 2.9755106365952977, 5.63942296793899, 5.951021273190595, 7.149182835312031, 8.459134451908485, 8.90539784786481, 8.926531909785894, 9.357275691285457, 11.27884593587798],
    },
}
# GOLDEN_END


@pytest.mark.parametrize("case", sorted(GOLDEN) or ["fedavg"])
def test_golden_trajectory(case):
    if not GOLDEN:
        pytest.fail("golden pins missing; regenerate via the module docstring")
    _assert_matches(_run(case), GOLDEN[case])


def test_faulted_pin_exercises_retry_and_skip():
    faults = GOLDEN["air_fedga_faults"]["faults"]
    assert faults["quorum_retries"] > 0 and faults["quorum_skips"] > 0
    assert faults["workers_dropped"] > 0


if __name__ == "__main__":
    for name in CASES:
        history = _run(name)
        print(f"    {name!r}: {{")
        for key, accessor in COLUMNS.items():
            values = getattr(history, accessor)()
            print(f"        {key!r}: " + repr([float(v) for v in values]) + ",")
        if any(history.fault_counters().values()):
            print(f"        'faults': {history.fault_counters()!r},")
        print("    },")
