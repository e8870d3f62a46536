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
The ``*_faults`` pins of the barrier and TiFL mechanisms, the partial-work,
polynomial-staleness and ``buffer_size=3`` pins were recorded before the
three ``run`` loops became one consumer of per-policy schedule generators,
so they hold the fault polls, the blend, the grouped staleness mix and
FedAsync's bursts fixed across that rewrite.

The ``fedavg``, ``air_fedavg``, ``dynamic_faults`` and ``feddyn_faults``
pins were re-recorded when the barrier mechanisms became one group of the
grouped schedule (0.21.0): the clock adds compute and upload in the grouped
order (``time`` moves by ULPs), and the barrier's fault layer became the
grouped one (mid-round dropout, partial work, quorum escalation).  The
other AirComp pins' loss digits were rewritten then too, with the exact
values the commit before that change produced: since 0.20.0's noise term
they had matched only within 1.9e-12, and the recording kernel now
compares exactly.  Their histories did not change.

The pins name the OpenBLAS kernel and NumPy version they were recorded on
(``GOLDEN_KERNEL``): bit-identity holds per BLAS kernel, not per host.  On
that kernel every pinned float must match exactly; on any other they are
compared at ``rtol=1e-9`` and the test prints the kernel it ran on —
bit-exactness there would couple the pins to another BLAS's reduction
order, while 1e-9 still catches any real change to the training math (a
changed RNG stream, step rule, aggregation weight or noise model shifts
these sequences by orders of magnitude more).

Regenerate after an *intended* trajectory change with (it rewrites the
block between the ``GOLDEN_BEGIN`` / ``GOLDEN_END`` markers)::

    PYTHONPATH=src python tests/fl/test_golden_trajectories.py
"""

from __future__ import annotations

import copy
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from repro.channel import StaticChannel
from repro.core import AirCompConfig, AirFedGAConfig, FaultConfig
from repro.data import make_mnist_like, partition_label_skew
from repro.fl import FLExperiment, build_trainer
from repro.nn import LogisticRegressionMLP
from repro.sim import (
    DropoutRejoinModel,
    HeterogeneityModel,
    LatencyTable,
    PartialCompletionModel,
)
from tools.bench_pairs import openblas_kernel

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


def _partial(experiment: FLExperiment) -> FLExperiment:
    """Every worker available, but some return only part of their local
    round: the blend ``w <- base + f·(w − base)`` runs on most commits."""
    return dataclasses.replace(
        experiment,
        clientstate=PartialCompletionModel(
            num_workers=NUM_WORKERS, seed=17, partial_prob=0.5
        ),
    )


#: Pin name -> (mechanism, experiment transform, trainer kwargs).
CASES = {
    "fedavg": ("fedavg", None, {}),
    "air_fedavg": ("air_fedavg", None, {}),
    "tifl": ("tifl", None, {}),
    "air_fedga": ("air_fedga", None, {}),
    "air_fedga_faults": ("air_fedga", _faulted, {}),
    "fedasync": ("fedasync", None, {}),
    "dynamic_faults": ("dynamic", _faulted, {}),
    "feddyn_faults": ("feddyn", _faulted, {}),
    "tifl_faults": ("tifl", _faulted, {}),
    "air_fedga_partial": ("air_fedga", _partial, {}),
    "air_fedga_polynomial": ("air_fedga", None, {"staleness": "polynomial"}),
    "fedasync_buffer3": ("fedasync", None, {"buffer_size": 3}),
}


def _run(case: str):
    mechanism, transform, kwargs = CASES[case]
    experiment = _experiment()
    if transform is not None:
        experiment = transform(experiment)
    return build_trainer(mechanism, experiment, **kwargs).run(max_rounds=ROUNDS)


#: Pinned column -> TrainingHistory accessor.
COLUMNS = {"loss": "losses", "accuracy": "accuracies", "time": "times"}


#: The BLAS kernel and NumPy version this host runs, in ``GOLDEN_KERNEL``'s form.
KERNEL = {**openblas_kernel(), "numpy": np.__version__}


def _assert_matches(history, pin, exact: bool) -> None:
    assert len(history) == ROUNDS + 1
    for key, expected in pin.items():
        if key == "faults":
            assert history.fault_counters() == expected
            continue
        got = getattr(history, COLUMNS[key])()
        if exact:
            assert got.tolist() == expected, key
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12, err_msg=key)


# Pinned (loss, accuracy, simulated time) sequences: initial evaluation + 10 rounds.
# GOLDEN_BEGIN (generated by running this module as a script)
GOLDEN_KERNEL = {'openblas_core': 'SkylakeX', 'openblas_config': 'OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64', 'numpy': '2.4.6'}
GOLDEN = {
    'fedavg': {
        'loss': [2.586633094774735, 2.325271187777454, 2.151886679558763, 2.0112863283342155, 1.9012600514448013, 1.7992656379217502, 1.6947375107737987, 1.6320622106225309, 1.5583447193954532, 1.4885003629146325, 1.4203732498304218],
        'accuracy': [0.15, 0.2, 0.3, 0.31666666666666665, 0.36666666666666664, 0.38333333333333336, 0.45, 0.45, 0.43333333333333335, 0.55, 0.5333333333333333],
        'time': [0.0, 16.58099816506074, 33.16199633012148, 49.742994495182224, 66.32399266024296, 82.9049908253037, 99.48598899036445, 116.0669871554252, 132.64798532048593, 149.22898348554665, 165.80998165060737],
    },
    'air_fedavg': {
        'loss': [2.586633094774735, 2.325271142511805, 2.151886637434902, 2.0112862688812303, 1.9012600013902727, 1.7992655777145348, 1.694737453849647, 1.6320621799708876, 1.558344711636146, 1.4885003155858736, 1.4203731917307472],
        'accuracy': [0.15, 0.2, 0.3, 0.31666666666666665, 0.36666666666666664, 0.38333333333333336, 0.45, 0.45, 0.43333333333333335, 0.55, 0.5333333333333333],
        'time': [0.0, 16.545334215256887, 33.09066843051377, 49.63600264577066, 66.18133686102755, 82.72667107628442, 99.27200529154129, 115.81733950679816, 132.36267372205504, 148.9080079373119, 165.45334215256878],
    },
    'tifl': {
        'loss': [2.586633094774735, 2.534840206964402, 2.516566430771174, 2.4336999337410257, 2.447248317440363, 2.3757034675665176, 2.390513271151226, 2.4097816508650025, 2.356882175558454, 2.386070594157205, 2.329074627102615],
        'accuracy': [0.15, 0.11666666666666667, 0.11666666666666667, 0.15, 0.13333333333333333, 0.13333333333333333, 0.1, 0.16666666666666666, 0.13333333333333333, 0.21666666666666667, 0.23333333333333334],
        'time': [0.0, 2.9802686303207793, 5.9605372606415585, 8.910155841590292, 8.940805890962338, 11.28537608620952, 11.921074521283117, 14.901343151603896, 16.494810621142324, 16.547692208982365, 17.820311683180584],
    },
    'air_fedga': {
        'loss': [2.586633094774735, 2.534840188686552, 2.516566417239973, 2.515472442375463, 2.4004090970643284, 2.359605028029989, 2.386571149628273, 2.4056266646219013, 2.3817801134892354, 2.3857487308127023, 2.290992112187575],
        'accuracy': [0.15, 0.11666666666666667, 0.11666666666666667, 0.1, 0.11666666666666667, 0.13333333333333333, 0.1, 0.16666666666666666, 0.18333333333333332, 0.18333333333333332, 0.18333333333333332],
        'time': [0.0, 2.973152642869816, 5.946305285739632, 8.919457928609447, 9.354917697559975, 11.278260098758556, 11.892610571479262, 14.865763214349077, 16.545334215256887, 17.838915857218893, 18.709835395119953],
    },
    'air_fedga_faults': {
        'loss': [2.586633094774735, 2.465195703272009, 2.4433319140030303, 2.4266610319638455, 2.4314085983837597, 2.3803367631597117, 2.4032452675432956, 2.4324681164731143, 2.4759577564229844, 2.3237753806307295, 2.347649800593339],
        'accuracy': [0.15, 0.15, 0.13333333333333333, 0.11666666666666667, 0.11666666666666667, 0.11666666666666667, 0.15, 0.18333333333333332, 0.2, 0.18333333333333332, 0.23333333333333334],
        'time': [0.0, 9.354917697559975, 17.85616321434908, 28.27082114295853, 31.243973785828345, 35.32998029627567, 41.6586317144378, 44.63178435730762, 47.60493700017744, 47.81551064437923, 51.13120264577066],
        'faults': {'workers_unavailable': 22, 'workers_dropped': 11, 'partial_updates': 0, 'quorum_retries': 18, 'quorum_skips': 9, 'groups_parked': 0},
    },
    'fedasync': {
        'loss': [2.586633094774735, 2.8252697504302433, 2.545587714892286, 2.759782391652066, 2.7192868284358394, 2.4895337268063025, 2.6396629100922833, 2.5037230720009886, 2.579625716697188, 2.4377459436200644, 2.579728564234252],
        'accuracy': [0.15, 0.1, 0.2, 0.1, 0.18333333333333332, 0.2, 0.16666666666666666, 0.13333333333333333, 0.2, 0.18333333333333332, 0.15],
        'time': [0.0, 2.819711483969495, 2.9755106365952977, 5.63942296793899, 5.951021273190595, 7.149182835312031, 8.459134451908485, 8.90539784786481, 8.926531909785894, 9.357275691285457, 11.27884593587798],
    },
    'dynamic_faults': {
        'loss': [2.586633094774735, 2.533433110656682, 2.5010467140078982, 2.4837095229077377, 2.4864053384399516, 2.5013122014600238, 2.528701850400926, 2.5644037865856597, 2.61100875704386, 2.665301351308409, 2.7213521966361602],
        'accuracy': [0.15, 0.13333333333333333, 0.13333333333333333, 0.1, 0.11666666666666667, 0.16666666666666666, 0.15, 0.16666666666666666, 0.16666666666666666, 0.15, 0.15],
        'time': [0.0, 22.935674524759648, 30.082499366346198, 53.018173891105846, 75.95384841586548, 83.10067325745203, 90.24749809903858, 128.97202230697135, 136.1188471485579, 143.26567199014445, 150.412496831731],
        'faults': {'workers_unavailable': 12, 'workers_dropped': 6, 'partial_updates': 0, 'quorum_retries': 10, 'quorum_skips': 5, 'groups_parked': 0},
    },
    'feddyn_faults': {
        'loss': [2.586633094774735, 2.1186166283154253, 1.8950250452373139, 2.145157274652291, 1.8310074270431065, 1.8676251457587398, 2.3323046891034696, 1.5883888320029513, 1.5408861707612416, 1.82775634800156, 1.9028068336215955],
        'accuracy': [0.15, 0.26666666666666666, 0.38333333333333336, 0.38333333333333336, 0.4166666666666667, 0.45, 0.5666666666666667, 0.5166666666666667, 0.5833333333333334, 0.5833333333333334, 0.6],
        'time': [0.0, 120.33860345660203, 136.9148436279373, 153.48632580554707, 187.09598420468822, 203.6627083885725, 254.82005899669602, 305.4726516110941, 321.9960101945893, 338.50985279063354, 457.2331770841045],
        'faults': {'workers_unavailable': 75, 'workers_dropped': 38, 'partial_updates': 0, 'quorum_retries': 14, 'quorum_skips': 7, 'groups_parked': 0},
    },
    'tifl_faults': {
        'loss': [2.586633094774735, 2.5537075340527995, 2.5113786698289635, 2.430501065383218, 2.4215075910826616, 2.4228143298313842, 2.3593488166884797, 2.3604413002635884, 2.368752575143641, 2.390076717964202, 2.3977283971232883],
        'accuracy': [0.15, 0.16666666666666666, 0.15, 0.16666666666666666, 0.15, 0.15, 0.18333333333333332, 0.15, 0.21666666666666667, 0.23333333333333334, 0.23333333333333334],
        'time': [0.0, 16.494810621142324, 17.863279201800044, 28.21143554986895, 28.285053117860453, 32.98962124228465, 37.12159139145924, 38.70682703392087, 41.687095664241646, 51.13356063949614, 52.10886958030206],
        'faults': {'workers_unavailable': 24, 'workers_dropped': 12, 'partial_updates': 0, 'quorum_retries': 22, 'quorum_skips': 11, 'groups_parked': 0},
    },
    'air_fedga_partial': {
        'loss': [2.586633094774735, 2.5307761513651092, 2.511061116289066, 2.5136787319772482, 2.4268122568824224, 2.4062316707823905, 2.4234865392077567, 2.4359740750328314, 2.4028165428423733, 2.4089590889146053, 2.342009215514865],
        'accuracy': [0.15, 0.13333333333333333, 0.1, 0.1, 0.11666666666666667, 0.11666666666666667, 0.1, 0.13333333333333333, 0.18333333333333332, 0.16666666666666666, 0.18333333333333332],
        'time': [0.0, 2.973152642869816, 5.946305285739632, 8.919457928609447, 9.354917697559975, 11.278260098758556, 11.892610571479262, 14.865763214349077, 16.545334215256887, 17.838915857218893, 18.709835395119953],
        'faults': {'workers_unavailable': 0, 'workers_dropped': 0, 'partial_updates': 10, 'quorum_retries': 0, 'quorum_skips': 0, 'groups_parked': 0},
    },
    'air_fedga_polynomial': {
        'loss': [2.586633094774735, 2.534840188686552, 2.516566417239973, 2.515472442375463, 2.454424698213522, 2.4297719992431523, 2.4431363607617644, 2.464302592693367, 2.4342227888101697, 2.4548632492579485, 2.4068531742744113],
        'accuracy': [0.15, 0.11666666666666667, 0.11666666666666667, 0.1, 0.1, 0.11666666666666667, 0.1, 0.18333333333333332, 0.15, 0.18333333333333332, 0.18333333333333332],
        'time': [0.0, 2.973152642869816, 5.946305285739632, 8.919457928609447, 9.354917697559975, 11.278260098758556, 11.892610571479262, 14.865763214349077, 16.545334215256887, 17.838915857218893, 18.709835395119953],
    },
    'fedasync_buffer3': {
        'loss': [2.586633094774735, 2.8252697504302433, 2.545587714892286, 2.403127431144684, 2.343938172082851, 2.3312306890093906, 2.4187858190036504, 2.4017271315046647, 2.3125592350369084, 2.4150376197414256, 2.364854024001139],
        'accuracy': [0.15, 0.1, 0.2, 0.13333333333333333, 0.18333333333333332, 0.2, 0.13333333333333333, 0.18333333333333332, 0.23333333333333334, 0.16666666666666666, 0.13333333333333333],
        'time': [0.0, 2.819711483969495, 2.9755106365952977, 7.149182835312031, 8.90539784786481, 9.357275691285457, 9.968894319281526, 10.124693471907328, 11.280618092484039, 12.788605803251022, 14.298365670624062],
    },
}
# GOLDEN_END


@pytest.mark.parametrize("case", sorted(GOLDEN) or ["fedavg"])
def test_golden_trajectory(case):
    if not GOLDEN:
        pytest.fail("golden pins missing; regenerate via the module docstring")
    exact = KERNEL == GOLDEN_KERNEL
    if not exact:
        print(f"kernel {KERNEL}, goldens recorded on {GOLDEN_KERNEL}: comparing at rtol=1e-9")
    _assert_matches(_run(case), GOLDEN[case], exact)


def test_one_ulp_off_fails_on_the_recording_kernel():
    if KERNEL != GOLDEN_KERNEL:
        pytest.skip(f"kernel {KERNEL}: the goldens compare at rtol=1e-9 here")
    pin = copy.deepcopy(GOLDEN["air_fedga"])
    pin["loss"][-1] = float(np.nextafter(pin["loss"][-1], np.inf))
    with pytest.raises(AssertionError):
        _assert_matches(_run("air_fedga"), pin, exact=True)


def test_faulted_pin_exercises_retry_and_skip():
    faults = GOLDEN["air_fedga_faults"]["faults"]
    assert faults["quorum_retries"] > 0 and faults["quorum_skips"] > 0
    assert faults["workers_dropped"] > 0


def test_partial_pin_exercises_the_blend():
    assert GOLDEN["air_fedga_partial"]["faults"]["partial_updates"] > 0


if __name__ == "__main__":
    lines = [f"GOLDEN_KERNEL = {KERNEL!r}", "GOLDEN = {"]
    for name in CASES:
        history = _run(name)
        lines.append(f"    {name!r}: {{")
        for key, accessor in COLUMNS.items():
            values = getattr(history, accessor)()
            lines.append(f"        {key!r}: " + repr([float(v) for v in values]) + ",")
        if any(history.fault_counters().values()):
            lines.append(f"        'faults': {history.fault_counters()!r},")
        lines.append("    },")
    lines.append("}")
    path = Path(__file__)
    block = "# GOLDEN_BEGIN (generated by running this module as a script)\n"
    text = re.sub(
        r"# GOLDEN_BEGIN.*?\n(.*?)# GOLDEN_END",
        lambda _: block + "\n".join(lines) + "\n# GOLDEN_END",
        path.read_text(),
        count=1,
        flags=re.S,
    )
    path.write_text(text)
    print(f"wrote {path}")
