"""Shared fixtures for the test suite.

Everything here is deliberately tiny (8x8 images, tens of samples, models
with a few thousand parameters) so the whole suite runs in well under a
minute while still exercising every code path of the library.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import settings

from repro.channel import RayleighFading, StaticChannel
from repro.core import AirCompConfig, AirFedGAConfig
from repro.data import Dataset, make_mnist_like, partition_label_skew
from repro.fl import FLExperiment
from repro.nn import LogisticRegressionMLP, batched
from repro.sim import HeterogeneityModel, LatencyTable

from oracle.scalar import ScalarEngine


# Every property test draws the same examples on every host and every run:
# no random seed, no example database, no wall-clock deadline.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

NUM_WORKERS = 8
IMAGE_SIZE = 8
NUM_TRAIN = 240
NUM_TEST = 80


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    """A small flattened MNIST-like dataset shared by many tests."""
    return make_mnist_like(
        num_train=NUM_TRAIN, num_test=NUM_TEST, image_size=IMAGE_SIZE, seed=123
    ).flattened()


@pytest.fixture(scope="session")
def small_image_dataset() -> Dataset:
    """The same dataset kept in image form (for CNN tests)."""
    return make_mnist_like(
        num_train=NUM_TRAIN, num_test=NUM_TEST, image_size=IMAGE_SIZE, seed=123
    )


@pytest.fixture()
def small_partition(small_dataset):
    return partition_label_skew(small_dataset, num_workers=NUM_WORKERS, seed=7)


@pytest.fixture()
def latency_table():
    return LatencyTable(
        num_workers=NUM_WORKERS,
        base_time=2.0,
        heterogeneity=HeterogeneityModel(num_workers=NUM_WORKERS, seed=5),
    )


@pytest.fixture()
def channel_model():
    return RayleighFading(num_workers=NUM_WORKERS, seed=9)


@pytest.fixture()
def static_channel():
    return StaticChannel(num_workers=NUM_WORKERS, mean_gain=1.0, seed=9)


@pytest.fixture()
def default_config():
    return AirFedGAConfig()


@pytest.fixture()
def quiet_config():
    """Configuration with (almost) noiseless AirComp, for deterministic math."""
    return AirFedGAConfig(aircomp=AirCompConfig(noise_variance=1e-12))


def _model_factory(seed: int = 3):
    return lambda: LogisticRegressionMLP(
        input_dim=IMAGE_SIZE * IMAGE_SIZE, hidden=16, num_classes=10, seed=seed
    )


@pytest.fixture()
def model_factory():
    return _model_factory()


@pytest.fixture()
def scalar_engine():
    """``scalar_engine(model)``: the per-worker oracle over ``model``
    (``ScalarEngine`` of ``tests/oracle/scalar.py``)."""
    return ScalarEngine


class PrivateCopies:
    """Every worker's shard as a private copy, served as plain ``(x, y)`` lists.

    A trainer reads zero-copy views of one store; with this in its
    ``_worker_data`` the engine takes its plain-list roster path instead,
    the one direct callers of ``run_group`` use.
    """

    def __init__(self, shards):
        self._copies = [(np.array(x), np.array(y)) for x, y in shards]

    def __len__(self):
        return len(self._copies)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self._copies[index]
        return [self._copies[k] for k in index]


@pytest.fixture()
def eager_copies():
    """``eager_copies(trainer)``: the trainer trains on private copies of its shards."""

    def install(trainer):
        trainer._worker_data = PrivateCopies(trainer._worker_data)

    return install


@pytest.fixture()
def lanes(monkeypatch):
    """``lanes(count, min_writes=0)``: this process trains on ``count`` lanes.

    Whatever the host's cores, the batched engine then splits every tile
    whose runs of members write ``min_writes`` elements per step or more —
    with the default 0, every tile of two active members or more.
    """
    pools = []

    def force(count, min_writes=0):
        pools.append(ThreadPoolExecutor(count - 1) if count > 1 else None)
        monkeypatch.setitem(batched._LANES, os.getpid(), (count, pools[-1]))
        monkeypatch.setattr(batched, "_LANE_MIN_WRITES", min_writes)

    yield force
    for pool in filter(None, pools):
        pool.shutdown()


@pytest.fixture()
def small_experiment(small_dataset, small_partition, latency_table, channel_model):
    """A ready-to-run FLExperiment with 8 workers and a tiny MLP."""
    return FLExperiment(
        dataset=small_dataset,
        partition=small_partition,
        model_factory=_model_factory(),
        latency=latency_table,
        channel=channel_model,
        config=AirFedGAConfig(),
        learning_rate=0.2,
        local_steps=2,
        batch_size=16,
        eval_every=1,
        max_eval_samples=60,
        seed=11,
    )


@pytest.fixture()
def quiet_experiment(small_dataset, small_partition, latency_table, static_channel, quiet_config):
    """An FLExperiment with a static channel and negligible AirComp noise."""
    return FLExperiment(
        dataset=small_dataset,
        partition=small_partition,
        model_factory=_model_factory(),
        latency=latency_table,
        channel=static_channel,
        config=quiet_config,
        learning_rate=0.2,
        local_steps=2,
        batch_size=16,
        eval_every=1,
        max_eval_samples=60,
        seed=11,
    )
