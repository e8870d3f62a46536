"""Crash recovery, routing and lifecycle of ProcessGroupExecutor.

That a run on the worker-process pool reproduces the serial history —
MLP and CNN models, ragged groups, groups spanning conv tiles — is one
axis of ``tests/differential/test_execution_axes.py``.  This module keeps
what that harness cannot reach: pool crashes (the executor respawns the
pool and, with the restart budget exhausted, falls back to an in-process
run, never changing a result), routing, refusal and teardown.
"""

from __future__ import annotations

import os
import signal
import time
import warnings

import numpy as np
import pytest

from repro.core import ParallelismConfig
from repro.experiments.bench import bench_grouped_round_mp
from repro.experiments.configs import lr_mnist_config
from repro.fl import AirFedGATrainer
from repro.fl.registry import build_trainer
from repro.nn.batched import BatchedWorkerEngine, shared_stack_view
from repro.nn.layers import Dense, Dropout, ReLU
from repro.nn.models import LogisticRegressionMLP, SequentialModel
from repro.parallel import ProcessGroupExecutor, UnsupportedModelError

HYPER = dict(learning_rate=0.2, local_steps=2, batch_size=16, seed=11)


def _make_worker_data(counts, feat_shape=(64,), seed=0):
    rng = np.random.default_rng(seed)
    data = []
    for n in counts:
        x = rng.standard_normal((n,) + feat_shape)
        y = rng.integers(0, 10, size=n)
        data.append((x, y))
    return data


def _serial_reference(model, worker_data, ids, base, round_index=3):
    engine = BatchedWorkerEngine.try_build(model)
    assert engine is not None
    out = np.empty((len(ids), model.dimension))
    engine.run_group(ids, [worker_data[w] for w in ids], base, round_index, out=out, **HYPER)
    return out


# ----------------------------------------------------------------------
# Executor rows the trainer-level harness cannot reach: workers without
# data (no drawn partition leaves one empty) and the donated arena buffer
# ----------------------------------------------------------------------
class TestExecutorRows:
    def test_workers_without_data_keep_base(self):
        model = LogisticRegressionMLP(input_dim=64, hidden=8, num_classes=10, seed=3)
        worker_data = _make_worker_data([12, 0, 12, 0])
        ids = list(range(4))
        base = model.get_vector()
        expected = _serial_reference(model, worker_data, ids, base)
        with ProcessGroupExecutor(model, worker_data, num_processes=2, **HYPER) as ex:
            got = ex.run_group(ids, base, round_index=3)
            assert np.array_equal(got, expected)
            assert np.array_equal(got[1], base)

    def test_donated_stack_is_shared_arena_view(self):
        model = LogisticRegressionMLP(input_dim=64, hidden=8, num_classes=10, seed=3)
        worker_data = _make_worker_data([12] * 4)
        with ProcessGroupExecutor(model, worker_data, num_processes=1, **HYPER) as ex:
            base = model.get_vector()
            got = ex.run_group(list(range(4)), base, round_index=1)
            assert got is not None and got.shape == (4, model.dimension)
            assert np.shares_memory(got, ex.stack(4))
            # An explicit out buffer receives a copy instead.
            out = np.empty((4, model.dimension))
            got2 = ex.run_group(list(range(4)), base, round_index=1, out=out)
            assert got2 is out
            assert np.array_equal(out, got)


# ----------------------------------------------------------------------
# Pool-crash recovery
# ----------------------------------------------------------------------
def _kill_pool_workers(executor):
    pids = executor.worker_pids()
    assert pids, "pool has no live workers to kill"
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        alive = []
        for pid in pids:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            alive.append(pid)
        if not alive:
            return
        time.sleep(0.05)


class TestCrashRecovery:
    def test_pool_respawn_preserves_results(self):
        model = LogisticRegressionMLP(input_dim=64, hidden=8, num_classes=10, seed=3)
        worker_data = _make_worker_data([16] * 4)
        ids = list(range(4))
        base = model.get_vector()
        expected = _serial_reference(model, worker_data, ids, base)
        with ProcessGroupExecutor(
            model, worker_data, num_processes=2, max_restarts=2, **HYPER
        ) as ex:
            first = ex.run_group(ids, base, round_index=3).copy()
            assert np.array_equal(first, expected)
            _kill_pool_workers(ex)
            second = ex.run_group(ids, base, round_index=3)
            assert np.array_equal(second, expected)
            assert ex.restarts >= 1
            assert ex.fallbacks == 0

    def test_exhausted_restarts_fall_back_in_process(self):
        model = LogisticRegressionMLP(input_dim=64, hidden=8, num_classes=10, seed=3)
        worker_data = _make_worker_data([16] * 4)
        ids = list(range(4))
        base = model.get_vector()
        expected = _serial_reference(model, worker_data, ids, base)
        with ProcessGroupExecutor(
            model, worker_data, num_processes=1, max_restarts=0, **HYPER
        ) as ex:
            ex.run_group(ids, base, round_index=3)
            _kill_pool_workers(ex)
            got = ex.run_group(ids, base, round_index=3)
            assert np.array_equal(got, expected)
            assert ex.fallbacks == 1


class _MidRunCrashTrainer(AirFedGATrainer):
    """Kills every pool worker during one round's aggregation, so the next
    group dispatch finds a broken pool.  Models an OOM-killed worker."""

    CRASH_ROUND = 4

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.crashed = False

    def aggregate(self, member_ids, local_vectors, round_index, weight_scale=1.0):
        if (
            not self.crashed
            and round_index == self.CRASH_ROUND
            and self._executor is not None
        ):
            self.crashed = True
            _kill_pool_workers(self._executor)
        return super().aggregate(
            member_ids, local_vectors, round_index, weight_scale=weight_scale
        )


@pytest.mark.chaos
class TestTrainerCrash:
    def _experiment(self, par):
        return lr_mnist_config(
            num_workers=12, num_train=240, image_size=8, hidden=16,
            max_rounds=40,
        ).with_(
            training={
                "local_steps": 2, "batch_size": 16, "eval_every": 1,
                "max_eval_samples": 48,
            },
            parallelism=par,
            **{"algorithm.grouping.xi": 1.0},
        ).build_experiment()

    @pytest.mark.parametrize("max_restarts", [1, 0], ids=["respawn", "fallback"])
    def test_sigkill_mid_run_bit_exact(self, max_restarts):
        with AirFedGATrainer(
            self._experiment(ParallelismConfig(mode="none")),
            grouping_strategy="tier", num_groups=3,
        ) as serial:
            serial_history = serial.run(max_rounds=10)
            gv_serial = serial.global_vector.copy()

        with _MidRunCrashTrainer(
            self._experiment(
                ParallelismConfig(
                    mode="processes", num_processes=2, max_restarts=max_restarts
                )
            ),
            grouping_strategy="tier", num_groups=3,
        ) as chaos:
            chaos_history = chaos.run(max_rounds=10)
            gv_chaos = chaos.global_vector.copy()
            executor = chaos._executor
            # The kill really happened and recovery really engaged: with a
            # restart budget the pool is respawned and the shards
            # resubmitted; without one the round runs in-process.
            assert chaos.crashed
            assert executor.restarts >= 1
            assert (executor.fallbacks >= 1) == (max_restarts == 0)

        assert np.array_equal(gv_serial, gv_chaos)
        assert serial_history.to_dict() == chaos_history.to_dict()


# ----------------------------------------------------------------------
# Lifecycle / refusal paths
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_close_is_idempotent_and_run_after_close_raises(self):
        model = LogisticRegressionMLP(input_dim=64, hidden=8, num_classes=10, seed=3)
        worker_data = _make_worker_data([12] * 2)
        ex = ProcessGroupExecutor(model, worker_data, num_processes=1, **HYPER)
        ex.close()
        ex.close()
        assert ex.closed
        with pytest.raises(RuntimeError):
            ex.run_group([0, 1], model.get_vector(), round_index=1)

    def test_active_dropout_model_is_refused(self):
        rng = np.random.default_rng(0)
        model = SequentialModel(
            [
                Dense("fc1", 16, 8, rng),
                ReLU("relu"),
                Dropout("drop", 0.5, rng),
                Dense("out", 8, 4, rng),
            ]
        )
        with pytest.raises(UnsupportedModelError):
            ProcessGroupExecutor(
                model, _make_worker_data([8], feat_shape=(16,)), **HYPER
            )

    def test_pad_to_smaller_than_batch_raises(self):
        model = LogisticRegressionMLP(input_dim=64, hidden=8, num_classes=10, seed=3)
        engine = BatchedWorkerEngine.try_build(model)
        worker_data = _make_worker_data([16])
        out = np.empty((1, model.dimension))
        with pytest.raises(ValueError, match="pad_to"):
            engine.run_group(
                [0], worker_data, model.get_vector(), 1, out=out, pad_to=2, **HYPER
            )

    def test_shared_stack_view_wraps_and_offsets(self):
        buf = bytearray(4 * 3 * 8)
        view = shared_stack_view(buf, 4, 3)
        assert view.shape == (4, 3)
        view[2, 1] = 7.0
        tail = shared_stack_view(buf, 2, 3, offset=2 * 3)
        assert tail[0, 1] == 7.0


# ----------------------------------------------------------------------
# Trainer routing: what reaches the pool
# ----------------------------------------------------------------------
class TestTrainerRouting:
    def test_kernel_less_model_downgrades_with_warning(
        self, small_experiment, without_batched_kernel
    ):
        exp = small_experiment
        exp.model_factory = without_batched_kernel(exp.model_factory)
        exp.config.parallelism = ParallelismConfig(mode="processes")
        with build_trainer("air_fedga", exp) as trainer:
            with pytest.warns(RuntimeWarning, match="no batched engine"):
                assert trainer.parallel_executor() is None
            assert not trainer.parallelism_active

    def test_small_groups_stay_in_process(self, small_experiment):
        exp = small_experiment
        exp.config.parallelism = ParallelismConfig(
            mode="processes", min_group_size=1_000
        )
        with build_trainer("air_fedga", exp) as trainer:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trainer.run(max_rounds=2)
            # Gated by min_group_size: no dispatch ever reached the pool.
            assert trainer._executor is None or trainer._executor.dispatches == 0


# ----------------------------------------------------------------------
# Benchmark-tier guard
# ----------------------------------------------------------------------
class TestBenchGuard:
    def test_refuses_parallelism_none(self):
        with pytest.raises(ValueError, match="serial"):
            bench_grouped_round_mp(10, parallelism="none")

    def test_refuses_silent_serial_fallback(self, monkeypatch):
        from repro.fl.base import BaseTrainer

        monkeypatch.setattr(BaseTrainer, "parallel_executor", lambda self: None)
        with pytest.raises(RuntimeError, match="mislabeled"):
            bench_grouped_round_mp(
                10, rounds_per_group=1, repeats=1, num_processes=1
            )
