"""Regression: failed points carry their spec hash and retry on resume.

A grid point that fails every retry must emit an error row stamped with
the point's resolved ``spec_hash`` — that stamp is what lets ``--resume``
distinguish "failed, retry me" from "never started" — and a later resume
must re-execute exactly that point (and nothing else), succeeding once
the transient cause is gone.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import registry
from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import SweepRunner

pytestmark = pytest.mark.sweep_resume

#: Executions of the gated model factory, keyed by gate value ("" = open).
CALLS = {"": 0, "gated": 0}


def gated_lr(seed=0, gate="", input_dim=64, hidden=8, num_classes=10):
    """An ``lr`` model behind a file gate: building fails while the gate
    file exists — a deterministic stand-in for a flaky dependency."""
    CALLS["gated" if gate else ""] += 1
    if gate and Path(gate).exists():
        raise RuntimeError("flaky dependency offline (gate file present)")
    return registry.create(
        "model", "lr", seed=seed, input_dim=input_dim,
        hidden=hidden, num_classes=num_classes,
    )


@pytest.fixture(autouse=True)
def gate_component():
    """Register the test-only model for the test's duration; a module-level
    registration would leak into the registry other collected tests
    (e.g. ``tests/registry``) assert the exact contents of."""
    registry.register("model", "gate-lr", overwrite=True)(gated_lr)
    yield
    registry._REGISTRY.get("model", {}).pop("gate-lr", None)


def gated_spec(gate_path: str):
    return {
        "name": "gated",
        "num_workers": 6,
        "seed": 0,
        "data": {
            "name": "synthetic-mnist",
            "params": {"num_train": 120, "num_test": 60, "image_size": 8},
            "flatten": True,
        },
        "model": {
            "name": "gate-lr",
            # The gate leaf is a sweep axis: point 0 is ungated (always
            # succeeds), point 1 fails while the gate file exists.
            "params": {"gate": ["", gate_path], "input_dim": 64, "hidden": 8,
                       "num_classes": 10},
        },
        "timing": {"base_local_time": 2.0},
        "training": {"max_rounds": 3, "max_eval_samples": 60},
    }


class TestFailedPointResume:
    def test_exhausted_retries_then_success_on_resume(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_RETRY_BACKOFF_S", 0.0)
        gate = tmp_path / "gate"
        gate.touch()
        spec = gated_spec(str(gate))
        out = tmp_path / "results.jsonl"

        runner = SweepRunner(spec, output=out, mode="serial", retries=2)
        rows = runner.run()
        by_index = {row["index"]: row for row in rows}
        assert "summary" in by_index[0] and "error" in by_index[1]

        # The error row records the failing point's resolved spec hash --
        # the key that lets resume match it back to the grid.
        failed = by_index[1]
        assert failed["spec_hash"] == runner.point_hashes[1]
        assert failed["attempts"] == 3  # initial execution + 2 retries
        assert "flaky dependency offline" in failed["error"]
        assert "Traceback (most recent call last)" in failed["traceback"]

        # Transient cause resolved; resume re-executes only the failure.
        gate.unlink()
        ungated_calls = CALLS[""]
        resumed = SweepRunner(
            spec, output=out, mode="serial", retries=2, resume=True
        ).run()
        assert CALLS[""] == ungated_calls, "succeeded point must not re-run"

        by_index = {row["index"]: row for row in resumed}
        assert "summary" in by_index[1] and "error" not in by_index[1]
        assert by_index[1]["attempts"] == 1  # executions this launch
        assert by_index[0]["summary"] == rows[0]["summary"]  # reused verbatim

        # Merged JSONL: the superseded error row is compacted away.
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [line["index"] for line in lines] == [0, 1]
        assert all("summary" in line for line in lines)
