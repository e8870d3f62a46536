"""Crash-and-resume integration tests for the sweep runner.

The contract under test (ROADMAP: "resumable, fault-tolerant sweeps"): a
sweep killed with SIGKILL mid-grid and relaunched with ``--resume``
completes only the unfinished points, and the merged JSONL covers every
grid point exactly once with per-point summaries bit-identical (float64)
to the same sweep run uninterrupted.  CI runs this file as the dedicated
``sweep-resume`` smoke job (``pytest -m sweep_resume``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.experiments import sweep as sweep_mod
from repro.experiments.cli import main as cli_main
from repro.experiments.sweep import SweepRunner

pytestmark = pytest.mark.sweep_resume

REPO_ROOT = Path(__file__).resolve().parents[2]
GRID_SIZE = 6


def sweep_spec():
    """A 6-point grid: 3 seeds x {fast, slow} dataset sizes.

    The odd-indexed points (num_train=16384) take ~1 s each while the
    even ones finish in tens of milliseconds — so killing the serial
    sweep as soon as the first row lands reliably interrupts it *inside*
    slow point 1, leaving a genuinely half-finished grid behind.
    """
    return {
        "name": "killgrid",
        "num_workers": 6,
        "seed": [0, 1, 2],
        "data": {
            "name": "synthetic-mnist",
            "params": {"num_train": [256, 16384], "num_test": 60, "image_size": 8},
            "flatten": True,
        },
        "model": {"name": "lr", "params": {"input_dim": 64, "hidden": 8, "num_classes": 10}},
        "timing": {"base_local_time": 2.0},
        "training": {"max_rounds": 25, "max_eval_samples": 60},
    }


_EXECUTE_POINT = sweep_mod._execute_point


def die_in_worker_at_point_1(index, *args):
    """``_execute_point`` whose pool worker SIGKILLs itself on grid point 1
    (module-level so a forked pool can unpickle it by name)."""
    if index == 1 and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _EXECUTE_POINT(index, *args)


def read_complete_rows(path: Path):
    """Parse only the fully written JSONL lines (a kill can tear the last)."""
    rows = []
    if not path.exists():
        return rows
    for line in path.read_text().splitlines():
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if isinstance(row, dict):
            rows.append(row)
    return rows


def launch_sweep_subprocess(spec_path: Path, output: Path) -> subprocess.Popen:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments",
            "sweep",
            str(spec_path),
            "--output",
            str(output),
            "--serial",
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestKillAndResume:
    def test_sigkill_mid_grid_then_resume_merges_bit_identically(self, tmp_path):
        spec = sweep_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))

        # Uninterrupted reference run (in-process, same serial mode).
        reference_out = tmp_path / "reference.jsonl"
        SweepRunner(spec, output=reference_out, mode="serial").run()
        reference = {row["index"]: row for row in read_complete_rows(reference_out)}
        assert len(reference) == GRID_SIZE

        # Launch the same sweep in a subprocess and SIGKILL it mid-grid.
        out = tmp_path / "killed.jsonl"
        proc = launch_sweep_subprocess(spec_path, out)
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                if out.exists() and out.read_text().count("\n") >= 1:
                    break
                time.sleep(0.02)
            proc.kill()  # SIGKILL: no cleanup handlers run
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.kill()

        pre_kill = {
            row["index"]: row
            for row in read_complete_rows(out)
            if "summary" in row and "error" not in row
        }
        if len(pre_kill) >= GRID_SIZE:  # pragma: no cover - kill raced completion
            pytest.skip("sweep finished before the kill landed")
        assert pre_kill, "no row completed before the kill; grid too fast to test"

        # Relaunch with --resume: only the unfinished points execute.
        code = cli_main(
            ["sweep", str(spec_path), "--output", str(out), "--serial", "--resume"]
        )
        assert code == 0

        # The merged JSONL covers every grid point exactly once ...
        merged_rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert sorted(row["index"] for row in merged_rows) == list(range(GRID_SIZE))
        merged = {row["index"]: row for row in merged_rows}

        # ... with summaries bit-identical (float64) to the uninterrupted
        # reference, fault counters and all.
        for index in range(GRID_SIZE):
            assert merged[index]["summary"] == reference[index]["summary"]
            assert merged[index]["faults"] == reference[index]["faults"]
            assert merged[index]["spec_hash"] == reference[index]["spec_hash"]
            assert "error" not in merged[index]

        # Rows completed before the kill were reused verbatim, not re-run.
        for index, row in pre_kill.items():
            assert merged[index]["summary"] == row["summary"]
            assert merged[index]["attempts"] == row["attempts"]

    def tiny_spec(self, **extra):
        spec = dict(sweep_spec(), seed=[0, 1], training={"max_rounds": 2})
        spec["data"] = {
            "name": "synthetic-mnist",
            "params": {"num_train": 120, "num_test": 60, "image_size": 8},
            "flatten": True,
        }
        spec.update(extra)
        return spec

    def test_resume_refuses_a_different_grid(self, tmp_path):
        spec = self.tiny_spec()
        out = tmp_path / "results.jsonl"
        SweepRunner(spec, output=out, mode="serial").run()
        written = out.read_bytes()
        reordered = self.tiny_spec(seed=[1, 0])
        changed = self.tiny_spec(num_workers=5)
        shrunk = self.tiny_spec(seed=[0])  # row 2's index lies outside the grid
        for other, row in ((reordered, 1), (changed, 1), (shrunk, 2)):
            with pytest.raises(ValueError, match=f"row {row} of .*different grid"):
                SweepRunner(other, output=out, mode="serial", resume=True).run()
        assert out.read_bytes() == written

    def test_resume_of_an_appended_seed_executes_only_the_new_point(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "results.jsonl"
        SweepRunner(self.tiny_spec(), output=out, mode="serial").run()
        appended = self.tiny_spec(seed=[0, 1, 2])
        reference = SweepRunner(appended, mode="serial").run()

        executed = []

        def counting(index, *args):
            executed.append(index)
            return _EXECUTE_POINT(index, *args)

        monkeypatch.setattr(sweep_mod, "_execute_point", counting)
        rows = SweepRunner(appended, output=out, mode="serial", resume=True).run()
        assert executed == [2]
        assert [row["summary"] for row in rows] == [row["summary"] for row in reference]
        assert [json.loads(line) for line in out.read_text().splitlines()] == rows

    def test_a_killed_pool_worker_breaks_the_sweep_and_resume_finishes_it(
        self, tmp_path, monkeypatch
    ):
        """A point's retries cover exceptions it raises, not the death of
        its worker: the pool breaks, and ``resume=True`` finishes the grid."""
        spec = self.tiny_spec(seed=[0, 1, 2, 3])
        reference = SweepRunner(spec, max_workers=2).run()
        out = tmp_path / "results.jsonl"
        monkeypatch.setattr(sweep_mod, "_execute_point", die_in_worker_at_point_1)
        with pytest.raises(BrokenProcessPool):
            SweepRunner(spec, output=out, max_workers=2).run()
        assert 1 not in {row["index"] for row in read_complete_rows(out)}

        monkeypatch.setattr(sweep_mod, "_execute_point", _EXECUTE_POINT)
        resumed = SweepRunner(spec, output=out, max_workers=2, resume=True).run()
        assert [row["index"] for row in resumed] == [0, 1, 2, 3]
        assert [(row["summary"], row["faults"]) for row in resumed] == [
            (row["summary"], row["faults"]) for row in reference
        ]

    def test_resume_without_prior_files_is_a_fresh_run(self, tmp_path):
        out = tmp_path / "fresh.jsonl"
        rows = SweepRunner(
            self.tiny_spec(seed=0), output=out, mode="serial", resume=True
        ).run()
        assert len(rows) == 1 and "summary" in rows[0]
        assert [path.name for path in tmp_path.iterdir()] == ["fresh.jsonl"]
