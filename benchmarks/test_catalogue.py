"""The figure/table catalogue as data: pins, CLI agreement, airbench agreement.

``catalogue_pins.json`` holds SHA-256 digests of ``history.to_dict()`` (plus
the scalar summaries) for the four figure workloads under the three AirComp
mechanisms and for ``lr_mnist_config()`` under the five Fig. 10 mechanisms,
all at a short ``max_time``.  They were first recorded at commit ``16250bb``
through the hand-wired ``runner.build_experiment`` path, just before that
path was deleted, and re-recorded once when the history became one row per
commit and power control took the vector-scale noise term (0.20.0).  The
Scenario-built catalogue must keep reproducing them — that is the check that
``fig3_config()`` still means what it meant.  The case ``fig10_lr_mnist`` is
a digest of ``lr_mnist_config()``, the catalogue's base MLP scenario, not of
``FIGURES["fig10"]``.

``python -m repro.experiments run NAME`` must call NAME's driver exactly as
``benchmarks/test_NAME*`` does: same scenario document, same arguments.

The pins name the OpenBLAS kernel they were recorded on
(``tools.bench_pairs.openblas_kernel``): bit-identity holds per BLAS kernel,
not per host.  On that kernel every digest must match; on any other the
summaries are compared at ``rtol=1e-9`` (the golden trajectories'
tolerance) instead, and the test prints the kernel it ran on.

After an *intended* trajectory change, regenerate with::

    PYTHONPATH=src python -m benchmarks.test_catalogue
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Sequence, Tuple

import pytest

from repro.experiments import (
    AIRCOMP_MECHANISMS,
    ALL_MECHANISMS,
    FIGURES,
    Scenario,
    lr_mnist_config,
    run_comparison,
    run_experiment,
)
from repro.experiments.cli import EXPERIMENTS
from repro.fl.history import TrainingHistory
from tools.bench_pairs import openblas_kernel

from . import figure_utils

HERE = Path(__file__).parent
PINS_PATH = HERE / "catalogue_pins.json"
PINS = json.loads(PINS_PATH.read_text())
AIRBENCH_WORKLOADS = json.loads((HERE / "airbench" / "workloads.json").read_text())
KERNEL = openblas_kernel()

def pinned_cases(max_time: float) -> Dict[str, Tuple[Scenario, Sequence[str]]]:
    budget = {"training.max_time": max_time}
    cases: Dict[str, Tuple[Scenario, Sequence[str]]] = {
        name: (FIGURES[name]().with_(**budget), AIRCOMP_MECHANISMS)
        for name in ("fig3", "fig4", "fig5", "fig6")
    }
    cases["fig10_lr_mnist"] = (lr_mnist_config().with_(**budget), ALL_MECHANISMS)
    return cases


def pin_of(history: TrainingHistory) -> Dict[str, Any]:
    payload = json.dumps(history.to_dict(), sort_keys=True).encode()
    return {"sha256": hashlib.sha256(payload).hexdigest(), "summary": history.summary()}


@pytest.mark.parametrize("case", sorted(PINS["cases"]))
def test_catalogue_reproduces_the_pinned_histories(case):
    scenario, mechanisms = pinned_cases(PINS["max_time"])[case]
    pinned = PINS["cases"][case]
    assert sorted(pinned) == sorted(mechanisms)
    recording_kernel = KERNEL == PINS["kernel"]
    if not recording_kernel:
        print(f"kernel {KERNEL}, pins recorded on {PINS['kernel']}: comparing summaries")
    for name, history in run_comparison(scenario, mechanisms=mechanisms).items():
        ours = pin_of(history)
        if recording_kernel:
            assert ours["sha256"] == pinned[name]["sha256"], (
                f"{case}/{name} is no longer bit-identical to its pin on {KERNEL}"
            )
        else:
            assert ours["summary"] == pytest.approx(pinned[name]["summary"], rel=1e-9), (
                f"{case}/{name} no longer reproduces its pinned history (kernel {KERNEL})"
            )


class _Called(Exception):
    """Raised by an intercepted driver: the call, instead of the run."""

    def __init__(self, driver, args, kwargs):
        bound = inspect.signature(driver).bind(*args, **kwargs)
        bound.apply_defaults()
        self.arguments = dict(bound.arguments)


def _intercepted(driver):
    def record(*args, **kwargs):
        raise _Called(driver, args, kwargs)

    return record


class _OneShot:
    """The ``benchmark`` fixture's ``pedantic``, without the timing."""

    @staticmethod
    def pedantic(fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))


def _documents(arguments):
    return {
        name: value.to_dict() if isinstance(value, Scenario) else value
        for name, value in arguments.items()
    }


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_cli_calls_the_driver_as_the_figure_check_does(name, monkeypatch):
    """``run_experiment(name)`` and ``benchmarks/test_<name>_*`` hand the
    same driver the same scenario and the same arguments (defaults bound);
    the driver is intercepted, not run."""
    driver, key = EXPERIMENTS[name]
    monkeypatch.setitem(EXPERIMENTS, name, (_intercepted(driver), key))
    with pytest.raises(_Called) as cli:
        run_experiment(name)

    (path,) = HERE.glob(f"test_{name}_*.py")
    module = importlib.import_module(f"benchmarks.{path.stem}")
    patched = [m for m in (module, figure_utils) if hasattr(m, driver.__name__)]
    assert patched, f"{path.name} does not call {driver.__name__}"
    for where in patched:
        monkeypatch.setattr(where, driver.__name__, _intercepted(driver))
    with pytest.raises(_Called) as check:
        getattr(module, path.stem)(_OneShot())

    assert _documents(cli.value.arguments) == _documents(check.value.arguments)


def _disagreements(ours: Mapping[str, Any], theirs: Mapping[str, Any], path: str = ""):
    """Dotted keys both documents define (recursively) with different values."""
    for key in sorted(set(ours) & set(theirs)):
        where = f"{path}{key}"
        if isinstance(ours[key], Mapping) and isinstance(theirs[key], Mapping):
            yield from _disagreements(ours[key], theirs[key], f"{where}.")
        elif ours[key] != theirs[key]:
            yield where, ours[key], theirs[key]


@pytest.mark.parametrize(
    "figure, airbench_name", [("fig3", "fig_mlp"), ("fig4", "fig_cnn")]
)
def test_figure_workloads_agree_with_the_frozen_airbench_documents(
    figure, airbench_name
):
    """The repo benchmark's ``fig_mlp``/``fig_cnn`` are Fig. 3/4 by
    construction; this keeps the figure drivers and the frozen benchmark
    from drifting apart (read-only — airbench is never edited from here)."""
    ours = FIGURES[figure]().to_dict()
    theirs = dict(AIRBENCH_WORKLOADS[airbench_name]["scenario"])
    del ours["name"], theirs["name"]  # labels, not settings
    assert list(_disagreements(ours, theirs)) == []


if __name__ == "__main__":  # pragma: no cover - pin regeneration helper
    max_time = PINS["max_time"]
    cases = {
        case: {
            name: pin_of(history)
            for name, history in run_comparison(scenario, mechanisms=mechanisms).items()
        }
        for case, (scenario, mechanisms) in pinned_cases(max_time).items()
    }
    document = {"max_time": max_time, "kernel": KERNEL, "cases": cases}
    PINS_PATH.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {PINS_PATH}")
