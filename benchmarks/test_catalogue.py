"""The figure/table catalogue as data: pins, round-trips, airbench agreement.

``catalogue_pins.json`` was recorded at commit ``16250bb`` through the
hand-wired ``runner.build_experiment`` path (the second seed ladder), just
before that path was deleted: SHA-256 digests of ``history.to_dict()`` (plus the
scalar summaries) for the four figure workloads under the three AirComp
mechanisms and for ``lr_mnist`` under the five Fig. 10 mechanisms, all at a
short ``max_time``.  The Scenario-built catalogue must keep reproducing
them — that is the check that ``fig3_config()`` still means what it meant.

A digest only matches on a host whose BLAS rounds like the recording
host's; elsewhere the summaries are compared at ``rtol=1e-9`` (the golden
trajectories' tolerance) instead.

After an *intended* trajectory change, regenerate with::

    PYTHONPATH=src python -m benchmarks.test_catalogue
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Sequence, Tuple

import pytest

from repro.experiments import (
    AIRCOMP_MECHANISMS,
    ALL_MECHANISMS,
    Scenario,
    lr_mnist_config,
    run_comparison,
)
from repro.fl.history import TrainingHistory

from .workloads import fig3_config, fig4_config, fig5_config, fig6_config

HERE = Path(__file__).parent
PINS_PATH = HERE / "catalogue_pins.json"
PINS = json.loads(PINS_PATH.read_text())
AIRBENCH_WORKLOADS = json.loads((HERE / "airbench" / "workloads.json").read_text())

FIGURE_WORKLOADS = {
    "fig3": fig3_config,
    "fig4": fig4_config,
    "fig5": fig5_config,
    "fig6": fig6_config,
}


def pinned_cases(max_time: float) -> Dict[str, Tuple[Scenario, Sequence[str]]]:
    cases: Dict[str, Tuple[Scenario, Sequence[str]]] = {
        name: (make(max_time=max_time), AIRCOMP_MECHANISMS)
        for name, make in FIGURE_WORKLOADS.items()
    }
    cases["fig10_lr_mnist"] = (
        lr_mnist_config().with_(**{"training.max_time": max_time}),
        ALL_MECHANISMS,
    )
    return cases


def pin_of(history: TrainingHistory) -> Dict[str, Any]:
    payload = json.dumps(history.to_dict(), sort_keys=True).encode()
    return {"sha256": hashlib.sha256(payload).hexdigest(), "summary": history.summary()}


@pytest.mark.parametrize("case", sorted(PINS["cases"]))
def test_catalogue_reproduces_the_pinned_histories(case):
    scenario, mechanisms = pinned_cases(PINS["max_time"])[case]
    pinned = PINS["cases"][case]
    assert sorted(pinned) == sorted(mechanisms)
    for name, history in run_comparison(scenario, mechanisms=mechanisms).items():
        ours = pin_of(history)
        if ours["sha256"] == pinned[name]["sha256"]:
            continue
        assert ours["summary"] == pytest.approx(pinned[name]["summary"], rel=1e-9), (
            f"{case}/{name} no longer reproduces its pinned history"
        )


@pytest.mark.parametrize("figure", sorted(FIGURE_WORKLOADS))
def test_figure_workloads_round_trip_through_json(figure):
    scenario = FIGURE_WORKLOADS[figure]()
    assert Scenario.from_dict(json.loads(scenario.to_json())) == scenario


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
    ours = FIGURE_WORKLOADS[figure]().to_dict()
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
    PINS_PATH.write_text(json.dumps({"max_time": max_time, "cases": cases}, indent=1) + "\n")
    print(f"wrote {PINS_PATH}")
