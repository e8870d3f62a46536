"""Training history: one row per global update, the log behind every figure.

Figures 3-6 plot loss and accuracy against (simulated) wall-clock time;
Fig. 8 reports time-to-accuracy and total time; Fig. 9 energy-to-accuracy;
Fig. 10 average single-round time and total training time.
:class:`TrainingHistory` holds one row per commit, after the initial model's
row, in NumPy columns.  Loss and accuracy are filled on the rows the run
samples (``eval_every``) and are NaN elsewhere.  The run totals read every
commit; the series (:meth:`~TrainingHistory.times`,
:meth:`~TrainingHistory.losses`, ...) read the sampled rows.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = ["COLUMNS", "TrainingHistory"]

#: The columns of a history, in serialization order, with their dtypes.
COLUMNS = {
    "round_index": np.int64,
    "time": np.float64,              # simulated wall-clock time of the update
    "group_id": np.int64,            # which group aggregated (-1: FedAsync or the initial row)
    "staleness": np.int64,           # τ_t of the aggregating group
    "num_participants": np.int64,    # workers in this aggregation
    "round_energy_j": np.float64,    # transmit energy spent in this round
    "sigma": np.float64,             # power scaling factor used
    "eta": np.float64,               # denoising factor used
    "sampled": np.bool_,             # evaluated: loss and accuracy are filled
    "loss": np.float64,              # global test loss
    "accuracy": np.float64,          # global test accuracy
}


def _strict(value):
    """``value`` as strict JSON has it: no NaN or Infinity, ``None`` instead."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


@dataclass(eq=False)
class TrainingHistory:
    """One row per commit in columns (:data:`COLUMNS`), with derived queries.

    The fault counters summarize the device-realism layer
    (``experiment.clientstate`` + ``experiment.fault``), and *are*
    simulated quantities — two runs of the same scenario produce identical
    values: ``workers_unavailable`` counts members absent at a group
    dispatch, ``workers_dropped`` members lost mid-round,
    ``partial_updates`` survivor updates scaled by a completion fraction
    < 1, ``quorum_retries`` / ``quorum_skips`` below-quorum rounds that
    were retried with backoff / abandoned, and ``groups_parked`` groups
    removed from the event loop after too many consecutive failures.  All
    stay 0 without a fault model.
    """

    #: The fault counters, in serialization order.
    FAULT_COUNTERS = (
        "workers_unavailable",
        "workers_dropped",
        "partial_updates",
        "quorum_retries",
        "quorum_skips",
        "groups_parked",
    )

    mechanism: str
    workers_unavailable: int = 0
    workers_dropped: int = 0
    partial_updates: int = 0
    quorum_retries: int = 0
    quorum_skips: int = 0
    groups_parked: int = 0
    _rows: int = field(default=0, init=False, repr=False)
    _columns: Dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._columns = {name: np.empty(16, dtype) for name, dtype in COLUMNS.items()}

    # ------------------------------------------------------------------
    def append(
        self,
        round_index: int,
        time: float,
        staleness: int = 0,
        group_id: int = -1,
        num_participants: int = 0,
        round_energy_j: float = 0.0,
        sigma: float = math.nan,
        eta: float = math.nan,
        sampled: bool = False,
        loss: float = math.nan,
        accuracy: float = math.nan,
    ) -> int:
        """Add one commit's row and return its index; the columns double when full."""
        values, n = locals(), self._rows
        if n and time + 1e-12 < self._columns["time"][n - 1]:
            raise ValueError("rows must be appended in non-decreasing time order")
        if n == self._columns["time"].size:
            for name, column in self._columns.items():
                self._columns[name] = np.concatenate([column, np.empty_like(column)])
        for name, column in self._columns.items():
            column[n] = values[name]
        self._rows = n + 1
        return n

    def fill(
        self, rows: Sequence[int], losses: Sequence[float], accuracies: Sequence[float]
    ) -> None:
        """Write the evaluations of sampled ``rows``."""
        self._columns["loss"][rows] = losses
        self._columns["accuracy"][rows] = accuracies

    def __len__(self) -> int:
        return self._rows

    # ------------------------------------------------------------------
    # Column accessors
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """A copy of one of :data:`COLUMNS` over every row."""
        return self._columns[name][: self._rows].copy()

    def cumulative_energy(self) -> np.ndarray:
        """Transmit energy spent up to each row, summed in commit order."""
        return np.add.accumulate(self.column("round_energy_j"))

    def _sampled(self) -> np.ndarray:
        return np.flatnonzero(self._columns["sampled"][: self._rows])

    def times(self) -> np.ndarray:
        return self._columns["time"][self._sampled()]

    def losses(self) -> np.ndarray:
        return self._columns["loss"][self._sampled()]

    def accuracies(self) -> np.ndarray:
        return self._columns["accuracy"][self._sampled()]

    def energies(self) -> np.ndarray:
        return self.cumulative_energy()[self._sampled()]

    # ------------------------------------------------------------------
    # Derived queries used by the benchmarks
    # ------------------------------------------------------------------
    @property
    def final_accuracy(self) -> float:
        accuracies = self.accuracies()
        return float(accuracies[-1]) if accuracies.size else 0.0

    @property
    def final_loss(self) -> float:
        losses = self.losses()
        return float(losses[-1]) if losses.size else float("inf")

    @property
    def total_time(self) -> float:
        return float(self._columns["time"][self._rows - 1]) if self._rows else 0.0

    @property
    def total_rounds(self) -> int:
        return int(self._columns["round_index"][self._rows - 1]) if self._rows else 0

    @property
    def total_energy(self) -> float:
        return float(self.cumulative_energy()[-1]) if self._rows else 0.0

    def best_accuracy(self) -> float:
        accs = self.accuracies()
        return float(accs.max()) if accs.size else 0.0

    def average_round_time(self) -> float:
        """Mean simulated duration of one global update: the last commit's
        time over its round index."""
        if not self.total_rounds:
            return 0.0
        return self.total_time / self.total_rounds

    def _first_reaching(self, target: float) -> Optional[int]:
        """The first sampled row whose accuracy reaches ``target``."""
        if not 0.0 < target <= 1.0:
            raise ValueError("target accuracy must be in (0, 1]")
        rows = self._sampled()
        reached = rows[self._columns["accuracy"][rows] >= target]
        return int(reached[0]) if reached.size else None

    def time_to_accuracy(self, target: float) -> Optional[float]:
        """Simulated time of the first sampled row whose accuracy reaches ``target``.

        Returns ``None`` if the target is never reached.  This is the first
        crossing of the raw (not smoothed) accuracy trace, not the paper's
        "stable" accuracy (e.g. "Air-FedGA attains a stable 80% accuracy in
        1077 s"): a run that touches the target once and falls back counts
        as having reached it (ROADMAP item 15).
        """
        row = self._first_reaching(target)
        return None if row is None else float(self._columns["time"][row])

    def energy_to_accuracy(self, target: float) -> Optional[float]:
        """Cumulative transmit energy spent when accuracy first reaches ``target``."""
        row = self._first_reaching(target)
        return None if row is None else float(self.cumulative_energy()[row])

    def rounds_to_accuracy(self, target: float) -> Optional[int]:
        """Number of global updates needed to first reach ``target`` accuracy."""
        row = self._first_reaching(target)
        return None if row is None else int(self._columns["round_index"][row])

    def max_staleness(self) -> int:
        """The largest staleness of any commit."""
        return int(self._columns["staleness"][: self._rows].max()) if self._rows else 0

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Compact scalar summary for report tables."""
        return {
            "mechanism": self.mechanism,
            "rounds": float(self.total_rounds),
            "total_time_s": float(self.total_time),
            "avg_round_time_s": float(self.average_round_time()),
            "final_loss": float(self.final_loss),
            "final_accuracy": float(self.final_accuracy),
            "best_accuracy": float(self.best_accuracy()),
            "total_energy_j": float(self.total_energy),
            "max_staleness": float(self.max_staleness()),
        }

    def fault_counters(self) -> Dict[str, int]:
        """The device-fault counters as a dict (all zero without faults)."""
        return {name: int(getattr(self, name)) for name in self.FAULT_COUNTERS}

    # ------------------------------------------------------------------
    # Serialization (used by the CLI reproduction driver)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Strict-JSON representation of the full history: every column as a
        list, non-finite floats as ``None``.

        The fault counters travel under the ``"faults"`` key (omitted from
        older files, which deserialize with all counters zero).
        """
        return {
            "mechanism": self.mechanism,
            "columns": {
                name: [_strict(v) for v in self._columns[name][: self._rows].tolist()]
                for name in COLUMNS
            },
            "summary": {key: _strict(value) for key, value in self.summary().items()},
            "faults": self.fault_counters(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrainingHistory":
        """Inverse of :meth:`to_dict`; ``None`` reads back as NaN.

        Other top-level keys are ignored, so files carrying counters this
        version no longer writes still load.
        """
        if "records" in data:
            raise ValueError(
                "history dict holds 'records', the sampled-rounds schema before "
                "0.20.0; histories now hold one row per commit under 'columns'. "
                "Re-run the experiment to write it"
            )
        if "mechanism" not in data or "columns" not in data:
            raise ValueError("history dict must contain 'mechanism' and 'columns'")
        columns = data["columns"]
        if not isinstance(columns, dict) or sorted(columns) != sorted(COLUMNS):
            raise ValueError(f"'columns' must hold exactly {list(COLUMNS)}")
        faults = data.get("faults") or {}
        if not isinstance(faults, dict):
            raise ValueError("'faults' must be a mapping of counter names")
        unknown = sorted(set(faults) - set(cls.FAULT_COUNTERS))
        if unknown:
            raise ValueError(f"unknown fault counters {unknown}")
        history = cls(
            mechanism=str(data["mechanism"]),
            **{name: int(value) for name, value in faults.items()},
        )
        if len({len(values) for values in columns.values()}) > 1:
            raise ValueError("history columns differ in length")
        for row in zip(*(columns[name] for name in COLUMNS)):
            history.append(**{k: math.nan if v is None else v for k, v in zip(COLUMNS, row)})
        return history

    def save_json(self, path: str | Path) -> Path:
        """Write the history to a strict JSON file and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, allow_nan=False))
        return path

    @classmethod
    def load_json(cls, path: str | Path) -> "TrainingHistory":
        """Load a history previously written by :meth:`save_json`."""
        data = json.loads(Path(path).read_text())
        return cls.from_dict(data)

    def save_csv(self, path: str | Path) -> Path:
        """Write one CSV row per commit (for external plotting)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {name: self.column(name) for name in COLUMNS}
        columns["cumulative_energy_j"] = self.cumulative_energy()
        fieldnames = [
            "round_index", "time", "loss", "accuracy", "staleness", "group_id",
            "num_participants", "round_energy_j", "cumulative_energy_j",
            "sigma", "eta", "sampled",
        ]
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(fieldnames)
            writer.writerows(zip(*(columns[name].tolist() for name in fieldnames)))
        return path
