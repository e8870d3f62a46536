"""Training history: the metric traces behind every figure in the paper.

Figures 3-6 plot loss and accuracy against (simulated) wall-clock time;
Fig. 8 reports time-to-accuracy; Fig. 9 energy-to-accuracy; Fig. 10 average
single-round time and total training time.  :class:`TrainingHistory` stores
one record per global update and provides the derived queries the benchmark
harness needs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

__all__ = ["RoundRecord", "TrainingHistory"]


@dataclass
class RoundRecord:
    """Snapshot taken after one global update (one aggregation)."""

    round_index: int
    time: float                     # simulated wall-clock time of the update
    loss: float                     # global test loss
    accuracy: float                 # global test accuracy
    staleness: int = 0              # τ_t of the aggregating group
    group_id: int = -1              # which group aggregated (-1 for sync)
    num_participants: int = 0       # workers in this aggregation
    round_energy_j: float = 0.0     # transmit energy spent in this round
    cumulative_energy_j: float = 0.0
    sigma: float = float("nan")     # power scaling factor used
    eta: float = float("nan")       # denoising factor used
    pc_cache_hits: int = 0          # cumulative power-control cache hits


@dataclass
class TrainingHistory:
    """Ordered sequence of :class:`RoundRecord` with derived queries.

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
    records: List[RoundRecord] = field(default_factory=list)
    workers_unavailable: int = 0
    workers_dropped: int = 0
    partial_updates: int = 0
    quorum_retries: int = 0
    quorum_skips: int = 0
    groups_parked: int = 0

    # ------------------------------------------------------------------
    def append(self, record: RoundRecord) -> None:
        if self.records and record.time + 1e-12 < self.records[-1].time:
            raise ValueError("records must be appended in non-decreasing time order")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Column accessors
    # ------------------------------------------------------------------
    def times(self) -> np.ndarray:
        return np.array([r.time for r in self.records])

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    def accuracies(self) -> np.ndarray:
        return np.array([r.accuracy for r in self.records])

    def stalenesses(self) -> np.ndarray:
        return np.array([r.staleness for r in self.records])

    def energies(self) -> np.ndarray:
        return np.array([r.cumulative_energy_j for r in self.records])

    # ------------------------------------------------------------------
    # Derived queries used by the benchmarks
    # ------------------------------------------------------------------
    @property
    def final_accuracy(self) -> float:
        return self.records[-1].accuracy if self.records else 0.0

    @property
    def final_loss(self) -> float:
        return self.records[-1].loss if self.records else float("inf")

    @property
    def total_time(self) -> float:
        return self.records[-1].time if self.records else 0.0

    @property
    def total_rounds(self) -> int:
        return self.records[-1].round_index if self.records else 0

    @property
    def total_energy(self) -> float:
        return self.records[-1].cumulative_energy_j if self.records else 0.0

    def best_accuracy(self) -> float:
        accs = self.accuracies()
        return float(accs.max()) if accs.size else 0.0

    def average_round_time(self) -> float:
        """Mean simulated duration of one global update.

        Uses the round index of the last record (the number of global
        updates performed), not the number of *recorded* evaluations, so the
        value is independent of ``eval_every``.
        """
        if not self.records or self.records[-1].round_index == 0:
            return 0.0
        return float(self.records[-1].time / self.records[-1].round_index)

    def time_to_accuracy(self, target: float) -> Optional[float]:
        """Earliest simulated time at which accuracy first reaches ``target``.

        Returns ``None`` if the target is never reached.  Uses the raw (not
        smoothed) accuracy trace, matching how the paper reports e.g.
        "Air-FedGA attains a stable 80% accuracy in 1077 s".
        """
        if not 0.0 < target <= 1.0:
            raise ValueError("target accuracy must be in (0, 1]")
        for r in self.records:
            if r.accuracy >= target:
                return r.time
        return None

    def energy_to_accuracy(self, target: float) -> Optional[float]:
        """Cumulative transmit energy spent when accuracy first reaches ``target``."""
        if not 0.0 < target <= 1.0:
            raise ValueError("target accuracy must be in (0, 1]")
        for r in self.records:
            if r.accuracy >= target:
                return r.cumulative_energy_j
        return None

    def rounds_to_accuracy(self, target: float) -> Optional[int]:
        """Number of global updates needed to first reach ``target`` accuracy."""
        if not 0.0 < target <= 1.0:
            raise ValueError("target accuracy must be in (0, 1]")
        for r in self.records:
            if r.accuracy >= target:
                return r.round_index
        return None

    def max_staleness(self) -> int:
        st = self.stalenesses()
        return int(st.max()) if st.size else 0

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
        """JSON-serializable representation of the full history.

        The fault counters travel under the ``"faults"`` key (omitted from
        older files, which deserialize with all counters zero).
        """
        return {
            "mechanism": self.mechanism,
            "records": [asdict(r) for r in self.records],
            "summary": self.summary(),
            "faults": self.fault_counters(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrainingHistory":
        """Inverse of :meth:`to_dict`.

        Other top-level keys are ignored, so files carrying counters this
        version no longer writes still load.
        """
        if "mechanism" not in data or "records" not in data:
            raise ValueError("history dict must contain 'mechanism' and 'records'")
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
        for raw in data["records"]:
            history.append(RoundRecord(**raw))
        return history

    def save_json(self, path: str | Path) -> Path:
        """Write the history to a JSON file and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    @classmethod
    def load_json(cls, path: str | Path) -> "TrainingHistory":
        """Load a history previously written by :meth:`save_json`."""
        data = json.loads(Path(path).read_text())
        return cls.from_dict(data)

    def save_csv(self, path: str | Path) -> Path:
        """Write one CSV row per recorded round (for external plotting)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fieldnames = [
            "round_index", "time", "loss", "accuracy", "staleness", "group_id",
            "num_participants", "round_energy_j", "cumulative_energy_j",
            "sigma", "eta", "pc_cache_hits",
        ]
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            for record in self.records:
                writer.writerow({k: getattr(record, k) for k in fieldnames})
        return path
