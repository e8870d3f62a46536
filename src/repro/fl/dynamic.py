"""Dynamic baseline: synchronous AirComp FL with per-round worker selection.

Reference [31] of the paper (Sun et al., JSAC 2022): each round the server
*dynamically schedules* a subset of workers for the over-the-air update —
preferring workers whose current channel is strong and whose energy cost is
low — while the rest stay idle.  Selection shortens the straggler wait and
saves energy per round, but because the subset is chosen without regard to
the data distribution it injects participation bias under Non-IID data,
which is why the paper's Figs. 3-6 show noisier curves and slower
convergence for Dynamic than for Air-FedGA.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import FLExperiment
from .synchronous import SynchronousTrainer
from .uplink import AirCompUplink

__all__ = ["DynamicTrainer"]


class DynamicTrainer(AirCompUplink, SynchronousTrainer):
    """Synchronous AirComp FL with channel/energy-aware worker selection."""

    name = "dynamic"

    def __init__(
        self,
        experiment: FLExperiment,
        select_fraction: float = 0.3,
        exploration: float = 0.2,
    ) -> None:
        """
        Parameters
        ----------
        select_fraction:
            Fraction of workers scheduled each round (at least one).
        exploration:
            Fraction of the selected slots filled uniformly at random instead
            of by the channel/energy score, mimicking the scheduler's
            fairness term so no worker starves completely.
        """
        super().__init__(experiment)
        if not 0.0 < select_fraction <= 1.0:
            raise ValueError("select_fraction must be in (0, 1]")
        if not 0.0 <= exploration <= 1.0:
            raise ValueError("exploration must be in [0, 1]")
        self.select_fraction = select_fraction
        self.exploration = exploration
        self._select_rng = np.random.default_rng(
            np.random.SeedSequence([experiment.seed, 0xD1A])
        )

    # ------------------------------------------------------------------
    def select_workers(
        self, round_index: int, candidates: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Channel/energy-aware selection with a small exploration component.

        Score: ``h_i² / d_i`` — a worker with a strong channel and little
        data to weight needs the least transmit energy for the same received
        SNR (see Eq. 6/7), which is the quantity dynamic scheduling trades
        off against its energy budget.  ``candidates`` (ascending worker
        ids; default: everyone) are the workers the server may schedule;
        the number of slots is a fraction of the population, capped by how
        many candidates there are.
        """
        n = self.exp.num_workers
        pool = np.arange(n) if candidates is None else np.asarray(candidates, dtype=int)
        k = min(pool.size, max(1, int(round(self.select_fraction * n))))
        gains = self.exp.channel.gains(round_index)
        score = gains[pool] ** 2 / self.data_sizes[pool]
        n_explore = int(round(self.exploration * k))
        n_greedy = k - n_explore
        ranked = pool[np.argsort(-score, kind="stable")]
        selected = list(ranked[:n_greedy])
        if n_explore > 0:
            remaining = np.setdiff1d(pool, np.array(selected, dtype=int))
            extra = self._select_rng.choice(
                remaining, size=min(n_explore, remaining.size), replace=False
            )
            selected.extend(int(e) for e in extra)
        return sorted(int(s) for s in selected)

    def select_participants(self, round_index: int) -> Tuple[List[int], float]:
        """Rank the workers the availability poll found; absent ones are
        never scheduled."""
        available, weight_scale = self.sync_round_participants(round_index)
        return self.select_workers(round_index, available), weight_scale
