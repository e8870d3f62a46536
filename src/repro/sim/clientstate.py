"""Per-worker device-realism state models (registry kind ``"clientstate"``).

The simulator historically assumed every worker is always up and completes
every local round — the best case for the grouping-asynchronous machinery
the paper is about, and exactly the case that never stresses it.  Real
edge fleets are not like that: devices go offline, drop mid-round and
return partial work (the AirComp surveys treat dropout and partial
participation as first-class design axes, and FLGo's ``system_simulator``
models availability/completeness explicitly).  This module provides that
missing layer as a family of *client-state models*:

=================  =====================================================
registry name      behaviour
=================  =====================================================
``always-on``      the legacy assumption: never unavailable, never drops
``bernoulli``      i.i.d. per-round availability with probability ``p``
``lognormal``      per-worker availability rates drawn from a log-normal
                   (a few highly available workers, a long flaky tail)
``cyclic``         sinusoidal availability (diurnal duty cycles), with a
                   per-worker phase offset
``dropout-rejoin`` workers drop *mid-round* and stay unavailable for a
                   fixed number of dispatches before rejoining
``partial``        workers occasionally return only a fraction of their
                   local work
=================  =====================================================

A model answers three questions about a worker, all evaluated by the
grouped schedule generator, in event order (see
:meth:`~repro.fl.grouped.GroupedAsyncTrainer.schedule`):

* :meth:`~ClientStateModel.availability_mask` — is the worker reachable
  at group-dispatch time?  Unavailable workers sit the round out.
* :meth:`~ClientStateModel.survival_mask` — did a dispatched worker
  survive to the aggregation, or did it drop mid-round?  The group
  degrades gracefully by renormalizing its aggregation weights over the
  survivors (quorum permitting).
* :meth:`~ClientStateModel.completion_fractions` — how much of the local
  round did a surviving worker complete?  Fractions below 1 shrink the
  worker's local update toward the group's base model.

Every draw comes from a dedicated RNG stream seeded by
``(seed, worker_id, round_index, sequence, purpose-tag)``, where
``sequence`` is the caller-supplied per-group dispatch counter.  Two runs
of the same scenario therefore produce *exactly* the same fault
trajectory, and draws for different workers / dispatches never share
state.  The ``always-on`` model short-circuits to "no faults" (its
:attr:`~ClientStateModel.is_always_on` flag lets the event loop skip the
fault path entirely, keeping histories bit-identical to a run without any
client-state model).
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from ..registry import register as _register

__all__ = [
    "ClientStateModel",
    "AlwaysOnModel",
    "BernoulliAvailability",
    "LognormalAvailability",
    "CyclicAvailability",
    "DropoutRejoinModel",
    "PartialCompletionModel",
]

# Purpose tags mixed into the per-draw seed streams so availability,
# survival and completion draws of the same (worker, round, sequence)
# never collide.
_TAG_AVAILABLE = 0xA5A1
_TAG_SURVIVE = 0xD609
_TAG_FRACTION = 0xF2AC


class ClientStateModel:
    """Base class: an always-healthy fleet with hooks for fault injection.

    Subclasses override :meth:`available`, :meth:`survives` and/or
    :meth:`completion_fraction` (scalar, one worker at a time); the
    vectorized ``*_mask`` / ``*_fractions`` helpers the event loop calls
    are derived from them.  The base class implements mid-round dropout
    (``dropout_prob``) once so every availability model composes with it.

    Parameters
    ----------
    num_workers:
        Fleet size; must match the experiment's partition.
    seed:
        Base seed of the fault streams (a :class:`Scenario` passes
        ``seed + 4``, extending the established ``seed+1..seed+3``
        discipline of heterogeneity/jitter/channel).
    dropout_prob:
        Probability that a dispatched worker drops *mid-round* before
        the aggregation (0 disables mid-round dropout).
    """

    name = "base"
    #: ``True`` only for :class:`AlwaysOnModel`: lets the event loop skip
    #: the fault path entirely so default runs stay bit-identical.
    is_always_on = False

    def __init__(self, num_workers: int, seed: int = 0, dropout_prob: float = 0.0) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not 0.0 <= dropout_prob <= 1.0:
            raise ValueError(
                f"dropout_prob must be in [0, 1], got {dropout_prob}"
            )
        self.num_workers = int(num_workers)
        self.seed = int(seed)
        self.dropout_prob = float(dropout_prob)

    # ------------------------------------------------------------------
    def _rng(self, worker_id: int, round_index: int, sequence: int, tag: int) -> np.random.Generator:
        """The dedicated stream for one (worker, round, dispatch, purpose) draw."""
        return np.random.default_rng(
            np.random.SeedSequence(
                [self.seed, int(worker_id), int(round_index), int(sequence), tag]
            )
        )

    def _check_worker(self, worker_id: int) -> None:
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(f"invalid worker id {worker_id}")

    # ------------------------------------------------------------------
    # Scalar queries (override these)
    # ------------------------------------------------------------------
    def available(self, worker_id: int, round_index: int, sequence: int) -> bool:
        """Whether the worker is reachable when its group is dispatched."""
        self._check_worker(worker_id)
        return True

    def survives(self, worker_id: int, round_index: int, sequence: int) -> bool:
        """Whether a dispatched worker survives to the aggregation."""
        self._check_worker(worker_id)
        if self.dropout_prob == 0.0:
            return True
        rng = self._rng(worker_id, round_index, sequence, _TAG_SURVIVE)
        return bool(rng.random() >= self.dropout_prob)

    def completion_fraction(self, worker_id: int, round_index: int, sequence: int) -> float:
        """Fraction of the local round a surviving worker completed, in (0, 1]."""
        self._check_worker(worker_id)
        return 1.0

    # ------------------------------------------------------------------
    # Vectorized queries (what the event loop calls)
    # ------------------------------------------------------------------
    @staticmethod
    def _worker_list(worker_ids: Union[Sequence[int], np.ndarray]) -> List[int]:
        """Normalize a member list or integer member array to Python ints.

        The grouped event loop passes the grouping's integer member
        arrays; converting once up front keeps every per-worker seed
        stream keyed by plain ints regardless of the caller's container.
        """
        return np.asarray(worker_ids, dtype=np.int64).tolist()

    def availability_mask(
        self, worker_ids: Union[Sequence[int], np.ndarray], round_index: int, sequence: int
    ) -> np.ndarray:
        """Boolean mask over ``worker_ids``: available at dispatch time."""
        return np.array(
            [
                self.available(w, round_index, sequence)
                for w in self._worker_list(worker_ids)
            ],
            dtype=bool,
        )

    def survival_mask(
        self, worker_ids: Union[Sequence[int], np.ndarray], round_index: int, sequence: int
    ) -> np.ndarray:
        """Boolean mask over ``worker_ids``: survived to the aggregation."""
        return np.array(
            [
                self.survives(w, round_index, sequence)
                for w in self._worker_list(worker_ids)
            ],
            dtype=bool,
        )

    def completion_fractions(
        self, worker_ids: Union[Sequence[int], np.ndarray], round_index: int, sequence: int
    ) -> np.ndarray:
        """Per-worker completed fraction of the local round, each in (0, 1]."""
        return np.array(
            [
                self.completion_fraction(w, round_index, sequence)
                for w in self._worker_list(worker_ids)
            ],
            dtype=np.float64,
        )


@_register("clientstate", "always-on")
class AlwaysOnModel(ClientStateModel):
    """The legacy assumption: every worker is always up and finishes every round."""

    name = "always-on"
    is_always_on = True

    def __init__(self, num_workers: int, seed: int = 0) -> None:
        super().__init__(num_workers, seed=seed, dropout_prob=0.0)


@_register("clientstate", "bernoulli")
class BernoulliAvailability(ClientStateModel):
    """I.i.d. per-dispatch availability: up with probability ``availability``."""

    name = "bernoulli"

    def __init__(
        self,
        num_workers: int,
        seed: int = 0,
        availability: float = 0.9,
        dropout_prob: float = 0.0,
    ) -> None:
        super().__init__(num_workers, seed=seed, dropout_prob=dropout_prob)
        if not 0.0 <= availability <= 1.0:
            raise ValueError(f"availability must be in [0, 1], got {availability}")
        self.availability = float(availability)

    def available(self, worker_id: int, round_index: int, sequence: int) -> bool:
        self._check_worker(worker_id)
        if self.availability >= 1.0:
            return True
        rng = self._rng(worker_id, round_index, sequence, _TAG_AVAILABLE)
        return bool(rng.random() < self.availability)


@_register("clientstate", "lognormal")
class LognormalAvailability(ClientStateModel):
    """Heavy-tailed per-worker availability (FLGo's log-normal model).

    Each worker draws a fixed rate ``x_i ~ LogNormal(0, sigma)`` once (from
    the model seed); its availability probability is ``x_i / max_j x_j``
    clipped to ``[floor, 1]``.  A few workers are nearly always up while a
    long tail is flaky — the typical shape of real device fleets.
    """

    name = "lognormal"

    def __init__(
        self,
        num_workers: int,
        seed: int = 0,
        sigma: float = 1.0,
        floor: float = 0.05,
        dropout_prob: float = 0.0,
    ) -> None:
        super().__init__(num_workers, seed=seed, dropout_prob=dropout_prob)
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if not 0.0 < floor <= 1.0:
            raise ValueError(f"floor must be in (0, 1], got {floor}")
        self.sigma = float(sigma)
        self.floor = float(floor)
        rates = np.random.default_rng(
            np.random.SeedSequence([self.seed, 0x10F0])
        ).lognormal(mean=0.0, sigma=self.sigma, size=self.num_workers)
        self._probs = np.clip(rates / rates.max(), self.floor, 1.0)

    def available(self, worker_id: int, round_index: int, sequence: int) -> bool:
        self._check_worker(worker_id)
        rng = self._rng(worker_id, round_index, sequence, _TAG_AVAILABLE)
        return bool(rng.random() < self._probs[worker_id])


@_register("clientstate", "cyclic")
class CyclicAvailability(ClientStateModel):
    """Diurnal duty cycles: availability oscillates with the round index.

    The availability probability of worker ``i`` in round ``t`` is::

        p_i(t) = low + (high - low) · (1 + sin(2π(t/period + φ_i))) / 2

    with a per-worker phase ``φ_i ~ U[0, 1)`` drawn once from the model
    seed, so worker duty cycles are staggered rather than synchronized.
    """

    name = "cyclic"

    def __init__(
        self,
        num_workers: int,
        seed: int = 0,
        period: float = 24.0,
        low: float = 0.1,
        high: float = 0.9,
        dropout_prob: float = 0.0,
    ) -> None:
        super().__init__(num_workers, seed=seed, dropout_prob=dropout_prob)
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError(
                f"need 0 <= low <= high <= 1, got low={low}, high={high}"
            )
        self.period = float(period)
        self.low = float(low)
        self.high = float(high)
        self._phases = np.random.default_rng(
            np.random.SeedSequence([self.seed, 0xC9C1])
        ).random(self.num_workers)

    def availability_probability(self, worker_id: int, round_index: int) -> float:
        """The deterministic duty-cycle probability ``p_i(t)``."""
        self._check_worker(worker_id)
        phase = self._phases[worker_id]
        wave = 0.5 * (1.0 + np.sin(2.0 * np.pi * (round_index / self.period + phase)))
        return float(self.low + (self.high - self.low) * wave)

    def available(self, worker_id: int, round_index: int, sequence: int) -> bool:
        p = self.availability_probability(worker_id, round_index)
        rng = self._rng(worker_id, round_index, sequence, _TAG_AVAILABLE)
        return bool(rng.random() < p)


@_register("clientstate", "dropout-rejoin")
class DropoutRejoinModel(ClientStateModel):
    """Mid-round dropout with a cool-down before the worker rejoins.

    A dispatched worker drops mid-round with probability ``dropout_prob``;
    once dropped it stays unavailable for the next ``rejoin_after``
    dispatches of its group before becoming eligible again.  The cool-down
    is tracked per worker in dispatch-sequence units, so the model is
    *stateful*: queries must arrive in the event loop's deterministic
    order (which the grouped trainer guarantees), and two runs of the same
    scenario replay the same trajectory.
    """

    name = "dropout-rejoin"

    def __init__(
        self,
        num_workers: int,
        seed: int = 0,
        dropout_prob: float = 0.1,
        rejoin_after: int = 3,
    ) -> None:
        super().__init__(num_workers, seed=seed, dropout_prob=dropout_prob)
        if rejoin_after < 1:
            raise ValueError(f"rejoin_after must be >= 1, got {rejoin_after}")
        self.rejoin_after = int(rejoin_after)
        # Dispatch-sequence number until which each worker is down (-1: up).
        self._down_until = np.full(num_workers, -1, dtype=np.int64)

    def available(self, worker_id: int, round_index: int, sequence: int) -> bool:
        self._check_worker(worker_id)
        return bool(sequence > self._down_until[worker_id])

    def survives(self, worker_id: int, round_index: int, sequence: int) -> bool:
        alive = super().survives(worker_id, round_index, sequence)
        if not alive:
            self._down_until[worker_id] = sequence + self.rejoin_after
        return alive


@_register("clientstate", "partial")
class PartialCompletionModel(ClientStateModel):
    """Workers occasionally return only part of their local round.

    With probability ``partial_prob`` a surviving worker's local update is
    scaled back to a completed fraction ``f ~ U[min_fraction, 1)``: the
    event loop blends its returned model toward the group's base vector,
    ``w ← base + f · (w − base)`` — the straggler finished only ``f`` of
    its local work.  Composes with mid-round dropout via ``dropout_prob``.
    """

    name = "partial"

    def __init__(
        self,
        num_workers: int,
        seed: int = 0,
        partial_prob: float = 0.5,
        min_fraction: float = 0.3,
        dropout_prob: float = 0.0,
    ) -> None:
        super().__init__(num_workers, seed=seed, dropout_prob=dropout_prob)
        if not 0.0 <= partial_prob <= 1.0:
            raise ValueError(f"partial_prob must be in [0, 1], got {partial_prob}")
        if not 0.0 < min_fraction <= 1.0:
            raise ValueError(f"min_fraction must be in (0, 1], got {min_fraction}")
        self.partial_prob = float(partial_prob)
        self.min_fraction = float(min_fraction)

    def completion_fraction(self, worker_id: int, round_index: int, sequence: int) -> float:
        self._check_worker(worker_id)
        if self.partial_prob == 0.0:
            return 1.0
        rng = self._rng(worker_id, round_index, sequence, _TAG_FRACTION)
        if rng.random() >= self.partial_prob:
            return 1.0
        return float(self.min_fraction + (1.0 - self.min_fraction) * rng.random())
