"""Federated-learning experiment plumbing shared by all mechanisms.

An :class:`FLExperiment` bundles everything a mechanism needs: the dataset
and its partition across workers, a model factory, the compute-latency
table (edge heterogeneity), the wireless channel model and the Air-FedGA
configuration.  :class:`BaseTrainer` provides the operations every
mechanism reuses:

* ``local_update_group`` — the worker-side update of Eq. (4)/(5) for a
  group: from a global model version, every member's local mini-batch SGD
  on its own data, stacked as a ``(G, q)`` matrix by the batched engine;
* ``evaluate`` — global test loss/accuracy of a model vector;
* ``aircomp_group_update`` — one over-the-air aggregation with power
  control (Eqs. 6-10 + Algorithm 2), returning the new global model and
  the round's Eq. (7) transmit energy;
* ``exact_group_update`` — the error-free OMA counterpart (Eq. 8).

A concrete mechanism composes these pieces along three axes, each written
once: a *schedule* (:mod:`~repro.fl.grouped`, :mod:`~repro.fl.fedasync`),
an *uplink* (:mod:`~repro.fl.uplink`) and, for the grouped schedule, a
*grouping* (:data:`repro.core.grouping.GROUPING_STRATEGIES`, or one group of
every worker: the barrier round).

A schedule's ``schedule(max_rounds, max_time)`` generator owns its clock
and yields one :class:`CommitRow` per global update without reading the
model; :meth:`BaseTrainer.run`, the one loop, applies the rows.
"""

from __future__ import annotations

import contextlib
import math
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import (
    Callable, Deque, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..channel.aircomp import (
    AirCompWorkspace,
    aircomp_aggregate,
    aircomp_latency,
)
from ..channel.fading import ChannelModel
from ..channel.oma import OMAConfig, tdma_round_time
from ..core.config import AirFedGAConfig, FaultConfig, require_count
from ..core.population import Population
# solve_power_control stays importable here: the benchmark's traced pass
# wraps the name in this module.
from ..core.power_control import PowerControlCache, solve_power_control  # noqa: F401
from ..data.partition import Partition
from ..data.synthetic import Dataset
from ..nn.batched import BatchedWorkerEngine, StepTransform
from ..nn.models import Model
from ..nn.params import parameter_dtype
from ..sim.clientstate import ClientStateModel
from ..sim.latency import LatencyTable
from .history import TrainingHistory
from .staleness import StalenessPolicy

__all__ = ["FLExperiment", "BaseTrainer", "Cohort", "CommitRow"]

#: Most rows (members × mini-batch) one engine call gathers per SGD step when
#: :meth:`BaseTrainer.run` trains cohorts ahead of their commits, and how many
#: schedule rows it reads ahead.  Measured (docs/PERFORMANCE.md, "Cohorts
#: trained ahead — what was measured"): a member costs 0.63 of a call of its
#: own at 96 rows, 0.57 at 192.  The call trains into one pooled slab whose
#: rows are its cohorts' stacks, so ``small_groups``' peak RSS holds at 192;
#: at 384 it grows 6 % and runs no faster.  A 64×32 ``scale_1m`` cohort
#: (2,048 rows) never merges.
_MERGE_ROWS = 192
_LOOK_AHEAD = 64


@dataclass(frozen=True, eq=False)
class Cohort:
    """Workers trained by one batched call: from the global model that the
    commit of round ``base_version`` made (0: the initial one), with
    mini-batch streams keyed by round ``key``.  Compared by identity."""

    ids: Sequence[int]
    key: int
    base_version: int


class CommitRow(NamedTuple):
    """One global update: when, who, and which cohort trains for it.

    ``fractions`` is the share of its local round each cohort member
    finished (``None``: all of it); ``slot`` picks the participants' rows
    of the cohort's stack (``None``: all).
    """

    round_index: int
    time: float
    group_id: int
    staleness: int
    participants: Sequence[int]
    cohort: Cohort
    weight_scale: float = 1.0
    fractions: Optional[np.ndarray] = None
    slot: Optional[slice] = None


@dataclass
class FLExperiment:
    """Everything needed to run one federated-training simulation.

    Attributes
    ----------
    dataset, partition:
        Training data and its assignment to workers.
    model_factory:
        Zero-argument callable constructing the (identically initialized)
        model.  Every mechanism starts from the same global model.
    latency:
        Per-worker simulated local-training times (edge heterogeneity).
    channel:
        Block-fading channel model producing per-round gains.
    config:
        Air-FedGA configuration (AirComp physical layer, grouping ξ,
        convergence constants).
    learning_rate, local_steps, batch_size:
        Worker-side SGD hyper-parameters (Eq. 4 uses one full-gradient step;
        ``local_steps`` mini-batch steps is the practical equivalent).
    eval_every:
        Evaluate the global model every this many global updates.
    max_eval_samples:
        Cap on the number of test samples used per evaluation (speed).
    seed:
        Base seed for batch sampling and channel noise.
    """

    dataset: Dataset
    partition: Optional[Partition]
    model_factory: Callable[[], Model]
    latency: LatencyTable
    channel: ChannelModel
    config: AirFedGAConfig = field(default_factory=AirFedGAConfig)
    learning_rate: float = 0.1
    local_steps: int = 2
    batch_size: int = 32
    eval_every: int = 1
    max_eval_samples: int = 512
    seed: int = 0
    oma: OMAConfig = field(default_factory=OMAConfig)
    #: Model dimension used for *latency/energy* computations.  The paper's
    #: models have 10^5-10^8 parameters; the NumPy substrate trains scaled
    #: down versions, so experiments can pass the paper-scale dimension here
    #: to keep the communication-time model faithful while the learning part
    #: stays tractable.  ``None`` means "use the trained model's dimension".
    latency_model_dimension: Optional[int] = None
    #: Device-realism model (see :mod:`repro.sim.clientstate`): decides
    #: which workers are unavailable at group-dispatch time, drop mid-round
    #: or return partial local work.  ``None`` (or the ``always-on`` model)
    #: skips the fault path; a model injecting nothing gives the same history.
    #: The skip stays: always-on through the fault path measured slower
    #: (``scale_1m`` 0.45 → 0.92 s; docs/ARCHITECTURE.md, "Fault model").
    clientstate: Optional[ClientStateModel] = None
    #: Group-level policy for reacting to faults (quorum fraction, retry
    #: backoff, survivor-weight renormalization); see
    #: :class:`repro.core.FaultConfig`.  Inert while ``clientstate`` is
    #: ``None``/always-on.
    fault: FaultConfig = field(default_factory=FaultConfig)
    #: Accepts only ``"lazy"``: every worker reads zero-copy shard views of
    #: one shared store.  Kept for callers that still pass it.
    materialization: str = "lazy"
    #: Pre-built :class:`~repro.core.population.Population`.  Usually left
    #: ``None`` and built on demand from ``dataset`` + ``partition``; the XL
    #: bench passes a replicated-store population directly and may then set
    #: ``partition=None``.
    population: Optional[Population] = None

    def __post_init__(self) -> None:
        if self.materialization != "lazy":
            raise ValueError(
                f"materialization={self.materialization!r}: the eager per-worker "
                "copies were removed; workers always read store-backed shards"
            )
        if self.partition is None and self.population is None:
            raise ValueError(
                "experiment needs a partition or a pre-built population"
            )
        num_workers = self.num_workers
        if (
            self.population is not None
            and self.population.num_workers != num_workers
        ):
            raise ValueError(
                "population and partition disagree on the number of workers"
            )
        if num_workers != self.latency.num_workers:
            raise ValueError(
                "partition and latency table disagree on the number of workers"
            )
        if num_workers != self.channel.num_workers:
            raise ValueError(
                "partition and channel model disagree on the number of workers"
            )
        # The checks run applies to max_rounds: else NaN losses or an engine TypeError.
        rate = self.learning_rate
        if isinstance(rate, bool) or not (
            isinstance(rate, (int, float, np.floating)) and math.isfinite(rate) and rate > 0
        ):
            raise ValueError(f"learning_rate must be a finite positive number, got {rate!r}")
        for name in ("local_steps", "batch_size", "eval_every", "max_eval_samples"):
            require_count(name, getattr(self, name))
        require_count("latency_model_dimension", self.latency_model_dimension, optional=True)
        if (
            self.clientstate is not None
            and self.clientstate.num_workers != num_workers
        ):
            raise ValueError(
                "client-state model and partition disagree on the number of "
                f"workers ({self.clientstate.num_workers} vs "
                f"{num_workers})"
            )

    @property
    def num_workers(self) -> int:
        if self.partition is not None:
            return self.partition.num_workers
        return self.population.num_workers

    def ensure_population(self) -> Population:
        """The population facade for this experiment, built on first use.

        Standard experiments derive it from ``dataset`` + ``partition``;
        XL experiments pass a pre-built (e.g. replicated-store) population
        instead.
        """
        if self.population is None:
            self.population = Population.from_dataset(
                self.dataset,
                self.partition,
                latency=self.latency,
            )
        return self.population


class BaseTrainer:
    """Shared machinery for all federated mechanisms."""

    #: registry name, overridden by subclasses
    name = "base"
    #: Damping of stale commits (:meth:`commit_update`); one group's rows are never stale.
    _staleness_policy: Optional[StalenessPolicy] = None

    def __init__(self, experiment: FLExperiment) -> None:
        self.exp = experiment
        # The config dtype knob ("float32" simulation mode) applies to every
        # parameter the factory constructs, and thereby to all O(q) buffers.
        with parameter_dtype(experiment.config.dtype):
            self.model: Model = experiment.model_factory()
        self.global_vector: np.ndarray = self.model.get_vector()
        # Struct-of-arrays population surface (repro.core.population): data
        # sizes, latencies, staleness and availability counters live in one
        # WorkerStateTable — no per-worker Python objects.  Workers with no
        # data get a negligible 1e-9 size so the weights α_i = d_i / D, which
        # each aggregation computes for its participants, stay well defined.
        self.population: Population = experiment.ensure_population()
        self.worker_state = self.population.state
        self.data_sizes: np.ndarray = self.worker_state.sizes
        self.total_data: float = self.worker_state.total_size
        self.history = TrainingHistory(mechanism=self.name)
        self._noise_rng = np.random.default_rng(
            np.random.SeedSequence([experiment.seed, 0xA17])
        )
        # Worker training data: zero-copy shard views into the population's
        # shared store (O(1) per worker).
        self._worker_data: Sequence[Tuple[np.ndarray, np.ndarray]] = (
            self.population.worker_data_sequence()
        )
        # Evaluation subset (fixed across rounds for comparability).
        eval_rng = np.random.default_rng(np.random.SeedSequence([experiment.seed, 0xE7A1]))
        n_test = experiment.dataset.num_test
        take = min(experiment.max_eval_samples, n_test)
        eval_idx = eval_rng.choice(n_test, size=take, replace=False)
        # Cast once, here: float32 mode would otherwise re-cast the float64
        # test images inside every forward pass of every evaluation.
        self._eval_x = experiment.dataset.x_test[eval_idx].astype(
            self.global_vector.dtype, copy=False
        )
        self._eval_y = np.asarray(experiment.dataset.y_test[eval_idx])
        # ------------------------------------------------------------------
        # Vectorized hot-path machinery (see docs/PERFORMANCE.md):
        # * the group-batched execution engine, which trains and evaluates
        #   every model; a layer without a batched kernel fails here;
        # * trainer-owned O(q) buffers so steady-state rounds perform no
        #   model-sized allocations.
        # ------------------------------------------------------------------
        dim = self.model.dimension
        dtype = self.global_vector.dtype
        self._engine = BatchedWorkerEngine.try_build(self.model)
        self._merges = self._engine.trains_ahead
        # Sampled rounds awaiting one evaluation pass (history rows, vectors),
        # which waits for a full block inside ``run`` (``_deferring``).
        k = self._engine.evaluation_block(self._eval_x)
        self._pending: List[int] = []
        self._eval_block, self._deferring = np.empty((k, dim), dtype), False
        self._update_out: np.ndarray = np.empty(dim, dtype=dtype)
        self._agg_scratch: np.ndarray = np.empty(dim, dtype=dtype)
        # Global-model versions, named by the round that committed them: the
        # live one, cohorts still to train from each, snapshots, spare buffers.
        self._version = 0
        self._holds: Dict[int, int] = {}
        self._snapshots: Dict[int, np.ndarray] = {}
        self._spare_bases: List[np.ndarray] = []
        self._air_workspace = AirCompWorkspace()
        cfg = experiment.config.aircomp
        # Calibration: the paper's σ₀² is the total AWGN power of a full-size
        # upload of L = latency_dimension symbols (the dimension the upload
        # latency and the energy model use), so each entry carries σ₀² / L.
        # The trained vector has q = model.dimension entries, and Eq. (30)'s
        # error is that whole vector's: power control (here and in Air-FedGA's
        # grouping estimate) sees q·σ₀²/L.  Neither changes during a run.
        per_entry_noise_var = cfg.noise_variance / float(self.latency_dimension)
        self._pc_config = replace(cfg, noise_variance=dim * per_entry_noise_var)
        self._noise_std = float(np.sqrt(per_entry_noise_var))
        self._pc_cache = PowerControlCache()
        # Fault-injection model (repro.sim.clientstate).  The always-on model
        # is normalized to None so every schedule's fast path — and therefore
        # bit-identical histories — applies whenever no fault can occur.
        cs = experiment.clientstate
        self._clientstate: Optional[ClientStateModel] = (
            cs if (cs is not None and not cs.is_always_on) else None
        )

    # ------------------------------------------------------------------
    # Hot-path buffer helpers
    # ------------------------------------------------------------------
    @property
    def pc_cache_hits(self) -> int:
        """Always 0: power control is solved on every aggregation."""
        return self._pc_cache.hits

    @property
    def pc_cache_misses(self) -> int:
        return self._pc_cache.misses

    def _group_stack(self, group_size: int) -> np.ndarray:
        """A ``(G, q)`` buffer for a group's stacked local models, from the
        population's recycling pool.

        The pool bounds live scratch memory by the few in-flight stacks:
        :meth:`run` trains each engine call into one and hands it back once
        the last of the call's cohorts has committed.
        """
        return self.population.stack_pool.acquire(
            group_size, self.model.dimension, self.global_vector.dtype
        )

    def __enter__(self) -> "BaseTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        """A trainer holds nothing to release; ``with trainer:`` reads as a run's scope."""

    # ------------------------------------------------------------------
    # Global-model versions
    # ------------------------------------------------------------------
    def _hold(self, version: int, count: int = 1) -> None:
        """A schedule dispatched ``count`` cohorts that will train from ``version``."""
        self._holds[version] = self._holds.get(version, 0) + count

    def _take_base(self, version: int) -> np.ndarray:
        """The global model of ``version`` for one cohort about to train.

        A snapshot no cohort holds any more is spare at once: its row is
        done with it before its commit takes the next snapshot.
        """
        base = self.global_vector if version == self._version else self._snapshots[version]
        held = self._holds.pop(version, 0) - 1
        if held > 0:
            self._holds[version] = held
        elif version in self._snapshots:
            self._spare_bases.append(self._snapshots.pop(version))
        return base

    def _commit_global(self, version: int) -> None:
        """Install the update buffer as the global model of ``version``.

        The outgoing model is snapshotted if a cohort still has to train
        from it; the buffer is swapped in, not copied (allocation-free).
        """
        if self._version in self._holds:
            if self._spare_bases:
                snapshot = self._spare_bases.pop()
            else:
                # analyze: allow-alloc(first snapshot; later ones reuse released buffers)
                snapshot = np.empty_like(self.global_vector)
            np.copyto(snapshot, self.global_vector)
            self._snapshots[self._version] = snapshot
        self.global_vector, self._update_out = self._update_out, self.global_vector
        self._version = version

    # ------------------------------------------------------------------
    # Worker-side local update (Eq. 4/5)
    # ------------------------------------------------------------------
    def local_step_transform(
        self,
        worker_ids: Sequence[int],
        base_vector: np.ndarray,
        round_index: int,
    ) -> Optional[StepTransform]:
        """Per-step parameter correction for this group's local training.

        Mechanism families with a regularized local objective override this
        to return a :class:`~repro.nn.batched.StepTransform` — FedProx's
        proximal pull toward ``base_vector``, FedDyn's drift correction.
        The transform is computed **once per group dispatch** and applied
        around every SGD step of the batched engine.  ``None`` (the default)
        is the plain SGD update.
        """
        return None

    def local_update_group(
        self,
        worker_ids: Sequence[int],
        base_vector: np.ndarray,
        round_index: Union[int, Sequence[int]],
        out: np.ndarray,
    ) -> np.ndarray:
        """Local updates of a whole group, written into the ``(G, q)`` ``out``.

        The :class:`~repro.nn.batched.BatchedWorkerEngine` runs one batched
        matmul per layer per SGD step for the whole group, and splits a
        large group across the host's cores itself, bit-identically.
        ``base_vector`` may also be a ``(G, q)`` row per member and
        ``round_index`` a key per member: :meth:`run` trains several
        cohorts in one call that way, into one slab of its stack pool.
        """
        ids = list(worker_ids)
        transform = self.local_step_transform(ids, base_vector, round_index)
        return self._engine.run_group(
            ids,
            # A store-backed sub-sequence, gathered from in place.
            self._worker_data[ids],
            base_vector,
            round_index,
            learning_rate=self.exp.learning_rate,
            local_steps=self.exp.local_steps,
            batch_size=self.exp.batch_size,
            seed=self.exp.seed,
            out=out,
            transform=transform,
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_vector(
        self, vector: np.ndarray
    ) -> Union[Tuple[float, float], Tuple[List[float], List[float]]]:
        """Global test (loss, accuracy) of a flat ``(q,)`` model vector, or the
        list of each for the rows of a ``(K, q)`` block, in one engine pass."""
        block = vector.reshape(-1, vector.shape[-1])
        losses, accuracies = self._engine.evaluate(block, self._eval_x, self._eval_y)
        return (losses[0], accuracies[0]) if vector.ndim == 1 else (losses, accuracies)

    def _flush_evaluations(self) -> None:
        """Evaluate the rounds waiting in the block and fill their history rows;
        the block is emptied first, so a failed evaluation leaves nothing waiting."""
        pending, self._pending = self._pending, []
        if pending:
            losses, accuracies = self.evaluate_vector(self._eval_block[: len(pending)])
            self.history.fill(pending, losses, accuracies)

    def record_round(
        self,
        round_index: int,
        time: float,
        staleness: int = 0,
        group_id: int = -1,
        num_participants: int = 0,
        round_energy: float = 0.0,
        sigma: float = float("nan"),
        eta: float = float("nan"),
        force_eval: bool = False,
    ) -> int:
        """Append this commit's history row and return its index.  A sampled
        row is evaluated at once or, inside :meth:`run`, when its block is."""
        sampled = force_eval or round_index % self.exp.eval_every == 0
        row = self.history.append(
            round_index, time, staleness, group_id, num_participants, round_energy,
            sigma, eta, sampled,
        )
        if sampled:
            np.copyto(self._eval_block[len(self._pending)], self.global_vector)
            self._pending.append(row)
            if not self._deferring or len(self._pending) == len(self._eval_block):
                self._flush_evaluations()
        return row

    # ------------------------------------------------------------------
    # Aggregation primitives
    # ------------------------------------------------------------------
    def exact_group_update(
        self,
        member_ids: Sequence[int],
        local_vectors: np.ndarray,
        weight_scale: float = 1.0,
    ) -> np.ndarray:
        """Error-free OMA aggregation (Eq. 8) into the trainer's update buffer.

        ``w_t = (1 − Σ α_i) w_{t−1} + Σ α_i w_i`` over the participating
        workers; with all workers participating this is exactly FedAvg.

        The weighted sum is one ``α @ A`` matmul over the stacked ``(G, q)``
        local-model matrix, written into ``_update_out`` (allocation-free;
        the returned array is that buffer, valid until the next
        aggregation).  ``weight_scale`` multiplies the participants'
        ``α_i`` — the fault layer passes ``Σα_members / Σα_survivors`` so
        mid-round survivors carry the full group's data mass.
        """
        if len(member_ids) != len(local_vectors):
            raise ValueError("member_ids and local_vectors length mismatch")
        if weight_scale <= 0:
            raise ValueError(f"weight_scale must be positive, got {weight_scale}")
        alphas = self.data_sizes[member_ids] / self.total_data
        if weight_scale != 1.0:
            alphas = alphas * weight_scale
        out = self._update_out
        np.multiply(self.global_vector, 1.0 - alphas.sum(), out=self._agg_scratch)
        np.dot(alphas.astype(local_vectors.dtype, copy=False), local_vectors, out=out)
        out += self._agg_scratch
        return out

    def aircomp_group_update(
        self,
        member_ids: Sequence[int],
        local_vectors: np.ndarray,
        round_index: int,
        weight_scale: float = 1.0,
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        """One over-the-air aggregation with power control (Eqs. 6-10).

        Returns the new global vector, written into the trainer's update
        buffer as :meth:`exact_group_update` does, and a dict with the σ/η
        used (``sigma``, ``eta``) and the round's Eq. (7) transmit energy
        summed over the participants (``round_energy_j``): what the record
        keeps.  ``local_vectors`` is the stacked ``(G, q)`` local-model
        matrix.  ``weight_scale`` multiplies the participants' effective
        data sizes (and thus their ``α_i`` and the Eq.-10 mixing mass β) —
        the fault layer passes ``Σα_members / Σα_survivors`` so a degraded
        group's survivors carry the full group's data mass over the air.
        """
        if len(member_ids) == 0:
            raise ValueError("at least one participant required")
        if len(member_ids) != len(local_vectors):
            raise ValueError("member_ids and local_vectors length mismatch")
        if weight_scale <= 0:
            raise ValueError(f"weight_scale must be positive, got {weight_scale}")
        gains_all = self.exp.channel.gains(round_index)
        # Reference (not copy) the freshest full-population draw in the
        # state table so diagnostics read gains without a second draw.
        self.worker_state.record_gains(round_index, gains_all)
        gains = gains_all[member_ids]
        sizes = self.data_sizes[member_ids]
        if weight_scale != 1.0:
            sizes = sizes * weight_scale

        # Model-norm bound W_t: use the largest local-model norm this round,
        # which is exactly what Assumption 4 bounds.  The row-wise squared
        # norms are also the ||w_i||² of the Eq. 7 energies, so they are
        # handed on to the aggregation instead of summed twice.
        sq_norms = np.einsum("ij,ij->i", local_vectors, local_vectors, dtype=np.float64)
        model_bound = max(float(np.sqrt(sq_norms.max())), 1e-8)

        pc = self._pc_cache.solve(
            data_sizes=sizes,
            channel_gains=gains,
            model_bound=model_bound,
            config=self._pc_config,
        )

        result = aircomp_aggregate(
            models=local_vectors,
            data_sizes=sizes,
            channel_gains=gains,
            sigma_t=pc.sigma,
            eta_t=pc.eta,
            noise_std=self._noise_std,
            rng=self._noise_rng,
            total_data_size=self.total_data,
            workspace=self._air_workspace,
            sq_norms=sq_norms,
        )
        # Eq. (10): mix the received estimate with the previous global model.
        beta = float((self.data_sizes[member_ids] / self.total_data).sum())
        if weight_scale != 1.0:
            beta = min(1.0, beta * weight_scale)
        np.multiply(self.global_vector, 1.0 - beta, out=self._agg_scratch)
        np.add(result.estimate, self._agg_scratch, out=self._update_out)

        info = {
            "sigma": pc.sigma,
            "eta": pc.eta,
            "round_energy_j": float(result.transmit_energies.sum()),
        }
        return self._update_out, info

    # ------------------------------------------------------------------
    # Persistent per-worker mechanism state
    # ------------------------------------------------------------------
    def register_worker_state(
        self,
        name: str,
        width: int = 1,
        dtype=None,
        fill: float = 0.0,
    ) -> np.ndarray:
        """Register a persistent per-worker state field on the population.

        Returns the backing struct-of-arrays field — ``(N,)`` for scalars,
        ``(N, width)`` for per-worker vectors (pass ``width=q`` for
        model-sized state such as FedDyn's drift vectors).  The array lives
        in the :class:`~repro.core.population.WorkerStateTable`, so it is
        O(1)-addressable at population scale and survives worker
        dropout/rejoin untouched.  ``dtype`` defaults to the model dtype.
        """
        if dtype is None:
            dtype = self.global_vector.dtype
        return self.worker_state.register_field(
            name, width=width, dtype=dtype, fill=fill
        )

    # ------------------------------------------------------------------
    # Fault polling
    # ------------------------------------------------------------------
    def _poll_available(
        self, member_ids: np.ndarray, round_label: int, seq: int
    ) -> np.ndarray:
        """The members the fault model finds available for one dispatch.

        The absent ones are counted on the history and in the state
        table.  ``seq`` is the dispatch sequence number keying the draw.
        """
        mask = np.asarray(
            self._clientstate.availability_mask(member_ids, round_label, seq),
            dtype=bool,
        )
        absent = member_ids[~mask]
        self.history.workers_unavailable += int(absent.size)
        self.worker_state.record_unavailable(absent)
        return member_ids[mask]

    # ------------------------------------------------------------------
    # Timing helpers
    # ------------------------------------------------------------------
    @property
    def latency_dimension(self) -> int:
        """Model dimension used in the latency model (paper-scale override)."""
        if self.exp.latency_model_dimension is not None:
            return self.exp.latency_model_dimension
        return self.model.dimension

    def aircomp_upload_latency(self) -> float:
        """``L_u`` for the current model dimension (Eq. 33)."""
        cfg = self.exp.config.aircomp
        return aircomp_latency(
            self.latency_dimension, cfg.num_subchannels, cfg.symbol_duration_s
        )

    def oma_upload_latency(self, member_ids: Sequence[int], round_index: int) -> float:
        """TDMA upload time for the given workers (grows with their number)."""
        gains = self.exp.channel.gains(round_index)[member_ids]
        return tdma_round_time(self.latency_dimension, gains, self.exp.oma)

    # ------------------------------------------------------------------
    # Mechanism-family hooks of the commit sequence
    # ------------------------------------------------------------------
    def post_local_update(
        self,
        participants: Sequence[int],
        local_vectors: np.ndarray,
        base_vector: np.ndarray,
        round_index: int,
    ) -> None:
        """Called after a cohort trained, before aggregation (default no-op).

        FedDyn updates its per-worker drift vectors here; ``local_vectors``
        is the stacked ``(G, q)`` result of the group update and must not
        be modified.
        """

    def post_aggregate(
        self, new_global: np.ndarray, participants: Sequence[int], round_index: int
    ) -> np.ndarray:
        """Server-side correction applied to the aggregated model.

        Default is the identity; FedDyn subtracts its drift average.  May
        modify ``new_global`` in place and must return the vector to
        commit.
        """
        return new_global

    def commit_update(
        self, row: CommitRow, local_vectors: np.ndarray
    ) -> Tuple[np.ndarray, float, Dict[str, float]]:
        """``(u, a, info)``: the commit sets the global model to ``(1 − a)·w + a·u``.

        ``u`` is the uplink's aggregate after :meth:`post_aggregate` and
        ``a`` the staleness policy's ``s(τ)`` for a stale row, else 1.
        """
        update, info = self.aggregate(
            row.participants, local_vectors, row.round_index, row.weight_scale
        )
        update = self.post_aggregate(update, row.participants, row.round_index)
        policy = self._staleness_policy
        weight = 1.0
        if policy is not None and row.staleness > 0:
            weight = policy.weight(row.staleness)
        return update, weight, info

    # ------------------------------------------------------------------
    def run(
        self, max_rounds: int = 100, max_time: Optional[float] = None
    ) -> TrainingHistory:
        """Run the mechanism: train, blend, aggregate, mix, commit and record
        each row of ``self.schedule``, resumed after every commit.

        A bad argument fails before anything is evaluated (a NaN
        ``max_time`` would otherwise make every comparison false and the
        run silently go to ``max_rounds``), ``max_rounds=0`` leaves the
        initial evaluation as the only row, and a trainer runs once —
        its clock, scheduler and history are not rewound.
        """
        if (
            isinstance(max_rounds, bool)
            or not isinstance(max_rounds, (int, np.integer))
            or max_rounds < 0
        ):
            raise ValueError(
                f"max_rounds must be a non-negative integer, got {max_rounds!r}"
            )
        if max_time is not None and not (
            math.isfinite(max_time) and max_time >= 0
        ):
            raise ValueError(
                "max_time must be a finite non-negative number of simulated "
                f"seconds (or None), got {max_time!r}"
            )
        if len(self.history):
            raise RuntimeError(
                f"{self.name} trainer has already run; build a new one"
            )
        self._deferring = True
        try:
            self.record_round(round_index=0, time=0.0, num_participants=0, force_eval=True)
            # Rows read off the schedule and not yet applied; trained cohorts
            # whose members have not all committed: their stack, how many
            # members are still to come and their call's [slab, cohorts left].
            rows = self.schedule(max_rounds, max_time)
            ahead: Deque[CommitRow] = deque()
            trained: Dict[Cohort, List] = {}
            while True:
                row = ahead.popleft() if ahead else next(rows, None)
                if row is None:
                    break
                cohort = row.cohort
                if cohort not in trained:
                    self._train_cohorts(row, ahead, rows, trained)
                entry = trained[cohort]
                stack = entry[0]
                local_vectors = stack if row.slot is None else stack[row.slot]

                # -- aggregate, then the staleness mix -----------------------
                update, weight, info = self.commit_update(row, local_vectors)
                if weight < 1.0 or update is not self._update_out:
                    # w ← (1 − a)·w + a·u into the trainer-owned update buffer.
                    np.multiply(self.global_vector, 1.0 - weight, out=self._agg_scratch)
                    np.multiply(update, weight, out=self._update_out)
                    self._update_out += self._agg_scratch

                # -- commit --------------------------------------------------
                self._commit_global(row.round_index)
                entry[1] -= len(row.participants)
                if not entry[1]:
                    # Every member has committed; the slab goes with its last cohort.
                    del trained[cohort]
                    entry[2][1] -= 1
                    if not entry[2][1]:
                        self.population.stack_pool.release(entry[2][0])
                self.worker_state.record_commit(row.participants, row.staleness)

                # -- record --------------------------------------------------
                self.record_round(
                    round_index=row.round_index,
                    time=row.time,
                    staleness=row.staleness,
                    group_id=row.group_id,
                    num_participants=len(row.participants),
                    round_energy=info.get("round_energy_j", 0.0),
                    sigma=info.get("sigma", math.nan),
                    eta=info.get("eta", math.nan),
                )
            # Cohorts still in flight when the schedule stopped (FedAsync): each slab once.
            for slab in {id(entry[2]): entry[2][0] for entry in trained.values()}.values():
                self.population.stack_pool.release(slab)
        except BaseException:
            # Fill what was appended, never replacing the failure in flight.
            self._deferring = False
            with contextlib.suppress(Exception):
                self._flush_evaluations()
            raise
        self._deferring = False
        self._flush_evaluations()
        return self.history

    def _train_cohorts(
        self,
        head: CommitRow,
        ahead: Deque[CommitRow],
        rows: Iterator[CommitRow],
        trained: Dict[Cohort, List],
    ) -> None:
        """Train ``head``'s cohort in one engine call with every cohort of the
        rows ahead whose base version is committed and whose members all draw
        the head's mini-batch size, up to ``_MERGE_ROWS`` gathered rows, into one
        pooled slab whose rows are their stacks; then blend each and call its hook,
        in row order.  Local SGD reads only keyed streams and immutable bases, so
        only its wall-clock moment moves."""
        firsts = {head.cohort: head}  # each cohort's first row, in row order
        batch = self._merge_batch(head.cohort)
        budget = _MERGE_ROWS - batch * len(head.cohort.ids)
        if batch and budget >= batch:
            while len(ahead) < _LOOK_AHEAD and (row := next(rows, None)) is not None:
                ahead.append(row)
            for row in ahead:
                cohort = row.cohort
                if (
                    cohort in firsts
                    or cohort in trained
                    or cohort.base_version > self._version
                    or batch * len(cohort.ids) > budget
                    or self._merge_batch(cohort) != batch
                ):
                    continue
                firsts[cohort] = row
                budget -= batch * len(cohort.ids)
        cohorts = list(firsts)
        bases = [self._take_base(cohort.base_version) for cohort in cohorts]
        spans = list(accumulate([len(cohort.ids) for cohort in cohorts], initial=0))
        slab = self._group_stack(spans[-1])
        if len(cohorts) == 1:
            self.local_update_group(head.cohort.ids, bases[0], head.cohort.key, out=slab)
        else:
            # Each cohort's rows of the slab start as its base (the call
            # reads a row before writing it) and stay its stack.
            for base, k0, k1 in zip(bases, spans, spans[1:]):
                np.copyto(slab[k0:k1], base)
            ids = [w for cohort in cohorts for w in cohort.ids]
            keys = [cohort.key for cohort in cohorts for _ in cohort.ids]
            self.local_update_group(ids, slab, keys, out=slab)
        shared = [slab, len(cohorts)]
        for cohort, base, k0, k1 in zip(cohorts, bases, spans, spans[1:]):
            stack = slab[k0:k1]
            # -- blend: w ← base + f·(w − base) for partial local work -----
            fractions = firsts[cohort].fractions
            if fractions is not None:
                stack -= base
                stack *= fractions.astype(stack.dtype)[:, None]
                stack += base
            self.post_local_update(cohort.ids, stack, base, cohort.key)
            trained[cohort] = [stack, len(cohort.ids), shared]

    def _merge_batch(self, cohort: Cohort) -> int:
        """The mini-batch size every member of ``cohort`` draws; 0 if the
        members' sizes differ or the engine trains no cohorts together."""
        if not self._merges:
            return 0
        sizes = self.worker_state.sizes[cohort.ids]
        batch = min(self.exp.batch_size, int(sizes.min()))
        return batch if batch >= self.exp.batch_size or sizes.max() == batch else 0
