"""Trial-vectorized counts engine — T whole trials as one ``(T, S)`` matrix.

The counts backend made one trial cheap: ``O(S)`` state, ``Θ(√n)``
interactions per numpy call.  But a sweep cell runs *hundreds* of such
trials, and at ``S ≪ n`` each trial's per-step cost is dominated by
Python-level dispatch — a dozen tiny numpy calls per collision-free run —
multiplied by ``T`` engine instances.  This module batches the trials
themselves: the whole cell is one ``(T, S)`` ``int64`` counts matrix, and
every lockstep step serves *all* live trials with a fixed number of numpy
calls — one run-length block draw
(:meth:`repro.scheduler.scheduler.CollisionRunSampler.next_run_lengths`),
one row-wise multivariate-hypergeometric draw (a conditional
hypergeometric chain over the ``S`` codes, vectorized across rows), and
the whole run applied by *pair-type counts* (the same chain sampling the
uniform pairing's exact law) — ``O(S²)`` work per step regardless of the
run length, with a segmented-shuffle fallback for wide-``S`` protocols
(see :meth:`BatchCountsEngine._step_rows`).  The
live set shrinks monotonically: trials retire as they converge, go
silent, or exhaust their budget, so stragglers never pay for finished
neighbours.

**Law.**  Per row, every draw has exactly the per-trial engine's law:
run lengths follow the same birthday-problem survival curve, the ``2k``
agents' states are a multivariate hypergeometric sample (drawn via the
chain rule — numpy's own ``marginals`` method of the same
distribution), the pairing is a uniform shuffle, and the colliding
``(L+1)``-th interaction uses the identical used/unused category weights
``U(U-1) : U·A : A·U``.  Rows share one PCG64 stream (seeded
``derive_seed(seed, 0)`` like a single counts engine), with each row
consuming disjoint i.i.d. draws — rows are therefore mutually
independent and each is *distribution*-identical to a per-trial counts
run, though not bit-identical for ``T > 1`` (the stream interleaving
differs).  At ``T = 1`` the engine simply *is* a
:class:`~repro.sim.counts_backend.CountsSimulation` (constructed with
the same seed), so single-trial batches are bit-for-bit the per-trial
engine — the anchor the test suite pins.

**Faults.**  Each row may carry a :class:`~repro.sim.fault_engine
.FaultSpec`, from which the row gets its own
:class:`~repro.sim.fault_engine.FaultEngine`: rows run that engine's
schedule.  The lockstep loop is sliced at every row's burst boundaries
(:attr:`~repro.sim.fault_engine.FaultEngine.next_fire_at`), with the row
dropping out of the stepping set, firing its burst through
:meth:`~repro.sim.fault_engine.FaultEngine.fire` with a counts-row
applier, and re-entering.  A row's burst schedule is therefore
bit-identical to a per-trial ``FaultEngine`` under the same
``FaultSpec`` — the cross-engine gate E22 enforces.  Bursts never land
on retired rows: a converged row's per-trial twin stops running at its
passing check, so later bursts are never fired there either.

Construction goes through the backend registry
(``make_simulation(backend="batch")``) with a
:class:`~repro.sim.initial_state.Replicated` initial state describing
the batch; :func:`run_trial_batch` is the ``Backend.trial_runner`` hook
that lets :func:`repro.sim.trials.run_trials` hand a whole spec list to
one engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Optional, Sequence

from repro.core.protocol import PopulationProtocol
from repro.obs import STEP_PHASES as _STEP_PHASES
from repro.obs import perf_counter
from repro.scheduler.rng import np_stream
from repro.scheduler.scheduler import CollisionRunSampler
from repro.sim.array_backend import require_numpy, transition_table_for
from repro.sim.counts_backend import (
    MAX_SILENCE_STATES,
    CountsBackendError,
    CountsSimulation,
    configuration_from_counts,
    counts_are_silent,
)
from repro.sim.fault_engine import FaultEngine, FaultSpec
from repro.sim.faults import AvailabilityAccounting, AvailabilityReport, FaultEvent
from repro.sim.initial_state import Clean, InitialState, Replicated
from repro.sim.simulation import ConfigPredicate, checkpoints


@dataclass(frozen=True)
class RowOutcome:
    """One batch row's result — the light per-trial record of the drivers."""

    row: int
    converged: bool
    interactions: int
    parallel_time: float


class BatchCountsEngine:
    """``T`` trials as one ``(T, S)`` counts matrix in lockstep.

    ``init`` is a :class:`~repro.sim.initial_state.Replicated` batch (one
    shared spec or one :class:`InitialState` per row); any non-batch
    ``init`` — or a plain ``n`` — is a batch of one.  Every row must
    describe the same population size (the collision-run law and the
    fault clock are per-``n``).

    The engine is driven through :meth:`run_rows_until` (the batched
    ``run_until``) or :meth:`measure_rows_availability` (the batched
    availability workload); both accept an optional per-row
    :class:`~repro.sim.fault_engine.FaultSpec` list.  Drive an engine
    **once** — like every engine here it is a consumed object, not a
    reusable runner.

    At ``T = 1`` the engine wraps a single
    :class:`~repro.sim.counts_backend.CountsSimulation` (same seed, same
    streams) and also exposes the common per-trial engine surface
    (``run`` / ``run_batch`` / ``run_until`` / ``predicate_holds`` /
    ``apply_fault`` / ``metrics`` / ``config``) by delegation — so
    ``make_simulation(backend="batch")`` without a ``Replicated`` start
    behaves bit-for-bit like the counts engine.  For ``T > 1`` those
    per-trial methods raise: a batch has rows, not a single trajectory.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        *,
        init: Optional[InitialState] = None,
        n: Optional[int] = None,
        seed: int = 0,
    ):
        np = require_numpy()
        size = protocol.num_states()
        if size is None:
            raise CountsBackendError(
                f"protocol '{protocol.name}' has no finite state encoding "
                "(num_states() is None), so it cannot run on the batch "
                "backend; use backend='object'"
            )
        self.protocol = protocol
        self.num_states = size
        self.seed = seed
        self._np = np
        self._single: Optional[CountsSimulation] = None
        self._matrix = None
        self._driven = False
        self._row_events: list[list[FaultEvent]] = []
        self._timings: Optional[dict[str, float]] = None

        if isinstance(init, Replicated):
            rows = [init.row(index) for index in range(init.trials)]
        else:
            rows = [init]
        self.trials = len(rows)

        if self.trials == 1:
            row = rows[0]
            counts = row.to_counts(protocol) if row is not None else None
            self._single = CountsSimulation(
                protocol, counts=counts, n=n, seed=seed
            )
            self.table = self._single.table
            self.n = self._single.n
            return

        vectors = []
        for index, row in enumerate(rows):
            vector = np.asarray(row.to_counts(protocol), dtype=np.int64).copy()
            if vector.shape != (size,):
                raise CountsBackendError(
                    f"batch row {index}: counts must have shape ({size},), "
                    f"got {vector.shape}"
                )
            if vector.size and vector.min() < 0:
                raise CountsBackendError(f"batch row {index}: counts must be non-negative")
            vectors.append(vector)
        sums = {int(vector.sum()) for vector in vectors}
        if len(sums) != 1:
            raise ValueError(
                f"every batch row must describe the same population size, "
                f"got row sums {sorted(sums)}"
            )
        self.n = sums.pop()
        if n is not None and n != self.n:
            raise ValueError(
                f"n={n} disagrees with the batch rows' population size {self.n}"
            )
        if self.n < 2:
            raise ValueError("population must have at least two agents")
        self.table = transition_table_for(protocol)
        self._matrix = np.stack(vectors)
        self._codes = np.arange(size, dtype=np.int64)
        self._generator = np_stream(seed, 0)
        self._runs = CollisionRunSampler(self.n, self._generator)
        # Per-ordered-pair aggregate delta: row ``i*S + j`` is the counts
        # change of one ``(i, j)`` interaction.  With it, a whole run is
        # applied as ``pair-type counts @ delta`` — no per-agent arrays.
        u_flat, v_flat = self.table.flat
        pairs = np.arange(size * size, dtype=np.int64)
        delta = np.zeros((size * size, size), dtype=np.int64)
        np.add.at(delta, (pairs, u_flat), 1)
        np.add.at(delta, (pairs, v_flat), 1)
        np.subtract.at(delta, (pairs, pairs // size), 1)
        np.subtract.at(delta, (pairs, pairs % size), 1)
        self._pair_delta = delta
        # Pair runs by type counts (S² hypergeometric chain) when that
        # beats materializing the Θ(√n)-length agent multiset; both paths
        # sample the identical law (see _step_rows).
        self._matching = size * (size - 1) <= math.isqrt(self.n)
        # (S, S) mask of pairs the protocol's δ actually changes, for the
        # row-vectorized silence check (None above the O(S²) memory bar).
        if size <= MAX_SILENCE_STATES:
            self._effectful = (
                (self.table.u_out != self._codes[:, None])
                | (self.table.v_out != self._codes[None, :])
            )
        else:
            self._effectful = None

    # ------------------------------------------------------------------
    # Shared views
    # ------------------------------------------------------------------

    @property
    def counts(self):
        """The batch as a ``(T, S)`` matrix (a live view, not a copy)."""
        if self._single is not None:
            return self._single.counts.reshape(1, -1)
        return self._matrix

    def fault_events(self, row: int = 0) -> list[FaultEvent]:
        """Row ``row``'s fired bursts from the last driven workload."""
        if not self._row_events:
            raise RuntimeError("no batch workload has been driven yet")
        return self._row_events[row]

    # ------------------------------------------------------------------
    # Per-step wall-clock instrumentation (benchmark breakdowns)
    # ------------------------------------------------------------------

    #: The accounted phases, in hot-loop order (the canonical tuple lives
    #: in :data:`repro.obs.STEP_PHASES`; re-exported here for engines).
    STEP_PHASES: tuple[str, ...] = _STEP_PHASES

    def instrument_steps(self) -> dict[str, float]:
        """Switch on per-phase wall-clock accounting for this engine.

        Returns the live accumulator mapping each of :data:`STEP_PHASES`
        — ``draw`` (run lengths + composition sampling), ``match``
        (pairing), ``apply`` (delta application + collisions), ``retire``
        (convergence/silence checks) — to seconds spent so far.
        Instrumentation never changes the draws: the numpy stepper only
        reads the clock around its existing sections, and the jitted
        engine switches to phase-split kernels that consume identical
        per-row streams.  Call before driving; the benchmarks (E22/E24)
        use this to print attributable breakdowns next to the gate.
        """
        if self._single is not None:
            # T=1 delegates the whole drive to its CountsSimulation, so
            # the live accumulator must be that engine's.
            self._timings = self._single.instrument_steps()
            return self._timings
        if self._timings is None:
            self._timings = {phase: 0.0 for phase in self.STEP_PHASES}
        return self._timings

    @property
    def step_timings(self) -> Optional[dict[str, float]]:
        """The accumulator from :meth:`instrument_steps` (``None`` when off)."""
        return self._timings

    # ------------------------------------------------------------------
    # T=1: the common per-trial engine surface, by delegation
    # ------------------------------------------------------------------

    def _single_sim(self) -> CountsSimulation:
        if self._single is None:
            raise ValueError(
                f"this BatchCountsEngine holds a batch of {self.trials} "
                "trials and has no single-trial surface; use "
                "run_rows_until()/measure_rows_availability()"
            )
        return self._single

    @property
    def config(self) -> list[Any]:
        return self._single_sim().config

    @property
    def metrics(self):
        return self._single_sim().metrics

    def run(self, interactions: int) -> None:
        self._single_sim().run(interactions)

    def run_batch(self, count: int) -> None:
        self._single_sim().run_batch(count)

    def run_until(self, predicate, max_interactions, check_interval=1):
        return self._single_sim().run_until(predicate, max_interactions, check_interval)

    def predicate_holds(self, predicate) -> bool:
        return self._single_sim().predicate_holds(predicate)

    def apply_fault(self, model, burst_size: int, generator) -> None:
        self._single_sim().apply_fault(model, burst_size, generator)

    def configuration_is_silent(self) -> bool:
        return self._single_sim().configuration_is_silent()

    # ------------------------------------------------------------------
    # Batch drivers
    # ------------------------------------------------------------------

    def run_rows_until(
        self,
        predicate: ConfigPredicate,
        *,
        max_interactions: int,
        check_interval: int = 1,
        faults: Optional[Sequence[Optional[FaultSpec]]] = None,
    ) -> list[RowOutcome]:
        """Batched ``run_until``: every row to convergence or budget.

        Same check discipline as every engine — the predicate is
        evaluated per row before the first step and then every
        ``check_interval`` interactions; a converged row retires with its
        interaction count (a check boundary), a row that exhausts the
        budget reports ``max_interactions`` unconverged.  A row that goes
        *silent* without faults can never converge, so it retires
        unconverged immediately (same outcome the per-trial engine
        reports after idling out its budget).  ``faults`` gives each row
        an optional :class:`FaultSpec`, sliced into the lockstep loop at
        that row's burst boundaries.
        """
        if check_interval < 1:
            raise ValueError("check_interval must be positive")
        if max_interactions < 0:
            raise ValueError(f"max_interactions must be non-negative, got {max_interactions}")
        engines = self._fault_engines(faults)
        self._claim_drive(engines)
        if self._single is not None:
            return [self._drive_single_until(
                predicate, max_interactions, check_interval, engines[0]
            )]

        outcomes: list[Optional[RowOutcome]] = [None] * self.trials
        timings = self._timings
        live = list(range(self.trials))
        position = 0
        checked = perf_counter() if timings is not None else 0.0
        live = self._retire_converged(live, outcomes, predicate, position)
        live = self._retire_silent(live, outcomes, engines, max_interactions)
        if timings is not None:
            timings["retire"] += perf_counter() - checked
        while live and position < max_interactions:
            target = min(position + check_interval, max_interactions)
            self._advance_rows(live, position, target, engines)
            position = target
            checked = perf_counter() if timings is not None else 0.0
            live = self._retire_converged(live, outcomes, predicate, position)
            if position < max_interactions:
                live = self._retire_silent(live, outcomes, engines, max_interactions)
            if timings is not None:
                timings["retire"] += perf_counter() - checked
        for row in live:
            outcomes[row] = RowOutcome(
                row, False, max_interactions, max_interactions / self.n
            )
        return outcomes  # type: ignore[return-value]

    def measure_rows_availability(
        self,
        correct: ConfigPredicate,
        *,
        total_interactions: int,
        checkpoint_every: int,
        faults: Optional[Sequence[Optional[FaultSpec]]] = None,
    ) -> list[AvailabilityReport]:
        """Batched availability workload: inject, checkpoint, report per row.

        Every row runs the full budget (availability has no early exit);
        rows that go silent with no faults pending stop *sampling* — their
        counts are provably frozen — but keep checkpointing, exactly like
        the per-trial engine's silence skip.
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        if total_interactions < 0:
            raise ValueError(
                f"total_interactions must be non-negative, got {total_interactions}"
            )
        engines = self._fault_engines(faults)
        self._claim_drive(engines)
        if self._single is not None:
            return [self._drive_single_availability(
                correct, total_interactions, checkpoint_every, engines[0]
            )]

        accounting = [AvailabilityAccounting() for _ in range(self.trials)]
        frozen: set[int] = set()
        position = 0
        while position < total_interactions:
            target = min(position + checkpoint_every, total_interactions)
            active = [row for row in range(self.trials) if row not in frozen]
            self._advance_rows(active, position, target, engines)
            position = target
            for row in range(self.trials):
                engine = engines[row]
                if engine is not None:
                    accounting[row].note_events(engine.events)
                accounting[row].checkpoint(position, self._row_predicate(correct, row))
                if row not in frozen and engine is None and self._row_silent(row):
                    frozen.add(row)
        return [
            accounting[row].report(
                total_interactions=total_interactions,
                fault_bursts=len(self._row_events[row]),
            )
            for row in range(self.trials)
        ]

    # ------------------------------------------------------------------
    # T=1 delegation drivers (bit-identical to the per-trial engines)
    # ------------------------------------------------------------------

    def _drive_single_until(self, predicate, max_interactions, check_interval, engine):
        sim = self._single_sim()
        if engine is None:
            result = sim.run_until(predicate, max_interactions, check_interval)
        else:
            result = engine.run_until(
                sim, predicate,
                max_interactions=max_interactions, check_interval=check_interval,
            )
        return RowOutcome(0, result.converged, result.interactions, result.parallel_time)

    def _drive_single_availability(self, correct, total_interactions, checkpoint_every, engine):
        sim = self._single_sim()
        if engine is None:
            # Fault-free availability: checkpoint the plain run (the
            # engine's own silence skip already freezes idle stretches).
            accounting = AvailabilityAccounting()
            for position in checkpoints(sim._advance, total_interactions, checkpoint_every):
                accounting.checkpoint(position, sim.predicate_holds(correct))
            return accounting.report(
                total_interactions=total_interactions, fault_bursts=0
            )
        return engine.measure_availability(
            sim, correct,
            total_interactions=total_interactions, checkpoint_every=checkpoint_every,
        )

    # ------------------------------------------------------------------
    # Retirement and per-row checks
    # ------------------------------------------------------------------

    def _row_predicate(self, predicate, row: int) -> bool:
        on_counts = getattr(predicate, "on_counts", None)
        if on_counts is not None:
            return bool(on_counts(self.counts[row]))
        return bool(predicate(configuration_from_counts(self.protocol, self.counts[row])))

    def _row_silent(self, row: int) -> bool:
        return counts_are_silent(self.table, self.counts[row])

    def _retire_converged(self, live, outcomes, predicate, position):
        if not live:
            return []
        held = self._rows_predicate(predicate, live)
        survivors = []
        for row, holds in zip(live, held):
            if holds:
                outcomes[row] = RowOutcome(row, True, position, position / self.n)
            else:
                survivors.append(row)
        return survivors

    def _rows_predicate(self, predicate, rows) -> list[bool]:
        """``predicate`` over every row of ``rows`` — one array op when
        the predicate carries a row-vectorized counts form.

        Predicates built by :func:`~repro.sim.counts_backend
        .goal_counts_predicate` expose ``on_counts_rows`` (backed by
        :meth:`~repro.core.protocol.PopulationProtocol.goal_counts_rows`),
        so the whole live set is answered by one ``(R, S)`` expression
        instead of a Python loop over ``T`` — the convergence-check half
        of the batch engines' hot path.  Plain predicates fall back to
        the per-row check.
        """
        on_rows = getattr(predicate, "on_counts_rows", None)
        if on_rows is not None and self._matrix is not None:
            np = self._np
            sub = self._matrix[np.asarray(rows, dtype=np.int64)]
            return [bool(holds) for holds in np.asarray(on_rows(sub)).reshape(-1)]
        return [self._row_predicate(predicate, row) for row in rows]

    def _silent_rows(self, rows):
        """Per-row :func:`counts_are_silent`, vectorized over ``rows``.

        One ``(R, S, S)`` mask against the precomputed effectful-pair
        table — same verdicts as the per-row scan, including the
        diagonal's two-agent requirement.  Falls back to the per-row
        check when ``S`` is past the O(S²)-memory bar.
        """
        np = self._np
        if self._effectful is None:
            return [self._row_silent(row) for row in rows]
        sub = self._matrix[np.asarray(rows, dtype=np.int64)]
        occupied = sub > 0
        changes = occupied[:, :, None] & occupied[:, None, :] & self._effectful
        diagonal = np.arange(self.num_states)
        changes[:, diagonal, diagonal] &= sub > 1
        return ~changes.any(axis=(1, 2))

    def _retire_silent(self, live, outcomes, engines, max_interactions):
        # A silent row with no fault stream is frozen forever: its
        # predicate stays False at every future check, so the per-trial
        # engine would idle to the budget and report exactly this.
        # Rows with faults stay live — a burst can corrupt them awake.
        candidates = [row for row in live if engines[row] is None]
        if not candidates:
            return list(live)
        silent = dict(zip(candidates, self._silent_rows(candidates)))
        survivors = []
        for row in live:
            if silent.get(row, False):
                outcomes[row] = RowOutcome(
                    row, False, max_interactions, max_interactions / self.n
                )
            else:
                survivors.append(row)
        return survivors

    def _fault_engines(self, faults) -> list[Optional[FaultEngine]]:
        """One :class:`FaultEngine` per row with a :class:`FaultSpec`
        (``None`` for fault-free rows)."""
        specs = [None] * self.trials if faults is None else list(faults)
        if len(specs) != self.trials:
            raise ValueError(
                f"faults must give one Optional[FaultSpec] per row: "
                f"expected {self.trials}, got {len(specs)}"
            )
        for spec in specs:
            if spec is not None and not isinstance(spec, FaultSpec):
                raise TypeError(f"faults entries must be FaultSpec or None, got {type(spec).__name__}")
        return [
            None if spec is None else spec.make_engine(self.protocol, n=self.n)
            for spec in specs
        ]

    def _claim_drive(self, engines) -> None:
        """Mark the engine driven; the rows' fault engines' event lists
        become :meth:`fault_events`."""
        if self._driven:
            raise RuntimeError(
                "this BatchCountsEngine has already been driven; build a "
                "fresh engine per workload"
            )
        self._driven = True
        self._row_events = [[] if engine is None else engine.events for engine in engines]

    # ------------------------------------------------------------------
    # The lockstep advance (burst slicing + the vectorized stepper)
    # ------------------------------------------------------------------

    def _advance_rows(self, rows, position, target, engines) -> None:
        """Advance every row in ``rows`` from ``position`` to ``target``,
        firing each row's scheduled bursts at their interaction boundaries
        (the batched form of :meth:`FaultEngine._advance_to`)."""
        pos = {row: position for row in rows}
        while True:
            stepping: list[int] = []
            amounts: list[int] = []
            all_done = True
            for row in rows:
                engine = engines[row]
                stop = target
                if engine is not None:
                    # Fire every burst due at (or before) this row's
                    # current boundary — several can ceil to one position.
                    while engine.next_fire_at <= pos[row]:
                        engine.fire(pos[row], partial(self._apply_row_fault, row))
                    stop = min(stop, engine.next_fire_at)
                if pos[row] >= target:
                    continue
                all_done = False
                stepping.append(row)
                amounts.append(stop - pos[row])
                pos[row] = stop
            if all_done:
                return
            self._step_rows(stepping, amounts)

    def _apply_row_fault(self, row, model, burst_size, generator) -> None:
        """:meth:`FaultEngine.fire`'s applier for one row of the batch."""
        model.apply_counts(self.protocol, self.counts[row], burst_size, generator)

    def _step_rows(self, rows, amounts) -> None:
        """Run ``amounts[i]`` interactions on each row of ``rows``, in
        lockstep collision-free runs; rows leave the stepping set as
        their budget empties (the straggler-retirement hot loop).

        Per iteration, for the R still-stepping rows: one run-length
        block draw, one row-wise hypergeometric sample of the ``2k``
        agents' states, the uniform pairing of those agents, one
        aggregate delta — and a vectorized collision interaction for
        every row whose run completed inside its budget.

        The pairing has two law-identical implementations.  A uniform
        shuffle of the ``2k``-agent multiset decomposes exactly: the
        initiator (odd-position) states are a size-``k`` multivariate
        hypergeometric subsample of the drawn composition, and the
        initiator→responder assignment is a uniform matching, whose
        pair-type counts follow the multivariate Fisher hypergeometric —
        both samplable by the same conditional chain that already draws
        the composition.  That *matching* path costs ``O(S²)`` generator
        calls per step, independent of the run length, so it is used
        whenever ``S(S-1) ≤ √n``; wide-``S`` protocols keep the explicit
        multiset materialization + segmented-shuffle path (``O(R·√n)``
        elements but only a dozen numpy calls).
        """
        np = self._np
        rng = self._generator
        size = self.num_states
        counts = self._matrix
        u_flat, v_flat = self.table.flat
        timings = self._timings
        idx = np.asarray(rows, dtype=np.int64)
        remaining = np.asarray(amounts, dtype=np.int64)
        while idx.size:
            start = perf_counter() if timings is not None else 0.0
            lengths = self._runs.next_run_lengths(int(idx.size))
            k = np.minimum(lengths, remaining)
            collide = (remaining > k) & (k == lengths)
            two_k = 2 * k
            sub = counts[idx]  # (R, S) snapshot of the pre-run counts
            sample = self._sample_rows(sub, two_k)
            live = int(idx.size)
            if timings is not None:
                drawn = perf_counter()
                timings["draw"] += drawn - start
            if self._matching:
                # Run applied by pair-type counts: no per-agent arrays.
                initiators = self._sample_rows(sample, k)
                matched = self._match_rows(initiators, sample - initiators)
                if timings is not None:
                    paired = perf_counter()
                    timings["match"] += paired - drawn
                counts[idx] += matched.reshape(live, size * size) @ self._pair_delta
            else:
                # Pair the drawn states with one segmented shuffle: random
                # keys offset by the local row index sort row-major with a
                # uniform order inside each row; segments have even length,
                # so the global even/odd split never pairs across rows.
                flat_codes = np.repeat(np.tile(self._codes, live), sample.reshape(-1))
                row_local = np.repeat(np.arange(live, dtype=np.int64), two_k)
                order = np.argsort(row_local + rng.random(flat_codes.size))
                shuffled = flat_codes[order]
                initiators = shuffled[0::2]
                responders = shuffled[1::2]
                pair_rows = np.repeat(np.arange(live, dtype=np.int64), k)
                pair_index = initiators * size + responders
                if timings is not None:
                    paired = perf_counter()
                    timings["match"] += paired - drawn
                outputs = np.concatenate(
                    (u_flat.take(pair_index), v_flat.take(pair_index))
                )
                out_rows = np.concatenate((pair_rows, pair_rows))
                delta = np.bincount(out_rows * size + outputs, minlength=live * size)
                delta -= np.bincount(row_local * size + flat_codes, minlength=live * size)
                counts[idx] += delta.reshape(live, size)
            remaining = remaining - k
            if collide.any():
                self._collision_rows(idx[collide], sub[collide] - sample[collide])
                remaining[collide] -= 1
            if timings is not None:
                timings["apply"] += perf_counter() - paired
            keep = remaining > 0
            if not keep.all():
                idx = idx[keep]
                remaining = remaining[keep]

    def _match_rows(self, initiators, responders):
        """Row-wise pair-type counts of a uniform initiator→responder
        matching: ``[r, i, j]`` counts run pairs with initiator code
        ``i`` and responder code ``j``.

        Uniformity makes the responders matched to each initiator code a
        multivariate hypergeometric subsample of the responders not yet
        matched, so the chain over initiator codes (each step one
        :meth:`_sample_rows` call) samples the exact joint law; the last
        code takes whatever remains.
        """
        np = self._np
        size = self.num_states
        matched = np.zeros((initiators.shape[0], size, size), dtype=np.int64)
        remaining = responders.copy()
        for code in range(size - 1):
            taken = self._sample_rows(remaining, initiators[:, code])
            matched[:, code, :] = taken
            remaining -= taken
        matched[:, size - 1, :] = remaining
        return matched

    def _sample_rows(self, sub, nsample):
        """Row-wise multivariate hypergeometric: the states of ``nsample``
        distinct agents drawn from each row of ``sub``.

        The conditional chain over codes (numpy's own ``marginals``
        decomposition): code by code, a vectorized-over-rows scalar
        hypergeometric of the remaining draw against the remaining
        population.  ``S - 1`` generator calls serve the whole batch.
        """
        np = self._np
        rng = self._generator
        out = np.zeros_like(sub)
        population_rest = sub.sum(axis=1)
        draw_rest = nsample.astype(np.int64)
        for code in range(self.num_states - 1):
            good = sub[:, code]
            population_rest = population_rest - good
            # hypergeometric needs a non-empty urn; an exhausted row has
            # draw_rest == 0, so a phantom bad ball never gets drawn.
            bad = np.where(good + population_rest > 0, population_rest, 1)
            taken = rng.hypergeometric(good, bad, draw_rest)
            out[:, code] = taken
            draw_rest = draw_rest - taken
        out[:, -1] = draw_rest
        return out

    def _collision_rows(self, rows, avail) -> None:
        """One colliding interaction per row, vectorized across rows.

        ``avail`` holds each row's unused agents' states; ``counts -
        avail`` (post-run) is the used agents' output multiset.  Category
        weights and pool draws mirror
        :meth:`CountsSimulation._collision_interaction` row-wise.
        """
        np = self._np
        rng = self._generator
        size = self.num_states
        counts = self._matrix
        used = counts[rows] - avail
        used_total = used.sum(axis=1)
        avail_total = self.n - used_total
        w_uu = used_total * (used_total - 1)
        w_ua = used_total * avail_total
        x = rng.random(rows.size) * (w_uu + 2 * w_ua)
        uu = x < w_uu
        ua = (~uu) & (x < w_uu + w_ua)
        au = ~(uu | ua)
        # Two category-merged draws instead of one pair per category:
        # the initiator comes from the used pool except in (unused, used)
        # rows; the responder from the used pool except in (used, unused)
        # rows, with (used, used) rows' pool depleted by the initiator.
        a_pool = np.where(au[:, None], avail, used)
        a = self._draw_state_rows(a_pool, np.where(au, avail_total, used_total))
        b_pool = np.where(ua[:, None], avail, used)
        b_pool[uu, a[uu]] -= 1
        b_total = np.where(ua, avail_total, used_total - uu)
        b = self._draw_state_rows(b_pool, b_total)
        pair_index = a * size + b
        u_flat, v_flat = self.table.flat
        base = rows * size
        flat = counts.reshape(-1)
        flat += np.bincount(
            np.concatenate((base + u_flat.take(pair_index), base + v_flat.take(pair_index))),
            minlength=flat.size,
        )
        flat -= np.bincount(
            np.concatenate((base + a, base + b)), minlength=flat.size
        )

    def _draw_state_rows(self, pools, totals):
        """Row-wise: the state of one agent drawn uniformly from each pool."""
        np = self._np
        x = self._generator.integers(0, totals)
        return (pools.cumsum(axis=1) <= x[:, None]).sum(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# The Backend.trial_runner hook
# ---------------------------------------------------------------------------


def run_trial_batch(specs, *, engine_factory=None) -> list:
    """Run a list of :class:`~repro.sim.parallel.TrialSpec` as one batch.

    The ``Backend.trial_runner`` implementation behind
    ``run_trials(backend="batch")``: every spec becomes one matrix row,
    driven in-process by a single :class:`BatchCountsEngine` seeded with
    the first spec's derived seed (per-spec seeds still shape per-row
    :class:`~repro.sim.initial_state.SampledStart` draws).  All specs
    must share the protocol, predicate and budgets — which
    ``run_trials``-built specs do by construction.  Outcomes come back
    in spec order, as the process-pool runner's do.

    ``engine_factory`` (default :class:`BatchCountsEngine`) is how other
    batch-shaped engines reuse this runner — the jitted leg registers
    itself with ``engine_factory=JitBatchCountsEngine`` and inherits the
    whole spec-validation/outcome-mapping contract with no conditionals.
    """
    from repro.sim.parallel import TrialOutcome

    specs = list(specs)
    if not specs:
        return []
    first = specs[0]
    for spec in specs[1:]:
        if (
            spec.protocol is not first.protocol
            or spec.predicate is not first.predicate
            or spec.max_interactions != first.max_interactions
            or spec.check_interval != first.check_interval
        ):
            raise ValueError(
                "a batch trial run needs every spec to share its protocol, "
                "predicate, max_interactions and check_interval"
            )
    rows = tuple(
        spec.init if spec.init is not None else Clean(spec.n) for spec in specs
    )
    if engine_factory is None:
        engine_factory = BatchCountsEngine
    engine = engine_factory(
        first.protocol,
        init=Replicated(rows, len(rows)),
        seed=first.seed,
    )
    outcomes = engine.run_rows_until(
        first.predicate,
        max_interactions=first.max_interactions,
        check_interval=first.check_interval,
    )
    return [
        TrialOutcome(
            index=spec.index,
            converged=outcome.converged,
            interactions=outcome.interactions,
            parallel_time=outcome.parallel_time,
        )
        for spec, outcome in zip(specs, outcomes)
    ]


__all__ = [
    "BatchCountsEngine",
    "RowOutcome",
    "run_trial_batch",
]
