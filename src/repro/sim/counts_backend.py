"""Count-vector execution engine for finite-state protocols (ppsim-style).

The array backend stores one ``int64`` cell per agent, which caps
practical sweeps near ``n ≈ 10⁴–10⁵``: every block of interactions pays
``O(n)`` passes (conflict bookkeeping) and every convergence check decodes
``n`` state objects.  For the ``S ≪ n`` protocols — epidemics, the reset
epidemic, pairwise elimination, loosely-stabilizing leader election — the
configuration is fully described by an ``S``-length **count vector**
``counts[code] = #agents in state code``, and both costs collapse to
``O(S)``.  This module is that engine: the ROADMAP's "count-based
(ppsim-style) representation" follow-up to the array backend, in the
spirit of Doty and Severson's ``ppsim`` (CMSB 2021) and the batching
analysis of Berenbrink et al.

**Law-exact batched sampling.**  The uniform pairwise scheduler draws
agent *identities*, which a count vector deliberately forgets.  The engine
recovers exactness through *collision-free runs*:

* which interactions first reuse an agent is a pure function of agent
  draws — state-independent — so the length ``L`` of the maximal prefix of
  interactions touching ``2L`` distinct agents follows a birthday-problem
  law tabulated once per ``n``
  (:class:`repro.scheduler.scheduler.CollisionRunSampler`);
* conditioned on ``L``, those ``2L`` agents are a uniform sample *without
  replacement* — their states follow a multivariate hypergeometric draw
  from ``counts``, and a uniform shuffle pairs them into initiators and
  responders;
* because the run's agents are distinct, its interactions commute: the
  whole run is applied as one aggregate count delta through the compiled
  ``S × S`` transition table (:func:`apply_pair_counts`, reusing
  :mod:`repro.sim.array_backend`'s table builder);
* the ``(L+1)``-th interaction *collides* — it involves at least one
  already-used agent, whose current state distribution is the multiset of
  run outputs.  It is applied individually from the used/unused split,
  then the run machinery restarts.

Agents in equal states are exchangeable, so the counts process is an
exact lumping of the agent-level chain; truncating a run at a batch
boundary and restarting fresh is likewise exact (the Markov property:
the future law depends only on ``counts``).  The batched sampler is
therefore *distribution*-identical to the object and array engines — and
to this engine's own pair-at-a-time oracle (``batching="pair"``), which
tests use to gate it.

**Determinism.**  A counts run is a pure function of ``(protocol, initial
counts, seed, batching mode, run_batch split sequence)`` — all draws come
from one PCG64 stream.  Unlike the array scheduler there is **no**
slicing-invariance guarantee: changing ``check_interval`` changes how
runs are truncated and therefore the concrete sample path (never the
law).  Checkpoint/resume stays byte-identical because sweep grids pin the
check interval.

**Convergence on counts.**  ``run_until`` evaluates predicates carrying a
counts-space form (``predicate.on_counts``, see :func:`counts_aware` and
:meth:`repro.core.protocol.PopulationProtocol.goal_counts`) directly on
the vector — ``O(S)`` per check — and falls back to expanding a decoded
configuration for plain config predicates (``O(n)``, correct but slow).
The ``O(S)`` check is what makes ``n ≥ 10⁶`` stabilization-vs-``n``
curves affordable: ``bench_counts_backend.py`` gates the end-to-end
workload at ≥ 10× over the array backend at ``n = 10⁶``.

Like the array backend, numpy is optional at import time and every entry
point raises a clear error without it.  ``ElectLeader_r`` is rejected for
the same reason as on the array backend: no finite encoding (Theorem 1.1
prices its speed at ``2^{Θ(r² log n)}`` states).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.core.protocol import PopulationProtocol
from repro.obs import perf_counter
from repro.scheduler.rng import derive_seed
from repro.scheduler.scheduler import CollisionRunSampler
from repro.sim.array_backend import (
    ArrayBackendError,
    TransitionTable,
    require_numpy,
    transition_table_for,
)
from repro.sim.metrics import Metrics
from repro.sim.simulation import ConfigPredicate, TrialEngine, lap


class CountsBackendError(ArrayBackendError):
    """The counts backend cannot run this protocol (or numpy is missing).

    Subclasses :class:`ArrayBackendError` because the two vectorized
    engines share the transition-table machinery — callers that catch the
    array error (the established "no finite encoding" signal) catch this
    one too.
    """


#: The two sampling modes of :class:`CountsSimulation`.
BATCHING_RUN = "run"
BATCHING_PAIR = "pair"
BATCHING_MODES = (BATCHING_RUN, BATCHING_PAIR)

#: Occupied-state cap for the counts-level silence check: above this many
#: occupied codes the O(occupied²) table scan stops paying for itself and
#: the batched sampler just runs (correct either way).
MAX_SILENCE_STATES = 64


# ---------------------------------------------------------------------------
# Count-vector codecs
# ---------------------------------------------------------------------------


def counts_from_configuration(protocol: PopulationProtocol, config: Sequence[Any]):
    """Fold a list of state objects into an ``int64`` count vector."""
    np = require_numpy()
    _require_num_states(protocol)
    encode = protocol.encode_state
    codes = np.fromiter((encode(s) for s in config), dtype=np.int64, count=len(config))
    return counts_from_codes(protocol, codes)


def counts_from_codes(protocol: PopulationProtocol, codes):
    """Fold a state-code sequence into an ``int64`` count vector."""
    np = require_numpy()
    size = _require_num_states(protocol)
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >= size):
        raise CountsBackendError("state codes outside range(num_states)")
    return np.bincount(codes, minlength=size).astype(np.int64)


def configuration_from_counts(protocol: PopulationProtocol, counts) -> list[Any]:
    """Expand a count vector to a configuration list.

    Agents of equal state **share** one decoded object per occupied code —
    a count vector cannot tell them apart anyway.  The result is safe for
    predicates and other read-only consumers; callers that mutate states
    must clone first.
    """
    np = require_numpy()
    counts = np.asarray(counts)
    decode = protocol.decode_state
    config: list[Any] = []
    for code in np.flatnonzero(counts):
        config.extend([decode(int(code))] * int(counts[code]))
    return config


def _require_num_states(protocol: PopulationProtocol) -> int:
    size = protocol.num_states()
    if size is None:
        raise CountsBackendError(
            f"protocol '{protocol.name}' has no finite state encoding "
            "(num_states() is None), so it cannot run on the counts backend; "
            "use backend='object'"
        )
    return size


def counts_are_silent(table: TransitionTable, counts) -> bool:
    """True iff no *possible* interaction can change ``counts``.

    The counts-level form of the paper's silence notion: every ordered
    pair ``(a, b)`` of occupied codes that two distinct agents can
    realize must satisfy ``δ(a, b) = (a, b)``.  A diagonal pair
    ``(a, a)`` needs two agents in code ``a``, so single-occupancy codes
    are exempt on the diagonal — which is exactly why a one-leader
    pairwise-elimination population and a CIW permutation count as
    silent.  ``O(occupied²)`` lookups, bailing out above
    :data:`MAX_SILENCE_STATES` occupied codes (``False`` is always a
    safe answer).  Shared by :class:`CountsSimulation` and the
    trial-vectorized batch engine (:mod:`repro.sim.batch_backend`),
    which evaluates it per batch row.
    """
    np = require_numpy()
    occupied = np.flatnonzero(counts)
    if occupied.size > MAX_SILENCE_STATES:
        return False
    grid = np.ix_(occupied, occupied)
    changes = (table.u_out[grid] != occupied[:, None])
    changes |= (table.v_out[grid] != occupied[None, :])
    if not changes.any():
        return True
    # Non-inert diagonal entries are unrealizable with a single agent.
    diagonal = np.arange(occupied.size)
    changes[diagonal, diagonal] &= counts[occupied] > 1
    return not changes.any()


# ---------------------------------------------------------------------------
# Aggregate application of state-pair interactions
# ---------------------------------------------------------------------------


def apply_pair_counts(counts, initiators, responders, table: TransitionTable) -> None:
    """Apply a batch of state-pair interactions to ``counts`` in place.

    ``initiators``/``responders`` are equal-length vectors of *state
    codes* (not agent indices): entry ``k`` says one interaction happened
    between an agent in state ``initiators[k]`` and an agent in state
    ``responders[k]``.  Each interaction contributes the count delta
    ``-e[a] - e[b] + e[δu(a,b)] + e[δv(a,b)]``; deltas are additive, so
    the vectorized bincount form below is *exactly* the sum a
    pair-at-a-time loop would produce (the hypothesis property test in
    ``tests/test_counts_backend.py`` pins this down).

    The caller guarantees physical feasibility — within one collision-free
    run every interaction involves distinct agents, so the multiset of
    input states is drawn without replacement from ``counts``.
    """
    np = require_numpy()
    if initiators.shape != responders.shape:
        raise ValueError("initiator and responder vectors must have equal length")
    if initiators.size == 0:
        return
    size = table.num_states
    u_flat, v_flat = table.flat
    index = initiators * size
    index = index + responders
    outputs = np.concatenate([u_flat.take(index), v_flat.take(index)])
    counts += np.bincount(outputs, minlength=size)
    counts -= np.bincount(initiators, minlength=size)
    counts -= np.bincount(responders, minlength=size)


def apply_pairs_sequential(counts, initiators, responders, table: TransitionTable) -> None:
    """Pair-at-a-time oracle for :func:`apply_pair_counts` (tests only)."""
    size = table.num_states
    u_flat, v_flat = table.flat
    for a, b in zip(initiators.tolist(), responders.tolist()):
        index = a * size + b
        counts[a] -= 1
        counts[b] -= 1
        counts[int(u_flat[index])] += 1
        counts[int(v_flat[index])] += 1


# ---------------------------------------------------------------------------
# Counts-aware convergence predicates
# ---------------------------------------------------------------------------


class CountsAwarePredicate:
    """A configuration predicate that also carries a counts-space form.

    Calling it evaluates the configuration form (so object- and
    array-backend ``run_until`` use it unchanged); the counts backend
    spots the ``on_counts`` attribute and evaluates that instead —
    ``O(S)`` rather than ``O(n)`` per convergence check.  The optional
    ``on_counts_rows`` form answers a whole ``(T, S)`` batch of rows in
    one call (the batch engines' check path; see
    :meth:`repro.core.protocol.PopulationProtocol.goal_counts_rows`) —
    ``None`` means the batch engines fall back to per-row ``on_counts``.
    """

    __slots__ = ("on_config", "on_counts", "on_counts_rows")

    def __init__(
        self,
        on_config: ConfigPredicate,
        on_counts: Callable[[Any], bool],
        on_counts_rows: Optional[Callable[[Any], Any]] = None,
    ):
        self.on_config = on_config
        self.on_counts = on_counts
        self.on_counts_rows = on_counts_rows

    def __call__(self, config: Sequence[Any]) -> bool:
        return self.on_config(config)


def counts_aware(
    on_config: ConfigPredicate,
    on_counts: Callable[[Any], bool],
    on_counts_rows: Optional[Callable[[Any], Any]] = None,
) -> CountsAwarePredicate:
    """Bundle a config predicate with its counts-space form(s)."""
    return CountsAwarePredicate(on_config, on_counts, on_counts_rows)


def goal_counts_predicate(protocol: PopulationProtocol) -> CountsAwarePredicate:
    """The protocol's goal predicate, counts-aware on every backend."""
    return CountsAwarePredicate(
        protocol.is_goal_configuration,
        protocol.goal_counts,
        protocol.goal_counts_rows,
    )


# ---------------------------------------------------------------------------
# The counts simulation
# ---------------------------------------------------------------------------


class CountsSimulation(TrialEngine):
    """Count-vector counterpart of :class:`repro.sim.simulation.Simulation`.

    Implements the per-trial engine surface (:class:`~repro.sim.simulation
    .TrialEngine`) over an ``int64`` count vector.  Initial state: exactly
    one of ``config`` (state objects), ``codes`` (encoded codes),
    ``counts`` (a ready count vector) or ``n`` (clean start).  All randomness comes from one PCG64
    stream seeded with ``derive_seed(seed, 0)`` (the scheduler slot of
    the shared seed-derivation scheme; table protocols are deterministic,
    so the transition slot is never consumed).

    ``batching`` selects the sampler: ``"run"`` (default) is the batched
    collision-run sampler, ``"pair"`` the pair-at-a-time oracle — same
    law, wildly different speed; tests run both and compare.

    Observers are not supported (there are no per-agent interactions to
    observe); use the object backend for per-interaction observation.
    Likewise there is no ``RecordedSchedule`` replay: a schedule names
    agent identities, which this representation deliberately forgets.

    Step phases: ``draw`` (run lengths + hypergeometric composition),
    ``match`` (repeat + shuffle pairing), ``apply`` (aggregate delta +
    collision interaction), ``retire`` (silence + predicate checks).
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        config: Optional[Sequence[Any]] = None,
        n: Optional[int] = None,
        seed: int = 0,
        codes: Optional[Sequence[int]] = None,
        counts: Optional[Sequence[int]] = None,
        batching: str = BATCHING_RUN,
    ):
        np = require_numpy()
        if batching not in BATCHING_MODES:
            known = ", ".join(BATCHING_MODES)
            raise ValueError(f"unknown batching mode '{batching}' (known: {known})")
        self.protocol = protocol
        size = _require_num_states(protocol)
        self.table = transition_table_for(protocol)
        given = [x is not None for x in (config, codes, counts)]
        if sum(given) > 1:
            raise ValueError("provide at most one of config=, codes= and counts=")
        if counts is not None:
            self.counts = np.asarray(counts, dtype=np.int64).copy()
            if self.counts.shape != (size,):
                raise CountsBackendError(
                    f"counts must have shape ({size},), got {self.counts.shape}"
                )
            if self.counts.size and self.counts.min() < 0:
                raise CountsBackendError("counts must be non-negative")
        elif codes is not None:
            self.counts = counts_from_codes(protocol, codes)
        elif config is not None:
            self.counts = counts_from_configuration(protocol, config)
        else:
            if n is None:
                raise ValueError("provide an initial config/codes/counts or a population size n")
            # initial_state() is a nullary constructor, so a clean start
            # is n copies of one state — no O(n) encode loop needed.
            self.counts = np.zeros(size, dtype=np.int64)
            self.counts[int(protocol.encode_state(protocol.initial_state()))] = n
        self.num_states = size
        self.n = int(self.counts.sum())
        if self.n < 2:
            raise ValueError("population must have at least two agents")
        self.seed = seed
        self.batching = batching
        self._generator = np.random.Generator(np.random.PCG64(derive_seed(seed, 0)))
        self._runs = CollisionRunSampler(self.n, self._generator)
        self._codes = np.arange(size, dtype=np.int64)
        self.metrics = Metrics(n=self.n)

    # ------------------------------------------------------------------

    @property
    def config(self) -> list[Any]:
        """The configuration as decoded state objects (shared per code)."""
        return configuration_from_counts(self.protocol, self.counts)

    def run_batch(self, count: int) -> None:
        """Run ``count`` interactions through the configured sampler.

        The batched sampler first runs the counts-level *silence check*
        (:meth:`configuration_is_silent`): when every interaction the
        current configuration can produce is provably a no-op — a silent
        protocol in its goal configuration, an epidemic at saturation —
        the whole batch is skipped in ``O(occupied²)`` table lookups.
        Law-exact: from such a configuration the counts trajectory is
        constant, so skipping changes nothing but the wall clock.  The
        pair-at-a-time oracle never skips (its job is to be obviously
        correct).
        """
        if count < 0:
            raise ValueError(f"interaction count must be non-negative, got {count}")
        if self.batching == BATCHING_PAIR:
            self._run_pairwise(count)
        elif count:
            timings = self._timings
            if timings is not None:
                mark = perf_counter()
            silent = self.configuration_is_silent()
            if timings is not None:
                lap(timings, "retire", mark)
            if not silent:
                self._run_batched(count)
        self.metrics.interactions += count

    def _native_predicate(self, predicate: ConfigPredicate) -> bool:
        """Counts-aware predicates read the count vector directly
        (``O(S)``); plain config predicates get an expanded configuration
        per call — correct, but ``O(n)``."""
        on_counts = getattr(predicate, "on_counts", None)
        if on_counts is not None:
            return bool(on_counts(self.counts))
        return bool(predicate(configuration_from_counts(self.protocol, self.counts)))

    def apply_fault(self, model, burst_size: int, generator) -> None:
        """Inject one fault burst (common engine surface).

        ``model`` is a :class:`repro.sim.fault_engine.FaultModel`; on this
        backend its ``O(S)`` aggregate applier moves ``burst_size`` agents'
        worth of state mass on the count vector via a multivariate-
        hypergeometric victim draw — no per-agent work at any ``n``.
        """
        model.apply_counts(self.protocol, self.counts, burst_size, generator)

    def configuration_is_silent(self) -> bool:
        """True iff no *possible* interaction can change the counts.

        See :func:`counts_are_silent` for the law (and the
        single-occupancy diagonal exemption).
        """
        return counts_are_silent(self.table, self.counts)

    # ------------------------------------------------------------------
    # The batched collision-run sampler
    # ------------------------------------------------------------------

    def _run_batched(self, count: int) -> None:
        """``count`` interactions as collision-free runs + collision steps.

        Each loop iteration is one (possibly budget-truncated) run: draw
        its length from the birthday law, draw the ``2k`` distinct
        agents' states by multivariate hypergeometric, pair them with a
        shuffle, apply the aggregate delta, then — if the budget allows —
        apply the colliding ``(L+1)``-th interaction individually.
        Truncating a run at the batch boundary and restarting fresh next
        call is exact (see the module docstring).

        The body is the engine's hot loop — ``Θ(√n)`` interactions per
        iteration means tens of thousands of iterations per ``n·log n``
        workload — so the draw/apply kernels are inlined against hoisted
        locals and ndarray *methods* (``.repeat``/``.take``), skipping
        the ``numpy.*`` wrapper dispatch that would otherwise rival the
        kernels themselves.  Draw order matches :func:`apply_pair_counts`
        exactly; the aggregate delta differs only in folding the two
        input-side bincounts into one over the interleaved draw.  An
        instrumented engine reads the clock between the draw / match /
        apply sections and nowhere else.
        """
        np = require_numpy()
        rng = self._generator
        counts = self.counts
        codes = self._codes
        size = self.num_states
        u_flat, v_flat = self.table.flat
        bincount = np.bincount
        concatenate = np.concatenate
        draw_sample = rng.multivariate_hypergeometric
        shuffle = rng.shuffle
        next_run_length = self._runs.next_run_length
        timings = self._timings
        remaining = count
        while remaining > 0:
            if timings is not None:
                mark = perf_counter()
            length = next_run_length()
            k = min(length, remaining)
            collide = remaining > k and k == length
            if k:
                sample = draw_sample(counts, 2 * k)
                if timings is not None:
                    mark = lap(timings, "draw", mark)
                drawn = codes.repeat(sample)
                shuffle(drawn)
                if collide:
                    avail = counts - sample  # pre-run states of unused agents
                if timings is not None:
                    mark = lap(timings, "match", mark)
                index = drawn[0::2] * size
                index += drawn[1::2]
                outputs = concatenate((u_flat.take(index), v_flat.take(index)))
                counts += bincount(outputs, minlength=size)
                counts -= bincount(drawn, minlength=size)
                remaining -= k
            elif timings is not None:
                mark = lap(timings, "draw", mark)
            if collide:
                self._collision_interaction(avail)
                remaining -= 1
            if timings is not None:
                lap(timings, "apply", mark)

    def _collision_interaction(self, avail) -> None:
        """One interaction conditioned on touching an already-used agent.

        ``avail`` holds the states of the agents the current run has not
        touched; ``counts - avail`` is the (post-interaction) state
        multiset of the used agents.  The colliding ordered pair is
        uniform over pairs with at least one used member: categories
        (used, used), (used, unused), (unused, used) with weights
        ``U(U-1)``, ``U·A``, ``A·U`` — which sum to
        ``n(n-1) - A(A-1)``, the number of qualifying pairs.
        """
        rng = self._generator
        counts = self.counts
        used = counts - avail
        used_total = int(used.sum())
        avail_total = self.n - used_total
        w_uu = used_total * (used_total - 1)
        w_ua = used_total * avail_total
        x = rng.random() * (w_uu + 2 * w_ua)
        if x < w_uu:
            a = self._draw_state(used, used_total)
            used[a] -= 1
            b = self._draw_state(used, used_total - 1)
            used[a] += 1
        elif x < w_uu + w_ua:
            a = self._draw_state(used, used_total)
            b = self._draw_state(avail, avail_total)
        else:
            a = self._draw_state(avail, avail_total)
            b = self._draw_state(used, used_total)
        self._apply_one(a, b)

    def _draw_state(self, pool, total: int) -> int:
        """The state of one agent drawn uniformly from a count-vector pool."""
        x = int(self._generator.integers(0, total))
        # ndarray methods, not numpy.* wrappers: this runs twice per
        # collision interaction, i.e. once per Θ(√n) simulated steps.
        return int(pool.cumsum().searchsorted(x, side="right"))

    def _apply_one(self, a: int, b: int) -> None:
        counts = self.counts
        out_u, out_v = self.table.lookup(a, b)
        counts[a] -= 1
        counts[b] -= 1
        counts[out_u] += 1
        counts[out_v] += 1

    # ------------------------------------------------------------------
    # The pair-at-a-time oracle
    # ------------------------------------------------------------------

    def _run_pairwise(self, count: int) -> None:
        """Exact sequential sampling over counts (the gating oracle).

        Per interaction: the initiator's state is drawn uniformly over
        all ``n`` agents (i.e. from ``counts``), the responder's over the
        remaining ``n - 1``, and the pair is applied immediately.  Scalar
        and slow — its job is to be obviously correct.
        """
        counts = self.counts
        for _ in range(count):
            a = self._draw_state(counts, self.n)
            counts[a] -= 1  # the responder is one of the other n-1 agents
            b = self._draw_state(counts, self.n - 1)
            counts[a] += 1
            self._apply_one(a, b)
