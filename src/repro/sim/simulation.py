"""The simulation engine.

:class:`Simulation` owns a configuration (a list of agent states), a
protocol, a scheduler and a metrics object, and advances the population
one uniformly random interaction at a time.  Convergence predicates are
evaluated every ``check_interval`` interactions (full-configuration
predicates such as ``ElectLeader.is_safe_configuration`` walk the whole
message system, so per-interaction evaluation would dominate runtime).

Determinism: a simulation is fully determined by ``(protocol, initial
configuration, seed)`` — the seed drives both the scheduler and the
transition-function sampling, through two independent derived streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence

from repro.core.protocol import PopulationProtocol
from repro.obs import STEP_PHASES, perf_counter
from repro.scheduler.rng import RNG, derive_seed, make_rng
from repro.scheduler.scheduler import RandomScheduler
from repro.sim import backends
from repro.sim.metrics import Metrics

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.initial_state import InitialState

#: A predicate over the full configuration.
ConfigPredicate = Callable[[Sequence[Any]], bool]
#: Observer invoked as ``observer(simulation, i, j)`` after each interaction.
Observer = Callable[["Simulation", int, int], None]


@dataclass
class SimulationResult:
    """Outcome of :meth:`Simulation.run_until` / :func:`run_until`."""

    converged: bool
    interactions: int
    parallel_time: float
    metrics: Metrics
    config: list[Any]

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.converged


#: ``advance(start, stop)`` runs an engine from relative interaction
#: ``start`` to ``stop`` (a plain ``run_batch``, or one that also fires
#: the fault bursts scheduled in between).
Advance = Callable[[int, int], Any]


def lap(timings: dict[str, float], phase: str, since: float) -> float:
    """Charge the seconds since ``since`` to ``phase``; return the new mark.

    The one clock idiom of the engines' hot loops: each loop reads the
    clock only under ``if timings is not None``, so an uninstrumented run
    pays one comparison per section and an instrumented one issues the
    identical RNG calls in the identical order.
    """
    now = perf_counter()
    timings[phase] += now - since
    return now


def checkpoints(advance: Advance, total: int, every: int) -> Iterator[int]:
    """Advance through ``total`` interactions, yielding each checkpoint.

    Checkpoints fall every ``every`` interactions and at ``total``; the
    caller evaluates its predicate at each yielded position.  The shared
    check discipline of :func:`drive_until` and the availability drivers.
    """
    position = 0
    while position < total:
        target = min(position + every, total)
        advance(position, target)
        position = target
        yield position


def engine_result(sim: Any, converged: bool) -> SimulationResult:
    """The :class:`SimulationResult` of any engine's current state."""
    return SimulationResult(
        converged=converged,
        interactions=sim.metrics.interactions,
        parallel_time=sim.metrics.parallel_time,
        metrics=sim.metrics,
        config=sim.config,
    )


def drive_until(
    sim: Any,
    predicate: ConfigPredicate,
    max_interactions: int,
    check_interval: int,
    advance: Advance,
) -> SimulationResult:
    """Run ``sim`` until ``predicate`` holds or the budget is exhausted.

    The predicate is evaluated through ``sim.predicate_holds`` before the
    first step (an adversarial start may already satisfy it) and then
    every ``check_interval`` interactions; ``advance`` runs the
    interactions in between.  Generic over the common engine surface, so
    :class:`repro.sim.fault_engine.FaultEngine` drives any backend
    through it with a burst-firing ``advance``.
    """
    if check_interval < 1:
        raise ValueError("check_interval must be positive")
    if max_interactions < 0:
        raise ValueError(f"max_interactions must be non-negative, got {max_interactions}")
    if sim.predicate_holds(predicate):
        return engine_result(sim, converged=True)
    for _ in checkpoints(advance, max_interactions, check_interval):
        if sim.predicate_holds(predicate):
            return engine_result(sim, converged=True)
    return engine_result(sim, converged=False)


class TrialEngine:
    """The per-trial engine surface, written once.

    A subclass implements ``run_batch(count)`` (with an optional
    step-phase clock, see :func:`lap`), the native predicate hook
    :meth:`_native_predicate`, ``apply_fault`` and the ``metrics`` /
    ``config`` / ``n`` attributes; it inherits ``run``, ``run_until``,
    the timed ``predicate_holds`` and the ``instrument_steps`` /
    ``step_timings`` accounting (:data:`repro.sim.backends
    .ENGINE_SURFACE` lists the whole contract).
    """

    #: The live step-phase accumulator (``None`` until instrumented).
    _timings: Optional[dict[str, float]] = None

    if TYPE_CHECKING:  # every subclass implements it (see the class docstring)

        def run_batch(self, count: int) -> None: ...

    def _native_predicate(self, predicate: ConfigPredicate) -> bool:  # pragma: no cover
        """Evaluate ``predicate`` in this engine's cheapest native form."""
        raise NotImplementedError

    def run(self, interactions: int) -> None:
        """Run a fixed number of interactions."""
        self.run_batch(interactions)

    def run_until(
        self,
        predicate: ConfigPredicate,
        max_interactions: int,
        check_interval: int = 1,
    ) -> SimulationResult:
        """Run until ``predicate`` holds or the budget is exhausted.

        Checks before the first step and then every ``check_interval``
        interactions, through :meth:`predicate_holds` (see
        :func:`drive_until`).
        """
        return drive_until(self, predicate, max_interactions, check_interval, self._advance)

    def _advance(self, start: int, stop: int) -> None:
        """Run from relative interaction ``start`` to ``stop`` (an
        :data:`Advance` for :func:`checkpoints`)."""
        self.run_batch(stop - start)

    def predicate_holds(self, predicate: ConfigPredicate) -> bool:
        """Evaluate a convergence/correctness predicate on the current state.

        Part of the common engine surface (see :mod:`repro.sim.backends`):
        the engine's :meth:`_native_predicate` answers in its cheapest
        form; an instrumented engine charges the call to ``retire``.
        """
        timings = self._timings
        if timings is None:
            return self._native_predicate(predicate)
        start = perf_counter()
        held = self._native_predicate(predicate)
        lap(timings, "retire", start)
        return held

    def instrument_steps(self) -> dict[str, float]:
        """Switch on per-phase wall-clock accounting (common engine surface).

        Returns the live accumulator mapping :data:`repro.obs.STEP_PHASES`
        to seconds spent so far (each engine's docstring says which of
        its sections land in ``draw`` / ``match`` / ``apply`` /
        ``retire``).  Instrumentation only reads the monotonic clock; the
        RNG streams are consumed identically, so results never change.
        """
        if self._timings is None:
            self._timings = {phase: 0.0 for phase in STEP_PHASES}
        return self._timings

    @property
    def step_timings(self) -> Optional[dict[str, float]]:
        """The accumulator from :meth:`instrument_steps` (``None`` when off)."""
        return self._timings


class Simulation(TrialEngine):
    """A single protocol execution under the uniform random scheduler.

    The configuration arguments are keyword-only.

    Step phases: ``draw`` (scheduler pair generation), ``apply``
    (transition dispatch), ``retire`` (predicate checks); ``match`` stays
    zero — the object engine has no separate pairing phase.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        *,
        config: Optional[list[Any]] = None,
        n: Optional[int] = None,
        seed: int = 0,
    ):
        if config is None:
            if n is None:
                raise ValueError("provide either an initial config or a population size n")
            config = protocol.clean_configuration(n)
        self.protocol = protocol
        self.config = config
        self.n = len(config)
        if self.n < 2:
            raise ValueError("population must have at least two agents")
        self.seed = seed
        self._scheduler_rng: RNG = make_rng(derive_seed(seed, 0))
        self.transition_rng: RNG = make_rng(derive_seed(seed, 1))
        self.scheduler = RandomScheduler(self.n, self._scheduler_rng)
        self.metrics = Metrics(n=self.n)
        self.observers: list[Observer] = []

    # ------------------------------------------------------------------

    def step(self) -> tuple[int, int]:
        """Run one interaction; returns the interacting pair."""
        i, j = self.scheduler.next_pair()
        self.protocol.transition(self.config[i], self.config[j], self.transition_rng)
        self.metrics.interactions += 1
        for observer in self.observers:
            observer(self, i, j)
        return i, j

    def run_batch(self, count: int) -> None:
        """Run ``count`` interactions through the batched fast path.

        Scheduler pairs stream through the lazy :meth:`RandomScheduler
        .pairs` iterator — each pair is drawn, unpacked, and freed in turn
        (never a list of ``count`` tuples) — and transitions run in a
        tight loop that touches only locals; the interaction counter is
        bumped once per batch.  An instrumented engine materializes the
        pairs first so draw and apply time separate cleanly; the
        scheduler and transition streams are independent, so either order
        consumes both streams identically.  Because observers may read
        ``metrics.interactions`` (or mutate the configuration) mid-run,
        any registered observer routes the batch through the per-step path
        instead — either way the RNG streams are consumed identically, so
        ``run_batch(k)`` is bit-identical to ``k`` calls of :meth:`step`.
        """
        if count < 0:
            raise ValueError(f"interaction count must be non-negative, got {count}")
        if self.observers:
            for _ in range(count):
                self.step()
            return
        config = self.config
        transition = self.protocol.transition
        rng = self.transition_rng
        timings = self._timings
        pairs = self.scheduler.pairs(count)
        if timings is not None:
            mark = perf_counter()
            pairs = list(pairs)
            mark = lap(timings, "draw", mark)
        for i, j in pairs:
            transition(config[i], config[j], rng)
        if timings is not None:
            lap(timings, "apply", mark)
        self.metrics.interactions += count

    def _native_predicate(self, predicate: ConfigPredicate) -> bool:
        return bool(predicate(self.config))

    def apply_fault(self, model, burst_size: int, generator) -> None:
        """Inject one fault burst (common engine surface).

        ``model`` is a :class:`repro.sim.fault_engine.FaultModel`; on this
        backend its per-agent object applier corrupts the configuration
        list in place, drawing victims and replacements from ``generator``.
        """
        model.apply_config(self.protocol, self.config, burst_size, generator)


def run_until(
    protocol: PopulationProtocol,
    predicate: ConfigPredicate,
    *,
    init: Optional["InitialState"] = None,
    n: Optional[int] = None,
    seed: int = 0,
    max_interactions: int,
    check_interval: int = 1,
    backend: Optional[str] = None,
) -> SimulationResult:
    """One-shot convenience wrapper around
    :func:`repro.sim.backends.make_simulation`."""
    sim = backends.make_simulation(protocol, init=init, n=n, seed=seed, backend=backend)
    return sim.run_until(predicate, max_interactions, check_interval)

