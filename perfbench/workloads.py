"""The benchmark's workloads: seeded inputs, one timed drive, correctness checks.

Every workload drives the public ``repro.api`` surface and nothing else.  A
workload is a fixed grid of trials whose randomness is a pure function of the
seed it is given; :meth:`Workload.run` performs one closed-loop drive (submit
the grid, wait for it) and returns a :class:`RepResult`, and
:meth:`Workload.check` compares a run's results with the workload's
:class:`~perfbench.workloads` reference bands.

Each workload exists at two sizes: ``full`` (the benchmark proper) and ``toy``
(the smoke tests).  References are bands, never bit equality, so law-exact
engine changes still pass; the bands were set from the spread of each check's
value over two drives for each of workload seeds 1-12 (toy: 1-20) at the
commit that introduced the benchmark, widened so that the observed extremes
sit well inside them.  The one exact
reference is the fault-burst total, whose schedule comes from a fixed stream
(see :class:`EpidemicFaultsBatch`).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional

from repro.adversary import ADVERSARIES
from repro.api import (
    CountVector,
    ElectLeader,
    GridSpec,
    ObjectConfig,
    ProtocolParams,
    Replicated,
    expand_grid,
    make_simulation,
    perf_counter,
    run_sweep,
    run_trials,
)
from repro.core.propagate_reset import ResetEpidemicProtocol
from repro.scheduler.rng import derive_seed, make_rng
from repro.sim.counts_backend import goal_counts_predicate
from repro.sim.fault_engine import FaultSpec
from repro.substrates.epidemics import EpidemicProtocol


@dataclass
class RepResult:
    """One closed-loop drive of a workload's grid."""

    seconds: float  # wall time of the drive alone (set-up excluded)
    trials: int  # trials attempted
    failed: int  # trials that raised or missed their budget
    interactions: int  # simulated pairwise interactions
    observations: dict[str, Any] = field(default_factory=dict)


class Workload:
    """Base class: a named grid with a size, a reference and a check."""

    name = ""
    why = ""
    #: Backends the workload's drives run on (reported with the environment).
    backends: tuple[str, ...] = ()
    #: ``size -> parameters`` and ``size -> reference``, for "full" and "toy".
    sizes: dict[str, Any] = {}
    references: dict[str, Any] = {}

    def __init__(self, size: str = "full") -> None:
        if size not in self.sizes:
            raise ValueError(f"unknown size '{size}' (known: {', '.join(self.sizes)})")
        self.size = size
        self.params = self.sizes[size]
        self.reference = self.references[size]

    def with_reference(self, **changes: Any) -> "Workload":
        """A copy of this workload whose reference has ``changes`` applied."""
        twin = type(self)(self.size)
        twin.reference = replace(self.reference, **changes)
        return twin

    def prepare(self, workdir: Path) -> Any:
        """In-process set-up shared by every drive (protocols, tables); drives
        may write files under ``workdir``."""
        raise NotImplementedError

    def build(self, prepared: Any, seed: int) -> Any:
        """Construct the engines of one drive without running them."""
        raise NotImplementedError

    def run(self, prepared: Any, seed: int, **options: Any) -> RepResult:
        """One closed-loop drive of the grid generated from ``seed``."""
        raise NotImplementedError

    def trials_per_drive(self) -> int:
        raise NotImplementedError

    def workers(self) -> int:
        """Worker processes one drive uses."""
        return 1

    def check(self, results: list[RepResult]) -> list[str]:
        """The failed correctness checks (an empty list means correct)."""
        raise NotImplementedError


def _within(value: float, band: tuple[float, float]) -> bool:
    return band[0] <= value <= band[1]


# ---------------------------------------------------------------------------
# elect_tradeoff: the paper's protocol and its r trade-off
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElectParams:
    n: int
    rs: tuple[int, ...]
    adversaries: tuple[str, ...]
    trials: int
    workers: int
    max_interactions: int
    check_interval: int


@dataclass(frozen=True)
class ElectReference:
    #: ``(r, adversary) -> (low, high)`` band on the cell's median parallel time.
    cell_bands: dict[tuple[int, str], tuple[float, float]]
    #: ``(slow_r, fast_r)``: every ``slow_r`` cell's median exceeds the
    #: ``fast_r`` cell's under the same adversary (the paper's trade-off).
    tradeoff: tuple[int, int]


_ADVERSARIES = ("random_soup", "duplicate_ranks", "mid_reset")


class ElectTradeoff(Workload):
    """``ElectLeader_r`` through ``run_sweep`` with a JSONL checkpoint."""

    name = "elect_tradeoff"
    why = (
        "the paper's ElectLeader_r and its r trade-off on the object engine, the only "
        "workload that uses repro.sim.parallel and the sweep checkpoint"
    )
    backends = ("object",)
    sizes = {
        "full": ElectParams(
            n=64, rs=(2, 8, 32), adversaries=_ADVERSARIES, trials=3, workers=2,
            max_interactions=2_000_000, check_interval=64,
        ),
        "toy": ElectParams(
            n=32, rs=(2, 16), adversaries=_ADVERSARIES, trials=3, workers=2,
            max_interactions=1_000_000, check_interval=16,
        ),
    }
    references = {
        "full": ElectReference(
            cell_bands={
                **{(2, adversary): (440.0, 600.0) for adversary in _ADVERSARIES},
                **{(8, adversary): (150.0, 225.0) for adversary in _ADVERSARIES},
                **{(32, adversary): (150.0, 225.0) for adversary in _ADVERSARIES},
            },
            tradeoff=(2, 8),
        ),
        "toy": ElectReference(
            cell_bands={
                **{(2, adversary): (170.0, 265.0) for adversary in _ADVERSARIES},
                **{(16, adversary): (115.0, 200.0) for adversary in _ADVERSARIES},
            },
            tradeoff=(2, 16),
        ),
    }

    def grid(self, seed: int) -> GridSpec:
        p = self.params
        return GridSpec(
            ns=(p.n,), rs=p.rs, protocols=("elect_leader",), adversaries=p.adversaries,
            trials=p.trials, seed=seed, max_interactions=p.max_interactions,
            check_interval=p.check_interval, backend="object",
        )

    def trials_per_drive(self) -> int:
        p = self.params
        return len(p.rs) * len(p.adversaries) * p.trials

    def workers(self) -> int:
        return self.params.workers

    def prepare(self, workdir: Path) -> Path:
        return workdir / f"{self.name}.jsonl"

    def build(self, prepared: Path, seed: int) -> list:
        # What a worker does before a trial's first interaction, once per cell:
        # the protocol, the adversarial start and the engine.
        engines = []
        seen = set()
        for spec in expand_grid(self.grid(seed)):
            if spec.scenario_key in seen:
                continue
            seen.add(spec.scenario_key)
            protocol = ElectLeader(ProtocolParams(n=spec.n, r=spec.r))
            start = ADVERSARIES[spec.adversary](protocol, make_rng(spec.seed))
            engines.append(
                make_simulation(
                    protocol, init=ObjectConfig(start), seed=spec.seed, backend=spec.backend,
                )
            )
        return engines

    def run(self, prepared: Path, seed: int, *, workers: Optional[int] = None) -> RepResult:
        grid = self.grid(seed)
        started = perf_counter()
        result = run_sweep(
            grid, workers=workers or self.workers(), jsonl_path=prepared, force=True,
        )
        seconds = perf_counter() - started
        cells = {
            (row["r"], row["adversary"]): row["median_time"] for row in result.rows
        }
        return RepResult(
            seconds=seconds,
            trials=len(result.outcomes),
            failed=sum(not outcome.converged for outcome in result.outcomes),
            interactions=sum(outcome.interactions for outcome in result.outcomes),
            observations={
                "cells": cells,
                "checkpoint_bytes": prepared.stat().st_size,
            },
        )

    def check(self, results: list[RepResult]) -> list[str]:
        failures = []
        reference = self.reference
        slow, fast = reference.tradeoff
        for rep, result in enumerate(results):
            if result.failed:
                failures.append(
                    f"drive {rep}: {result.failed}/{result.trials} trials missed the safe set"
                )
            cells = result.observations.get("cells", {})
            for key, band in sorted(reference.cell_bands.items()):
                median = cells.get(key)
                if median is None or not _within(median, band):
                    failures.append(
                        f"drive {rep}: cell r={key[0]}/{key[1]} median parallel time "
                        f"{median} outside {band}"
                    )
            for adversary in self.params.adversaries:
                slow_time = cells.get((slow, adversary))
                fast_time = cells.get((fast, adversary))
                if slow_time is None or fast_time is None or not slow_time > fast_time:
                    failures.append(
                        f"drive {rep}: r={slow} not slower than r={fast} under "
                        f"{adversary} ({slow_time} vs {fast_time})"
                    )
        return failures


# ---------------------------------------------------------------------------
# reset_wave_1e6: the count-vector engine at its intended scale
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResetParams:
    n: int
    r: int  # sets the timers, hence the state space (S = 1654 at n = 10^6, r = 4)
    trials: int
    max_interactions_per_n: int
    checks_per_parallel_time: int


@dataclass(frozen=True)
class ResetReference:
    #: Band on the median parallel time to the all-awake goal.
    time_band: tuple[float, float]


class ResetWave(Workload):
    """Appendix C's ``PropagateReset`` from one triggered agent, counts engine."""

    name = "reset_wave_1e6"
    why = (
        "the count-vector engine at n=10^6 with S=1654: long collision-free runs, no "
        "faults, bypassing repro.core transitions, the process pool and the sweep"
    )
    backends = ("counts",)
    sizes = {
        "full": ResetParams(
            n=1_000_000, r=4, trials=1, max_interactions_per_n=400,
            checks_per_parallel_time=4,
        ),
        "toy": ResetParams(
            n=20_000, r=4, trials=2, max_interactions_per_n=400,
            checks_per_parallel_time=4,
        ),
    }
    references = {
        "full": ResetReference(time_band=(38.0, 58.0)),
        "toy": ResetReference(time_band=(15.0, 50.0)),
    }

    def trials_per_drive(self) -> int:
        return self.params.trials

    def prepare(self, workdir: Path) -> tuple:
        p = self.params
        protocol = ResetEpidemicProtocol(ProtocolParams(n=p.n, r=p.r))
        counts = [0] * protocol.num_states()
        counts[0] = p.n - 1
        counts[protocol.encode_state(protocol.triggered_state())] = 1
        init = CountVector(counts)
        # Building an engine builds and caches the protocol's transition table.
        make_simulation(protocol, init=init, seed=0, backend="counts")
        return protocol, goal_counts_predicate(protocol), init

    def build(self, prepared: tuple, seed: int) -> Any:
        protocol, _, init = prepared
        return make_simulation(protocol, init=init, seed=seed, backend="counts")

    def run(self, prepared: tuple, seed: int) -> RepResult:
        protocol, predicate, init = prepared
        p = self.params
        started = perf_counter()
        summary = run_trials(
            protocol, predicate, n=p.n, trials=p.trials,
            max_interactions=p.max_interactions_per_n * p.n, seed=seed,
            check_interval=p.n // p.checks_per_parallel_time, init=init,
            backend="counts", label=self.name,
        )
        seconds = perf_counter() - started
        return RepResult(
            seconds=seconds,
            trials=summary.trials,
            failed=summary.trials - summary.converged,
            interactions=int(sum(summary.interactions)),
            observations={"parallel_times": list(summary.parallel_times)},
        )

    def check(self, results: list[RepResult]) -> list[str]:
        failures = []
        times = []
        for rep, result in enumerate(results):
            if result.failed:
                failures.append(
                    f"drive {rep}: {result.failed}/{result.trials} trials missed the goal"
                )
            times.extend(result.observations.get("parallel_times", []))
        band = self.reference.time_band
        median = statistics.median(times) if times else float("nan")
        if not _within(median, band):
            failures.append(f"median parallel time {median} outside {band}")
        return failures


# ---------------------------------------------------------------------------
# epidemic_faults_batch: the lockstep batch engine under crash bursts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchParams:
    n: int
    rows: int
    rate: float  # bursts per parallel time
    burst_size: int
    budget_per_n: int
    checks_per_parallel_time: int


@dataclass(frozen=True)
class BatchReference:
    #: Total bursts fired over all rows of one drive (exact).
    bursts: int
    #: Band on the median availability over the rows of one drive.
    availability_band: tuple[float, float]


#: Seed of the burst schedules.  Deliberately independent of the workload
#: seed: the schedule is then the same for every run, which makes the burst
#: total an exact check on the fault engine's schedule stream.
_FAULT_SEED = 0xFA17


class EpidemicFaultsBatch(Workload):
    """Two-way epidemic rows in lockstep under ``crash_reset`` bursts."""

    name = "epidemic_faults_batch"
    why = (
        "count-vector stepping with S=2 on the batch engine: T=64 rows in lockstep, runs "
        "cut short by crash bursts, real fault appliers; catches gains on long runs that "
        "cost short ones"
    )
    backends = ("batch",)
    sizes = {
        "full": BatchParams(
            n=100_000, rows=64, rate=0.5, burst_size=4, budget_per_n=20,
            checks_per_parallel_time=4,
        ),
        "toy": BatchParams(
            n=2_000, rows=8, rate=0.5, burst_size=4, budget_per_n=20,
            checks_per_parallel_time=4,
        ),
    }
    references = {
        "full": BatchReference(bursts=652, availability_band=(0.15, 0.35)),
        "toy": BatchReference(bursts=68, availability_band=(0.2, 0.6)),
    }

    def trials_per_drive(self) -> int:
        return self.params.rows

    def prepare(self, workdir: Path) -> tuple:
        p = self.params
        protocol = EpidemicProtocol()
        faults = [
            FaultSpec(
                model="crash_reset", rate=p.rate, burst_size=p.burst_size,
                seed=derive_seed(_FAULT_SEED, row),
            )
            for row in range(p.rows)
        ]
        return protocol, goal_counts_predicate(protocol), faults

    def build(self, prepared: tuple, seed: int) -> Any:
        protocol, _, _ = prepared
        p = self.params
        return make_simulation(
            protocol, init=Replicated(CountVector([p.n - 1, 1]), p.rows), seed=seed,
            backend="batch",
        )

    def run(self, prepared: tuple, seed: int) -> RepResult:
        _, predicate, faults = prepared
        p = self.params
        engine = self.build(prepared, seed)
        total = p.budget_per_n * p.n
        started = perf_counter()
        reports = engine.measure_rows_availability(
            predicate, total_interactions=total,
            checkpoint_every=p.n // p.checks_per_parallel_time, faults=faults,
        )
        seconds = perf_counter() - started
        return RepResult(
            seconds=seconds,
            trials=len(reports),
            failed=0,
            interactions=total * len(reports),
            observations={
                "bursts": sum(report.fault_bursts for report in reports),
                "availability": statistics.median(report.availability for report in reports),
            },
        )

    def check(self, results: list[RepResult]) -> list[str]:
        failures = []
        reference = self.reference
        for rep, result in enumerate(results):
            bursts = result.observations.get("bursts")
            if bursts != reference.bursts:
                failures.append(f"drive {rep}: {bursts} bursts, expected {reference.bursts}")
            availability = result.observations.get("availability", float("nan"))
            if not _within(availability, reference.availability_band):
                failures.append(
                    f"drive {rep}: median availability {availability} outside "
                    f"{reference.availability_band}"
                )
        return failures


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ElectTradeoff, ResetWave, EpidemicFaultsBatch)
}
