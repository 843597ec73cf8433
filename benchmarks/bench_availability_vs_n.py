"""E21 — Backend-generic availability under faults at the n = 10⁶ frontier.

E15 measures the paper's availability story — the fraction of time the
output predicate holds under continuous state corruption — but only on the
object backend at toy ``n``.  The fault engine
(:mod:`repro.sim.fault_engine`) makes the same workload backend-generic;
this benchmark is its regression gate, run by CI's ``bench-perf`` job:

* **E21 (workload gate)** — the *availability workload* (run the full
  budget under ``crash_reset`` bursts, checking the output predicate every
  ``n/4`` interactions) on the two-way epidemic at ``n = 10⁶`` must be
  **≥ 10×** faster on the counts backend than on the object backend.  The
  object engine pays Python dispatch per interaction plus an ``O(n)``
  predicate walk per checkpoint; the counts engine applies collision-free
  runs as ``O(S)`` deltas, bursts as ``O(S)`` hypergeometric mass moves,
  and checkpoints in ``O(S)``.

* **E21b (schedule + law agreement)** — for one seed, the burst schedule
  (interaction indices and burst count) must be **bit-identical** across
  the object, array and counts backends — the fault engine draws it from
  a dedicated PCG64 stream whose consumption never depends on the engine
  — and the measured availabilities must agree within a loose band
  (corruption is law-matched, not bit-matched).

* **E21c (recovery curve)** — on the counts backend at ``n = 10⁶``,
  availability must degrade monotonically (with slack) as the fault rate
  sweeps past the epidemic's ``Θ(log n)``-parallel-time repair scale, with
  median repair times reported per rate.

Nightly (``REPRO_BENCH_NIGHTLY=1``) adds the availability-vs-n curve
family across three decades to ``n = 10⁶`` for two fault models.
Results merge into ``benchmarks/results/perf-summary.json``.
"""

from __future__ import annotations

import os

from conftest import FAST, run_once, update_perf_summary

from repro.obs import perf_counter
from repro.sim.backends import make_simulation
from repro.sim.counts_backend import goal_counts_predicate
from repro.sim.fault_engine import FaultEngine
from repro.sim.initial_state import CodeArray
from repro.substrates.epidemics import EpidemicProtocol

#: The acceptance bar (≥ 10×) applies at the full n = 10⁶ configuration;
#: FAST smoke runs at n = 10⁵, where the counts engine's edge is a small
#: multiple (√n-length runs amortize less), with a floor that only guards
#: against outright regressions.
N = 100_000 if FAST else 1_000_000
SPEEDUP_FLOOR = 2.0 if FAST else 10.0
#: Availability workload: 20 parallel time of continuous injection at
#: rate 0.5 bursts / parallel time, each crash-resetting 4 agents.
TOTAL = 20 * N
RATE = 0.5
BURST = 4
CHECKPOINT = N // 4
#: E21c sweeps the fault rate across the repair-time scale.
CURVE_RATES = (0.1, 0.5, 2.0)

NIGHTLY = os.environ.get("REPRO_BENCH_NIGHTLY", "") == "1"


def _infected_codes(n: int):
    import numpy

    return numpy.ones(n, dtype=numpy.int64)


def _measure(protocol, predicate, backend: str, n: int, *, rate=RATE, seed=21,
             total=None, model="crash_reset"):
    """One availability run; returns (report, seconds, burst schedule)."""
    sim = make_simulation(protocol, init=CodeArray(_infected_codes(n)),
                          seed=seed, backend=backend)
    engine = FaultEngine(model, protocol, n=n, rate=rate, burst_size=BURST,
                         seed=seed + 1)
    start = perf_counter()
    report = engine.measure_availability(
        sim, predicate,
        total_interactions=total if total is not None else 20 * n,
        checkpoint_every=max(1, n // 4),
    )
    elapsed = perf_counter() - start
    return report, elapsed, [event.interaction for event in engine.events]


def test_e21_availability_vs_n(benchmark, record_table):
    def experiment():
        protocol = EpidemicProtocol()
        predicate = goal_counts_predicate(protocol)
        rows = []
        runs = {}
        for backend in ("counts", "array", "object"):
            report, elapsed, schedule = _measure(
                protocol, predicate, backend, N, total=TOTAL
            )
            runs[backend] = (report, elapsed, schedule)
            rows.append(
                {
                    "workload": f"availability/{backend}",
                    "n": N,
                    "fault_model": "crash_reset",
                    "rate": RATE,
                    "bursts": report.fault_bursts,
                    "availability": round(report.availability, 3),
                    "median_repair": report.median_repair_interactions,
                    "seconds": round(elapsed, 3),
                }
            )
        curve = []
        for rate in CURVE_RATES:
            report, elapsed, _ = _measure(
                protocol, predicate, "counts", N, rate=rate, seed=33, total=TOTAL
            )
            curve.append(
                {
                    "workload": "recovery-curve/counts",
                    "n": N,
                    "fault_model": "crash_reset",
                    "rate": rate,
                    "bursts": report.fault_bursts,
                    "availability": round(report.availability, 3),
                    "median_repair": report.median_repair_interactions,
                    "seconds": round(elapsed, 3),
                }
            )
        return rows, curve, runs

    rows, curve, runs = run_once(benchmark, experiment)
    counts_report, counts_s, counts_schedule = runs["counts"]
    array_report, array_s, array_schedule = runs["array"]
    object_report, object_s, object_schedule = runs["object"]
    speedup = object_s / counts_s if counts_s > 0 else float("inf")
    for row in rows + curve:
        row["speedup_vs_object"] = ""
    rows[0]["speedup_vs_object"] = round(speedup, 2)
    record_table(
        "E21_availability_vs_n",
        rows + curve,
        f"E21: backend-generic availability under faults (n={N}, "
        f"crash_reset bursts of {BURST}, checkpoints every n/4)",
    )
    update_perf_summary(
        "E21_availability_vs_n",
        {
            "experiment": "E21_availability_vs_n",
            "n": N,
            "fast_mode": FAST,
            "speedup_floor": SPEEDUP_FLOOR,
            "workload_speedup": round(speedup, 2),
            "counts_seconds": round(counts_s, 3),
            "array_seconds": round(array_s, 3),
            "object_seconds": round(object_s, 3),
            "fault_bursts": counts_report.fault_bursts,
            "rows": rows + curve,
        },
    )

    # E21b: one seed, one burst schedule — bit-identical on every engine.
    assert counts_schedule == array_schedule == object_schedule
    assert counts_report.fault_bursts == object_report.fault_bursts > 0
    # Law-matched corruption: availabilities agree within a loose band.
    values = [r.availability for r in (counts_report, array_report, object_report)]
    assert max(values) - min(values) < 0.35, rows

    # E21c: availability degrades (with slack) as the rate crosses the
    # epidemic's repair scale; the quiet end keeps the system mostly up.
    availability = [row["availability"] for row in curve]
    assert availability[0] > 0.55, curve
    for slow, fast in zip(availability, availability[1:]):
        assert fast <= slow + 0.1, curve

    # E21: the ≥10× workload gate (≥3× in FAST smoke).
    assert speedup >= SPEEDUP_FLOOR, rows


def test_e21n_availability_curves_nightly(benchmark, record_table):
    """Availability-vs-n curve family up to n = 10⁶ (nightly only)."""
    import pytest

    if not NIGHTLY:
        pytest.skip("nightly full-bench only (REPRO_BENCH_NIGHTLY=1)")

    def experiment():
        protocol = EpidemicProtocol()
        predicate = goal_counts_predicate(protocol)
        rows = []
        for model in ("crash_reset", "scramble_burst"):
            for n in (10_000, 100_000, 1_000_000):
                report, elapsed, _ = _measure(
                    protocol, predicate, "counts", n, rate=RATE, seed=55,
                    model=model,
                )
                rows.append(
                    {
                        "fault_model": model,
                        "n": n,
                        "backend": "counts",
                        "rate": RATE,
                        "bursts": report.fault_bursts,
                        "availability": round(report.availability, 3),
                        "median_repair": report.median_repair_interactions,
                        "seconds": round(elapsed, 3),
                    }
                )
        return rows

    rows = run_once(benchmark, experiment)
    record_table(
        "E21n_availability_curves",
        rows,
        "E21 nightly: availability vs n on the counts backend "
        f"(rate {RATE}, bursts of {BURST})",
    )
    # Repair is Θ(log n) parallel time against a Θ(1/rate) fault gap, so
    # availability stays away from the floor at every n.
    assert all(row["availability"] > 0.2 for row in rows), rows
