"""The repository benchmark: one command, named workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload elect_tradeoff --seed 1 --seconds 36 --trace 0

Load model: one client in a closed loop.  A drive submits the workload's
fixed grid (generated from the seed) through ``repro.api`` and waits for it to
finish; drives repeat, each on the next seed derived from ``--seed``, until
``--seconds`` are used (at least :data:`MIN_DRIVES`).  One untimed drive of the
toy-size grid comes first, so the timed drives start warm.  No workload uses
more worker processes than two.

``--trace 0`` reports the end-to-end metrics, each the median over the run's
drives (set-up: over :data:`SETUP_LAUNCHES` fresh processes), with quartiles in
the table above the result line.  ``--trace 1`` instead makes one untraced and
one traced drive of the same grid and reports the per-layer metrics; the
traced drive runs with the ``repro.obs`` trace sink on and with the wrappers of
:mod:`perfbench.probe` installed.  Either way the correctness checks of
:mod:`perfbench.workloads` run, and the last line of standard output is one
JSON object::

    {"correct": true, "attempted": 81, "failed": 0, "metrics": {...}}

The exit code is 0 when every check passed, 1 when a check failed, and 2 when
the program under test cannot be imported (nothing is printed on stdout then).
``--smoke`` runs the same code on the toy-size workloads.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Any, Optional

# The program under test is this checkout's src/, imported only after main()
# has checked that it is there; hence the function-level repro imports.
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Fewest timed drives per run, however long one drive takes.  Above it, the
#: run length bounds every workload's time, the longest-drive one included.
MIN_DRIVES = 2
#: Fresh processes whose set-up time is measured per run.
SETUP_LAUNCHES = 5
#: A set-up launch that takes longer than this has failed.
SETUP_TIMEOUT_S = 60
#: Where runs keep their checkpoints and traces (ignored by git).
RUNS_DIR = ROOT / "perfbench" / ".runs"

#: Layers the benchmark does not measure, and why.
LEFT_OUT = {
    "repro.fabric": "not on any workload's compute path",
    "repro.sim.kernels (batch-jit)": "needs numba",
    "repro.lint": "not on any workload's compute path",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "interactions_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "fraction",
}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) in the ``statistics.quantiles`` convention."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment(workload) -> dict[str, Any]:
    """What the run ran on, so readers see which backends were measured."""
    import numpy

    from repro.api import jit_available

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "batch_jit_available": jit_available(),
        "backends_run": list(workload.backends),
        "left_out": LEFT_OUT,
        "load": "closed loop, 1 client, up to 2 worker processes",
    }


# ---------------------------------------------------------------------------
# Set-up time: fresh processes
# ---------------------------------------------------------------------------


def setup_only(workload, seed: int) -> None:
    """A fresh process's work before its first interaction (then exit)."""
    prepared = workload.prepare(RUNS_DIR / "setup")
    workload.build(prepared, seed)


def measure_setup(name: str, seed: int, smoke: bool) -> list[float]:
    """Wall seconds of :data:`SETUP_LAUNCHES` fresh set-up processes."""
    from repro.api import perf_counter

    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", name, "--seed", str(seed),
    ] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(SETUP_LAUNCHES):
        started = perf_counter()
        subprocess.run(command, check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        times.append(perf_counter() - started)
    return times


# ---------------------------------------------------------------------------
# Timed drives (--trace 0)
# ---------------------------------------------------------------------------


def drive(workload, prepared, seed: int, **options: Any):
    """One drive; a drive that raises counts every trial of it as failed."""
    from perfbench.workloads import RepResult
    from repro.api import perf_counter

    started = perf_counter()
    try:
        return workload.run(prepared, seed, **options)
    except Exception:  # the benchmark reports the failure and keeps measuring
        traceback.print_exc()
        trials = workload.trials_per_drive()
        return RepResult(perf_counter() - started, trials, trials, 0, {})


def warm_up(workload, seed: int, workdir: Path) -> None:
    """One untimed drive of the toy-size grid: the same code paths, made warm."""
    toy = type(workload)("toy")
    drive(toy, toy.prepare(workdir), seed)


def timed_drives(workload, prepared, seed: int, seconds: float) -> list:
    """Closed-loop drives until ``seconds`` are used (at least MIN_DRIVES)."""
    from repro.api import perf_counter
    from repro.scheduler.rng import derive_seed

    results = []
    started = perf_counter()
    while True:
        results.append(drive(workload, prepared, derive_seed(seed, len(results))))
        elapsed = perf_counter() - started
        typical = statistics.median(result.seconds for result in results)
        if len(results) >= MIN_DRIVES and elapsed + typical > seconds:
            return results


def end_to_end(workload, seed: int, seconds: float, smoke: bool, workdir: Path):
    prepared = workload.prepare(workdir)
    warm_up(workload, seed, workdir)
    results = timed_drives(workload, prepared, seed, seconds)
    peak = _peak_rss_mb()
    setup = measure_setup(workload.name, seed, smoke)
    attempted = sum(result.trials for result in results)
    failed = sum(result.failed for result in results)
    samples = {
        "wall_s": [result.seconds for result in results],
        "interactions_per_s": [result.interactions / result.seconds for result in results],
        "setup_s": setup,
        "peak_rss_mb": [peak],
        "success_frac": [(attempted - failed) / attempted],
    }
    return results, samples


# ---------------------------------------------------------------------------
# The traced pass (--trace 1)
# ---------------------------------------------------------------------------


def _span_totals(records: list[dict]) -> dict[str, tuple[int, float]]:
    totals: dict[str, tuple[int, float]] = {}
    for record in records:
        if record.get("kind") == "span":
            count, seconds = totals.get(record["name"], (0, 0.0))
            totals[record["name"]] = (count + 1, seconds + float(record["dur"]))
    return totals


def _obs_pass(path: Path, call):
    """Run ``call()`` with the repro.obs sink on; return its result and spans."""
    from repro.api import configure_tracing, load_trace

    if path.exists():
        path.unlink()
    configure_tracing(str(path))
    try:
        result = call()
    finally:
        configure_tracing(None)
    records = load_trace(path) if path.exists() and path.stat().st_size else []
    return result, _span_totals(records)


def traced_pass(workload, seed: int, workdir: Path):
    """Untraced and traced drives of one grid; returns results and per-layer metrics.

    Both drives run in this process (a pooled workload on one worker), so the
    wrappers see every layer call.  A pooled workload then drives the grid on
    its worker count twice more: untraced for the scaling figure, and with the
    ``repro.obs`` sink on for the workers' busy time.
    """
    from perfbench.probe import Probe, install_layer_probes
    from repro.obs import STEP_PHASES

    workers = workload.workers()
    serial = {"workers": 1} if workers > 1 else {}
    prepared = workload.prepare(workdir)
    untraced = drive(workload, prepared, seed, **serial)
    probe = Probe()
    with probe:
        install_layer_probes(probe)
        # A fresh prepare, so the traced drive builds its own tables.
        traced, spans = _obs_pass(
            workdir / "obs.trace.jsonl",
            lambda: drive(workload, workload.prepare(workdir), seed, **serial),
        )
    probe.dump(RUNS_DIR / f"{workload.name}.probe.json")
    results = [untraced, traced]

    calls, busy, sizes = probe.calls, probe.seconds, probe.sizes
    runs = calls["scheduler.run_length"] + sizes["scheduler.run_lengths"]
    steps = calls["scheduler.run_lengths"]
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    metrics.update({
        "core.transition_calls": calls["core.transition"],
        "core.transition_s": busy["core.transition"],
        "core.safe_check_calls": calls["core.safe_check"],
        "core.safe_check_s": busy["core.safe_check"],
        "adversary.init_calls": calls["adversary.init"],
        "adversary.init_s": busy["adversary.init"],
        "array_backend.table_build_s": busy["array_backend.table_build"],
        "scheduler.pairs_drawn": sizes["scheduler.pairs"],
        "scheduler.draw_s": busy["scheduler.pairs"],
        "scheduler.collision_runs": runs,
        "scheduler.interactions_per_run": traced.interactions / runs if runs else 0.0,
        "counts.predicate_checks": calls["counts.predicate"],
        "counts.predicate_s": busy["counts.predicate"],
        "batch.lockstep_steps": steps,
        "batch.row_occupancy": (
            sizes["scheduler.run_lengths"] / (steps * workload.trials_per_drive())
            if steps else 0.0
        ),
        "faults.bursts": traced.observations.get("bursts", 0),
        "faults.apply_calls": calls["faults.apply"],
        "faults.apply_s": busy["faults.apply"],
        "sweep.checkpoint_appends": spans.get("sweep.checkpoint_append", (0, 0.0))[0],
        "sweep.checkpoint_bytes": traced.observations.get("checkpoint_bytes", 0),
        "sweep.checkpoint_append_s": spans.get("sweep.checkpoint_append", (0, 0.0))[1],
        "obs.trace_overhead_frac": traced.seconds / untraced.seconds - 1.0,
    })
    for phase in STEP_PHASES:
        metrics[f"counts.step.{phase}_s"] = busy[f"counts.step.{phase}"]
        metrics[f"batch.step.{phase}_s"] = busy[f"batch.step.{phase}"]
    for phase in ("draw", "apply", "retire"):
        metrics[f"object.step.{phase}_s"] = spans.get(f"step.{phase}", (0, 0.0))[1]
    # The object engine's apply phase contains the transitions: report self time.
    metrics["object.step.apply_s"] = max(
        0.0, metrics["object.step.apply_s"] - metrics["core.transition_s"]
    )

    if workers > 1:
        parallel = drive(workload, prepared, seed)
        pooled, pool_spans = _obs_pass(
            workdir / "pool.trace.jsonl", lambda: drive(workload, prepared, seed)
        )
        results += [parallel, pooled]
        busy_s = pool_spans.get("sweep.trial", (0, 0.0))[1]
        metrics["parallel.serial_wall_s"] = untraced.seconds
        metrics["parallel.worker_busy_s"] = busy_s
        metrics["parallel.utilization"] = busy_s / (pooled.seconds * workers)
        metrics["parallel.scaling_efficiency"] = untraced.seconds / (
            parallel.seconds * workers
        )
    return results, metrics


PER_LAYER_UNITS = {
    "core.transition_calls": "count",
    "core.transition_s": "s",
    "core.safe_check_calls": "count",
    "core.safe_check_s": "s",
    "adversary.init_calls": "count",
    "adversary.init_s": "s",
    "array_backend.table_build_s": "s",
    "scheduler.pairs_drawn": "count",
    "scheduler.draw_s": "s",
    "scheduler.collision_runs": "count",
    "scheduler.interactions_per_run": "interactions",
    "object.step.draw_s": "s",
    "object.step.apply_s": "s",
    "object.step.retire_s": "s",
    "counts.step.draw_s": "s",
    "counts.step.match_s": "s",
    "counts.step.apply_s": "s",
    "counts.step.retire_s": "s",
    "counts.predicate_checks": "count",
    "counts.predicate_s": "s",
    "batch.step.draw_s": "s",
    "batch.step.match_s": "s",
    "batch.step.apply_s": "s",
    "batch.step.retire_s": "s",
    "batch.lockstep_steps": "count",
    "batch.row_occupancy": "fraction",
    "faults.bursts": "count",
    "faults.apply_calls": "count",
    "faults.apply_s": "s",
    "parallel.worker_busy_s": "s",
    "parallel.utilization": "fraction",
    "parallel.serial_wall_s": "s",
    "parallel.scaling_efficiency": "fraction",
    "sweep.checkpoint_appends": "count",
    "sweep.checkpoint_bytes": "bytes",
    "sweep.checkpoint_append_s": "s",
    "obs.trace_overhead_frac": "fraction",
}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def report_end_to_end(samples: dict[str, list[float]]) -> dict[str, dict]:
    print(f"{'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'samples':>9}  unit")
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        q1, median, q3 = _quartiles(samples[name])
        print(f"{name:<22}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(samples[name]):>9}  {unit}")
        metrics[name] = {"value": median, "unit": unit}
    return metrics


def report_per_layer(values: dict[str, float]) -> dict[str, dict]:
    print(f"{'per-layer metric':<34}{'value':>16}  unit")
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        print(f"{name:<34}{values[name]:>16.6g}  {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    zero = [name for name in PER_LAYER_UNITS if values[name] == 0]
    if zero:
        print(
            "zero on this workload (layer not on its path, or a phase its engine "
            "does not account): " + ", ".join(zero)
        )
    return metrics


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size workloads")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        # Measure this checkout's program, never an installed copy.
        print(f"error: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        from perfbench.workloads import WORKLOADS
    except ImportError as error:
        print(f"error: cannot import the program under test ({error})", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        print(f"error: unknown workload '{args.workload}' (known: {known})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]("toy" if args.smoke else "full")
    if args.setup_only:
        setup_only(workload, args.seed)
        return 0

    workdir = RUNS_DIR / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"workload {workload.name} ({workload.size}): {workload.why}")
    print("environment " + json.dumps(environment(workload)))
    try:
        if args.trace:
            results, values = traced_pass(workload, args.seed, workdir)
        else:
            results, samples = end_to_end(
                workload, args.seed, args.seconds, args.smoke, workdir,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = workload.check(results)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(f"drives: {len(results)}; checks: {'passed' if not failures else 'FAILED'}")
    metrics = report_per_layer(values) if args.trace else report_end_to_end(samples)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(result.trials for result in results),
        "failed": sum(result.failed for result in results),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
