"""Smoke tests of the benchmark itself, on the toy-size workloads.

Run from the root of the repository::

    python3 -m pytest -q perfbench

They check that the printed metric names match ``BENCHMARK.json``, that each
correctness check fails on a deliberately wrong reference, that the traced pass
emits every per-layer metric, and that the command fails cleanly when the
program under test is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import run
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Per-layer metrics each workload's traced pass must measure as non-zero.
ON_PATH = {
    "elect_tradeoff": {
        "core.transition_calls", "core.transition_s", "core.safe_check_calls",
        "core.safe_check_s", "adversary.init_calls", "adversary.init_s",
        "scheduler.pairs_drawn", "scheduler.draw_s", "object.step.draw_s",
        "object.step.apply_s", "object.step.retire_s", "parallel.worker_busy_s",
        "parallel.utilization", "parallel.serial_wall_s", "parallel.scaling_efficiency",
        "sweep.checkpoint_appends", "sweep.checkpoint_bytes", "sweep.checkpoint_append_s",
    },
    "reset_wave_1e6": {
        "array_backend.table_build_s", "scheduler.collision_runs",
        "scheduler.interactions_per_run", "counts.step.draw_s", "counts.step.match_s",
        "counts.step.apply_s", "counts.step.retire_s", "counts.predicate_checks",
        "counts.predicate_s",
    },
    # The batch engine's availability drive accounts no retire phase.
    "epidemic_faults_batch": {
        "array_backend.table_build_s", "scheduler.collision_runs",
        "scheduler.interactions_per_run", "batch.step.draw_s", "batch.step.match_s",
        "batch.step.apply_s", "batch.lockstep_steps",
        "batch.row_occupancy", "faults.bursts", "faults.apply_calls", "faults.apply_s",
    },
}


def _run(capsys, *args: str) -> tuple[int, dict, str]:
    code = run.main(["--smoke", "--seed", "3", "--seconds", "0", *args])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER_UNITS)
    for metric in SPEC["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == run.PER_LAYER_UNITS[metric["name"]]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_match_benchmark_json(capsys, name):
    code, result, out = _run(capsys, "--workload", name, "--trace", "0")
    assert code == 0, out
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] > 0
    assert '"numba_importable"' in out and '"backends_run"' in out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_pass_emits_every_per_layer_metric(capsys, name):
    code, result, out = _run(capsys, "--workload", name, "--trace", "1")
    assert code == 0, out
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    measured = {key for key, value in result["metrics"].items() if value["value"] != 0}
    assert ON_PATH[name] <= measured, ON_PATH[name] - measured
    # Every metric the traced pass left at zero is named in the report.
    zero = set(result["metrics"]) - measured - {"obs.trace_overhead_frac"}
    if zero:
        named = next(line for line in out.splitlines() if line.startswith("zero on this workload"))
        assert all(metric in named for metric in zero)


def _drives(workload, count: int = 2):
    workdir = run.RUNS_DIR / f"test-{workload.name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        prepared = workload.prepare(workdir)
        return [workload.run(prepared, seed) for seed in range(1, count + 1)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_elect_checks_fail_on_wrong_references():
    workload = WORKLOADS["elect_tradeoff"]("toy")
    results = _drives(workload)
    assert workload.check(results) == []
    shifted = {key: (low + 1000, high + 1000) for key, (low, high) in
               workload.reference.cell_bands.items()}
    assert workload.with_reference(cell_bands=shifted).check(results)
    reversed_tradeoff = tuple(reversed(workload.reference.tradeoff))
    assert workload.with_reference(tradeoff=reversed_tradeoff).check(results)
    starved = WORKLOADS["elect_tradeoff"]("toy")
    starved.params = replace(starved.params, max_interactions=64)
    assert any("missed the safe set" in failure for failure in starved.check(_drives(starved, 1)))


def test_reset_checks_fail_on_wrong_references():
    workload = WORKLOADS["reset_wave_1e6"]("toy")
    results = _drives(workload, 1)
    assert workload.check(results) == []
    assert workload.with_reference(time_band=(1.0, 2.0)).check(results)
    starved = WORKLOADS["reset_wave_1e6"]("toy")
    starved.params = replace(starved.params, max_interactions_per_n=1)
    assert any("missed the goal" in failure for failure in starved.check(_drives(starved, 1)))


def test_batch_checks_fail_on_wrong_references():
    workload = WORKLOADS["epidemic_faults_batch"]("toy")
    results = _drives(workload)
    assert workload.check(results) == []
    assert workload.with_reference(bursts=workload.reference.bursts + 1).check(results)
    assert workload.with_reference(availability_band=(1.5, 2.0)).check(results)


def test_failed_check_exits_nonzero(capsys, monkeypatch):
    cls = WORKLOADS["epidemic_faults_batch"]
    wrong = replace(cls.references["toy"], bursts=cls.references["toy"].bursts + 1)
    monkeypatch.setitem(cls.references, "toy", wrong)
    code, result, _ = _run(capsys, "--workload", cls.name, "--trace", "0")
    assert code == 1
    assert result["correct"] is False


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".runs", "__pycache__"),
    )
    command = [*SPEC["command"], "--workload", "elect_tradeoff", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    command[0] = sys.executable
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_files_pass_repro_lint():
    done = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "perfbench"], cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
