"""Self-tests of the end-to-end benchmark at the tiny shape.

Run from the repository root::

    python -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(capsys, workload: str, *, trace: int = 0, seed: int = 3) -> tuple[dict, str]:
    """Run the benchmark in process; return (result JSON, full stdout)."""
    code = run.main(
        [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.3",
            "--trace", str(trace),
            "--shape", "tiny",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    return json.loads(stdout.strip().splitlines()[-1]), stdout


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(capsys, workload):
    result, stdout = bench(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Every metric the workload defines is printed by name with its unit.
    printed = {**run.END_TO_END, **run.PRINTED}
    if workload == "day_in_the_life":
        printed.update(run.SERVING_ONLY)
    for name, unit in printed.items():
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in stdout.splitlines()
        ), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_conserves_time(capsys, workload):
    result, stdout = bench(capsys, workload, trace=1)
    assert result["correct"] is True  # includes the conservation check
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == units("per_layer")
    assert "conservation error 0 ns" in stdout
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["model.calls"] > 0 and metrics["dist.calls"] > 0
    # Layers a workload bypasses record no calls.
    if workload == "train_raw":
        assert metrics["compression.calls"] == 0
        assert metrics["train.pipeline.calls"] == 0
    if workload != "day_in_the_life":
        assert metrics["serve.calls"] == 0 and metrics["obs.calls"] == 0
    else:
        assert metrics["serve.calls"] > 0 and metrics["obs.calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_runs_agree_on_simulated_and_count_metrics(workload):
    from workloads import SHAPES

    shape = SHAPES["tiny"][workload]
    first = run.measure(workload, shape, seed=5, seconds=0.1)
    second = run.measure(workload, shape, seed=5, seconds=0.1)
    other = run.measure(workload, shape, seed=6, seconds=0.1)
    deterministic = [
        name
        for name, (_, unit) in first.metrics.items()
        if unit in ("sim_s", "B", "nat")
    ]
    assert "sim.step_s" in deterministic and "train.loss" in deterministic
    for name in deterministic:
        assert first.metrics[name] == second.metrics[name], name
    assert first.correct and second.correct
    # The seed reaches the inputs: another seed trains on other data.
    assert other.metrics["train.loss"] != first.metrics["train.loss"]


class _Base:
    def work(self, n):
        return sum(self.leaf(i) for i in range(n))

    def leaf(self, i):
        return i


class _Child(_Base):
    pass


def test_span_recorder_self_times_add_up_and_uninstall_restores():
    recorder = SpanRecorder()
    original_leaf = _Base.__dict__["leaf"]
    recorder.install(
        [
            (_Child, "work", "outer:work", lambda a, k, r: {"outer.n": a[1]}),
            (_Base, "leaf", "inner:leaf", None),
        ]
    )
    try:
        assert _Child().work(5) == 10
    finally:
        recorder.uninstall()
    assert "work" not in vars(_Child)  # inherited attribute removed again
    assert _Base.__dict__["leaf"] is original_leaf
    assert [s.name for s in recorder.spans] == ["outer:work"] + ["inner:leaf"] * 5
    root = recorder.spans[0]
    assert all(s.parent == root.span_id for s in recorder.spans[1:])
    wall = root.end_ns - root.start_ns + 1000
    report = recorder.report(wall)
    assert report.calls == {"outer": 1, "inner": 5}
    assert report.unattributed_ns == 1000
    assert report.conservation_error_ns() == 0
    assert report.counters == {"outer.n": 5}


def test_exits_nonzero_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
