"""The day-in-the-life chaos scenario: acceptance invariants + artifacts."""

from __future__ import annotations

import json

import pytest

from repro.faults import run_day_in_the_life_under_faults
from repro.obs.schema import validate_snapshot_json


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("chaos")
    return run_day_in_the_life_under_faults(
        n_iterations=4, n_requests=120, out_dir=out
    )


class TestInvariants:
    def test_resume_is_bit_identical(self, result):
        assert result.params_bit_identical
        assert result.restores >= 1
        assert result.checkpoints_taken >= 1

    def test_one_checkpoint_per_checkpoint_iteration(self, result):
        # the restore lands back on a checkpointed iteration; that state is
        # not captured (nor its memcpy charged) a second time
        assert result.checkpoints_taken == len(range(0, 4, 2))
        wider = run_day_in_the_life_under_faults(n_iterations=6, n_requests=60)
        assert wider.restores == 1
        assert wider.checkpoints_taken == len(range(0, 6, 2))

    def test_training_makespan_never_shrinks_under_faults(self, result):
        assert result.faulty_train_makespan >= result.healthy_train_makespan

    def test_publisher_staleness_within_bound_after_failed_rounds(self, result):
        assert result.failed_publish_rounds >= 1
        assert result.publish_attempts_total > result.publish_rounds
        assert result.staleness_after_last_success <= (
            result.last_success_staleness_bound * (1 + 1e-5)
        )

    def test_served_rows_bounded_or_flagged(self, result):
        assert result.fresh_requests + result.impaired_requests == result.n_requests
        assert result.stale_rows + result.degraded_rows > 0
        assert result.compound_bound > 0.0

    def test_scenario_is_deterministic(self, result):
        twin = run_day_in_the_life_under_faults(n_iterations=4, n_requests=120)
        assert twin.faulty_train_makespan == result.faulty_train_makespan
        assert twin.impaired_requests == result.impaired_requests
        assert twin.staleness_after_last_success == result.staleness_after_last_success


class TestObservability:
    def test_fault_and_retry_counters_land_in_the_snapshot(self, result):
        names = set(result.snapshot.names())
        assert "faults_injected_total" in names
        assert "publish_retries_total" in names
        assert "publish_corrupt_payloads_total" in names
        assert "publish_failed_rounds_total" in names
        assert "checkpoints_taken_total" in names
        assert "checkpoint_restores_total" in names
        assert "serve_degraded_rows_total" in names

    def test_trace_carries_fault_annotation_spans(self, result):
        fault_spans = [
            e
            for e in result.trace["traceEvents"]
            if e.get("ph") == "X" and e.get("name") == "fault"
        ]
        assert fault_spans, "FAULT windows must be visible in the chrome trace"
        kinds = {e["args"]["kind"] for e in fault_spans if "args" in e}
        assert "shard_crash" in kinds

    def test_artifacts_written_and_valid(self, result):
        # the same artifact set as the healthy run
        assert set(result.paths) == {
            "metrics.json",
            "metrics.prom",
            "obs_trace.json",
            "run_report.txt",
            "critical_path.json",
        }
        for path in result.paths.values():
            assert path.exists() and path.stat().st_size > 0
        metrics = result.paths["metrics.json"].read_text()
        validate_snapshot_json(metrics)
        assert set(json.loads(metrics)["reports"]) == {"critical_path", "slo"}
        trace = json.loads(result.paths["obs_trace.json"].read_text())
        assert trace["traceEvents"]
        assert "fault" in result.paths["run_report.txt"].read_text().lower()


class TestValidation:
    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_day_in_the_life_under_faults(n_iterations=1)
        with pytest.raises(ValueError):
            run_day_in_the_life_under_faults(n_requests=0)
        with pytest.raises(ValueError):
            run_day_in_the_life_under_faults(checkpoint_every=0)