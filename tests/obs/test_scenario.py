"""The healthy day-in-the-life run is deterministic, like its chaos twin."""

from __future__ import annotations

from repro.obs import run_day_in_the_life


def test_scenario_is_deterministic():
    first = run_day_in_the_life(n_iterations=2, n_requests=60)
    second = run_day_in_the_life(n_iterations=2, n_requests=60)
    assert second.train_makespan == first.train_makespan
    assert second.publish_wire_nbytes == first.publish_wire_nbytes
    assert second.serve_p99_latency == first.serve_p99_latency
