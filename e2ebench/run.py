#!/usr/bin/env python3
"""End-to-end benchmark of training, publication and serving.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload train_adaptive --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: the world is built several
times (``setup_s`` is the median build), warm-up rounds run untimed, then
rounds run back to back for ``--seconds``.  Host-clock figures are medians
over the timed rounds; simulated-clock, byte and loss figures come from a
fixed prefix of rounds, so they repeat exactly for a seed.

``--trace 1`` measures the per-layer metrics: the workload runs untraced
for half of ``--seconds`` on one world, then the same rounds run on a
fresh world of the same seed with every layer's public functions wrapped
by the span recorder.  Per-layer self times plus the unattributed
remainder must add up to the traced wall time, and the wall-time
difference between the two worlds is the tracing overhead.  The spans are
written to ``.e2ebench_out/`` at the end.

Both modes check the outputs (finite losses, publication staleness within
its bound, no impaired requests, served rows within the error bounds of
the trainer's tables, identical results from two worlds of one seed) and
print a human-readable report followed, as the last line, by one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the benchmark is a single closed-loop caller and
# threaded kernels make host times swing with whatever else the box runs.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".e2ebench_out"

#: world builds per untraced run; ``setup_s`` is their median
SETUP_BUILDS = 5

#: end-to-end metrics every workload reports, gated by ``BENCHMARK.json``:
#: the ones that stay steady from run to run on a shared machine
END_TO_END = {
    "setup_s": "s",
    "sim.step_s": "sim_s",
    "wire.bytes_per_sample": "B",
    "train.loss": "nat",
    "peak_rss_mb": "MB",
}
#: end-to-end metrics printed but not in the JSON: host throughput (its
#: run-to-run spread follows the machine's speed, see DESIGN.md), the
#: serving workload's own metrics, and the failed share (0 when healthy)
PRINTED = {
    "host.round_s": "s",
    "train.samples_per_s": "1/s",
    "ops.failed_share": "ratio",
}
SERVING_ONLY = {
    "publish.round_s": "s",
    "publish.wire_bytes": "B",
    "serve.requests_per_s": "1/s",
    "sim.serve_p50_s": "sim_s",
    "sim.serve_p99_s": "sim_s",
}

#: simulated seconds per step, by timeline category group
SIM_GROUPS = {
    "alltoall_fwd": ("alltoall_fwd",),
    "alltoall_bwd": ("alltoall_bwd",),
    "compress": ("compress",),
    "decompress": ("decompress",),
    "allreduce": ("allreduce",),
    "interaction": ("interaction_fwd", "interaction_bwd"),
    "mlp": ("bottom_mlp_fwd", "top_mlp_fwd", "top_mlp_bwd", "bottom_mlp_bwd"),
}
#: layers every workload calls; their host self time is a per-layer metric
TIMED_LAYERS = ("data", "model", "nn", "dist")


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics every workload reports (``BENCHMARK.json``)."""
    from layers import LAYERS

    units = {f"{layer}.calls": "calls/round" for layer in LAYERS}
    units.update({f"{layer}.self_s": "s/round" for layer in TIMED_LAYERS})
    units.update(
        {
            "train.pipeline.raw_bytes": "B/round",
            "train.pipeline.payload_bytes": "B/round",
            "compression.compress_bytes_in": "B/round",
            "compression.compress_bytes_out": "B/round",
            "compression.decompress_bytes_in": "B/round",
            "compression.decompress_bytes_out": "B/round",
            "serve.hit_rate": "ratio",
            "serve.blocks_pulled": "blocks/round",
            "serve.pulled_bytes": "B/round",
            "serve.publish_wire_bytes": "B/round",
            "dist.overlap_efficiency": "ratio",
            "trace.unattributed_s": "s/round",
            "trace.untraced_round_s": "s/round",
            "trace.overhead_s": "s/round",
            "trace.overhead_share": "ratio",
        }
    )
    units.update({f"dist.sim.{group}_s": "sim_s/step" for group in SIM_GROUPS})
    return units


@dataclass
class Outcome:
    """Metrics and check results of one run."""

    units: dict[str, str]  # metric name -> unit, for every metric the run may put
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)  # extra report lines
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = (float(value), self.units[name])

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def account(outcome: Outcome, records) -> None:
    """Count attempted and failed operations of the given rounds: a
    non-finite loss, an undelivered or over-bound publication, and every
    impaired request are failures."""
    for r in records:
        outcome.attempted += 1 + (1 if r.requests else 0) + r.requests
        outcome.failed += 0 if math.isfinite(r.loss) else 1
        if r.requests:
            outcome.failed += (0 if r.publish_ok else 1) + r.impaired


def check_world(outcome: Outcome, world) -> None:
    if world.serving:
        bad = world.gather_mismatches()
        outcome.check(bad == 0, f"{bad} gathered rows outside the tables' error bounds")


def run_rounds(world, seconds: float, min_rounds: int) -> list:
    """Rounds back to back until ``seconds`` have passed and at least
    ``min_rounds`` (and one) rounds ran."""
    records = []
    start = time.perf_counter()
    while (
        not records or len(records) < min_rounds or time.perf_counter() - start < seconds
    ):
        records.append(world.run_round())
    return records


def measure(workload: str, shape, seed: int, seconds: float) -> Outcome:
    """The untraced run: end-to-end metrics."""
    from workloads import World

    out = Outcome({**END_TO_END, **PRINTED, **SERVING_ONLY})
    setup = []
    reference = None
    # Build 0 is the reference world (its first rounds are compared with the
    # measured world's); the last build is the measured world.
    for build in range(SETUP_BUILDS):
        world = None
        gc.collect()
        start = time.perf_counter()
        world = World(workload, shape, seed)
        setup.append(time.perf_counter() - start)
        if build == 0:
            reference = [world.run_round().fingerprint() for _ in range(shape.check_rounds)]
    warm = [world.run_round() for _ in range(shape.warmup_rounds)]
    timed = run_rounds(world, seconds, shape.min_rounds - len(warm))
    records = warm + timed
    prefix = records[: shape.min_rounds]
    account(out, records)
    check_world(out, world)
    out.check(
        [r.fingerprint() for r in records[: shape.check_rounds]] == reference,
        "two worlds of one seed disagree on simulated, byte or count results",
    )

    out.put("setup_s", statistics.median(setup))
    out.put("host.round_s", statistics.median(r.host_s for r in timed))
    out.put("train.samples_per_s", shape.batch / statistics.median(r.train_s for r in timed))
    out.put("sim.step_s", statistics.fmean(r.sim_step_s for r in prefix))
    out.put(
        "wire.bytes_per_sample",
        sum(r.wire_bytes for r in prefix) / sum(r.samples for r in prefix),
    )
    out.put("train.loss", statistics.fmean(r.loss for r in prefix[-shape.loss_window :]))
    out.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    n = len(timed)
    out.notes.append(
        f"timed rounds: {n} over {sum(r.host_s for r in timed):.3f} s host "
        f"(+{len(warm)} warm-up); fixed prefix: {len(prefix)} rounds; "
        f"setup builds: {', '.join(f'{v:.3f}' for v in setup)} s"
    )
    if world.serving:
        out.put("publish.round_s", statistics.median(r.publish_s for r in timed))
        out.put("publish.wire_bytes", statistics.fmean(r.publish_wire_bytes for r in prefix))
        out.put(
            "serve.requests_per_s",
            shape.requests_per_round / statistics.median(r.serve_s for r in timed),
        )
        latencies = world.prefix_latencies
        out.put("sim.serve_p50_s", latencies.quantile(0.5))
        out.put("sim.serve_p99_s", latencies.quantile(0.99))
        beyond = latencies.count - math.ceil(0.99 * latencies.count)
        out.notes.append(
            f"serving: open loop at {shape.qps:g} req/s (simulated), "
            f"{latencies.count} requests in the prefix, {beyond} beyond p99; "
            f"host medians over {n} publications and {n} windows of "
            f"{shape.requests_per_round} requests"
        )
    out.put("ops.failed_share", out.failed / out.attempted)
    if workload == "train_adaptive":
        raw = world.raw_baseline_sim_step_s()
        out.notes.append(
            f"fig-12 speedup: train_raw sim.step_s {raw * 1e3:.4f} ms / train_adaptive "
            f"sim.step_s {out.metrics['sim.step_s'][0] * 1e3:.4f} ms = "
            f"{raw / out.metrics['sim.step_s'][0]:.3f}x"
        )
    for name, (value, _) in out.metrics.items():
        if name != "ops.failed_share":
            out.check(math.isfinite(value) and value > 0, f"{name} = {value} is not positive")
    return out


def trace(workload: str, shape, seed: int, seconds: float, tag: str) -> Outcome:
    """The traced run: per-layer metrics."""
    import layers
    from spans import SpanRecorder
    from workloads import World

    from repro.profiling.breakdown import overlap_efficiency

    out = Outcome(per_layer_units())
    world = World(workload, shape, seed)
    for _ in range(shape.warmup_rounds):
        world.run_round()
    start = time.perf_counter_ns()
    plain = run_rounds(world, seconds / 2, 2)
    plain_ns = time.perf_counter_ns() - start
    world = None
    gc.collect()

    world = World(workload, shape, seed)
    for _ in range(shape.warmup_rounds):
        world.run_round()
    recorder = SpanRecorder()
    traced = []
    recorder.install(layers.targets())
    try:
        start = time.perf_counter_ns()
        for _ in plain:
            recorder.round_id = world.rounds_done
            traced.append(world.run_round())
        traced_ns = time.perf_counter_ns() - start
    finally:
        recorder.uninstall()
    account(out, traced)
    check_world(out, world)
    out.check(
        [r.fingerprint() for r in traced] == [r.fingerprint() for r in plain],
        "traced and untraced worlds of one seed disagree",
    )

    n = len(traced)
    report = recorder.report(traced_ns)
    resolution_ns = max(1, math.ceil(time.get_clock_info("perf_counter").resolution * 1e9))
    error_ns = report.conservation_error_ns()
    out.check(
        abs(error_ns) <= resolution_ns,
        f"self times + unattributed differ from wall time by {error_ns} ns",
    )
    for layer in layers.LAYERS:
        out.put(f"{layer}.calls", report.calls.get(layer, 0) / n)
        self_s = report.self_ns.get(layer, 0) / n / 1e9
        if layer in TIMED_LAYERS:
            out.put(f"{layer}.self_s", self_s)
        else:
            out.notes.append(f"{layer}.self_s = {self_s:.6f} s/round")
    counters = report.counters
    for name in (
        "train.pipeline.raw_bytes",
        "train.pipeline.payload_bytes",
        "compression.compress_bytes_in",
        "compression.compress_bytes_out",
        "compression.decompress_bytes_in",
        "compression.decompress_bytes_out",
    ):
        out.put(name, counters.get(name, 0.0) / n)
    lookups = sum(r.hits + r.misses for r in traced)
    out.put("serve.hit_rate", sum(r.hits for r in traced) / lookups if lookups else 0.0)
    out.put("serve.blocks_pulled", sum(r.blocks_pulled for r in traced) / n)
    out.put("serve.pulled_bytes", sum(r.pulled_bytes for r in traced) / n)
    out.put("serve.publish_wire_bytes", sum(r.publish_wire_bytes for r in traced) / n)
    timeline = world.trainer.simulator.timeline
    by_category = timeline.total_by_category(rank=0)
    steps = world.steps_done
    for group, categories in SIM_GROUPS.items():
        seconds_per_step = sum(by_category.get(c, 0.0) for c in categories) / steps
        out.put(f"dist.sim.{group}_s", seconds_per_step)
    out.put("dist.overlap_efficiency", overlap_efficiency(timeline))
    out.put("trace.unattributed_s", report.unattributed_ns / n / 1e9)
    out.put("trace.untraced_round_s", plain_ns / n / 1e9)
    out.put("trace.overhead_s", (traced_ns - plain_ns) / n / 1e9)
    out.put("trace.overhead_share", traced_ns / plain_ns - 1.0)

    out.notes.append(
        f"traced rounds: {n}; wall {traced_ns / 1e9:.3f} s traced vs {plain_ns / 1e9:.3f} s "
        f"untraced; {report.n_spans} spans; conservation error {error_ns} ns "
        f"(timer resolution {resolution_ns} ns)"
    )
    by_name: dict[str, list[int]] = {}
    for span in recorder.spans:
        entry = by_name.setdefault(span.name, [0, 0])
        entry[0] += 1
        entry[1] += span.self_ns
    top = sorted(by_name.items(), key=lambda kv: -kv[1][1])[:12]
    out.notes.append("top spans by self time (calls, s/round):")
    out.notes += [
        f"  {name:<52} {calls / n:>10.1f} {ns / n / 1e9:>10.6f}" for name, (calls, ns) in top
    ]
    path = recorder.dump(
        OUT_DIR / f"{tag}-spans.json.gz",
        {"workload": workload, "seed": seed, "rounds": n, "wall_ns": traced_ns},
    )
    out.notes.append(f"spans written to {path.relative_to(ROOT)}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", default="full", help="workload size: full or tiny")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import SHAPES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.shape not in SHAPES:
        parser.error(f"--shape must be one of {', '.join(SHAPES)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    shape = SHAPES[args.shape][args.workload]
    tag = f"{args.workload}-{args.shape}-seed{args.seed}"
    if args.trace:
        outcome = trace(args.workload, shape, args.seed, args.seconds, tag)
        reported = per_layer_units()
    else:
        outcome = measure(args.workload, shape, args.seed, args.seconds)
        reported = END_TO_END

    print(f"# {args.workload} (seed {args.seed}, shape {args.shape}, trace {args.trace})")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:<32} {value:>18.6g} {unit}")
    for line in outcome.notes:
        print(line)
    print(
        f"ops: {outcome.failed} failed of {outcome.attempted} attempted; "
        f"checks: {'ok' if not outcome.problems else '; '.join(outcome.problems)}"
    )
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            # A non-finite value (already failing a check) prints as null:
            # NaN and Infinity are not JSON.
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, unit in reported.items()
            for value in [outcome.metrics[name][0]]
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
