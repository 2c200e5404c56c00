"""A day in the life of the system, observed end to end — healthy or under faults.

One scenario runs the smallest honest version of the paper's full loop:
compressed hybrid-parallel training steps on a 2-rank cluster, rounds of
(train step, delta publication to a 2-shard serving tier), then a
Zipf-skewed open-loop request trace served behind the last publication.
The observability runtime is on throughout, and every run is analyzed the
same way: each tier's timeline gets a critical-path extraction (a
highlight lane in the unified trace, makespan-attribution tables in the
report) and the three tiers feed live SLO burn-rate monitors (serve p99
vs target, publication staleness vs the adaptive plan's bound, train
step time vs budget).

Two entry points run it:

* :func:`run_day_in_the_life` — the healthy run, behind
  ``examples/obs_day_in_the_life.py`` and the CI ``obs-smoke`` job.
* :func:`run_day_in_the_life_under_faults` — the same run twice from
  identical seeds: a healthy twin, then the run with a
  :class:`~repro.faults.plan.FaultPlan` injected (a straggler rank and a
  fabric outage during training, a rank failure answered by checkpoint
  restore, corrupted publication payloads, a serving shard crash).  It
  checks the robustness invariants inline, raising
  :class:`ChaosInvariantViolation` on any breach.  Behind
  ``examples/faults_day_in_the_life.py`` and the CI ``chaos-smoke`` job.

The two runs share one world, one tier and serve configuration
(checksummed publication, a stale store, retries, hedging and circuit
breakers) and one artifact set.  With ``out_dir`` set either writes
``metrics.json`` (validated against the snapshot schema, including the
``reports`` block), ``metrics.prom``, ``obs_trace.json``,
``run_report.txt`` and ``critical_path.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.obs.registry import MetricsRegistry, RegistrySnapshot
from repro.obs.runtime import capture, enable

__all__ = [
    "ChaosInvariantViolation",
    "ChaosResult",
    "ScenarioResult",
    "run_day_in_the_life",
    "run_day_in_the_life_under_faults",
]

#: every training step of the scenario draws this global batch
_GLOBAL_BATCH = 64
#: default SLO budgets, sized to the scenario's workload
_SERVE_LATENCY_TARGET = 2e-3
_TRAIN_STEP_TARGET = 5e-3


class ChaosInvariantViolation(AssertionError):
    """A robustness invariant did not survive the chaos run."""


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one observed train→publish→serve run produces."""

    snapshot: RegistrySnapshot
    trace: dict  # unified chrome trace (traceEvents + metadata)
    report: str  # human run_report text
    train_makespan: float
    publish_wire_nbytes: int
    serve_p99_latency: float
    #: paths written when ``out_dir`` was given, keyed by artifact name
    paths: dict[str, Path]
    #: tier name -> CriticalPathResult over that tier's timeline
    critical_paths: dict | None = None
    #: the run's SloHub (burn-rate monitors, already fed)
    slo: object | None = None


@dataclass(frozen=True)
class ChaosResult:
    """Everything one chaos run produces, invariants already checked."""

    snapshot: RegistrySnapshot
    trace: dict  # unified chrome trace incl. FAULT annotation spans
    report: str  # human run_report text
    healthy_train_makespan: float
    faulty_train_makespan: float
    params_bit_identical: bool
    checkpoints_taken: int
    restores: int
    publish_rounds: int
    failed_publish_rounds: int
    publish_attempts_total: int
    staleness_after_last_success: float
    last_success_staleness_bound: float
    compound_bound: float  # publication bound + shard-storage bound
    stale_rows: int
    degraded_rows: int
    impaired_requests: int
    fresh_requests: int
    n_requests: int
    #: paths written when ``out_dir`` was given, keyed by artifact name
    paths: dict[str, Path]


@dataclass(frozen=True)
class _Day:
    """What one run of :func:`_run_day` leaves behind."""

    trainer: object
    tier: object
    publications: list  # one PublicationReport per round
    staleness: list[float]  # publisher staleness right after each round
    serving: object  # ServingReport
    train_makespan: float
    checkpoints_taken: int
    restores: int
    snapshot: RegistrySnapshot
    trace: dict
    report: str
    critical_paths: dict
    slo: object


def _build_world(*, n_tables: int, cardinality: int, seed: int):
    """One fresh, fully seeded workload: ``(dataset, config, trainer)``."""
    from repro.adaptive import AdaptiveController, OfflineAnalyzer
    from repro.data import SyntheticClickDataset, make_uniform_spec
    from repro.dist import ClusterSimulator
    from repro.model import DLRM, DLRMConfig
    from repro.train import CompressionPipeline, HybridParallelTrainer

    spec = make_uniform_spec(
        "day-in-the-life", n_tables=n_tables, cardinality=cardinality, zipf_exponent=1.2
    )
    dataset = SyntheticClickDataset(spec, seed=seed, teacher_scale=3.0)
    config = DLRMConfig.from_dataset(spec, embedding_dim=8, seed=seed + 1)
    model = DLRM(config)
    batch = dataset.batch(128, batch_index=10_000_000)
    samples = {j: model.lookup(j, batch.sparse[:, j]) for j in range(n_tables)}
    plan = OfflineAnalyzer().analyze(samples)
    trainer = HybridParallelTrainer(
        model,
        dataset,
        ClusterSimulator(2),
        pipeline=CompressionPipeline(AdaptiveController(plan)),
        lr=0.2,
        overlap=True,  # chunked overlapped exchanges -> chunk events + stall/hidden metrics
        pipeline_chunks=4,
    )
    return dataset, config, trainer


def _run_day(
    *,
    n_plain: int,
    rounds: int,
    n_requests: int,
    n_tables: int,
    cardinality: int,
    qps: float,
    seed: int,
    title: str,
    plan=None,
    checkpoint_every: int = 2,
    serve_latency_target: float = _SERVE_LATENCY_TARGET,
    train_step_target: float = _TRAIN_STEP_TARGET,
) -> _Day:
    """``n_plain`` train steps, ``rounds`` of (train step, publish), then
    serve ``n_requests``; with ``plan``, every tier runs under its faults.

    Checkpoints are taken (every ``checkpoint_every`` iterations) only when
    the plan schedules a rank failure, since only a restore needs them.
    The observability runtime is enabled onto a fresh private registry for
    the duration (prior enable/disable state is restored).
    """
    # Heavy imports stay local: repro.obs must be importable without
    # pulling the model/train/serve stack (the hot paths import obs, not
    # the other way around).
    from repro.dist.timeline import Timeline
    from repro.faults.checkpoint import TrainerCheckpoint
    from repro.faults.injector import FaultInjector
    from repro.faults.retry import RetryPolicy
    from repro.obs.critpath import extract_critical_path, highlight_trace_events
    from repro.obs.exporters import run_report
    from repro.obs.slo import SloHub, attach_hub, default_monitors
    from repro.obs.trace import unified_chrome_trace
    from repro.serve import build_serving_tier
    from repro.serve.loadgen import RequestLoadGenerator
    from repro.serve.simulator import ServingSimulator

    with capture():
        registry = enable(MetricsRegistry())
        dataset, config, trainer = _build_world(
            n_tables=n_tables, cardinality=cardinality, seed=seed
        )
        injector = None if plan is None else FaultInjector(plan, seed=seed + 3)
        trainer.simulator.fault_injector = injector

        # --- SLOs: the staleness bound is exactly what the adaptive plan
        # promises (worst per-table effective error bound at the last
        # publish iteration); serve latency and step time get budgets.
        controller = trainer.pipeline.controller
        last_iteration = n_plain + rounds - 1
        slo_hub = attach_hub(
            SloHub(
                default_monitors(
                    serve_p99_target=serve_latency_target,
                    publish_staleness_bound=max(
                        controller.error_bound(t, last_iteration)
                        for t in controller.table_ids()
                    ),
                    train_step_target=train_step_target,
                )
            )
        )

        # --- train, restoring the last checkpoint after a rank failure
        checkpointing = plan is not None and bool(plan.rank_failures)
        snapshots: list[TrainerCheckpoint] = []
        handled_failures: set[int] = set()
        restores = 0
        iteration = 0
        while iteration < n_plain:
            failure = plan.rank_failure_at(iteration) if plan is not None else None
            if failure is not None and iteration not in handled_failures:
                handled_failures.add(iteration)
                if not snapshots:
                    raise ChaosInvariantViolation(
                        f"rank {failure.rank} failed before the first checkpoint"
                    )
                iteration = snapshots[-1].restore(trainer)
                restores += 1
                continue
            # a restore lands back on the last checkpoint's iteration:
            # that state is already captured, so do not pay for it twice
            if (
                checkpointing
                and iteration % checkpoint_every == 0
                and not (snapshots and snapshots[-1].iteration == iteration)
            ):
                snapshots.append(TrainerCheckpoint.capture(trainer, iteration))
            trainer.train_step(_GLOBAL_BATCH, iteration=iteration)
            iteration += 1

        # --- publish: interleave the remaining steps with delta rounds to a
        # 2-shard tier.  Retry windows scale with the request trace span so
        # the full retry budget (~3 timeouts + backoffs ~= span/4) fits well
        # inside a shard crash window at any problem size.
        span = n_requests / qps
        retry_policy = RetryPolicy(
            max_attempts=3,
            timeout_seconds=span / 12,
            base_backoff_seconds=span / 100,
            seed=seed,
        )
        tier = build_serving_tier(
            trainer,
            n_shard_ranks=2,
            n_replicas=2,
            cache_rows=64,
            retry_policy=retry_policy,
            checksum=True,
            fault_injector=injector,
            keep_stale=True,
        )
        publications = []
        staleness = []
        for round_index in range(rounds):
            trainer.train_step(_GLOBAL_BATCH, iteration=n_plain + round_index)
            publications.append(tier.publisher.publish(iteration=n_plain + round_index))
            staleness.append(tier.publisher.staleness())
        train_makespan = trainer.simulator.makespan()

        # --- serve: a Zipf-skewed open-loop trace over the fresh tables,
        # with stale fallback, hedging and per-shard circuit breakers
        serve_trace = Timeline()
        loadgen = RequestLoadGenerator(dataset, qps=qps, seed=seed + 2)
        serving = ServingSimulator(
            tier.replicas,
            config,
            fault_injector=injector,
            retry_policy=retry_policy,
            hedge_delay=span / 20,
            breaker_reset_seconds=span / 3,
        ).run(
            loadgen.generate(n_requests),
            replica_available_at=publications[-1].downtime_seconds,
            trace=serve_trace,
        )
        if injector is not None:
            # FAULT spans onto the training timeline's OBS lane
            injector.annotate(trainer.simulator.timeline)

        snapshot = registry.snapshot()
        timelines = {
            "train": trainer.simulator.timeline,
            "publish": tier.publisher.simulator.timeline,
            "serve": serve_trace,
        }
        # Lay the tiers out in wall-clock-ish order: publication begins
        # when training pauses; serving resumes behind the publication.
        trace = unified_chrome_trace(
            timelines, offsets={"publish": train_makespan, "serve": train_makespan}
        )
        # --- critical path per tier, rendered as an extra highlight lane
        # on each tier's process in the unified trace
        critical_paths = {
            name: extract_critical_path(timeline)
            for name, timeline in timelines.items()
            if len(timeline.events)
        }
        tier_meta = trace["metadata"]["tiers"]
        for name, result in critical_paths.items():
            trace["traceEvents"].extend(
                highlight_trace_events(
                    result,
                    pid=tier_meta[name]["pid"],
                    offset_seconds=tier_meta[name]["offset_seconds"],
                )
            )
        report = run_report(
            snapshot,
            timelines=timelines,
            critical_paths=critical_paths,
            slo=slo_hub,
            title=title,
        )

    return _Day(
        trainer=trainer,
        tier=tier,
        publications=publications,
        staleness=staleness,
        serving=serving,
        train_makespan=train_makespan,
        checkpoints_taken=len(snapshots),
        restores=restores,
        snapshot=snapshot,
        trace=trace,
        report=report,
        critical_paths=critical_paths,
        slo=slo_hub,
    )


def _write_artifacts(out_dir: str | Path | None, day: _Day) -> dict[str, Path]:
    """Write the run's artifact set into ``out_dir``; ``{}`` without one."""
    if out_dir is None:
        return {}
    from repro.obs.critpath import report_json_block
    from repro.obs.exporters import snapshot_to_json, to_prometheus
    from repro.obs.schema import validate_snapshot_json

    critical_path = report_json_block(day.critical_paths)
    metrics_json = snapshot_to_json(
        day.snapshot,
        indent=2,
        reports={"critical_path": critical_path, "slo": day.slo.to_json_dict()},
    )
    validate_snapshot_json(metrics_json)  # never ship an invalid artifact
    contents = {
        "metrics.json": metrics_json,
        "metrics.prom": to_prometheus(day.snapshot),
        "obs_trace.json": json.dumps(day.trace),
        "run_report.txt": day.report + "\n",
        "critical_path.json": json.dumps(critical_path, indent=2) + "\n",
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in contents.items():
        paths[name] = out / name
        paths[name].write_text(text)
    return paths


def run_day_in_the_life(
    *,
    n_iterations: int = 3,
    n_requests: int = 200,
    n_tables: int = 6,
    cardinality: int = 400,
    qps: float = 2000.0,
    serve_latency_target: float = _SERVE_LATENCY_TARGET,
    train_step_target: float = _TRAIN_STEP_TARGET,
    out_dir: str | Path | None = None,
    seed: int = 7,
) -> ScenarioResult:
    """Run the healthy scenario and collect its artifacts.

    ``n_iterations`` training steps, the last one followed by a delta
    publication, then the serving trace.  Calling this never perturbs the
    caller's metrics.
    """
    if n_iterations < 1:
        raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    day = _run_day(
        n_plain=n_iterations - 1,
        rounds=1,
        n_requests=n_requests,
        n_tables=n_tables,
        cardinality=cardinality,
        qps=qps,
        seed=seed,
        title="Day in the life",
        serve_latency_target=serve_latency_target,
        train_step_target=train_step_target,
    )
    return ScenarioResult(
        snapshot=day.snapshot,
        trace=day.trace,
        report=day.report,
        train_makespan=day.train_makespan,
        publish_wire_nbytes=day.publications[-1].wire_nbytes,
        serve_p99_latency=day.serving.p99_latency,
        paths=_write_artifacts(out_dir, day),
        critical_paths=day.critical_paths,
        slo=day.slo,
    )


def _final_param_bytes(model) -> bytes:
    return b"".join(p.data.tobytes() for p in model.parameters())


def _chaos_plan(*, healthy_makespan: float, span: float, n_iterations: int):
    """The scenario's fault plan.  Training windows scale with the healthy
    twin's makespan and the shard crash with the request trace span, so
    the chaos lands on live work at any problem size."""
    from repro.faults.plan import (
        CorruptionFault,
        FaultPlan,
        LinkFault,
        RankFailureFault,
        ShardCrashFault,
        StragglerFault,
    )

    return FaultPlan(
        links=(
            # one degraded link mid-training, one short fabric outage
            LinkFault(
                start=0.15 * healthy_makespan,
                duration=0.2 * healthy_makespan,
                src=0,
                dst=1,
                bandwidth_factor=0.5,
            ),
            LinkFault(
                start=0.55 * healthy_makespan,
                duration=0.05 * healthy_makespan,
                outage=True,
            ),
        ),
        stragglers=(
            StragglerFault(
                rank=1,
                start=0.3 * healthy_makespan,
                duration=0.25 * healthy_makespan,
                slowdown=2.5,
            ),
        ),
        shard_crashes=(
            # shard 0 is down for over half the serving trace — long enough
            # to outlast the retry budget, so early requests exhaust their
            # attempts, trip the breaker, and fall back to degraded answers
            ShardCrashFault(shard_rank=0, start=0.0, duration=0.6 * span),
        ),
        corruptions=(
            # round 0: every delivery attempt corrupted -> round abandoned
            CorruptionFault(round_index=0, table_index=0, attempt=0),
            CorruptionFault(round_index=0, table_index=1, attempt=1),
            CorruptionFault(round_index=0, table_index=0, attempt=2),
            # round 1: first attempt corrupted -> retry recovers it
            CorruptionFault(round_index=1, table_index=1, attempt=0),
        ),
        rank_failures=(
            RankFailureFault(rank=1, at_iteration=max(1, n_iterations // 2 + 1)),
        ),
    )


def run_day_in_the_life_under_faults(
    *,
    n_iterations: int = 4,
    n_requests: int = 200,
    n_tables: int = 6,
    cardinality: int = 400,
    qps: float = 2000.0,
    checkpoint_every: int = 2,
    out_dir: str | Path | None = None,
    seed: int = 7,
) -> ChaosResult:
    """Run the chaos scenario, verify its invariants, return the evidence.

    ``n_iterations`` pure training steps are followed by two
    publish-interleaved steps (one publication round abandoned to
    corruption, one recovered by retry), then the serving trace runs
    against a crashed-then-restarted shard.  The same workload runs
    healthy first; both runs share every seed.  The invariants:

    * **bit-identical resume** — the final parameters equal the healthy
      twin's byte for byte, despite the mid-run crash/restore;
    * **no staleness accumulation** — after every *successful* round the
      publisher's staleness is within that round's bound, no matter how
      many failed rounds preceded it (error-feedback replay);
    * **makespan ordering** — the training makespan is never below the
      healthy twin's (faults only delay or stretch work);
    * **no silent degradation** — every served row is either live or
      explicitly counted stale/degraded.
    """
    if n_iterations < 2:
        raise ValueError(f"n_iterations must be >= 2, got {n_iterations}")
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")

    schedule = dict(
        n_plain=n_iterations,
        rounds=2,
        n_requests=n_requests,
        n_tables=n_tables,
        cardinality=cardinality,
        qps=qps,
        seed=seed,
        checkpoint_every=checkpoint_every,
    )
    twin = _run_day(**schedule, title="Day in the life (healthy twin)")
    plan = _chaos_plan(
        healthy_makespan=twin.train_makespan,
        span=n_requests / qps,
        n_iterations=n_iterations,
    )
    day = _run_day(**schedule, plan=plan, title="Day in the life under faults")

    # ------------------------------------------------------ the invariants
    staleness_after_last_success = 0.0
    last_success_bound = 0.0
    for publication, staleness in zip(day.publications, day.staleness):
        if not publication.succeeded:
            continue
        staleness_after_last_success = staleness
        last_success_bound = publication.staleness_bound
        if publication.compressed and staleness > last_success_bound * (1 + 1e-6) + 1e-12:
            raise ChaosInvariantViolation(
                "staleness accumulated across failed rounds: "
                f"{staleness} > bound {last_success_bound}"
            )
    if day.publications[0].succeeded:
        raise ChaosInvariantViolation(
            "round 0 was fully corrupted and should have been abandoned"
        )
    if not day.publications[-1].succeeded:
        raise ChaosInvariantViolation("round 1 should have recovered by retry")
    params_identical = _final_param_bytes(day.trainer.model) == _final_param_bytes(
        twin.trainer.model
    )
    if not params_identical:
        raise ChaosInvariantViolation(
            "post-restore training diverged: final parameters are not "
            "byte-identical to the uninterrupted twin"
        )
    if day.train_makespan < twin.train_makespan:
        raise ChaosInvariantViolation(
            f"chaos training makespan {day.train_makespan} fell below the healthy "
            f"twin's {twin.train_makespan} — injected faults can only delay work"
        )
    serving = day.serving
    accounted = serving.fresh_requests + serving.impaired_requests
    if accounted != serving.n_requests:
        raise ChaosInvariantViolation(
            f"response accounting leak: {serving.n_requests} requests, "
            f"{accounted} accounted (fresh + impaired)"
        )
    if serving.stale_rows + serving.degraded_rows == 0:
        raise ChaosInvariantViolation(
            "the shard crash window produced no counted stale/degraded rows — "
            "failures were served silently"
        )

    # Compound bound: live rows are within publication bound + shard
    # storage bound of the trainer's tables; everything else is counted.
    tier = day.tier
    shard_bound = max(
        (
            tier.servers[rank].error_bound(table_id)
            for rank in range(len(tier.servers))
            for table_id in tier.sharding.tables_of(rank)
        ),
        default=0.0,
    )

    return ChaosResult(
        snapshot=day.snapshot,
        trace=day.trace,
        report=day.report,
        healthy_train_makespan=twin.train_makespan,
        faulty_train_makespan=day.train_makespan,
        params_bit_identical=params_identical,
        checkpoints_taken=day.checkpoints_taken,
        restores=day.restores,
        publish_rounds=len(day.publications),
        failed_publish_rounds=sum(1 for r in day.publications if not r.succeeded),
        publish_attempts_total=sum(r.attempts for r in day.publications),
        staleness_after_last_success=staleness_after_last_success,
        last_success_staleness_bound=last_success_bound,
        compound_bound=last_success_bound + shard_bound,
        stale_rows=serving.stale_rows,
        degraded_rows=serving.degraded_rows,
        impaired_requests=serving.impaired_requests,
        fresh_requests=serving.fresh_requests,
        n_requests=serving.n_requests,
        paths=_write_artifacts(out_dir, day),
    )
