"""The benchmark's three workloads, built from a seed.

Each workload is a *world* (dataset, model, trainer and, for
``day_in_the_life``, a serving tier) and a sequence of *rounds*.  A round
is the unit the host clock times:

* ``train_adaptive`` / ``train_raw`` — one hybrid-parallel ``train_step``
  (compressed forward exchange under the dual-level adaptive controller,
  or the uncompressed baseline);
* ``day_in_the_life`` — one small ``train_step``, one
  ``DeltaPublisher.publish`` and one ``ServingSimulator.run`` over the next
  window of an open-loop Poisson trace.

Round ``i`` does the same work for the same seed in every run, so every
simulated-clock, byte and count figure of a round is a pure function of
``(workload, shape, seed, i)``; only host times vary.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, fields

import numpy as np

from repro.adaptive import AdaptiveController, OfflineAnalyzer, StepwiseDecay
from repro.data import CRITEO_KAGGLE, SyntheticClickDataset, scaled_spec
from repro.dist import ClusterSimulator
from repro.model import DLRM, DLRMConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import capture
from repro.obs.slo import SloHub, attach_hub, default_monitors
from repro.serve import RequestLoadGenerator, ServingSimulator, build_serving_tier
from repro.train import CompressionPipeline, HybridParallelTrainer

__all__ = ["Shape", "SHAPES", "WORKLOADS", "RoundRecord", "World"]

WORKLOADS = ("train_adaptive", "train_raw", "day_in_the_life")


@dataclass(frozen=True)
class Shape:
    """Sizes and round counts of one workload."""

    n_ranks: int
    max_cardinality: int
    embedding_dim: int
    batch: int
    #: StepwiseDecay initial phase (iterations); ends inside ``min_rounds``
    decay_phase: int
    #: rounds run before the timed window (timing excluded)
    warmup_rounds: int
    #: rounds every run completes; simulated, byte and loss metrics are
    #: taken over exactly these rounds, so they repeat for a seed
    min_rounds: int
    #: mean BCE over the last ``loss_window`` of the ``min_rounds``
    loss_window: int
    #: rounds re-run on a second world of the same seed and compared exactly
    check_rounds: int
    # day_in_the_life only
    pretrain_steps: int = 0
    shard_ranks: int = 0
    replicas: int = 0
    cache_rows: int = 0
    rows_per_block: int = 0
    requests_per_round: int = 0
    qps: float = 0.0
    #: rows sampled through ``gather`` for the after-run table check
    gather_checks: int = 0


_TRAIN = Shape(
    n_ranks=8,
    max_cardinality=20000,
    embedding_dim=32,
    batch=2048,
    decay_phase=6,
    warmup_rounds=2,
    min_rounds=12,
    loss_window=4,
    check_rounds=2,
)

SHAPES: dict[str, dict[str, Shape]] = {
    "full": {
        "train_adaptive": _TRAIN,
        "train_raw": _TRAIN,
        "day_in_the_life": Shape(
            n_ranks=2,
            max_cardinality=4000,
            embedding_dim=32,
            batch=256,
            decay_phase=6,
            warmup_rounds=1,
            min_rounds=8,
            loss_window=4,
            check_rounds=2,
            pretrain_steps=2,
            shard_ranks=2,
            replicas=2,
            cache_rows=4096,
            rows_per_block=64,
            requests_per_round=250,
            qps=2000.0,
            gather_checks=64,
        ),
    },
}
# The self-test shape: the same code paths at a size that runs in seconds.
SHAPES["tiny"] = {
    name: Shape(
        **{
            **shape.__dict__,
            "n_ranks": 2,
            "max_cardinality": 300,
            "embedding_dim": 8,
            "batch": 64,
            "decay_phase": 2,
            "warmup_rounds": 1,
            "min_rounds": 4,
            "loss_window": 2,
            "check_rounds": 2,
            "requests_per_round": 40 if shape.requests_per_round else 0,
            "cache_rows": 64 if shape.cache_rows else 0,
            "rows_per_block": 16 if shape.rows_per_block else 0,
            "gather_checks": 8 if shape.gather_checks else 0,
        }
    )
    for name, shape in SHAPES["full"].items()
}


@dataclass(frozen=True)
class RoundRecord:
    """What one round did, on both clocks."""

    index: int
    host_s: float  # whole round, host clock
    train_s: float
    publish_s: float
    serve_s: float
    samples: int
    loss: float
    sim_step_s: float  # simulated makespan added by the train step
    wire_bytes: int  # forward-exchange wire bytes of the train step
    publish_wire_bytes: int = 0
    publish_ok: bool = True  # delivered and max_abs_error <= staleness bound
    requests: int = 0
    impaired: int = 0  # requests answered with stale or degraded rows
    hits: int = 0
    misses: int = 0
    blocks_pulled: int = 0
    pulled_bytes: int = 0

    def fingerprint(self) -> tuple:
        """Everything but host times: equal across runs of one seed."""
        return tuple(
            getattr(self, f.name) for f in fields(self) if f.name not in _HOST_TIMES
        )


_HOST_TIMES = ("host_s", "train_s", "publish_s", "serve_s")


class World:
    """One workload's live state; :meth:`run_round` advances it by one round."""

    def __init__(self, workload: str, shape: Shape, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.shape = shape
        self.seed = seed
        self.serving = workload == "day_in_the_life"
        #: the day's private metrics registry (obs runtime on); None = obs off
        self.registry = MetricsRegistry() if self.serving else None
        self._hub: SloHub | None = None
        with self.obs_scope():
            self._build()

    @contextlib.contextmanager
    def obs_scope(self):
        """Run with this world's observability setting, restoring the
        process-wide state afterwards."""
        if self.registry is None:
            yield  # observability stays off, the process default
            return
        with capture(self.registry):
            attach_hub(self._hub)
            yield

    def _build(self) -> None:
        shape, seed = self.shape, self.seed
        spec = scaled_spec(CRITEO_KAGGLE, shape.max_cardinality)
        self.dataset = SyntheticClickDataset(spec, seed=seed, teacher_scale=3.0)
        self.config = DLRMConfig.from_dataset(
            spec, embedding_dim=shape.embedding_dim, seed=seed + 1
        )
        self.model = DLRM(self.config)
        pipeline = None
        if self.workload != "train_raw":
            probe = self.dataset.batch(256, batch_index=10_000_000)
            samples = {
                j: self.model.lookup(j, probe.sparse[:, j])
                for j in range(self.config.n_tables)
            }
            plan = OfflineAnalyzer().analyze(samples)
            schedule = StepwiseDecay(2.0, phase_iterations=shape.decay_phase, n_steps=4)
            pipeline = CompressionPipeline(AdaptiveController(plan, schedule))
        self.trainer = HybridParallelTrainer(
            self.model,
            self.dataset,
            ClusterSimulator(shape.n_ranks),
            pipeline=pipeline,
            lr=0.2,
            overlap=True,
        )
        self.steps_done = 0
        self.rounds_done = 0
        #: latency histogram of every request of the fixed prefix (day only)
        self.prefix_latencies = None
        if not self.serving:
            return
        # A trained tier: the shards and the publisher's baseline start
        # from the model after a few steps, not from initialization.
        controller = pipeline.controller
        self._hub = attach_hub(
            SloHub(
                default_monitors(
                    serve_p99_target=2e-3,
                    publish_staleness_bound=max(
                        controller.error_bound(t, 0) for t in controller.table_ids()
                    ),
                    train_step_target=5e-3,
                )
            )
        )
        for _ in range(shape.pretrain_steps):
            self._train_step()
        self.tier = build_serving_tier(
            self.trainer,
            n_shard_ranks=shape.shard_ranks,
            n_replicas=shape.replicas,
            cache_rows=shape.cache_rows,
            rows_per_block=shape.rows_per_block,
            iteration=self.steps_done,
        )
        self.loadgen = RequestLoadGenerator(self.dataset, qps=shape.qps, seed=seed + 2)
        self._last_arrival = 0.0
        self.simulator = ServingSimulator(self.tier.replicas, self.config)

    def _train_step(self) -> tuple[float, float, float, int]:
        """One step: (loss, host seconds, simulated seconds, wire bytes)."""
        trainer = self.trainer
        sim_before = trainer.simulator.makespan()
        wire_before = trainer.forward_wire_bytes
        start = time.perf_counter()
        loss = float(trainer.train_step(self.shape.batch, iteration=self.steps_done))
        host = time.perf_counter() - start
        self.steps_done += 1
        return (
            loss,
            host,
            trainer.simulator.makespan() - sim_before,
            trainer.forward_wire_bytes - wire_before,
        )

    def run_round(self) -> RoundRecord:
        """Run the next round (round ``i`` is the same work in every run)."""
        with self.obs_scope():
            record = self._run_round(self.rounds_done)
        self.rounds_done += 1
        if self.serving and self.rounds_done == self.shape.min_rounds:
            self.prefix_latencies = self.registry.histogram("serve_latency_seconds").data()
        return record

    def _run_round(self, index: int) -> RoundRecord:
        start = time.perf_counter()
        loss, train_s, sim_s, wire = self._train_step()
        if not self.serving:
            return RoundRecord(
                index, time.perf_counter() - start, train_s, 0.0, 0.0,
                self.shape.batch, loss, sim_s, wire,
            )
        # Publication happens when the previous window's last request has
        # arrived; replicas absorbing it are busy until its downtime ends,
        # so publication cost shows in the next window's latency.
        published_at = self._last_arrival
        t = time.perf_counter()
        pub = self.tier.publisher.publish(iteration=self.steps_done - 1)
        publish_s = time.perf_counter() - t
        requests = self.loadgen.generate(self.shape.requests_per_round)
        self._last_arrival = requests[-1].arrival_seconds
        t = time.perf_counter()
        report = self.simulator.run(
            requests, replica_available_at=published_at + pub.downtime_seconds
        )
        serve_s = time.perf_counter() - t
        return RoundRecord(
            index,
            time.perf_counter() - start,
            train_s,
            publish_s,
            serve_s,
            self.shape.batch,
            loss,
            sim_s,
            wire,
            publish_wire_bytes=pub.wire_nbytes,
            publish_ok=pub.succeeded and pub.max_abs_error <= pub.staleness_bound,
            requests=report.n_requests,
            impaired=report.impaired_requests,
            hits=report.hits,
            misses=report.misses,
            blocks_pulled=report.blocks_pulled,
            pulled_bytes=report.pulled_compressed_nbytes,
        )

    # ------------------------------------------------------------ checks

    def gather_mismatches(self) -> int:
        """Rows served by ``gather`` that differ from the trainer's tables
        by more than the publication's staleness bound plus the shard's
        storage bound.  Call after a round (the last step is published)."""
        with self.obs_scope():
            return self._gather_mismatches()

    def _gather_mismatches(self) -> int:
        shape = self.shape
        rng = np.random.default_rng([self.seed, 99])
        last = self.tier.publisher.reports[-1]
        bound = {d.table_id: d.error_bound for d in last.tables}
        replica = self.tier.replicas[0]
        cards = self.config.table_cardinalities
        bad = 0
        for _ in range(shape.gather_checks):
            ids = np.array([rng.integers(c) for c in cards], dtype=np.int64)
            rows = replica.gather(ids).rows
            for t, row_id in enumerate(ids):
                owner = self.tier.sharding.owner_of(t)
                limit = bound[t] + self.tier.servers[owner].error_bound(t)
                truth = self.model.tables[t].weight.data[row_id]
                if np.max(np.abs(rows[t] - truth)) > limit * (1 + 1e-6):
                    bad += 1
        return bad

    def raw_baseline_sim_step_s(self) -> float:
        """Simulated seconds of one uncompressed step of this world's shape
        (the ``train_raw`` step; its simulated time depends on shapes only)."""
        raw = HybridParallelTrainer(
            self.model,
            self.dataset,
            ClusterSimulator(self.shape.n_ranks),
            pipeline=None,
            lr=0.2,
            overlap=True,
        )
        raw.train_step(self.shape.batch, iteration=self.steps_done)
        return raw.simulator.makespan()
