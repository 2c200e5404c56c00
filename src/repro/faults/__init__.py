"""Fault injection, retry/backoff, and graceful degradation.

Production DLRM clusters lose links, ranks, and shard servers; this
package makes the reproduction survive the same chaos — deterministically,
on the simulated clock — across the whole train → publish → serve path:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: seeded, clock-scheduled
  fault schedules (link degradation/outage, stragglers, shard crashes,
  payload corruption, rank failures).
* :mod:`repro.faults.injector` — :class:`FaultInjector`: bends simulator
  charges, damages payloads, answers per-pull health queries, annotates
  timelines with FAULT spans.
* :mod:`repro.faults.retry` — :class:`RetryPolicy`: timeout + capped
  exponential backoff + deterministic jitter, shared by the delta
  publisher and the serving tier's shard pulls.
* :mod:`repro.faults.breaker` — :class:`CircuitBreaker`: per-shard
  fail-fast so a dead node degrades responses instead of queueing them.
* :mod:`repro.faults.checkpoint` — :class:`TrainerCheckpoint`:
  parameter/optimizer/pipeline snapshots with bit-identical resume.

The day-in-the-life chaos scenario lives with the healthy one in
:mod:`repro.obs.scenario` — it is the same run plus a :class:`FaultPlan`
— and is re-exported here: :func:`run_day_in_the_life_under_faults`,
:class:`ChaosResult`, :class:`ChaosInvariantViolation`.
"""

from repro.faults.breaker import CircuitBreaker
from repro.faults.checkpoint import TrainerCheckpoint
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CorruptionFault,
    FaultPlan,
    LinkFault,
    LinkState,
    RankFailureFault,
    ShardCrashFault,
    StragglerFault,
)
from repro.faults.retry import RetryOutcome, RetryPolicy
from repro.obs.scenario import (
    ChaosInvariantViolation,
    ChaosResult,
    run_day_in_the_life_under_faults,
)

__all__ = [
    "ChaosInvariantViolation",
    "ChaosResult",
    "run_day_in_the_life_under_faults",
    "FaultPlan",
    "FaultInjector",
    "LinkFault",
    "LinkState",
    "StragglerFault",
    "ShardCrashFault",
    "CorruptionFault",
    "RankFailureFault",
    "RetryPolicy",
    "RetryOutcome",
    "CircuitBreaker",
    "TrainerCheckpoint",
]
