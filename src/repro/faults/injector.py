"""Apply a :class:`~repro.faults.plan.FaultPlan` to the simulation.

:class:`FaultInjector` is the active half of the fault subsystem: the
plan says *what* goes wrong and *when*; the injector bends the simulated
execution accordingly and leaves an audit trail.

Integration points:

* :class:`~repro.dist.simulator.ClusterSimulator` consults
  :meth:`adjust_stream_event` / :meth:`adjust_collective` when an injector
  is attached — compute-stream events stretch under straggler slowdowns,
  comm-stream events and collectives wait out fabric outages and stretch
  under degraded links.
* The serving tier asks :meth:`shard_down` / :meth:`link_state` per pull,
  so a crashed shard or severed link turns into timeouts there.
* The publisher asks :meth:`corrupt_payload` per (round, table, attempt)
  to damage bytes in transit — anywhere in the frame its CRC32 covers.
* :meth:`annotate` stamps every fault window onto a timeline's OBS lane
  (:data:`~repro.dist.timeline.EventCategory.FAULT` spans), so injected
  chaos is visible in the same chrome trace as the work it disturbed.

All bookkeeping is observable: injections land on
``faults_injected_total`` / ``fault_seconds_total`` counters when the obs
registry is enabled.
"""

from __future__ import annotations

from repro.dist.timeline import (
    COMM_STREAM,
    COMPUTE_STREAM,
    OBS_STREAM,
    EventCategory,
    Timeline,
)
from repro.faults.plan import FaultPlan, LinkState
from repro.obs.runtime import OBS
from repro.utils.rng import spawn_rng

__all__ = ["FaultInjector"]


class FaultInjector:
    """Deterministically realizes a fault plan against the simulation."""

    def __init__(self, plan: FaultPlan, *, seed: int = 0) -> None:
        self.plan = plan
        self.seed = int(seed)
        self.injected: dict[str, int] = {}  # fault kind -> times it actually bit

    # ------------------------------------------------------------ accounting

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if OBS.enabled:
            OBS.registry.counter(
                "faults_injected_total", "injected faults that affected execution"
            ).inc(1, kind=kind)

    # ------------------------------------------------------- simulator hooks

    def adjust_stream_event(
        self, rank: int, stream: str, start: float, seconds: float
    ) -> tuple[float, float]:
        """Bend one per-rank stream event: returns (start, seconds).

        Compute streams stretch under active straggler slowdowns; comm
        streams first wait out fabric-wide outages, then stretch under the
        worst active link degradation.  Unknown streams pass through.
        """
        if seconds <= 0:
            return start, seconds
        if stream == COMPUTE_STREAM:
            factor = self.plan.compute_slowdown(rank, start)
            if factor > 1.0:
                self._count("straggler")
                seconds = seconds * factor
        elif stream == COMM_STREAM:
            delayed = self.plan.wire_available_at(start)
            if delayed > start:
                self._count("outage")
                start = delayed
            factor = self.plan.wire_slowdown(start)
            if factor > 1.0:
                self._count("degraded_link")
                seconds = seconds * factor
        return start, seconds

    def adjust_collective(self, start: float, seconds: float) -> tuple[float, float]:
        """Bend one cluster-wide collective: returns (start, seconds)."""
        if seconds <= 0:
            return start, seconds
        delayed = self.plan.wire_available_at(start)
        if delayed > start:
            self._count("outage")
            start = delayed
        factor = self.plan.wire_slowdown(start)
        if factor > 1.0:
            self._count("degraded_link")
            seconds = seconds * factor
        return start, seconds

    # ---------------------------------------------------------- serve hooks

    def shard_down(self, shard_rank: int, t: float) -> bool:
        down = self.plan.shard_down(shard_rank, t)
        if down:
            self._count("shard_crash")
        return down

    def link_state(self, src: int, dst: int, t: float) -> LinkState:
        return self.plan.link_state(src, dst, t)

    # ------------------------------------------------------ publisher hooks

    def corrupts(self, round_index: int, table_index: int, attempt: int) -> bool:
        return self.plan.corrupts(round_index, table_index, attempt)

    def corrupt_payload(self, payload: bytes, *key: object) -> bytes:
        """Deterministically damage a payload in transit.

        Flips a handful of bytes anywhere in the payload.  A codec frame's
        CRC32 covers every header byte and the body, and a flip inside the
        stored CRC is a mismatch too, so the receiver's
        :func:`~repro.compression.base.parse_payload` detects the damage
        instead of decoding it.  The flip positions and masks derive from
        ``(seed, key)``.
        """
        body = bytearray(payload)
        if not body:
            raise ValueError("payload too short to corrupt: 0 bytes")
        rng = spawn_rng(self.seed, "corrupt", *key)
        n_flips = min(len(body), 1 + int(rng.integers(4)))
        positions = rng.choice(len(body), size=n_flips, replace=False)
        for pos in positions:
            # XOR with a nonzero mask so every flip really changes the byte
            body[int(pos)] ^= 1 + int(rng.integers(255))
        self._count("corruption")
        return bytes(body)

    # ------------------------------------------------------------ reporting

    def annotate(self, timeline: Timeline, *, rank: int = 0) -> int:
        """Stamp every planned fault window onto ``timeline``'s OBS lane.

        Returns the number of FAULT spans recorded.  Spans carry the fault
        kind and parameters in ``args`` so the chrome trace names them.
        """
        n = 0
        for fault in self.plan.links:
            kind = "link_outage" if fault.outage else "link_degraded"
            timeline.record(
                rank,
                EventCategory.FAULT,
                fault.start,
                fault.duration,
                stream=OBS_STREAM,
                args={
                    "kind": kind,
                    "src": fault.src,
                    "dst": fault.dst,
                    "bandwidth_factor": fault.bandwidth_factor,
                    "extra_latency": fault.extra_latency,
                },
            )
            n += 1
        for fault in self.plan.stragglers:
            timeline.record(
                fault.rank,
                EventCategory.FAULT,
                fault.start,
                fault.duration,
                stream=OBS_STREAM,
                args={"kind": "straggler", "slowdown": fault.slowdown},
            )
            n += 1
        for fault in self.plan.shard_crashes:
            timeline.record(
                rank,
                EventCategory.FAULT,
                fault.start,
                fault.duration,
                stream=OBS_STREAM,
                args={"kind": "shard_crash", "shard_rank": fault.shard_rank},
            )
            n += 1
        if OBS.enabled and n:
            hist = OBS.registry.histogram(
                "fault_window_seconds", "durations of injected fault windows"
            )
            for fault in (*self.plan.links, *self.plan.stragglers, *self.plan.shard_crashes):
                hist.observe(fault.duration)
        return n
