"""Deterministic fault schedules for the simulated cluster.

A :class:`FaultPlan` is an immutable, fully-enumerated schedule of
misbehavior on the simulated fabric and fleet — the chaos input of the
fault-injection subsystem.  Everything is expressed against the *simulated*
clock (seconds) or the training iteration counter, so a plan replays
bit-identically: the same plan over the same workload produces the same
timeline, the same retries, the same degraded responses.

Five fault families cover what production clusters actually do to the
paper's compression pipeline:

* :class:`LinkFault` — per-link bandwidth degradation, latency spikes, and
  hard outages on the :class:`~repro.dist.network.Topology` fabric.
* :class:`StragglerFault` — a rank's compute stream slows by a factor for
  a window (thermal throttling, a noisy neighbor).
* :class:`ShardCrashFault` — a serving shard node is down for a window and
  restarts at its end (pulls fail fast, then recover).
* :class:`CorruptionFault` — a publication payload is corrupted in transit
  on a given round/attempt (detected by the payload frame's CRC32).
* :class:`RankFailureFault` — a trainer rank dies *before* running a given
  iteration, forcing a checkpoint restore.

:meth:`FaultPlan.random` draws a schedule from a seeded RNG so chaos tests
can sweep many deterministic plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.utils.rng import spawn_rng

__all__ = [
    "LinkFault",
    "StragglerFault",
    "ShardCrashFault",
    "CorruptionFault",
    "RankFailureFault",
    "LinkState",
    "FaultPlan",
]


def _check_window(name: str, start: float, duration: float) -> None:
    if start < 0:
        raise ValueError(f"{name}: start must be >= 0, got {start!r}")
    if duration <= 0:
        raise ValueError(f"{name}: duration must be > 0, got {duration!r}")


@dataclass(frozen=True)
class LinkFault:
    """One link misbehaving for a window.

    ``src``/``dst`` name an ordered rank pair on the fabric; ``None``
    matches every rank (a fabric-wide event such as a ToR switch brownout).
    ``symmetric`` also matches the reversed pair — physical links carry
    both directions.  ``bandwidth_factor < 1`` degrades throughput,
    ``extra_latency`` adds a per-message spike, ``outage=True`` takes the
    link down entirely (messages cannot start until the window ends).
    """

    start: float
    duration: float
    src: int | None = None
    dst: int | None = None
    bandwidth_factor: float = 1.0
    extra_latency: float = 0.0
    outage: bool = False
    symmetric: bool = True

    def __post_init__(self) -> None:
        _check_window("LinkFault", self.start, self.duration)
        if not 0 < self.bandwidth_factor <= 1.0:
            raise ValueError(
                f"LinkFault: bandwidth_factor must be in (0, 1], got {self.bandwidth_factor!r}"
            )
        if self.extra_latency < 0:
            raise ValueError(
                f"LinkFault: extra_latency must be >= 0, got {self.extra_latency!r}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active(self, t: float) -> bool:
        return self.start <= t < self.end

    def matches(self, src: int, dst: int) -> bool:
        """Whether this fault applies to the ordered link ``src -> dst``."""
        def one_way(a: int | None, b: int | None) -> bool:
            return (a is None or a == src) and (b is None or b == dst)

        if one_way(self.src, self.dst):
            return True
        return self.symmetric and one_way(self.dst, self.src)


@dataclass(frozen=True)
class StragglerFault:
    """One rank's compute runs ``slowdown``x slower for a window."""

    rank: int
    start: float
    duration: float
    slowdown: float

    def __post_init__(self) -> None:
        _check_window("StragglerFault", self.start, self.duration)
        if self.rank < 0:
            raise ValueError(f"StragglerFault: rank must be >= 0, got {self.rank!r}")
        if self.slowdown < 1.0:
            raise ValueError(
                f"StragglerFault: slowdown must be >= 1, got {self.slowdown!r}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class ShardCrashFault:
    """A serving shard node is unreachable for a window, then restarts."""

    shard_rank: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        _check_window("ShardCrashFault", self.start, self.duration)
        if self.shard_rank < 0:
            raise ValueError(
                f"ShardCrashFault: shard_rank must be >= 0, got {self.shard_rank!r}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class CorruptionFault:
    """Corrupt one publication payload in transit.

    Keys on the publication ``round_index``, the delivery ``attempt``
    (0 = the first send, so a retry with the same plan succeeds), and the
    index of the table record within the round.
    """

    round_index: int
    table_index: int = 0
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.round_index < 0 or self.table_index < 0 or self.attempt < 0:
            raise ValueError(
                "CorruptionFault: round_index/table_index/attempt must be >= 0, got "
                f"{(self.round_index, self.table_index, self.attempt)!r}"
            )


@dataclass(frozen=True)
class RankFailureFault:
    """A trainer rank dies before running ``at_iteration``."""

    rank: int
    at_iteration: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"RankFailureFault: rank must be >= 0, got {self.rank!r}")
        if self.at_iteration < 0:
            raise ValueError(
                f"RankFailureFault: at_iteration must be >= 0, got {self.at_iteration!r}"
            )


@dataclass(frozen=True)
class LinkState:
    """Effective state of one ordered link at one instant."""

    up: bool = True
    bandwidth_factor: float = 1.0
    extra_latency: float = 0.0


_HEALTHY_LINK = LinkState()


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, deterministic schedule of injected faults.

    All query methods are pure functions of (fault list, arguments), so a
    plan can be shared between an injector, a report, and a test without
    any coordination.
    """

    links: tuple[LinkFault, ...] = ()
    stragglers: tuple[StragglerFault, ...] = ()
    shard_crashes: tuple[ShardCrashFault, ...] = ()
    corruptions: tuple[CorruptionFault, ...] = ()
    rank_failures: tuple[RankFailureFault, ...] = ()

    def __post_init__(self) -> None:
        for name in ("links", "stragglers", "shard_crashes", "corruptions", "rank_failures"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def __bool__(self) -> bool:
        return any(getattr(self, f.name) for f in fields(self))

    @property
    def n_faults(self) -> int:
        return sum(len(getattr(self, f.name)) for f in fields(self))

    # ------------------------------------------------------------- queries

    def link_state(self, src: int, dst: int, t: float) -> LinkState:
        """Effective state of the ordered link ``src -> dst`` at time ``t``
        (worst case over all active matching faults)."""
        up = True
        factor = 1.0
        latency = 0.0
        for fault in self.links:
            if fault.active(t) and fault.matches(src, dst):
                up = up and not fault.outage
                factor = min(factor, fault.bandwidth_factor)
                latency += fault.extra_latency
        if up and factor == 1.0 and latency == 0.0:
            return _HEALTHY_LINK
        return LinkState(up=up, bandwidth_factor=factor, extra_latency=latency)

    def wire_slowdown(self, t: float) -> float:
        """Fabric-wide wire slowdown at ``t`` — the worst active link
        degradation.  Collectives are bottleneck-link bound (every rank
        waits for the slowest pairwise transfer), so one degraded link
        stretches the whole exchange by ``1 / bandwidth_factor``."""
        worst = 1.0
        for fault in self.links:
            if fault.active(t) and not fault.outage:
                worst = max(worst, 1.0 / fault.bandwidth_factor)
        return worst

    def wire_available_at(self, t: float) -> float:
        """Earliest time >= ``t`` at which no fabric-wide outage is active
        (when a collective blocked at ``t`` can start)."""
        current = t
        while True:
            blocked = [
                f.end for f in self.links if f.outage and f.active(current)
            ]
            if not blocked:
                return current
            current = max(blocked)

    def compute_slowdown(self, rank: int, t: float) -> float:
        """Compute-stream slowdown of ``rank`` at ``t`` (1 = healthy)."""
        worst = 1.0
        for fault in self.stragglers:
            if fault.rank == rank and fault.active(t):
                worst = max(worst, fault.slowdown)
        return worst

    def shard_down(self, shard_rank: int, t: float) -> bool:
        """Whether the serving shard node is inside a crash window."""
        return any(
            f.shard_rank == shard_rank and f.active(t) for f in self.shard_crashes
        )

    def corrupts(self, round_index: int, table_index: int, attempt: int) -> bool:
        """Whether this (round, table record, delivery attempt) payload is
        corrupted in transit."""
        return any(
            f.round_index == round_index
            and f.table_index == table_index
            and f.attempt == attempt
            for f in self.corruptions
        )

    def rank_failure_at(self, iteration: int) -> RankFailureFault | None:
        """The rank failure injected before ``iteration``, if any."""
        for fault in self.rank_failures:
            if fault.at_iteration == iteration:
                return fault
        return None

    # ---------------------------------------------------------- generation

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        horizon_seconds: float,
        n_ranks: int,
        n_shards: int = 0,
        n_iterations: int = 0,
        n_link_faults: int = 2,
        n_stragglers: int = 1,
        n_shard_crashes: int = 1,
        n_corruptions: int = 1,
        n_rank_failures: int = 0,
        mean_duration_fraction: float = 0.1,
    ) -> "FaultPlan":
        """Draw a deterministic chaos schedule from a seed.

        Windows are placed uniformly over ``[0, horizon_seconds)`` with
        exponential durations around ``mean_duration_fraction * horizon``;
        the same seed and shape arguments always produce the same plan.
        """
        if horizon_seconds <= 0:
            raise ValueError(f"horizon_seconds must be > 0, got {horizon_seconds!r}")
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks!r}")
        rng = spawn_rng(seed, "fault-plan")
        mean = mean_duration_fraction * horizon_seconds

        def window() -> tuple[float, float]:
            start = float(rng.uniform(0.0, horizon_seconds))
            duration = float(max(1e-9, rng.exponential(mean)))
            return start, duration

        links = []
        for _ in range(n_link_faults):
            start, duration = window()
            src, dst = (int(v) for v in rng.choice(n_ranks, size=2, replace=n_ranks < 2))
            outage = bool(rng.random() < 0.25)
            links.append(
                LinkFault(
                    start=start,
                    duration=duration,
                    src=src,
                    dst=dst,
                    bandwidth_factor=1.0 if outage else float(rng.uniform(0.1, 0.9)),
                    extra_latency=0.0 if outage else float(rng.uniform(0.0, 1e-4)),
                    outage=outage,
                )
            )
        stragglers = []
        for _ in range(n_stragglers):
            start, duration = window()
            stragglers.append(
                StragglerFault(
                    rank=int(rng.integers(n_ranks)),
                    start=start,
                    duration=duration,
                    slowdown=float(rng.uniform(1.5, 4.0)),
                )
            )
        crashes = []
        for _ in range(n_shard_crashes if n_shards else 0):
            start, duration = window()
            crashes.append(
                ShardCrashFault(
                    shard_rank=int(rng.integers(n_shards)), start=start, duration=duration
                )
            )
        corruptions = tuple(
            CorruptionFault(round_index=i, table_index=int(rng.integers(8)), attempt=0)
            for i in range(n_corruptions)
        )
        failures = []
        for _ in range(n_rank_failures if n_iterations > 1 else 0):
            failures.append(
                RankFailureFault(
                    rank=int(rng.integers(n_ranks)),
                    at_iteration=int(rng.integers(1, n_iterations)),
                )
            )
        return cls(
            links=tuple(links),
            stragglers=tuple(stragglers),
            shard_crashes=tuple(crashes),
            corruptions=corruptions,
            rank_failures=tuple(failures),
        )
