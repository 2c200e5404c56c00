"""Zero-copy bitstream arenas: reusable buffers for codec payloads.

Every compress/decompress round trip in the seed allocated fresh ``bytes``
at each stage boundary — body serialization, payload framing, checksum
enveloping, wire staging.  :class:`BitstreamPool` removes the steady-state
allocations: it hands out :class:`Lease` objects backed by pooled
``bytearray`` arenas, bucketed by power-of-two capacity, so after warm-up a
training iteration or publication round touches no allocator at all for its
bitstreams.

Discipline:

* ``checkout(nbytes)`` returns a lease whose ``.view`` is an *exact-size*
  writable :class:`memoryview`.  Two live leases never alias (each owns a
  distinct arena) — a property test pins this.
* ``release()`` (or exiting the lease's context manager) returns the arena
  to the free list for reuse; the lease's master view is closed so most
  use-after-release bugs raise instead of corrupting a neighbour.
* Arenas are recycled by exact capacity bucket, so reuse is deterministic:
  releasing and re-checking-out the same size hits the free list, never the
  allocator (``stats.reuses`` counts it).

Its users are the delta publisher, the shard server's block storage and
the homomorphic all-reduce.  The pool is thread-safe (a single lock around
the free lists), so one pool may be shared across threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = ["BitstreamPool", "Lease", "PoolStats"]

#: smallest arena we bother pooling — tiny checkouts round up to this
_MIN_ARENA = 256


def arena_capacity(nbytes: int) -> int:
    """Power-of-two bucket capacity for a requested size."""
    if nbytes <= _MIN_ARENA:
        return _MIN_ARENA
    return 1 << (int(nbytes) - 1).bit_length()


@dataclass
class PoolStats:
    """Allocation accounting for one pool (drives the zero-copy bench rows)."""

    arenas_created: int = 0
    arena_bytes: int = 0
    checkouts: int = 0
    reuses: int = 0
    live: int = 0
    peak_live: int = 0
    dirty_releases: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "arenas_created": self.arenas_created,
            "arena_bytes": self.arena_bytes,
            "checkouts": self.checkouts,
            "reuses": self.reuses,
            "live": self.live,
            "peak_live": self.peak_live,
            "dirty_releases": self.dirty_releases,
        }


class Lease:
    """One checked-out arena slice.  ``view`` is the writable payload window.

    The lease owns its arena until :meth:`release`; the pool never hands the
    same arena to anyone else while the lease is live.  ``array`` maps the
    window (or a prefix of it) as an ndarray without copying.
    """

    __slots__ = ("_pool", "_arena", "_capacity", "nbytes", "_master", "view", "released")

    def __init__(self, pool: "BitstreamPool", arena: bytearray, nbytes: int) -> None:
        self._pool = pool
        self._arena = arena
        self._capacity = len(arena)
        self.nbytes = int(nbytes)
        self._master = memoryview(arena)
        self.view = self._master[: self.nbytes]
        self.released = False

    def array(self, dtype: np.dtype | str = np.uint8, shape: tuple[int, ...] | None = None) -> np.ndarray:
        """The leased window as a writable ndarray view (no copy)."""
        arr = np.frombuffer(self.view, dtype=dtype)
        if shape is not None:
            arr = arr.reshape(shape)
        return arr

    def write(self, data) -> memoryview:
        """Copy ``data`` into the window's prefix; return the filled view."""
        view = memoryview(data)
        if view.nbytes > self.nbytes:
            raise ValueError(f"lease too small: {view.nbytes} bytes into {self.nbytes}")
        if view.ndim != 1 or view.format != "B":
            view = view.cast("B")
        self.view[: view.nbytes] = view
        return self.view[: view.nbytes]

    def release(self) -> None:
        """Return the arena to the pool.  Idempotent.

        A release with a buffer export still live (a caller kept the
        ndarray from :meth:`array`, or a view of :attr:`view`) is counted
        as *dirty* and the arena is **dropped**, not recycled — the
        caller's array stays valid and a future checkout can never write
        under it.  The property tests pin both halves.
        """
        if self.released:
            return
        self.released = True
        exported = False
        try:
            self.view.release()
            self._master.release()
        except BufferError:
            exported = True
        if not exported:
            # NumPy (and other consumers) export the arena's buffer
            # directly, bypassing our views — probe with a resize, which a
            # bytearray refuses while any export is live.
            try:
                self._arena.append(0)
                self._arena.pop()
            except BufferError:
                exported = True
        if exported:
            self._pool._discard_dirty(self._arena)
        else:
            self._pool._return_arena(self._arena)
        self._arena = None  # type: ignore[assignment]

    def __len__(self) -> int:
        return self.nbytes

    def __enter__(self) -> "Lease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class BitstreamPool:
    """Recycling allocator for codec bitstream buffers.

    ``max_arenas_per_bucket`` bounds retention: beyond it, released arenas
    are dropped to the garbage collector instead of hoarded (a publication
    spike does not pin its high-water mark forever).
    """

    def __init__(self, *, max_arenas_per_bucket: int = 16) -> None:
        self._free: dict[int, list[bytearray]] = {}
        self._lock = threading.Lock()
        self._max_per_bucket = int(max_arenas_per_bucket)
        self.stats = PoolStats()

    def checkout(self, nbytes: int) -> Lease:
        """Lease a writable buffer of exactly ``nbytes`` bytes."""
        if nbytes < 0:
            raise ValueError(f"cannot checkout {nbytes} bytes")
        capacity = arena_capacity(nbytes)
        with self._lock:
            bucket = self._free.get(capacity)
            if bucket:
                arena = bucket.pop()
                self.stats.reuses += 1
            else:
                arena = bytearray(capacity)
                self.stats.arenas_created += 1
                self.stats.arena_bytes += capacity
            self.stats.checkouts += 1
            self.stats.live += 1
            self.stats.peak_live = max(self.stats.peak_live, self.stats.live)
        return Lease(self, arena, nbytes)

    def checkout_array(self, shape: tuple[int, ...], dtype: np.dtype | str) -> tuple[Lease, np.ndarray]:
        """Lease an ndarray-shaped scratch buffer; returns ``(lease, array)``."""
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        lease = self.checkout(nbytes)
        return lease, lease.array(dt, tuple(shape))

    def checkout_bytes(self, data) -> Lease:
        """Lease a buffer pre-filled with a copy of ``data``."""
        view = memoryview(data)
        lease = self.checkout(view.nbytes)
        lease.write(view)
        return lease

    def _return_arena(self, arena: bytearray) -> None:
        capacity = len(arena)
        with self._lock:
            self.stats.live -= 1
            bucket = self._free.setdefault(capacity, [])
            if len(bucket) < self._max_per_bucket:
                bucket.append(arena)
            else:
                self.stats.arena_bytes -= capacity

    def _discard_dirty(self, arena: bytearray) -> None:
        """A released lease whose arena still has live buffer exports:
        count it and let the GC take the arena once the exports die."""
        with self._lock:
            self.stats.dirty_releases += 1
            self.stats.live -= 1
            self.stats.arena_bytes -= len(arena)

    def free_arenas(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._free.values())

    def clear(self) -> None:
        """Drop every pooled arena (leases outstanding stay valid)."""
        with self._lock:
            self._free.clear()
            self.stats.arena_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"<BitstreamPool arenas={s.arenas_created} live={s.live} "
            f"reuses={s.reuses}/{s.checkouts}>"
        )
