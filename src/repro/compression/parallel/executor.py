"""Multicore codec execution: compress/decompress batches across threads.

In the paper's 4-stage exchange every rank compresses one slice per peer —
the slices are independent, so on a multicore host the codec work
parallelizes perfectly.  :class:`CodecExecutor` runs a batch of
:class:`CompressJob`s (or payload decodes) on one thread pool:

* ``workers=1`` is a **strictly serial in-process loop** — no threads, no
  queues — and produces payloads bit-identical to calling each codec's
  ``compress`` directly (differential tests pin this for every registered
  codec).
* ``workers>1`` runs the batch on a ``ThreadPoolExecutor``.  Threads share
  the address space (payloads are never copied across a boundary) and the
  NumPy kernels release the GIL; each thread keeps its own codec instances
  because codecs carry scratch state.  At most ``min(parallelism, workers)``
  jobs are in flight at once.

Parallel compression always uses the **stateless** ``compress`` path, never
keyed/pinned caches: pinned-trial and codebook-cache state make payload
*bytes* depend on call order, which would make a parallel distribution
nondeterministic.  Stateless payloads are identical no matter which worker
runs them — that is the executor's determinism contract.  Decompression is
stateless for every codec and always safe to distribute.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

__all__ = ["CodecExecutor", "CompressJob", "available_workers"]


def available_workers() -> int:
    """Usable CPU count (affinity-aware where the platform reports it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class CompressJob:
    """One independent compression task: a codec name + one table slice."""

    codec: str
    array: np.ndarray
    error_bound: float | None = None
    #: codec constructor kwargs, as a hashable tuple of (key, value) pairs
    #: so workers can cache codec instances per configuration
    kwargs: tuple[tuple[str, Any], ...] = field(default_factory=tuple)


class CodecExecutor:
    """Runs codec batches serially (``workers=1``) or across a thread pool.

    ``workers`` is the maximum parallelism; each batch call may cap it
    further with ``parallelism`` (the autotuner's worker recommendation).
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        # Threads start on first submit, so workers=1 never spawns one.
        self._pool = ThreadPoolExecutor(max_workers=self.workers)
        self._codecs = threading.local()

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "CodecExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _codec(self, name: str, kwargs: tuple):
        """This thread's codec instance for ``(name, kwargs)``."""
        cache = getattr(self._codecs, "cache", None)
        if cache is None:
            cache = self._codecs.cache = {}
        codec = cache.get((name, kwargs))
        if codec is None:
            from repro.compression.registry import get_compressor

            codec = cache[(name, kwargs)] = get_compressor(name, **dict(kwargs))
        return codec

    def _map(self, fn: Callable, items: Sequence, parallelism: int | None) -> list:
        """``[fn(x) for x in items]`` with at most ``parallelism`` in flight.

        Each of the ``lanes`` pool tasks runs a serial loop over every
        ``lanes``-th item, so the cap holds whatever the pool size.
        """
        lanes = self.workers if parallelism is None else max(1, min(parallelism, self.workers))
        lanes = min(lanes, len(items))
        if lanes <= 1:
            return [fn(item) for item in items]
        results: list = [None] * len(items)

        def lane(start: int) -> None:
            for index in range(start, len(items), lanes):
                results[index] = fn(items[index])

        futures = [self._pool.submit(lane, start) for start in range(lanes)]
        wait(futures)  # no lane outlives the call, even when one raises
        for future in futures:
            future.result()
        return results

    def compress_batch(
        self, jobs: Sequence[CompressJob], *, parallelism: int | None = None
    ) -> list[bytes]:
        """Compress independent jobs; results keep the input order.

        ``parallelism`` caps the worker count for this batch (an autotuner
        hint); ``1`` runs the serial loop even on a pooled executor.  The
        payload bytes are identical for every value of ``parallelism`` —
        only wall-clock changes.
        """
        return self._map(
            lambda job: self._codec(job.codec, job.kwargs).compress(job.array, job.error_bound),
            jobs,
            parallelism,
        )

    def decompress_batch(
        self, payloads: Sequence, *, parallelism: int | None = None
    ) -> list[np.ndarray]:
        """Decode payloads (any registered codec); results keep input order."""
        from repro.compression.registry import decompress_any

        return self._map(decompress_any, payloads, parallelism)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CodecExecutor workers={self.workers}>"
