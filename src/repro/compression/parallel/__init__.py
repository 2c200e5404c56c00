"""Raw-speed tier: multicore codec execution, zero-copy buffer pooling, and
exchange autotuning.

Three cooperating pieces:

* :class:`BitstreamPool` — recycling ``memoryview``-backed arenas; the
  allocation-free backing store for payloads, checksum envelopes, and
  decode scratch.
* :class:`CodecExecutor` — compresses/decompresses independent tables and
  pipeline chunks on a thread pool, at most ``parallelism`` at a time;
  ``workers=1`` is a deterministic serial loop, and payload bytes are
  identical at every worker count.
* :class:`ExchangeAutotuner` — measures the compress/wire balance of each
  exchange (directly or from the :mod:`repro.obs` stage counters) and picks
  ``pipeline_chunks`` and the codec worker count for the next one.
"""

from repro.compression.parallel.autotune import ExchangeAutotuner, ExchangeDecision
from repro.compression.parallel.executor import (
    CodecExecutor,
    CompressJob,
    available_workers,
)
from repro.compression.parallel.pool import BitstreamPool, Lease, PoolStats

__all__ = [
    "BitstreamPool",
    "Lease",
    "PoolStats",
    "CodecExecutor",
    "CompressJob",
    "available_workers",
    "ExchangeAutotuner",
    "ExchangeDecision",
]
