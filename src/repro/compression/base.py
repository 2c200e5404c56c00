"""Common compressor interface and payload framing.

All compressors in this library — the paper's hybrid compressor and every
baseline — share one contract:

* :meth:`Compressor.compress` takes a 2-D float32 batch of embedding vectors
  ``(batch, dim)`` plus an absolute error bound, and returns a single
  *self-describing* ``bytes`` payload (header + body).  Compression ratios
  are therefore honest: they account for all metadata a receiver needs.
* :meth:`Compressor.decompress` inverts it exactly (lossless codecs) or
  within the error bound (lossy codecs).

Lossless codecs ignore the error bound argument; fixed-rate codecs (FP16,
FP8) ignore it too but remain lossy.  The payload begins with a magic byte,
a codec-name string and the original dtype/shape, followed by codec-specific
metadata and the body.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.compression.serialization import CorruptPayloadError, pack_meta, unpack_meta, wire_dtype

__all__ = [
    "Compressor",
    "CompressionResult",
    "frame_payload",
    "frame_parts",
    "parse_payload",
    "header_dtype",
    "MAGIC",
]

MAGIC = 0xDC  # "DLRM Compression" frame marker

#: body types a codec may return: a single buffer or a list of buffer parts
#: (each part is anything exposing the buffer protocol — bytes, memoryview,
#: a contiguous ndarray).  Multi-part bodies let codecs hand their sections
#: to the framer without first concatenating them into an intermediate
#: ``bytes``; the framer performs the single final copy.
Body = "bytes | bytearray | memoryview | np.ndarray | list"


def _as_buffer(part) -> memoryview | bytes:
    """Normalise one body part to a joinable flat byte buffer (no copy)."""
    if isinstance(part, np.ndarray):
        part = np.ascontiguousarray(part)
        if part.nbytes == 0:  # empty views cannot be cast
            return b""
        return memoryview(part).cast("B")
    if isinstance(part, memoryview):
        if part.nbytes == 0:
            return b""
        return part if part.ndim == 1 and part.format == "B" else part.cast("B")
    return part


def frame_parts(
    codec: str,
    array_shape: tuple[int, ...],
    array_dtype: np.dtype,
    meta: dict[str, Any],
    body,
) -> list:
    """Header + body as a list of buffer parts (no concatenation yet)."""
    header = {
        "codec": codec,
        "dtype": np.dtype(array_dtype).str,
        "shape": np.asarray(array_shape, dtype=np.int64),
        **meta,
    }
    packed = bytearray([MAGIC])
    packed += pack_meta(header)
    parts: list = [bytes(packed)]
    if isinstance(body, (list, tuple)):
        parts.extend(_as_buffer(p) for p in body)
    else:
        parts.append(_as_buffer(body))
    return parts


def frame_payload(
    codec: str,
    array_shape: tuple[int, ...],
    array_dtype: np.dtype,
    meta: dict[str, Any],
    body,
) -> bytes:
    """Assemble the standard self-describing payload.

    ``body`` may be a single buffer or a sequence of buffer parts; either
    way the payload is assembled with one copy (``bytes.join`` over views),
    byte-identical to the historical ``header + body`` concatenation.
    """
    return b"".join(frame_parts(codec, array_shape, array_dtype, meta, body))


def header_dtype(header: dict[str, Any]) -> np.dtype:
    """The frame's array dtype; :class:`CorruptPayloadError` unless it is
    ``<f4`` or ``<f8``, exactly the inputs ``_validate`` accepts."""
    return wire_dtype(header["dtype"], ("<f4", "<f8"))


def parse_payload(payload: bytes | memoryview) -> tuple[dict[str, Any], memoryview]:
    """Split a framed payload into ``(header, body_view)``."""
    view = memoryview(payload)
    if len(view) == 0 or view[0] != MAGIC:
        raise ValueError("not a repro compression payload (bad magic byte)")
    header, pos = unpack_meta(view, 1)
    return header, view[pos:]


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of one compression call, with ratio accounting.

    ``ratio`` is original bytes over compressed bytes (>1 means smaller).
    """

    payload: bytes
    original_nbytes: int

    @property
    def compressed_nbytes(self) -> int:
        return len(self.payload)

    @property
    def ratio(self) -> float:
        return self.original_nbytes / max(1, len(self.payload))


class Compressor(ABC):
    """Abstract base for batch-of-embedding-vector compressors.

    Subclasses set :attr:`name` (registry key) and :attr:`lossy`, and
    implement ``_compress_body`` / ``_decompress_body`` over the framed
    metadata.  The public entry points validate inputs and handle framing.
    """

    #: registry key, e.g. ``"hybrid"`` or ``"fp16"``
    name: str = "abstract"
    #: whether reconstruction may differ from the input
    lossy: bool = True
    #: whether the codec honours the ``error_bound`` argument
    error_bounded: bool = False

    def _validate(self, array: np.ndarray, error_bound: float | None) -> np.ndarray:
        array = np.ascontiguousarray(array)
        if array.ndim != 2:
            raise ValueError(f"{self.name}: expected 2-D (batch, dim) array, got shape {array.shape}")
        if array.dtype not in (np.float32, np.float64):
            raise TypeError(f"{self.name}: expected float32/float64 input, got {array.dtype}")
        if self.error_bounded:
            if error_bound is None or not error_bound > 0:
                raise ValueError(f"{self.name}: requires a positive error_bound, got {error_bound!r}")
        return array

    def compress(self, array: np.ndarray, error_bound: float | None = None) -> bytes:
        """Compress a 2-D float batch into a self-describing payload."""
        array = self._validate(array, error_bound)
        meta, body = self._compress_body(array, error_bound)
        return frame_payload(self.name, array.shape, array.dtype, meta, body)

    def compress_into(self, array: np.ndarray, error_bound: float | None = None, *, pool):
        """Compress into a pooled buffer; returns a live ``Lease``.

        Byte-identical to :meth:`compress` (``bytes(lease.view)`` equals the
        plain payload) but the framed payload lands directly in a
        :class:`~repro.compression.parallel.BitstreamPool` arena — after the
        pool warms up, steady-state compression allocates no payload
        ``bytes`` at all.  The caller owns the lease and must release it
        when the payload is no longer needed.
        """
        array = self._validate(array, error_bound)
        meta, body = self._compress_body(array, error_bound)
        parts = frame_parts(self.name, array.shape, array.dtype, meta, body)
        total = sum(memoryview(p).nbytes for p in parts)
        lease = pool.checkout(total)
        pos = 0
        for part in parts:
            view = memoryview(part)
            if view.ndim != 1 or view.format != "B":
                view = view.cast("B")
            lease.view[pos : pos + view.nbytes] = view
            pos += view.nbytes
        return lease

    def decompress(self, payload: bytes | memoryview) -> np.ndarray:
        """Reconstruct the batch from a payload produced by :meth:`compress`."""
        header, body = parse_payload(payload)
        if header["codec"] != self.name:
            raise ValueError(
                f"payload was produced by codec {header['codec']!r}, not {self.name!r};"
                " use repro.compression.registry.decompress_any"
            )
        shape = tuple(int(s) for s in header["shape"])
        dtype = header_dtype(header)
        array = self._decompress_body(header, body, shape, dtype)
        if array.shape != shape:
            raise CorruptPayloadError(f"{self.name}: decoded shape {array.shape} != {shape}")
        return array

    def compress_keyed(
        self, table_key: Any, array: np.ndarray, error_bound: float | None = None
    ) -> bytes:
        """Compress with a stable per-stream identity (e.g. a table id).

        The key lets stateful codecs reuse work across iterations of the
        same table (cached codebooks, pinned encoder choices).  The base
        implementation ignores the key; payloads remain self-describing
        either way, so :meth:`decompress` is unaffected.
        """
        return self.compress(array, error_bound)

    def compress_keyed_into(
        self, table_key: Any, array: np.ndarray, error_bound: float | None = None, *, pool
    ):
        """Keyed variant of :meth:`compress_into` (same lease contract)."""
        return self.compress_into(array, error_bound, pool=pool)

    def compress_with_stats(self, array: np.ndarray, error_bound: float | None = None) -> CompressionResult:
        """Compress and return payload together with ratio accounting."""
        array = np.ascontiguousarray(array)
        payload = self.compress(array, error_bound)
        return CompressionResult(payload=payload, original_nbytes=array.nbytes)

    @abstractmethod
    def _compress_body(
        self, array: np.ndarray, error_bound: float | None
    ) -> tuple[dict[str, Any], Any]:
        """Return ``(codec_meta, body)`` for a validated input.

        ``body`` is a single buffer (bytes/memoryview/contiguous ndarray)
        or a list of such parts; the framer joins parts with one copy.
        """

    @abstractmethod
    def _decompress_body(
        self,
        header: dict[str, Any],
        body: memoryview,
        shape: tuple[int, ...],
        dtype: np.dtype,
    ) -> np.ndarray:
        """Reconstruct the array from header + body."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} lossy={self.lossy}>"
