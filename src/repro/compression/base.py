"""Common compressor interface and the one payload frame.

All compressors in this library — the paper's hybrid compressor and every
baseline — share one contract:

* :meth:`Compressor.compress` takes a 2-D float32 batch of embedding vectors
  ``(batch, dim)`` plus an absolute error bound, and returns a single
  *self-describing* ``bytes`` payload (header + body).  Compression ratios
  are therefore honest: they account for all metadata a receiver needs.
* :meth:`Compressor.decompress` inverts it exactly (lossless codecs) or
  within the error bound (lossy codecs).

Lossless codecs ignore the error bound argument; fixed-rate codecs (FP16,
FP8) ignore it too but remain lossy.

**The frame.**  :func:`frame_parts` and :func:`parse_payload` are the only
code that knows the payload layout, all fields little-endian:

1. magic u8 ``0xDC`` and version u8 ``1``;
2. the codec's registry id u8 and the array's dtype code u8 (an index into
   :data:`~repro.compression.serialization.WIRE_DTYPES`, ``<f4`` or
   ``<f8``);
3. ndim u8, then one u32 per dimension, then the body length u32;
4. the codec's scalar slots, one fixed-width :mod:`struct` field each;
5. the codec's array fields, each a u32 element count plus the raw
   elements in the dtype the codec's schema fixes;
6. a CRC32 u32 over every header byte before it plus the body — built in,
   always on;
7. the body, exactly the declared length and the rest of the frame.

Each codec declares its ``codec_id`` and :class:`FrameSchema` once, next to
its ``name``.  The packer raises :class:`OverflowError` rather than
truncate a value that does not fit its slot, and every parse failure —
bad magic, version, codec id or dtype code, truncation, a declared length
that overruns the frame, a CRC mismatch — raises
:class:`~repro.compression.serialization.CorruptPayloadError`.
"""

from __future__ import annotations

import math
import struct
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.compression.serialization import CorruptPayloadError, dtype_code, wire_dtype

__all__ = [
    "Compressor",
    "CompressionResult",
    "FrameSchema",
    "frame_payload",
    "frame_parts",
    "parse_payload",
    "require_frame",
    "require_body",
    "MAGIC",
    "VERSION",
    "MAX_ELEMENTS",
]

MAGIC = 0xDC  # "DLRM Compression" frame marker
VERSION = 1

#: the array dtypes a frame may declare: exactly the inputs ``_validate`` accepts
_FRAME_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))

#: declared-size cap: a frame whose shape holds more elements is corrupt, so
#: a flipped dimension byte cannot make a decoder allocate gigabytes
MAX_ELEMENTS = 1 << 30

# magic, version, codec id, dtype code, ndim
_PREFIX = struct.Struct("<BBBBB")
# the two dims of a (batch, dim) frame, then the body length
_DIMS = struct.Struct("<3I")
_U32 = struct.Struct("<I")

#: body types a codec may return: a single buffer or a list of buffer parts
#: (each part is anything exposing the buffer protocol — bytes, memoryview,
#: a contiguous ndarray).  Multi-part bodies let codecs hand their sections
#: to the framer without first concatenating them into an intermediate
#: ``bytes``; the framer performs the single final copy.
Body = "bytes | bytearray | memoryview | np.ndarray | list"


class FrameSchema:
    """A codec's header fields: fixed-width scalar slots, then array fields.

    ``slots`` pairs each scalar field with its :mod:`struct` format
    character; ``arrays`` pairs each 1-D array field with the dtype its
    elements take on the wire.
    """

    def __init__(self, slots: tuple[tuple[str, str], ...] = (), arrays: tuple[tuple[str, Any], ...] = ()):
        self.fields = tuple(name for name, _ in slots)
        self.struct = struct.Struct("<" + "".join(fmt for _, fmt in slots))
        self.arrays = tuple((name, np.dtype(dtype).newbyteorder("<")) for name, dtype in arrays)
        self.size = len(self.fields) + len(self.arrays)


#: codec id -> the codec class that owns it (filled by ``__init_subclass__``)
_CODECS: dict[int, type[Compressor]] = {}


def require_frame(condition: bool, message: str) -> None:
    """Raise :class:`CorruptPayloadError` with ``message`` unless ``condition``."""
    if not condition:
        raise CorruptPayloadError(message)


def require_body(codec: str, have: int, shape: tuple[int, ...], per_element: int = 1, unit: str = "symbols") -> None:
    """:class:`CorruptPayloadError` unless a frame holds exactly
    ``per_element`` ``unit`` for each element of its declared ``shape``."""
    need = math.prod(shape) * per_element
    require_frame(have == need, f"{codec}: body holds {have} {unit}, shape {shape} needs {need}")


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


def _wire_array(codec: str, name: str, value: Any, dtype: np.dtype) -> np.ndarray:
    """``value`` as a contiguous 1-D array of ``dtype``; raises instead of
    wrapping a value the wire dtype cannot hold."""
    array = np.asarray(value)
    if array.ndim != 1:
        raise ValueError(f"{codec}: array field {name!r} must be 1-D, got shape {array.shape}")
    if array.dtype != dtype:
        cast = array.astype(dtype)
        if not np.array_equal(cast, array):
            raise OverflowError(f"{codec}: array field {name!r} does not fit {dtype}")
        array = cast
    return np.ascontiguousarray(array)


def frame_parts(
    codec: Compressor,
    array_shape: tuple[int, ...],
    array_dtype: np.dtype,
    meta: dict[str, Any],
    body,
) -> list:
    """Header + body as a list of buffer parts (no concatenation yet)."""
    schema = codec.schema
    if len(meta) != schema.size:  # a field outside the schema would be dropped silently
        raise ValueError(f"{codec.name}: meta fields {sorted(meta)} do not match its frame schema")
    parts = [_as_buffer(p) for p in body] if isinstance(body, (list, tuple)) else [_as_buffer(body)]
    body_len = sum(memoryview(p).nbytes for p in parts)
    header = bytearray()
    try:
        header += _PREFIX.pack(MAGIC, VERSION, codec.codec_id, dtype_code(array_dtype), len(array_shape))
        header += _DIMS.pack(*array_shape, body_len)
        header += schema.struct.pack(*(meta[name] for name in schema.fields))
        for name, dtype in schema.arrays:
            values = _wire_array(codec.name, name, meta[name], dtype)
            header += _U32.pack(values.size)
            header += values.tobytes()
    except struct.error as err:
        raise OverflowError(f"{codec.name}: a header value does not fit its frame slot ({err})") from None
    crc = zlib.crc32(header)
    for part in parts:
        crc = zlib.crc32(part, crc)
    header += _U32.pack(crc)
    return [bytes(header), *parts]


def frame_payload(
    codec: Compressor,
    array_shape: tuple[int, ...],
    array_dtype: np.dtype,
    meta: dict[str, Any],
    body,
) -> bytes:
    """Assemble the standard self-describing payload.

    ``body`` may be a single buffer or a sequence of buffer parts; either
    way the payload is assembled with one copy (``bytes.join`` over views).
    """
    return b"".join(frame_parts(codec, array_shape, array_dtype, meta, body))


def parse_payload(payload: bytes | memoryview) -> tuple[dict[str, Any], memoryview]:
    """Split a framed payload into ``(header, body_view)``.

    ``header`` holds the codec's slots and array fields (read-only views
    into ``payload``) plus ``"codec"`` (the registry name), ``"dtype"`` and
    ``"shape"`` (a tuple).  Every failure is a
    :class:`~repro.compression.serialization.CorruptPayloadError`.
    """
    view = memoryview(payload)
    size = view.nbytes
    if size < _PREFIX.size or view[0] != MAGIC:
        raise CorruptPayloadError("not a repro compression payload (bad magic byte)")
    _, version, codec_id, code, ndim = _PREFIX.unpack_from(view)
    if version != VERSION:
        raise CorruptPayloadError(f"unsupported frame version {version} (this build reads {VERSION})")
    codec = _CODECS.get(codec_id)
    if codec is None:
        raise CorruptPayloadError(f"payload codec id {codec_id} is not registered")
    if ndim != 2:
        raise CorruptPayloadError(f"frame declares a {ndim}-D shape; codecs frame 2-D batches")
    schema = codec.schema
    pos = _PREFIX.size + _DIMS.size + schema.struct.size
    if pos > size:
        raise CorruptPayloadError(f"truncated frame: {size} bytes cannot hold the {pos}-byte {codec.name} header")
    *shape, body_len = _DIMS.unpack_from(view, _PREFIX.size)
    header = dict(zip(schema.fields, schema.struct.unpack_from(view, pos - schema.struct.size)))
    for name, dtype in schema.arrays:
        if pos + 4 > size:
            raise CorruptPayloadError(f"truncated frame: {codec.name} array field {name!r} is cut off")
        (count,) = _U32.unpack_from(view, pos)
        pos += 4
        end = pos + count * dtype.itemsize
        if end > size:
            raise CorruptPayloadError(
                f"{codec.name} array field {name!r} declares {count} elements, overrunning the frame"
            )
        header[name] = np.frombuffer(view, dtype, count, pos)
        pos = end
    if pos + 4 + body_len != size:
        raise CorruptPayloadError(
            f"{codec.name} frame declares a {body_len}-byte body but carries {size - pos - 4} bytes"
        )
    (stored,) = _U32.unpack_from(view, pos)
    body = view[pos + 4 :]
    actual = zlib.crc32(body, zlib.crc32(view[:pos]))
    if actual != stored:
        raise CorruptPayloadError(
            f"frame checksum mismatch: stored CRC32 0x{stored:08x} != computed 0x{actual:08x}"
            f" over {size - 4} bytes — payload corrupted in transit"
        )
    header["dtype"] = wire_dtype(code, _FRAME_DTYPES)
    if math.prod(shape) > MAX_ELEMENTS:
        raise CorruptPayloadError(f"frame declares shape {tuple(shape)}, over the {MAX_ELEMENTS}-element cap")
    header["codec"] = codec.name
    header["shape"] = tuple(shape)
    return header, body


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

    Subclasses set :attr:`name` (registry key), :attr:`codec_id` and
    :attr:`schema` (their frame layout) and :attr:`lossy`, and implement
    ``_compress_body`` / ``_decompress_body`` over the framed metadata.
    The public entry points validate inputs and handle framing.
    """

    #: registry key, e.g. ``"hybrid"`` or ``"fp16"``
    name: str = "abstract"
    #: the u8 id that names this codec in its frames (``None``: frames none)
    codec_id: int | None = None
    #: this codec's header fields
    schema: FrameSchema = FrameSchema()
    #: whether reconstruction may differ from the input
    lossy: bool = True
    #: whether the codec honours the ``error_bound`` argument
    error_bounded: bool = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        codec_id = cls.__dict__.get("codec_id")
        if codec_id is None:
            return
        if not 0 <= codec_id <= 0xFF:
            raise ValueError(f"{cls.name}: codec_id must fit a u8, got {codec_id}")
        owner = _CODECS.setdefault(codec_id, cls)
        if owner is not cls:
            raise ValueError(f"{cls.name}: codec_id {codec_id} already belongs to {owner.name!r}")

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
        return frame_payload(self, array.shape, array.dtype, meta, body)

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
        parts = frame_parts(self, array.shape, array.dtype, meta, body)
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
        return self.decode(*parse_payload(payload))

    def decode(self, header: dict[str, Any], body: memoryview) -> np.ndarray:
        """Reconstruct the batch from a frame :func:`parse_payload` split."""
        if header["codec"] != self.name:
            raise CorruptPayloadError(
                f"payload was produced by codec {header['codec']!r}, not {self.name!r};"
                " use repro.compression.registry.decompress_any"
            )
        shape = header["shape"]
        array = self._decompress_body(header, body, shape, header["dtype"])
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
