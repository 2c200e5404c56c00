"""Wire-level primitives shared by every codec frame.

Every codec in this library produces a *self-describing* byte payload:
the compressed ratio accounting includes the real header cost, not just the
entropy-coded body.  The frame itself is built and parsed in exactly one
place, :mod:`repro.compression.base`; its fixed little-endian layout is

==================  ==========================================================
field               encoding
==================  ==========================================================
magic, version      u8 ``0xDC``, u8 ``1``
codec id            u8, the registry id each codec declares next to its name
dtype code          u8 index into :data:`WIRE_DTYPES` (``<f4`` or ``<f8``)
ndim, dims          u8, then one u32 per dimension
body length         u32
scalar slots        the codec's fixed-width slot struct (its ``schema``)
array fields        per field a u32 element count plus the raw elements, in
                    the dtype the codec's schema fixes for that field
CRC32               u32 over every header byte before it plus the body
body                exactly ``body length`` bytes, the rest of the frame
==================  ==========================================================

This module holds what the framer and the codecs share: the one
documented decode error, :class:`CorruptPayloadError`, and the dtype-code
table.  A dtype code is untrusted input, so it is looked up in
:data:`WIRE_DTYPES`, never handed to NumPy to parse.

**Checksummed envelopes (opt-in).**  Every frame carries its own CRC32.
The older 5-byte envelope stays for the delta publisher's ``checksum=``
knob: :func:`frame_with_checksum` wraps any payload in magic + CRC32 +
body, and :func:`verify_checksum_frame` strips it, raising
:class:`CorruptPayloadError` on mismatch, which is what the fault
injector's corruption faults (and the publisher's retry loop) key off.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Container
from typing import Any

import numpy as np

__all__ = [
    "CorruptPayloadError",
    "WIRE_DTYPES",
    "dtype_code",
    "wire_dtype",
    "CHECKSUM_MAGIC",
    "frame_with_checksum",
    "has_checksum",
    "verify_checksum_frame",
]


#: frame marker of a CRC32-checksummed payload envelope (distinct from the
#: codec frame's ``MAGIC`` 0xDC, so the two framings cannot be confused)
CHECKSUM_MAGIC = 0xC5


class CorruptPayloadError(ValueError):
    """A payload failed verification: a CRC32 mismatch, a frame that is
    truncated or declares lengths overrunning it, a dtype code no codec
    emits, a codec id no codec owns, or a header that disagrees with the
    body.

    Every codec frame carries a CRC32; the 5-byte envelope's CRC32 applies
    only to payloads wrapped in it.  A mismatch reports the stored vs
    computed digest so fault logs say exactly what went wrong on the wire.
    """


#: every dtype a frame may declare, indexed by its one-byte wire code:
#: little-endian numeric kinds only (so ``int8`` is ``"|i1"``)
WIRE_DTYPES = tuple(
    map(np.dtype, ("|b1", "|i1", "<i2", "<i4", "<i8", "|u1", "<u2", "<u4", "<u8", "<f2", "<f4", "<f8"))
)

_DTYPE_CODES = {dtype: code for code, dtype in enumerate(WIRE_DTYPES)}


def dtype_code(dtype: Any) -> int:
    """The wire code of ``dtype``; ``TypeError`` if no frame can carry it."""
    try:
        return _DTYPE_CODES[np.dtype(dtype)]
    except KeyError:
        raise TypeError(f"dtype {np.dtype(dtype)} has no wire code") from None


def wire_dtype(code: Any, allowed: Container[np.dtype] = WIRE_DTYPES) -> np.dtype:
    """The dtype a payload declares with ``code``.

    The code is untrusted input, so it is looked up, never parsed:
    :class:`CorruptPayloadError` unless it indexes :data:`WIRE_DTYPES` and
    the dtype is in ``allowed``.
    """
    if isinstance(code, int) and 0 <= code < len(WIRE_DTYPES) and WIRE_DTYPES[code] in allowed:
        return WIRE_DTYPES[code]
    raise CorruptPayloadError(f"payload declares dtype code {code!r}, which no codec emits here")


def _reference_frame_with_checksum(payload: bytes | bytearray | memoryview) -> bytes:
    """Frozen seed implementation (copies the body twice); oracle for the
    zero-copy differential tests and the ``zero_copy`` perfbench rows."""
    body = bytes(payload)
    return bytes([CHECKSUM_MAGIC]) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF) + body


def frame_with_checksum(payload: bytes | bytearray | memoryview, *, pool=None):
    """Wrap a payload in a 5-byte CRC32 envelope: magic + digest + body.

    The envelope is opt-in: nothing in the codec stack emits it by
    default, so byte-exact payload tests stay pinned.  Callers that ship
    payloads over a faultable fabric (the delta publisher, the fault
    injector's corruption tests) wrap before sending and
    :func:`verify_checksum_frame` on receipt.

    The CRC is computed directly over the caller's buffer and the body is
    copied exactly once, into the final frame (``b"".join`` of views — no
    intermediate ``bytes(payload)`` round-trip).  With ``pool`` set, the
    frame lands in a pooled arena instead and the live lease is returned
    (``lease.view`` is the frame); steady-state publication rounds then
    allocate nothing for their envelopes.
    """
    view = memoryview(payload)
    if view.ndim != 1 or view.format != "B":
        view = view.cast("B")
    header = struct.pack("<BI", CHECKSUM_MAGIC, zlib.crc32(view) & 0xFFFFFFFF)
    if pool is None:
        return b"".join((header, view))
    lease = pool.checkout(5 + view.nbytes)
    lease.view[:5] = header
    lease.view[5:] = view
    return lease


def has_checksum(data: bytes | bytearray | memoryview) -> bool:
    """Whether ``data`` carries the checksum envelope."""
    view = memoryview(data)
    return len(view) >= 5 and view[0] == CHECKSUM_MAGIC


def _reference_verify_checksum_frame(data: bytes | bytearray | memoryview) -> bytes:
    """Frozen seed implementation (copies the body out); oracle for the
    zero-copy differential tests and the ``zero_copy`` perfbench rows."""
    view = memoryview(data)
    if len(view) < 5 or view[0] != CHECKSUM_MAGIC:
        raise ValueError(
            "not a checksummed frame (missing CRC32 envelope); "
            "wrap payloads with frame_with_checksum() before verifying"
        )
    (stored,) = struct.unpack_from("<I", view, 1)
    body = bytes(view[5:])
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != stored:
        raise CorruptPayloadError(
            f"payload checksum mismatch: stored CRC32 0x{stored:08x} != computed "
            f"0x{actual:08x} over {len(body)} bytes — payload corrupted in transit"
        )
    return body


def verify_checksum_frame(data: bytes | bytearray | memoryview) -> memoryview:
    """Verify a checksummed frame and return the inner payload.

    Raises :class:`CorruptPayloadError` when the body's CRC32 does not
    match the stored digest (a corrupted or truncated frame), and a plain
    :class:`ValueError` when ``data`` is not a checksummed frame at all.

    The returned payload is a :class:`memoryview` into ``data`` — the CRC
    runs over the view and the envelope is stripped without copying the
    body.  Downstream consumers (``parse_payload``, ``decompress_any``,
    ``np.frombuffer``) all accept views; call ``bytes(...)`` on the result
    only if an owning copy is genuinely needed.
    """
    view = memoryview(data)
    if len(view) < 5 or view[0] != CHECKSUM_MAGIC:
        raise ValueError(
            "not a checksummed frame (missing CRC32 envelope); "
            "wrap payloads with frame_with_checksum() before verifying"
        )
    (stored,) = struct.unpack_from("<I", view, 1)
    body = view[5:]
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != stored:
        raise CorruptPayloadError(
            f"payload checksum mismatch: stored CRC32 0x{stored:08x} != computed "
            f"0x{actual:08x} over {len(body)} bytes — payload corrupted in transit"
        )
    return body
