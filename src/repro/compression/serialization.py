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

The frame's CRC32 is the library's one integrity check: the delta
publisher's retry loop and the fault injector's corruption faults key off
the :class:`CorruptPayloadError` that
:func:`~repro.compression.base.parse_payload` raises on any damaged frame.
"""

from __future__ import annotations

from collections.abc import Container
from typing import Any

import numpy as np

__all__ = [
    "CorruptPayloadError",
    "WIRE_DTYPES",
    "dtype_code",
    "wire_dtype",
]


class CorruptPayloadError(ValueError):
    """A payload failed verification: a CRC32 mismatch, a frame that is
    truncated or declares lengths overrunning it, a dtype code no codec
    emits, a codec id no codec owns, or a header that disagrees with the
    body.

    Every codec frame carries a CRC32 over its header and body, so a
    damaged byte anywhere in the frame raises this error.  A mismatch
    reports the stored vs computed digest so fault logs say exactly what
    went wrong on the wire.
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
