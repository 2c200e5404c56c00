"""Tests for the wire primitives: the dtype-code table and the frame CRC32."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression import HybridCompressor, decompress_any
from repro.compression.base import parse_payload
from repro.compression.serialization import WIRE_DTYPES, CorruptPayloadError, dtype_code, wire_dtype


def _frame() -> bytes:
    data = np.linspace(-1.0, 1.0, 512, dtype=np.float32).reshape(64, 8)
    return HybridCompressor().compress(data, 1e-2)


class TestChecksumFrame:
    """The CRC32 built into every codec frame catches damage in transit."""

    @pytest.mark.parametrize("position", [5, 10, 23])
    def test_bit_flip_detected(self, position):
        framed = bytearray(_frame())
        framed[position] ^= 0x40
        with pytest.raises(CorruptPayloadError, match="CRC32"):
            parse_payload(bytes(framed))
        with pytest.raises(CorruptPayloadError, match="CRC32"):
            decompress_any(bytes(framed))

    def test_damaged_digest_detected(self):
        payload = _frame()
        _, body = parse_payload(payload)
        digest_at = len(payload) - body.nbytes - 4  # the stored CRC32 slot
        framed = bytearray(payload)
        framed[digest_at] ^= 0x01
        with pytest.raises(CorruptPayloadError, match="CRC32"):
            parse_payload(bytes(framed))


class TestDtypeCodes:
    def test_every_wire_dtype_roundtrips_through_its_code(self):
        for code, dtype in enumerate(WIRE_DTYPES):
            assert dtype_code(dtype) == code
            assert wire_dtype(code) == dtype

    def test_dtype_without_code_refused_by_the_packer(self):
        with pytest.raises(TypeError, match="no wire code"):
            dtype_code(np.dtype(">f4"))

    @given(st.integers(min_value=len(WIRE_DTYPES), max_value=255))
    def test_codes_past_the_table_rejected(self, code):
        with pytest.raises(CorruptPayloadError, match="dtype code"):
            wire_dtype(code)

    def test_code_outside_allowed_set_rejected(self):
        with pytest.raises(CorruptPayloadError, match="dtype code"):
            wire_dtype(dtype_code(np.int8), (np.dtype("<f4"),))
