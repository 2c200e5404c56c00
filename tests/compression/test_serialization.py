"""Tests for the wire primitives: dtype codes and the CRC32 envelope."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.serialization import WIRE_DTYPES, CorruptPayloadError, dtype_code, wire_dtype


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


class TestChecksumFrame:
    """The opt-in CRC32 envelope (satellite of the fault-injection PR)."""

    def test_roundtrip(self):
        from repro.compression.serialization import (
            CHECKSUM_MAGIC,
            frame_with_checksum,
            has_checksum,
            verify_checksum_frame,
        )

        body = b"compressed delta payload"
        framed = frame_with_checksum(body)
        assert framed[0] == CHECKSUM_MAGIC
        assert len(framed) == len(body) + 5
        assert has_checksum(framed) and not has_checksum(body)
        assert verify_checksum_frame(framed) == body

    def test_empty_body_roundtrips(self):
        from repro.compression.serialization import frame_with_checksum, verify_checksum_frame

        assert verify_checksum_frame(frame_with_checksum(b"")) == b""

    @pytest.mark.parametrize("position", [5, 10, 23])
    def test_bit_flip_detected(self, position):
        from repro.compression.serialization import (
            CorruptPayloadError,
            frame_with_checksum,
            verify_checksum_frame,
        )

        framed = bytearray(frame_with_checksum(bytes(range(32))))
        framed[position] ^= 0x40
        with pytest.raises(CorruptPayloadError, match="CRC32"):
            verify_checksum_frame(bytes(framed))

    def test_damaged_digest_detected(self):
        from repro.compression.serialization import (
            CorruptPayloadError,
            frame_with_checksum,
            verify_checksum_frame,
        )

        framed = bytearray(frame_with_checksum(b"payload"))
        framed[2] ^= 0x01  # inside the stored digest
        with pytest.raises(CorruptPayloadError):
            verify_checksum_frame(bytes(framed))

    def test_unframed_payload_rejected_as_value_error(self):
        from repro.compression.serialization import CorruptPayloadError, verify_checksum_frame

        with pytest.raises(ValueError) as err:
            verify_checksum_frame(b"no envelope here")
        assert not isinstance(err.value, CorruptPayloadError)

    @given(st.binary(max_size=256))
    def test_roundtrip_property(self, body):
        from repro.compression.serialization import frame_with_checksum, verify_checksum_frame

        assert verify_checksum_frame(frame_with_checksum(body)) == body

    def test_decompress_any_strips_envelope(self):
        """The registry-level decoder verifies and unwraps transparently,
        so receivers need no knowledge of whether framing was enabled."""
        import numpy as np

        from repro.compression import HybridCompressor, decompress_any
        from repro.compression.serialization import frame_with_checksum

        data = np.linspace(-1.0, 1.0, 512, dtype=np.float32).reshape(64, 8)
        payload = HybridCompressor().compress(data, 1e-2)
        plain = decompress_any(payload)
        framed = decompress_any(frame_with_checksum(payload))
        assert np.array_equal(plain, framed)


class TestZeroCopyFraming:
    """Differential: zero-copy framing vs the frozen ``_reference_*`` seed
    implementations (the raw-speed PR's byte-compatibility contract)."""

    @given(st.binary(max_size=512))
    def test_frame_matches_reference(self, body):
        from repro.compression.serialization import (
            _reference_frame_with_checksum,
            frame_with_checksum,
        )

        assert frame_with_checksum(body) == _reference_frame_with_checksum(body)

    @given(st.binary(min_size=1, max_size=512))
    def test_frame_accepts_any_buffer_type(self, body):
        from repro.compression.serialization import (
            _reference_frame_with_checksum,
            frame_with_checksum,
        )

        expected = _reference_frame_with_checksum(body)
        assert frame_with_checksum(bytearray(body)) == expected
        assert frame_with_checksum(memoryview(body)) == expected
        assert frame_with_checksum(np.frombuffer(body, dtype=np.uint8)) == expected

    @given(st.binary(max_size=512))
    def test_pooled_frame_matches_reference(self, body):
        from repro.compression.parallel import BitstreamPool
        from repro.compression.serialization import (
            _reference_frame_with_checksum,
            frame_with_checksum,
        )

        pool = BitstreamPool()
        with frame_with_checksum(body, pool=pool) as lease:
            assert bytes(lease.view) == _reference_frame_with_checksum(body)
        assert pool.stats.live == 0

    @given(st.binary(max_size=512))
    def test_verify_matches_reference_and_is_a_view(self, body):
        from repro.compression.serialization import (
            _reference_verify_checksum_frame,
            frame_with_checksum,
            verify_checksum_frame,
        )

        framed = frame_with_checksum(body)
        got = verify_checksum_frame(framed)
        assert isinstance(got, memoryview)  # no body copy on the hot path
        assert bytes(got) == _reference_verify_checksum_frame(framed) == body

    def test_pooled_steady_state_reuses_arenas(self):
        from repro.compression.parallel import BitstreamPool
        from repro.compression.serialization import frame_with_checksum

        pool = BitstreamPool()
        body = bytes(range(200))
        frame_with_checksum(body, pool=pool).release()
        created = pool.stats.arenas_created
        for _ in range(10):
            frame_with_checksum(body, pool=pool).release()
        assert pool.stats.arenas_created == created
        assert pool.stats.reuses == 10
