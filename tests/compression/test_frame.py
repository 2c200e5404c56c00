"""The fixed-slot payload frame: layout, size, parse-once decode, fuzzing.

Every single-byte flip of every codec's frame makes ``parse_payload``
raise :class:`CorruptPayloadError`: the frame CRC32 is the only integrity
check on the wire, so detection may not wait for a decode to notice.

The fuzz properties run over every registered codec.  A mangled frame —
truncated, byte-flipped, replaced by random bytes or stamped with another
version — must decode to the right array or raise
:class:`CorruptPayloadError`; never ``IndexError``, ``struct.error``,
``KeyError``, ``MemoryError`` or any other exception.  With the CRC32
recomputed after mangling, the same frames reach the field checks behind
the checksum, where a decode may only return an array of the declared
shape and dtype or raise the documented error.
"""

from __future__ import annotations

import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compression import (
    HybridCompressor,
    VectorLZCompressor,
    available_compressors,
    decompress_any,
    get_compressor,
)
from repro.compression import base, registry
from repro.compression.base import MAGIC, VERSION, parse_payload
from repro.compression.serialization import CorruptPayloadError, dtype_code
from tests.conftest import make_hot_batch

SRC = Path(__file__).resolve().parents[2] / "src"

FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(7)
    batch = make_hot_batch(rng, batch=64, dim=8)
    out = {}
    for name in available_compressors():
        codec = get_compressor(name)
        payload = codec.compress(batch, 0.01 if codec.error_bounded else None)
        out[name] = (payload, decompress_any(payload))
    return out


def _crc_offset(payload: bytes) -> int:
    _, body = parse_payload(payload)
    return len(payload) - len(body) - 4


def _recrc(mangled: bytearray, crc_at: int) -> bytes:
    """Restamp the CRC32 slot at ``crc_at`` so the frame passes its checksum."""
    if crc_at + 4 <= len(mangled):
        crc = zlib.crc32(bytes(mangled[crc_at + 4 :]), zlib.crc32(bytes(mangled[:crc_at])))
        mangled[crc_at : crc_at + 4] = struct.pack("<I", crc)
    return bytes(mangled)


@st.composite
def mangled(draw, payload: bytes) -> bytearray:
    kind = draw(st.sampled_from(["truncate", "flip", "random", "version"]))
    frame = bytearray(payload)
    if kind == "truncate":
        return frame[: draw(st.integers(0, len(frame) - 1))]
    if kind == "random":
        return bytearray(draw(st.binary(max_size=2 * len(frame))))
    if kind == "version":
        frame[1] = draw(st.integers(0, 255).filter(lambda v: v != VERSION))
        return frame
    # flips concentrate on the header, where every field check lives
    header_len = len(payload) - len(parse_payload(payload)[1])
    limit = draw(st.sampled_from([header_len, len(frame)]))
    for _ in range(draw(st.integers(1, 4))):
        frame[draw(st.integers(0, limit - 1))] ^= draw(st.integers(1, 255))
    return frame


def _decode(data: bytes):
    """The decoded array, or ``None`` for the one documented error."""
    try:
        with np.errstate(over="ignore"):  # a mangled scale may decode to inf
            return decompress_any(data)
    except CorruptPayloadError:
        return None


class TestFuzz:
    @pytest.mark.parametrize("name", available_compressors())
    @FUZZ
    @given(data=st.data())
    def test_mangled_frame_is_right_or_corrupt(self, frames, name, data):
        payload, expected = frames[name]
        result = _decode(bytes(data.draw(mangled(payload))))
        if result is not None:
            np.testing.assert_array_equal(result, expected)

    @pytest.mark.parametrize("name", available_compressors())
    @FUZZ
    @given(data=st.data())
    def test_mangled_frame_behind_a_valid_crc_is_shaped_or_corrupt(self, frames, name, data):
        payload, expected = frames[name]
        frame = _recrc(data.draw(mangled(payload)), _crc_offset(payload))
        result = _decode(frame)
        if result is not None:
            header, _ = parse_payload(frame)
            assert result.shape == header["shape"]
            assert result.dtype == header["dtype"]


class TestSingleByteFlips:
    @pytest.mark.parametrize("name", available_compressors())
    def test_every_single_byte_flip_is_corrupt(self, frames, name):
        payload, _ = frames[name]
        undetected = []
        for pos in range(len(payload)):
            for mask in (0x01, 0x80, 0xFF):
                frame = bytearray(payload)
                frame[pos] ^= mask
                try:
                    parse_payload(bytes(frame))
                except CorruptPayloadError:
                    continue
                undetected.append((pos, mask))
        assert undetected == [], f"{name}: flips parsed as valid frames"


class TestOneIntegrityCheck:
    """The frame CRC32, computed and checked in ``compression/base.py``, is
    the only integrity mechanism: no second checksum framing and no
    option to switch one on."""

    def test_only_the_frame_module_computes_crc32(self):
        crc_users = re.compile(r"^\s*(import|from) zlib\b|crc32\(", re.MULTILINE)
        users = sorted(
            path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py")
            if crc_users.search(path.read_text())
        )
        assert users == ["repro/compression/base.py"]

    def test_no_checksum_keyword_remains(self):
        keyword = re.compile(r"\bchecksum\s*=")
        offenders = sorted(
            path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py")
            if keyword.search(path.read_text())
        )
        assert offenders == []


class TestLayout:
    def test_header_fields_sit_at_fixed_offsets(self):
        batch = np.arange(12, dtype=np.float32).reshape(3, 4)
        payload = get_compressor("fp16").compress(batch)
        assert payload[:5] == bytes([MAGIC, VERSION, 3, dtype_code(np.float32), 2])
        assert struct.unpack_from("<3I", payload, 5) == (3, 4, 24)  # dims, body length
        (crc,) = struct.unpack_from("<I", payload, 17)
        assert crc == zlib.crc32(payload[21:], zlib.crc32(payload[:17]))
        assert payload[21:] == batch.astype(np.float16).tobytes()

    def test_two_dimensional_vector_lz_header_fits_64_bytes(self):
        batch = make_hot_batch(np.random.default_rng(3), batch=256, dim=32)
        payload = VectorLZCompressor().compress(batch, 0.01)
        _, body = parse_payload(payload)
        assert len(payload) - len(body) <= 64

    def test_codec_ids_are_unique_per_registered_codec(self):
        ids = [type(get_compressor(name)).codec_id for name in available_compressors() if name != "hybrid"]
        assert None not in ids and len(set(ids)) == len(ids)

    def test_slot_overflow_raises_instead_of_truncating(self):
        batch = make_hot_batch(np.random.default_rng(4), batch=8, dim=4)
        with pytest.raises(OverflowError, match="vector_lz"):
            VectorLZCompressor(window=1 << 32).compress(batch, 0.01)

    def test_empty_payload_and_foreign_bytes_are_corrupt(self):
        for data in (b"", b"\xdc", bytes(64)):
            with pytest.raises(CorruptPayloadError):
                parse_payload(data)

    def test_crc_prefixed_frame_is_bad_magic(self, frames):
        payload, _ = frames["vector_lz"]
        prefixed = b"\xc5" + struct.pack("<I", zlib.crc32(payload)) + payload
        with pytest.raises(CorruptPayloadError, match="bad magic"):
            decompress_any(prefixed)

    def test_trailing_bytes_are_corrupt(self, frames):
        payload, _ = frames["vector_lz"]
        with pytest.raises(CorruptPayloadError, match="body"):
            parse_payload(payload + b"\x00")


class TestParseOnce:
    """``decompress_any`` and ``decompress`` parse each frame exactly once."""

    @pytest.fixture
    def parses(self, monkeypatch):
        calls = []
        real = base.parse_payload

        def counting(payload):
            calls.append(1)
            return real(payload)

        monkeypatch.setattr(base, "parse_payload", counting)
        monkeypatch.setattr(registry, "parse_payload", counting)
        return calls

    @pytest.mark.parametrize("name", available_compressors())
    def test_decompress_any_parses_once(self, frames, parses, name):
        payload, expected = frames[name]
        np.testing.assert_array_equal(decompress_any(payload), expected)
        assert len(parses) == 1

    def test_hybrid_decompress_parses_once(self, frames, parses):
        payload, expected = frames["hybrid"]
        np.testing.assert_array_equal(HybridCompressor().decompress(payload), expected)
        assert len(parses) == 1
