"""Failure-injection tests: corrupt and truncated payloads.

A compressor used inside a training loop must fail loudly on mangled
input — silently decoding garbage would corrupt the model.  These tests
verify that every codec raises a Python-level exception (never hangs,
never returns a wrong-shaped array) for a family of corruptions.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.compression import VectorLZCompressor, available_compressors, decompress_any, get_compressor
from repro.compression.base import MAGIC, VERSION, parse_payload
from repro.compression.bitstream import pack_fixed
from repro.compression.homomorphic import agg_sum
from repro.compression.serialization import WIRE_DTYPES, CorruptPayloadError, dtype_code
from repro.compression.vector_lz import VectorLZEncoded, vector_lz_decode, vector_lz_encode
from tests.conftest import make_hot_batch

#: hostile dtype codes, keyed by the dtype string each stands for: the
#: bytes a decoder that trusted the code would hand NumPy (``"O"`` object,
#: ``"V"`` void, ``"U"`` unicode) and codes past the end of the table —
#: none indexes :data:`WIRE_DTYPES`
UNTRUSTED_DTYPES = {"(": 0xFF, "f4,(": 0x80, "O": ord("O"), "V0": ord("V"), "<U3": ord("U")}
assert all(code >= len(WIRE_DTYPES) for code in UNTRUSTED_DTYPES.values())


class _UnregisteredLZ(VectorLZCompressor):
    """A codec whose frame layout the parser knows but the registry does not."""

    name = "nobody"
    codec_id = 0xEE


@pytest.fixture(scope="module")
def payloads():
    rng = np.random.default_rng(99)
    batch = make_hot_batch(rng, batch=128, dim=16)
    out = {}
    for name in available_compressors():
        codec = get_compressor(name)
        out[name] = (codec, codec.compress(batch, 0.01 if codec.error_bounded else None), batch)
    return out


class TestCorruptPayloads:
    def test_bad_magic_rejected_every_codec(self, payloads):
        for name, (codec, payload, _) in payloads.items():
            mangled = bytes([MAGIC ^ 0xFF]) + payload[1:]
            with pytest.raises(ValueError, match="magic"):
                codec.decompress(mangled)

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            decompress_any(b"")

    @pytest.mark.parametrize("fraction", [0.05, 0.5, 0.95])
    def test_truncation_never_hangs_or_misshapes(self, payloads, fraction):
        """Truncated payloads raise; they never return a wrong result."""
        for name, (codec, payload, batch) in payloads.items():
            cut = max(1, int(len(payload) * fraction))
            truncated = payload[:cut]
            try:
                result = codec.decompress(truncated)
            except Exception:
                continue  # loud failure: exactly what we want
            # If decode "succeeded", framing must have been complete and the
            # shape contract must still hold.
            assert result.shape == batch.shape, name

    def test_header_tag_corruption_rejected(self, payloads):
        codec, payload, _ = payloads["entropy"]
        # Flip a byte inside the header region (just past the magic byte).
        mangled = bytearray(payload)
        mangled[1] ^= 0xFF
        with pytest.raises(Exception):
            codec.decompress(bytes(mangled))

    def test_cross_codec_payload_rejected(self, payloads):
        lz_codec, lz_payload, _ = payloads["vector_lz"]
        entropy_codec, _, _ = payloads["entropy"]
        with pytest.raises(ValueError, match="produced by codec"):
            entropy_codec.decompress(lz_payload)

    def test_parse_payload_roundtrip_headers(self, payloads):
        for name, (_, payload, batch) in payloads.items():
            header, body = parse_payload(payload)
            assert tuple(int(s) for s in header["shape"]) == batch.shape
            assert len(body) <= len(payload)

    def test_body_bitflip_huffman_detected_or_bounded(self, payloads):
        """A flipped bit in the entropy body either raises or decodes to the
        declared shape (the jump-chain guard prevents hangs)."""
        codec, payload, batch = payloads["entropy"]
        header, body = parse_payload(payload)
        body_start = len(payload) - len(body)
        for offset in (0, len(body) // 2, len(body) - 1):
            mangled = bytearray(payload)
            mangled[body_start + offset] ^= 0x55
            try:
                result = codec.decompress(bytes(mangled))
            except Exception:
                continue
            assert result.shape == batch.shape


def _reframe(header, body, **fields):
    """Frame ``header`` + ``body`` by hand over the wire layout.

    ``fields`` override the frame's own fields (``codec_id``,
    ``dtype_code``, ``shape``) or any codec slot, with values the framer
    would refuse to emit.  The CRC32 is recomputed, so the mangled frame
    reaches the check behind it.
    """
    codec = type(get_compressor(header["codec"]))
    values = {
        **header,
        "codec_id": codec.codec_id,
        "dtype_code": dtype_code(header["dtype"]),
        **fields,
    }
    shape = values["shape"]
    out = bytearray(struct.pack("<BBBBB", MAGIC, VERSION, values["codec_id"], values["dtype_code"], len(shape)))
    out += struct.pack(f"<{len(shape)}I", *shape) + struct.pack("<I", len(body))
    out += codec.schema.struct.pack(*(values[name] for name in codec.schema.fields))
    for name, dtype in codec.schema.arrays:
        array = np.asarray(values[name], dtype=dtype)
        out += struct.pack("<I", array.size) + array.tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(body), zlib.crc32(out)))
    return bytes(out) + bytes(body)


class TestUntrustedDtypes:
    """Header dtype strings are untrusted input: anything but what a codec
    emits raises the one documented error, never a NumPy parse error and
    never a decode into an object/void/unicode array."""

    @pytest.mark.parametrize("codec_name", available_compressors())
    @pytest.mark.parametrize("dtype_str", UNTRUSTED_DTYPES)
    def test_frame_dtype_rejected(self, payloads, codec_name, dtype_str):
        codec, payload, _ = payloads[codec_name]
        header, body = parse_payload(payload)
        mangled = _reframe(header, body, dtype_code=UNTRUSTED_DTYPES[dtype_str])
        with pytest.raises(CorruptPayloadError, match="dtype"):
            codec.decompress(mangled)
        with pytest.raises(CorruptPayloadError, match="dtype"):
            decompress_any(mangled)

    @pytest.mark.parametrize("codec_name", available_compressors())
    @pytest.mark.parametrize("dtype_str", UNTRUSTED_DTYPES)
    def test_meta_array_dtype_rejected(self, payloads, codec_name, dtype_str):
        """Array fields carry no dtype on the wire: the codec's schema fixes
        it, so the only dtype codes a frame carries are its own and
        ``quant_sum``'s ``cdtype``.  The one parser refuses a hostile frame
        code before any codec runs."""
        _, payload, _ = payloads[codec_name]
        header, body = parse_payload(payload)
        schema = type(get_compressor(header["codec"])).schema
        for name, dtype in schema.arrays:
            assert header[name].dtype == dtype
        mangled = _reframe(header, body, dtype_code=UNTRUSTED_DTYPES[dtype_str])
        with pytest.raises(CorruptPayloadError, match="dtype"):
            parse_payload(mangled)

    @pytest.mark.parametrize("codec_name", available_compressors())
    def test_non_float_frame_dtype_rejected(self, payloads, codec_name):
        """A code in the table that no codec frames (int8) is refused too."""
        codec, payload, _ = payloads[codec_name]
        header, body = parse_payload(payload)
        mangled = _reframe(header, body, dtype_code=dtype_code(np.int8))
        with pytest.raises(CorruptPayloadError, match="dtype"):
            codec.decompress(mangled)

    @pytest.mark.parametrize("dtype_str", UNTRUSTED_DTYPES)
    def test_quant_sum_code_dtype_rejected(self, payloads, dtype_str):
        """``quant_sum``'s ``cdtype`` names the body's integer codes: decode
        and compressed-space aggregation both refuse a hostile one."""
        codec, payload, _ = payloads["quant_sum"]
        header, body = parse_payload(payload)
        mangled = _reframe(header, body, cdtype=UNTRUSTED_DTYPES[dtype_str])
        with pytest.raises(CorruptPayloadError, match="dtype"):
            codec.decompress(mangled)
        with pytest.raises(CorruptPayloadError, match="dtype"):
            agg_sum(payload, mangled)


class TestHeaderBodyDisagreement:
    """A header that lies about the body raises the one documented error."""

    @pytest.mark.parametrize("codec_name", available_compressors())
    def test_shape_disagreeing_with_body_rejected(self, payloads, codec_name):
        # a flipped bit in a u32 dimension: the body cannot hold that shape
        codec, payload, batch = payloads[codec_name]
        header, body = parse_payload(payload)
        shape = (batch.shape[0], batch.shape[1] ^ 0x100)
        mangled = _reframe(header, body, shape=shape)
        with pytest.raises(CorruptPayloadError, match="decoded shape|body holds"):
            codec.decompress(mangled)
        with pytest.raises(CorruptPayloadError, match="decoded shape|body holds"):
            decompress_any(mangled)

    @pytest.mark.parametrize("codec_name", available_compressors())
    def test_one_row_too_many_rejected(self, payloads, codec_name):
        """A positive extent whose element count the body cannot fill (once
        a NumPy ``cannot reshape`` ``ValueError`` in the fixed-rate codecs)."""
        codec, payload, batch = payloads[codec_name]
        header, body = parse_payload(payload)
        mangled = _reframe(header, body, shape=(batch.shape[0] + 1, batch.shape[1]))
        with pytest.raises(CorruptPayloadError, match="decoded shape|body holds"):
            decompress_any(mangled)

    def test_unregistered_codec_rejected(self, payloads):
        codec, payload, _ = payloads["hybrid"]
        header, body = parse_payload(payload)
        assert header["codec"] == "vector_lz"  # the layout _UnregisteredLZ shares
        mangled = _reframe(header, body, codec_id=_UnregisteredLZ.codec_id)
        with pytest.raises(CorruptPayloadError, match="is not registered"):
            decompress_any(mangled)
        with pytest.raises(CorruptPayloadError, match="unknown inner codec"):
            codec.decompress(mangled)

    @pytest.mark.parametrize("codec_name", ["entropy", "cusz_like"])
    def test_code_table_without_payload_bits_rejected(self, codec_name):
        """A one-symbol frame (no payload bits) whose code table is mangled
        to name two symbols: once a NumPy ``IndexError`` in the decoder."""
        payload = get_compressor(codec_name).compress(np.zeros((16, 4), np.float32), 0.01)
        header, body = parse_payload(payload)
        lengths = np.concatenate([header["code_lengths"], header["code_lengths"]])
        with pytest.raises(CorruptPayloadError, match="cannot hold"):
            decompress_any(_reframe(header, body, code_lengths=lengths))

    def test_unknown_codec_id_rejected(self, payloads):
        _, payload, _ = payloads["fp16"]
        header, body = parse_payload(payload)
        mangled = _reframe(header, body, codec_id=0xFD)
        with pytest.raises(CorruptPayloadError, match="is not registered"):
            decompress_any(mangled)


def _lz_stream(codes, **changes):
    """A vector-LZ token stream of ``codes`` with fields replaced."""
    encoded = vector_lz_encode(np.asarray(codes))
    return VectorLZEncoded(**{**encoded.__dict__, **changes})


class TestVectorLZStreamSites:
    """The production decoder's corrupt-stream sites raise the documented
    error, not NumPy's or a plain ``ValueError``."""

    def test_back_reference_before_row_zero(self):
        encoded = _lz_stream([[1, 2], [1, 2]])
        offsets, _ = pack_fixed(np.array([2]), encoded.offset_width)
        with pytest.raises(CorruptPayloadError, match="before row 0"):
            vector_lz_decode(VectorLZEncoded(**{**encoded.__dict__, "offsets": offsets}))

    def test_unresolvable_match_chain(self):
        encoded = _lz_stream([[1, 2], [1, 2]])
        offsets, _ = pack_fixed(np.array([0]), encoded.offset_width)
        with pytest.raises(CorruptPayloadError, match="unresolvable match chain"):
            vector_lz_decode(VectorLZEncoded(**{**encoded.__dict__, "offsets": offsets}))

    def test_short_literal_section(self):
        encoded = _lz_stream([[1, 2], [3, 4], [1, 2]])
        with pytest.raises(CorruptPayloadError, match="literals"):
            vector_lz_decode(_lz_stream([[1, 2], [3, 4], [1, 2]], literals=encoded.literals[:-1]))

    def test_match_count_exceeding_rows(self):
        encoded = _lz_stream([[1, 2], [1, 2]])
        with pytest.raises(CorruptPayloadError):
            vector_lz_decode(VectorLZEncoded(**{**encoded.__dict__, "n_matches": 3}))
