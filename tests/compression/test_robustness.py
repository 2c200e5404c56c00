"""Failure-injection tests: corrupt and truncated payloads.

A compressor used inside a training loop must fail loudly on mangled
input — silently decoding garbage would corrupt the model.  These tests
verify that every codec raises a Python-level exception (never hangs,
never returns a wrong-shaped array) for a family of corruptions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import available_compressors, decompress_any, get_compressor
from repro.compression.base import MAGIC, parse_payload
from repro.compression.homomorphic import agg_sum
from repro.compression.serialization import CorruptPayloadError, _pack_value, write_varint
from tests.conftest import make_hot_batch

#: dtype strings a hostile header might carry: unparseable, structured,
#: object, empty void and unicode — none is a dtype any codec emits
UNTRUSTED_DTYPES = ["(", "f4,(", "O", "V0", "<U3"]


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


def _reframe(header, body, *, raw_values=None):
    """Frame ``header`` + ``body``, splicing pre-encoded values in for the
    keys in ``raw_values`` (the packer would refuse to emit them)."""
    raw_values = raw_values or {}
    out = bytearray([MAGIC])
    write_varint(out, len(header))
    for key, value in header.items():
        write_varint(out, len(key.encode("utf-8")))
        out += key.encode("utf-8")
        if key in raw_values:
            out += raw_values[key]
        else:
            _pack_value(out, value)
    return bytes(out) + bytes(body)


def _array_value(dtype_str, array):
    """An ``A``-tagged meta value declaring ``dtype_str`` over ``array``'s bytes."""
    out = bytearray(b"A")
    write_varint(out, len(dtype_str))
    out += dtype_str.encode("ascii")
    write_varint(out, array.ndim)
    for dim in array.shape:
        write_varint(out, dim)
    raw = array.tobytes()
    write_varint(out, len(raw))
    return bytes(out + raw)


class TestUntrustedDtypes:
    """Header dtype strings are untrusted input: anything but what a codec
    emits raises the one documented error, never a NumPy parse error and
    never a decode into an object/void/unicode array."""

    @pytest.mark.parametrize("codec_name", available_compressors())
    @pytest.mark.parametrize("dtype_str", UNTRUSTED_DTYPES)
    def test_frame_dtype_rejected(self, payloads, codec_name, dtype_str):
        codec, payload, _ = payloads[codec_name]
        header, body = parse_payload(payload)
        mangled = _reframe({**header, "dtype": dtype_str}, body)
        with pytest.raises(CorruptPayloadError, match="dtype"):
            codec.decompress(mangled)
        with pytest.raises(CorruptPayloadError, match="dtype"):
            decompress_any(mangled)

    @pytest.mark.parametrize("codec_name", available_compressors())
    @pytest.mark.parametrize("dtype_str", UNTRUSTED_DTYPES)
    def test_meta_array_dtype_rejected(self, payloads, codec_name, dtype_str):
        codec, payload, _ = payloads[codec_name]
        header, body = parse_payload(payload)
        shape = _array_value(dtype_str, np.asarray(header["shape"], dtype=np.int64))
        mangled = _reframe(header, body, raw_values={"shape": shape})
        with pytest.raises(CorruptPayloadError, match="dtype"):
            codec.decompress(mangled)
        with pytest.raises(CorruptPayloadError, match="dtype"):
            decompress_any(mangled)

    @pytest.mark.parametrize("dtype_str", UNTRUSTED_DTYPES)
    def test_quant_sum_code_dtype_rejected(self, payloads, dtype_str):
        """``quant_sum``'s ``cdtype`` names the body's integer codes: decode
        and compressed-space aggregation both refuse a hostile one."""
        codec, payload, _ = payloads["quant_sum"]
        header, body = parse_payload(payload)
        mangled = _reframe({**header, "cdtype": dtype_str}, body)
        with pytest.raises(CorruptPayloadError, match="dtype"):
            codec.decompress(mangled)
        with pytest.raises(CorruptPayloadError, match="dtype"):
            agg_sum(payload, mangled)


class TestHeaderBodyDisagreement:
    """A header that lies about the body raises the one documented error."""

    @pytest.mark.parametrize("codec_name", available_compressors())
    def test_shape_disagreeing_with_body_rejected(self, payloads, codec_name):
        # a negative extent is what a flipped shape byte decodes to; NumPy
        # would happily infer it, so only the shape check can catch it
        codec, payload, batch = payloads[codec_name]
        header, body = parse_payload(payload)
        shape = np.asarray((batch.shape[0], -1), dtype=np.int64)
        mangled = _reframe({**header, "shape": shape}, body)
        with pytest.raises(CorruptPayloadError, match="decoded shape|body holds"):
            codec.decompress(mangled)
        with pytest.raises(CorruptPayloadError, match="decoded shape|body holds"):
            decompress_any(mangled)

    def test_unregistered_codec_rejected(self, payloads):
        codec, payload, _ = payloads["hybrid"]
        header, body = parse_payload(payload)
        mangled = _reframe({**header, "codec": "nobody"}, body)
        with pytest.raises(CorruptPayloadError, match="is not registered"):
            decompress_any(mangled)
        with pytest.raises(CorruptPayloadError, match="unknown inner codec"):
            codec.decompress(mangled)
