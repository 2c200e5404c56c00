"""Vector-based LZ encoding for embedding batches.

The paper's key observation (Section III-D) is that repeated patterns in
DLRM all-to-all traffic are *whole embedding vectors*: the unbalanced query
distribution makes hot rows recur within a batch, and a repeated row is
byte-identical for its entire, fixed length.  The vector-based LZ encoder
therefore departs from byte-oriented LZ77 in two ways:

* **Fixed pattern length** — match candidates are whole rows; if the first
  element differs the comparison stops, and the search pointer leaps a full
  vector instead of advancing one byte.
* **Extended window** — the window is measured in *vectors* (default 255,
  the paper's best), covering the 128–2048-row batches DLRM produces, far
  beyond a 4 KB byte window.

The encoder emits, per row, either a back-reference to an earlier identical
row inside the window or a literal row whose (quantized) elements are packed
at the minimal fixed bit width.  Everything except the final match scan is
vectorized; the scan is a dictionary pass over at most ``batch`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.compression.base import Compressor, FrameSchema, require_frame
from repro.compression.bitstream import pack_fixed, unpack_fixed
from repro.compression.quantizer import quantize_batch
from repro.compression.serialization import CorruptPayloadError

__all__ = [
    "DEFAULT_WINDOW",
    "VectorLZEncoded",
    "find_vector_matches",
    "vector_lz_encode",
    "vector_lz_decode",
    "VectorLZCompressor",
]

# The GPU decoder resolves match chains in O(log window) batched passes
# (pointer jumping); chains longer than ~2**60 would overflow the pass
# counter, far beyond any real batch.
_MAX_JUMP_PASSES = 64

DEFAULT_WINDOW = 255


def _row_keys(codes: np.ndarray) -> list[bytes]:
    """Return a hashable per-row key (the row's raw bytes)."""
    contiguous = np.ascontiguousarray(codes)
    if contiguous.ndim != 2:
        raise ValueError(f"expected 2-D code array, got shape {contiguous.shape}")
    n, d = contiguous.shape
    if d == 0:
        return [b""] * n
    void_dtype = np.dtype((np.void, d * contiguous.itemsize))
    return contiguous.reshape(n, d).view(void_dtype).ravel().tolist()


def find_vector_matches(codes: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Find, for each row, the nearest identical earlier row within ``window``.

    Returns ``(is_match, offsets)`` where ``offsets[i] = i - j`` for matched
    rows (1-based distance) and 0 for literals.  The scan keeps only the most
    recent occurrence per distinct row — matching the leap-forward search of
    the paper's fine-tuned LZ, which never revisits stale candidates.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    keys = _row_keys(codes)
    n = len(keys)
    is_match = np.zeros(n, dtype=bool)
    offsets = np.zeros(n, dtype=np.int64)
    last_seen: dict[bytes, int] = {}
    for i, key in enumerate(keys):
        j = last_seen.get(key)
        if j is not None and i - j <= window:
            is_match[i] = True
            offsets[i] = i - j
        last_seen[key] = i
    return is_match, offsets


def _width_for(max_value: int) -> int:
    """Minimal bit width holding values in [0, max_value]."""
    return max(1, int(max_value).bit_length())


@dataclass(frozen=True)
class VectorLZEncoded:
    """A vector-LZ token stream (flags + back-references + literal rows)."""

    flags: np.ndarray  # packed uint8 bitmap, 1 = match
    offsets: np.ndarray  # packed uint8, fixed-width back-references
    literals: np.ndarray  # packed uint8, fixed-width literal elements
    n_rows: int
    n_matches: int
    dim: int
    window: int
    offset_width: int
    literal_width: int

    @property
    def nbytes(self) -> int:
        return int(self.flags.nbytes + self.offsets.nbytes + self.literals.nbytes)


def vector_lz_encode(codes: np.ndarray, window: int = DEFAULT_WINDOW) -> VectorLZEncoded:
    """Encode a 2-D array of non-negative integer codes row-wise."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"expected 2-D code array, got shape {codes.shape}")
    if codes.size and codes.min() < 0:
        raise ValueError("vector_lz_encode expects non-negative codes")
    n, d = codes.shape
    is_match, offsets = find_vector_matches(codes, window)
    n_matches = int(is_match.sum())
    flags = np.packbits(is_match)
    offset_width = _width_for(window)
    packed_offsets, _ = pack_fixed(offsets[is_match], offset_width)
    literal_rows = codes[~is_match]
    literal_width = _width_for(int(literal_rows.max()) if literal_rows.size else 0)
    packed_literals, _ = pack_fixed(literal_rows.ravel(), literal_width)
    return VectorLZEncoded(
        flags=flags,
        offsets=packed_offsets,
        literals=packed_literals,
        n_rows=n,
        n_matches=n_matches,
        dim=d,
        window=window,
        offset_width=offset_width,
        literal_width=literal_width,
    )


def _section_bytes(count: int, width: int) -> int:
    return (count * width + 7) // 8


def _decode_fields(encoded: VectorLZEncoded) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unpack the token stream into ``(is_match, offsets, literal_rows)``.

    The stream is untrusted: its counts, widths and section sizes must
    agree exactly, or :class:`CorruptPayloadError` is raised before any
    section is unpacked.
    """
    n, d = encoded.n_rows, encoded.dim
    n_literals = n - encoded.n_matches
    require_frame(
        1 <= encoded.offset_width <= 57 and 1 <= encoded.literal_width <= 57,
        "corrupt vector-LZ stream: field width outside [1, 57]",
    )
    for section, have, need in (
        ("flags", encoded.flags.size, _section_bytes(n, 1)),
        ("offsets", encoded.offsets.size, _section_bytes(encoded.n_matches, encoded.offset_width)),
        ("literals", encoded.literals.size, _section_bytes(n_literals * d, encoded.literal_width)),
    ):
        require_frame(
            n_literals >= 0 and have == need,
            f"corrupt vector-LZ stream: body holds {have} {section} bytes, expected {need}",
        )
    is_match = np.unpackbits(encoded.flags, count=n).astype(bool)
    require_frame(
        int(np.count_nonzero(is_match)) == encoded.n_matches,
        "corrupt vector-LZ stream: match flags disagree with the match count",
    )
    offsets = unpack_fixed(encoded.offsets, encoded.n_matches, encoded.offset_width)
    literal_values = unpack_fixed(encoded.literals, n_literals * d, encoded.literal_width)
    literal_rows = literal_values.reshape(n_literals, d).astype(np.int64)
    return is_match, offsets, literal_rows


def vector_lz_decode(encoded: VectorLZEncoded) -> np.ndarray:
    """Reconstruct the code array from a :class:`VectorLZEncoded` stream.

    Every row is either a literal or a back-reference to an earlier row, so
    each row resolves to exactly one literal through a chain of references.
    Chains are collapsed with batched pointer jumping (``src = src[src]``),
    which terminates in O(log chain-length) vectorized passes; the decode
    never touches rows one at a time.
    """
    n, d = encoded.n_rows, encoded.dim
    if n == 0:
        return np.zeros((0, d), dtype=np.int64)
    is_match, offsets, literal_rows = _decode_fields(encoded)
    # src[i]: the earlier row that row i copies (itself for literals).
    src = np.arange(n, dtype=np.int64)
    match_positions = np.flatnonzero(is_match)
    src[match_positions] = match_positions - offsets.astype(np.int64)
    if src.min() < 0:
        raise CorruptPayloadError("corrupt vector-LZ stream: back-reference before row 0")
    # Pointer jumping: literals are fixed points, matches strictly decrease,
    # so repeated src[src] reaches the all-literal fixed point.
    for _ in range(_MAX_JUMP_PASSES):
        hopped = np.take(src, src)
        if np.array_equal(hopped, src):
            break
        src = hopped
    if is_match[src].any():
        raise CorruptPayloadError("corrupt vector-LZ stream: unresolvable match chain")
    # Root rows are literals; literal_index maps a literal row position to
    # its rank in the packed literal block.
    literal_index = np.cumsum(~is_match) - 1
    return np.take(literal_rows, np.take(literal_index, src), axis=0)


def _reference_vector_lz_decode(encoded: VectorLZEncoded) -> np.ndarray:
    """Original per-row decode loop (with the seed's original fixed-width
    bit reader), kept as the differential-test and benchmark oracle."""
    from repro.compression.bitstream import _reference_unpack_fixed

    n, d = encoded.n_rows, encoded.dim
    if n == 0:
        return np.zeros((0, d), dtype=np.int64)
    is_match = np.unpackbits(encoded.flags, count=n).astype(bool)
    offsets = _reference_unpack_fixed(encoded.offsets, encoded.n_matches, encoded.offset_width)
    n_literals = n - encoded.n_matches
    literal_values = _reference_unpack_fixed(
        encoded.literals, n_literals * d, encoded.literal_width
    )
    literal_rows = literal_values.reshape(n_literals, d).astype(np.int64)
    out = np.empty((n, d), dtype=np.int64)
    match_iter = 0
    literal_iter = 0
    for i in range(n):
        if is_match[i]:
            out[i] = out[i - int(offsets[match_iter])]
            match_iter += 1
        else:
            out[i] = literal_rows[literal_iter]
            literal_iter += 1
    return out


class VectorLZCompressor(Compressor):
    """Error-bounded compressor: quantization + vector-based LZ ("Ours-Vector").

    Parameters
    ----------
    window:
        Match window in vectors.  The paper sweeps {32, 64, 128, 255}
    """

    name = "vector_lz"
    codec_id = 1
    schema = FrameSchema(
        slots=(
            ("eb", "d"),
            ("code_min", "q"),
            ("window", "I"),
            ("n_matches", "I"),
            ("offset_width", "B"),
            ("literal_width", "B"),
            ("flags_len", "I"),
            ("offsets_len", "I"),
        )
    )
    lossy = True
    error_bounded = True

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)

    def _compress_body(self, array: np.ndarray, error_bound: float | None) -> tuple[dict[str, Any], bytes]:
        # Vector-LZ stores literals at a fixed bit width (<= 57), so unlike
        # the entropy leg it tolerates huge alphabets; lift the default cap
        # to the packing limit rather than inheriting the codebook-oriented
        # DEFAULT_MAX_ALPHABET.
        batch = quantize_batch(array, float(error_bound), max_alphabet=1 << 57)
        encoded = vector_lz_encode(batch.codes, self.window)
        meta = {
            "eb": batch.error_bound,
            "code_min": batch.code_min,
            "window": encoded.window,
            "n_matches": encoded.n_matches,
            "offset_width": encoded.offset_width,
            "literal_width": encoded.literal_width,
            "flags_len": int(encoded.flags.size),
            "offsets_len": int(encoded.offsets.size),
        }
        # Hand the three sections to the framer as parts: the payload is
        # assembled with one copy instead of tobytes() per section plus a
        # concatenation (byte layout unchanged).
        return meta, [encoded.flags, encoded.offsets, encoded.literals]

    def _decompress_body(
        self, header: dict[str, Any], body: memoryview, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        n, d = shape
        flags_len = header["flags_len"]
        offsets_len = header["offsets_len"]
        raw = np.frombuffer(body, dtype=np.uint8)
        encoded = VectorLZEncoded(
            flags=raw[:flags_len],
            offsets=raw[flags_len : flags_len + offsets_len],
            literals=raw[flags_len + offsets_len :],
            n_rows=n,
            n_matches=header["n_matches"],
            dim=d,
            window=header["window"],
            offset_width=header["offset_width"],
            literal_width=header["literal_width"],
        )
        codes = vector_lz_decode(encoded)
        raw_codes = codes + header["code_min"]
        return (raw_codes.astype(np.float64) * (2.0 * header["eb"])).astype(dtype)
