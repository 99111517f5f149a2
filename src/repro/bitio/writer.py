"""MSB-first bitstream writer backed by numpy bit arrays.

Besides the :class:`BitWriter` itself this module exposes the pure
bit-packing primitives (:func:`uint_to_bits`, :func:`pack_uint_rows`,
:func:`varlen_bits`) so batched encoders can prepare whole groups of
fixed-width or variable-length fields as bit arrays up front and emit them
later, in stream order, with one bulk :meth:`BitWriter.write_segments`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ParameterError

_UINT64_SHIFTS = np.arange(63, -1, -1, dtype=np.uint64)


def uint_to_bits(value: int, nbits: int) -> np.ndarray:
    """One unsigned integer as an ``nbits``-long MSB-first 0/1 uint8 array."""
    if nbits < 0 or nbits > 64:
        raise ParameterError(f"nbits must be in [0, 64], got {nbits}")
    v = int(value)
    if v < 0 or (nbits < 64 and v >> nbits):
        raise ParameterError(f"value {value} does not fit in {nbits} bits")
    shifts = _UINT64_SHIFTS[64 - nbits :]
    return ((np.uint64(v) >> shifts) & np.uint64(1)).astype(np.uint8)


def pack_uint_rows(values: np.ndarray, nbits: int) -> np.ndarray:
    """Bit-matrix rows for fixed-width fields.

    ``values`` is ``(n, k)`` uint64; the result is ``(n, k * nbits)`` uint8
    where row *i* holds the ``k`` fields of row *i* back to back, each MSB
    first.  This is the gather-side primitive for group-by-class batched
    emission: one call prepares a whole class's fields, and the rows are
    later interleaved into the stream in block order.
    """
    if nbits < 0 or nbits > 64:
        raise ParameterError(f"nbits must be in [0, 64], got {nbits}")
    vals = np.ascontiguousarray(values, dtype=np.uint64)
    if vals.ndim != 2:
        raise ParameterError("pack_uint_rows expects a 2-D value matrix")
    n, k = vals.shape
    if nbits == 0 or k == 0:
        return np.zeros((n, 0), dtype=np.uint8)
    if nbits < 64 and vals.size and int(vals.max()) >> nbits:
        raise ParameterError(f"some values do not fit in {nbits} bits")
    # Expand through np.unpackbits on the big-endian byte view — one C pass
    # instead of an nbits-column shift matrix.
    w, dt = _unpack_width(nbits)
    v = vals.astype(dt)
    bits = np.unpackbits(v if w == 8 else v.byteswap().view(np.uint8))
    return bits.reshape(n * k, w)[:, w - nbits :].reshape(n, k * nbits)


def _unpack_width(nbits: int) -> tuple[int, type]:
    if nbits <= 8:
        return 8, np.uint8
    if nbits <= 16:
        return 16, np.uint16
    if nbits <= 32:
        return 32, np.uint32
    return 64, np.uint64


def varlen_bits(codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Variable-length codewords as one flat MSB-first 0/1 uint8 array.

    ``codes[i]`` holds the codeword for symbol *i* right-aligned in a
    uint64 (bits above ``lengths[i]`` are ignored); ``lengths[i]`` is its
    bit length, 0..64.  The codewords are OR-ed into 64-bit stream words —
    each lands in one word, or spills into the next — and the words are
    unpacked once, so the cost per symbol does not grow with the widest
    codeword.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    if codes.size == 0:
        return np.zeros(0, dtype=np.uint8)
    shortest = int(lengths.min())
    if int(lengths.max()) > 64 or shortest < 0:
        raise ParameterError("codeword lengths must be in [0, 64]")
    ends = np.cumsum(lengths)
    total = int(ends[-1])
    starts = ends - lengths
    ln = lengths.view(np.uint64)
    aligned = codes << (np.uint64(64) - ln)  # codeword at the top of 64 bits
    if shortest == 0:
        aligned[lengths == 0] = 0  # a shift by 64 is undefined
    off = (starts & 63).view(np.uint64)
    word = starts >> 6
    # Codewords never overlap, so adding them into their words ORs them.
    # The part past a word's end goes to the next word; shifting by
    # 63 - off, then by 1, sends it there and leaves 0 when off == 0.
    # (+2: a zero-length codeword may start at the very end of the stream)
    words = np.zeros(((total + 63) >> 6) + 2, dtype=np.uint64)
    np.add.at(words, word, aligned >> off)
    np.add.at(words, word + 1, (aligned << (np.uint64(63) - off)) << np.uint64(1))
    return np.unpackbits(words.byteswap().view(np.uint8))[:total]


class BitWriter:
    """Accumulates bits MSB-first and packs them into bytes on demand.

    Bits are staged as uint8 0/1 arrays and packed once with
    ``np.packbits`` in :meth:`getvalue`, so bulk writes are O(n) numpy work
    with no per-bit Python overhead.  Single-bit writes are staged in a
    plain scalar buffer and materialised lazily, so flag-heavy codecs pay
    one small array per *run* of flags instead of one per flag.
    """

    def __init__(self) -> None:
        self._parts: list[np.ndarray] = []
        self._pending: list[int] = []  # staged scalar bits, flushed lazily
        self._nbits = 0

    def __len__(self) -> int:
        return self._nbits

    @property
    def nbits(self) -> int:
        """Number of bits written so far."""
        return self._nbits

    def _flush_pending(self) -> None:
        if self._pending:
            self._parts.append(np.array(self._pending, dtype=np.uint8))
            self._pending.clear()

    def write_bit(self, bit: int) -> None:
        """Write a single bit (0 or 1)."""
        self._pending.append(bit & 1)
        self._nbits += 1

    def write_bits_array(self, bits: np.ndarray) -> None:
        """Write a raw array of 0/1 values, first element first."""
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            arr = arr.ravel()
        self._flush_pending()
        self._parts.append(arr)
        self._nbits += arr.size

    def write_segments(self, segments: Iterable[np.ndarray]) -> None:
        """Bulk-append precomputed uint8 0/1 bit arrays, in order.

        The scatter-side primitive for batched emission: callers prepare
        per-block bit segments with :func:`pack_uint_rows` /
        :func:`varlen_bits` and interleave them here with one call.  The
        arrays are appended by reference (no copies); they must not be
        mutated afterwards.
        """
        self._flush_pending()
        parts = self._parts
        total = 0
        for seg in segments:
            parts.append(seg)
            total += seg.size
        self._nbits += total

    def write_uint(self, value: int, nbits: int) -> None:
        """Write an unsigned integer in ``nbits`` bits, MSB first."""
        if nbits == 0:
            return
        bits = uint_to_bits(value, nbits)
        self._flush_pending()
        self._parts.append(bits)
        self._nbits += nbits

    def write_uint_array(self, values: np.ndarray, nbits: int) -> None:
        """Write each element of ``values`` as an ``nbits``-wide unsigned int.

        Vectorised: one (n, nbits) bit matrix is produced and flattened.
        """
        vals = np.ascontiguousarray(values, dtype=np.uint64)
        if nbits == 0 or vals.size == 0:
            if nbits < 0 or nbits > 64:
                raise ParameterError(f"nbits must be in [0, 64], got {nbits}")
            return
        bits = pack_uint_rows(vals[None, :], nbits)
        self._flush_pending()
        self._parts.append(bits.ravel())
        self._nbits += nbits * vals.size

    def write_varlen_array(self, codes: np.ndarray, lengths: np.ndarray) -> None:
        """Write variable-length codewords (see :func:`varlen_bits`)."""
        bits = varlen_bits(codes, lengths)
        if bits.size == 0:
            return
        self._flush_pending()
        self._parts.append(bits)
        self._nbits += bits.size

    def write_bigint(self, value: int, nbits: int) -> None:
        """Write an arbitrary-width unsigned integer MSB-first.

        Used by per-block coders (e.g. ZFP's plane coder) whose payloads
        exceed 64 bits.
        """
        if nbits == 0:
            return
        if value < 0 or value >> nbits:
            raise ParameterError(f"value does not fit in {nbits} bits")
        nbytes = (nbits + 7) // 8
        arr = np.frombuffer(value.to_bytes(nbytes, "big"), dtype=np.uint8)
        bits = np.unpackbits(arr)
        self._flush_pending()
        self._parts.append(bits[8 * nbytes - nbits :])
        self._nbits += nbits

    def write_double(self, value: float) -> None:
        """Write a float64 as its 64-bit IEEE representation."""
        self.write_uint(int(np.float64(value).view(np.uint64)), 64)

    def write_bytes(self, data: bytes) -> None:
        """Write raw bytes (8 bits each, not necessarily byte-aligned)."""
        arr = np.frombuffer(data, dtype=np.uint8)
        self._flush_pending()
        self._parts.append(np.unpackbits(arr))
        self._nbits += 8 * arr.size

    def extend(self, other: "BitWriter") -> None:
        """Append another writer's staged bits (cheap; shares arrays)."""
        self._flush_pending()
        other._flush_pending()
        self._parts.extend(other._parts)
        self._nbits += other._nbits

    def getvalue(self) -> bytes:
        """Pack all staged bits into bytes (zero-padded at the tail)."""
        self._flush_pending()
        if not self._parts:
            return b""
        allbits = np.concatenate(self._parts) if len(self._parts) > 1 else self._parts[0]
        # Keep the concatenated form so repeated calls stay cheap.
        self._parts = [allbits]
        return np.packbits(allbits).tobytes()
