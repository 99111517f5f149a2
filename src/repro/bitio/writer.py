"""MSB-first bitstream writing: the word packer and :class:`BitWriter`.

:func:`add_fields` is the one bit packer.  It adds fixed- or
variable-width fields at absolute bit offsets into a buffer of 64-bit
words, so a batched encoder can compute every field's offset with prefix
sums and write a whole call's stream in a few array operations
(:mod:`repro.core.compressor`).  :class:`BitWriter` is the sequential
front end the SZ and ZFP codecs write through; its array writes go
through the same packer.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError


def add_fields(words: np.ndarray, pos, vals, widths) -> None:
    """Add fields into ``words``: ``vals[i]`` in ``widths[i]`` bits at stream bit ``pos[i]``.

    Stream bit ``k`` is bit ``63 - k % 64`` of ``words[k // 64]``, so
    ``words.byteswap()`` holds the stream's bytes in order.  Widths lie in
    0..64 and bits of a value above its width are dropped.  Fields must
    not overlap, so adding them ORs them; a field touches at most two
    words, and ``words`` needs one word past the last bit written.  The
    arguments broadcast against each other.  (numpy defines a shift by 64
    as 0, which is what a zero-width field and a field that ends on a word
    boundary need.)
    """
    pos = np.asarray(pos, dtype=np.int64)
    top = np.left_shift(
        np.asarray(vals).astype(np.uint64, copy=False),
        (64 - np.asarray(widths)).astype(np.uint64, copy=False),
    )
    if top.shape != pos.shape:
        top, pos = np.broadcast_arrays(top, pos)
    top, pos = top.ravel(), pos.ravel()
    at = pos >> 6
    off = (pos & 63).view(np.uint64)
    np.add.at(words, at, top >> off)
    np.add.at(words[1:], at, top << (np.uint64(64) - off))


def _field_bits(vals: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Fields packed back to back, as MSB-first 0/1 uint8 bits."""
    ends = np.cumsum(widths)
    total = int(ends[-1])
    words = np.zeros((total >> 6) + 2, dtype=np.uint64)
    add_fields(words, ends - widths, vals, widths)
    return np.unpackbits(words.byteswap().view(np.uint8))[:total]


def _check_width(nbits: int) -> None:
    if nbits < 0 or nbits > 64:
        raise ParameterError(f"nbits must be in [0, 64], got {nbits}")


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

    def _append(self, bits: np.ndarray) -> None:
        self._flush_pending()
        self._parts.append(bits)
        self._nbits += bits.size

    def write_bit(self, bit: int) -> None:
        """Write a single bit (0 or 1)."""
        self._pending.append(bit & 1)
        self._nbits += 1

    def write_bits_array(self, bits: np.ndarray) -> None:
        """Write a raw array of 0/1 values, first element first."""
        self._append(np.asarray(bits, dtype=np.uint8).ravel())

    def write_uint(self, value: int, nbits: int) -> None:
        """Write an unsigned integer in ``nbits`` bits, MSB first."""
        _check_width(nbits)
        v = int(value)
        if v < 0 or v >> nbits:
            raise ParameterError(f"value {value} does not fit in {nbits} bits")
        if nbits:
            word = np.array([v], dtype=">u8").view(np.uint8)
            self._append(np.unpackbits(word)[64 - nbits :])

    def write_uint_array(self, values: np.ndarray, nbits: int) -> None:
        """Write each element of ``values`` as an ``nbits``-wide unsigned int."""
        _check_width(nbits)
        vals = np.ascontiguousarray(values, dtype=np.uint64).ravel()
        if nbits == 0 or vals.size == 0:
            return
        if nbits < 64 and int(vals.max()) >> nbits:
            raise ParameterError(f"some values do not fit in {nbits} bits")
        self._append(_field_bits(vals, np.full(vals.size, nbits, dtype=np.int64)))

    def write_varlen_array(self, codes: np.ndarray, lengths: np.ndarray) -> None:
        """Write variable-length codewords back to back.

        ``codes[i]`` holds codeword *i* right-aligned in a uint64 (bits
        above ``lengths[i]`` are ignored); ``lengths[i]`` is its bit
        length, 0..64.
        """
        codes = np.ascontiguousarray(codes, dtype=np.uint64).ravel()
        lengths = np.ascontiguousarray(lengths, dtype=np.int64).ravel()
        if codes.size == 0:
            return
        if int(lengths.max()) > 64 or int(lengths.min()) < 0:
            raise ParameterError("codeword lengths must be in [0, 64]")
        bits = _field_bits(codes, lengths)
        if bits.size:
            self._append(bits)

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
        self._append(np.unpackbits(arr)[8 * nbytes - nbits :])

    def write_double(self, value: float) -> None:
        """Write a float64 as its 64-bit IEEE representation."""
        self.write_uint(int(np.float64(value).view(np.uint64)), 64)

    def write_bytes(self, data: bytes) -> None:
        """Write raw bytes (8 bits each, not necessarily byte-aligned)."""
        self._append(np.unpackbits(np.frombuffer(data, dtype=np.uint8)))

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
