"""MSB-first bitstream reader backed by an unpacked numpy bit array.

:class:`FieldScanner` lives beside :class:`BitReader`: it walks a stream
sequentially with pure-Python integer arithmetic on the packed bytes,
which is ~10x cheaper than a numpy round trip for the small scalar fields
an index pass reads.  Batched field reads at many offsets go through
:func:`repro.bitio.vlc.gather_bit_windows_var` on the packed bytes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError, ParameterError


class FieldScanner:
    """Sequential scalar bit-field reads over a packed byte buffer.

    Reads are plain Python integer arithmetic on 16-byte windows of the
    packed stream — no numpy allocation per field — so an index pass can
    visit hundreds of thousands of small header fields cheaply.  Bounds are
    checked against the padded bit length (``8 * len(buffer)``), matching
    :class:`BitReader` semantics.

    :meth:`confine` narrows the scanner to a byte range of the buffer — one
    stream among several laid end to end — addressed from its own first
    bit and bounded by its own end, so one scanner walks each stream of a
    batch exactly as it would walk that stream alone.
    """

    def __init__(self, data: bytes | bytearray | np.ndarray, pos: int = 0) -> None:
        if isinstance(data, np.ndarray):
            data = data.tobytes()
        self._nbits = 8 * len(data)
        self._byte0 = 0  # first byte of the confined range
        # 16 zero guard bytes let every read use one fixed-size window.
        self._buf = bytes(data) + b"\x00" * 16
        self.pos = pos

    @property
    def nbits(self) -> int:
        """Bits available in the confined range (including byte padding)."""
        return self._nbits

    def confine(self, start: int, nbytes: int, pos: int = 0) -> None:
        """Read only the ``nbytes`` bytes at byte ``start``, from bit ``pos``.

        Offsets (``pos``, ``seek``, error messages) count from the range's
        first bit, and every bounds check stops at the range's end, not at
        the end of the buffer.
        """
        if start < 0 or nbytes < 0 or start + nbytes > len(self._buf) - 16:
            raise ParameterError(f"range [{start}, {start + nbytes}) outside the buffer")
        self._byte0 = start
        self._nbits = 8 * nbytes
        self.seek(pos)

    @property
    def padded(self) -> np.ndarray:
        """The buffer and its 16 zero guard bytes, as a read-only uint8 view."""
        return np.frombuffer(self._buf, dtype=np.uint8)

    def read(self, n: int) -> int:
        """Read an ``n``-bit unsigned integer (MSB first) and advance."""
        pos = self.pos
        if n < 0 or n > 120:
            raise ParameterError(f"field width must be in [0, 120], got {n}")
        if pos + n > self._nbits:
            raise FormatError(
                f"bitstream underflow: need {n} bits at offset {pos}, "
                f"have {self._nbits - pos}"
            )
        j = (pos >> 3) + self._byte0
        word = int.from_bytes(self._buf[j : j + 16], "big")
        self.pos = pos + n
        return (word >> (128 - (pos & 7) - n)) & ((1 << n) - 1)

    def count_ones(self, n: int) -> int:
        """Popcount of the next ``n`` bits (any width); advances past them.

        The run is bounds-checked before it is read, so a count taken from
        a corrupt stream can never drive a read past the end.
        """
        pos = self.pos
        if n < 0:
            raise ParameterError("cannot count a negative number of bits")
        if pos + n > self._nbits:
            raise FormatError(
                f"bitstream underflow: need {n} bits at offset {pos}, "
                f"have {self._nbits - pos}"
            )
        j0, j1 = pos >> 3, (pos + n + 7) >> 3
        word = int.from_bytes(
            self._buf[self._byte0 + j0 : self._byte0 + j1], "big"
        ) >> (8 * (j1 - j0) - (pos & 7) - n)
        self.pos = pos + n
        return (word & ((1 << n) - 1)).bit_count()

    def skip(self, n: int) -> None:
        """Advance the cursor by ``n`` bits without decoding."""
        if n < 0:
            raise ParameterError("cannot skip a negative number of bits")
        if self.pos + n > self._nbits:
            raise FormatError(
                f"bitstream underflow: need {n} bits at offset {self.pos}, "
                f"have {self._nbits - self.pos}"
            )
        self.pos += n

    def seek(self, bit_offset: int) -> None:
        """Jump to an absolute bit offset."""
        if bit_offset < 0 or bit_offset > self._nbits:
            raise FormatError(f"seek out of range: {bit_offset}")
        self.pos = bit_offset


class BitReader:
    """Reads MSB-first bitstreams written by :class:`repro.bitio.BitWriter`.

    The whole payload is unpacked once into a uint8 0/1 array; all reads are
    slices of that array, so bulk reads (``read_uint_array``) are vectorised.
    """

    def __init__(self, data: bytes | np.ndarray) -> None:
        if isinstance(data, np.ndarray) and data.dtype == np.uint8 and data.ndim == 1:
            buf = data
        else:
            buf = np.frombuffer(bytes(data), dtype=np.uint8)
        self._bits = np.unpackbits(buf)
        self._pos = 0

    @property
    def pos(self) -> int:
        """Current bit offset."""
        return self._pos

    @property
    def bits(self) -> np.ndarray:
        """The underlying unpacked 0/1 bit array (read-only use)."""
        return self._bits

    @property
    def nbits(self) -> int:
        """Total number of bits available (including byte padding)."""
        return self._bits.size

    @property
    def remaining(self) -> int:
        return self._bits.size - self._pos

    def _take(self, n: int) -> np.ndarray:
        if n < 0:
            raise ParameterError("cannot read a negative number of bits")
        if self._pos + n > self._bits.size:
            raise FormatError(
                f"bitstream underflow: need {n} bits at offset {self._pos}, "
                f"have {self._bits.size - self._pos}"
            )
        out = self._bits[self._pos : self._pos + n]
        self._pos += n
        return out

    def read_bit(self) -> int:
        """Read a single bit."""
        return int(self._take(1)[0])

    def read_uint(self, nbits: int) -> int:
        """Read an ``nbits``-wide unsigned integer (MSB first)."""
        if nbits > 64:
            raise ParameterError("nbits must be <= 64")
        if nbits == 0:
            return 0
        bits = self._take(nbits).astype(np.uint64)
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        return int((bits << shifts).sum(dtype=np.uint64))

    def read_uint_array(self, count: int, nbits: int) -> np.ndarray:
        """Read ``count`` unsigned integers of ``nbits`` bits each (vectorised)."""
        if nbits > 64:
            raise ParameterError("nbits must be <= 64")
        if count == 0 or nbits == 0:
            self._take(count * nbits)
            return np.zeros(count, dtype=np.uint64)
        bits = self._take(count * nbits).reshape(count, nbits).astype(np.uint64)
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)

    def read_double(self) -> float:
        """Read a float64 stored as 64 raw IEEE bits."""
        return float(np.uint64(self.read_uint(64)).view(np.float64))

    def read_bytes(self, n: int) -> bytes:
        """Read ``n`` bytes (8·n bits, not necessarily byte-aligned)."""
        bits = self._take(8 * n)
        return np.packbits(bits).tobytes()

    def seek(self, bit_offset: int) -> None:
        """Jump to an absolute bit offset."""
        if bit_offset < 0 or bit_offset > self._bits.size:
            raise FormatError(f"seek out of range: {bit_offset}")
        self._pos = bit_offset

    def skip(self, nbits: int) -> None:
        """Advance the cursor by ``nbits`` without decoding."""
        self._take(nbits)
