"""Unit tests for repro.bitio.reader.BitReader."""

import numpy as np
import pytest

from repro.bitio import BitReader, BitWriter, FieldScanner
from repro.errors import FormatError, ParameterError


def test_read_bits_msb_first():
    r = BitReader(bytes([0b10110001]))
    assert [r.read_bit() for _ in range(8)] == [1, 0, 1, 1, 0, 0, 0, 1]


def test_read_uint_matches_written():
    w = BitWriter()
    w.write_uint(0x1234, 16)
    w.write_uint(5, 3)
    r = BitReader(w.getvalue())
    assert r.read_uint(16) == 0x1234
    assert r.read_uint(3) == 5


def test_read_uint_array_vectorised_equals_scalar(rng):
    vals = rng.integers(0, 2**13, 64).astype(np.uint64)
    w = BitWriter()
    w.write_uint_array(vals, 13)
    blob = w.getvalue()
    r1, r2 = BitReader(blob), BitReader(blob)
    got = r1.read_uint_array(64, 13)
    want = [r2.read_uint(13) for _ in range(64)]
    assert got.tolist() == want


def test_read_uint_64_bit_values():
    w = BitWriter()
    w.write_uint(2**64 - 1, 64)
    assert BitReader(w.getvalue()).read_uint(64) == 2**64 - 1


def test_read_double_roundtrip():
    w = BitWriter()
    w.write_double(-2.5e-11)
    assert BitReader(w.getvalue()).read_double() == -2.5e-11


def test_underflow_raises_format_error():
    r = BitReader(b"\x00")
    r.read_uint(8)
    with pytest.raises(FormatError):
        r.read_bit()


def test_read_rejects_width_over_64():
    with pytest.raises(ParameterError):
        BitReader(b"\x00" * 16).read_uint(65)


def test_seek_and_pos():
    r = BitReader(bytes([0b11110000]))
    r.seek(4)
    assert r.pos == 4
    assert r.read_uint(4) == 0
    with pytest.raises(FormatError):
        r.seek(100)


def test_skip_advances_without_decoding():
    r = BitReader(bytes([0xFF, 0x0F]))
    r.skip(12)
    assert r.read_uint(4) == 0xF


def test_remaining_counts_padding():
    r = BitReader(b"\xaa")
    assert r.remaining == 8
    r.read_bit()
    assert r.remaining == 7


def test_reader_accepts_unpacked_uint8_array():
    arr = np.frombuffer(b"\xf0", dtype=np.uint8)
    assert BitReader(arr).read_uint(4) == 0xF


def test_read_zero_count_array():
    r = BitReader(b"\x00")
    out = r.read_uint_array(0, 7)
    assert out.size == 0 and r.pos == 0


def test_field_scanner_confine_addresses_and_bounds_one_range():
    """A confined scanner reads one stream of a shared buffer as if alone:
    offsets from the range's first bit, bounds at the range's end."""
    sc = FieldScanner(bytes([0xAB, 0xCD, 0xEF, 0x12]))
    sc.confine(1, 2)  # bytes 0xCD 0xEF
    assert (sc.pos, sc.nbits) == (0, 16)
    assert sc.read(8) == 0xCD
    assert sc.count_ones(8) == bin(0xEF).count("1")
    with pytest.raises(FormatError, match="need 1 bits at offset 16, have 0"):
        sc.read(1)  # 0x12 follows in the buffer but lies outside the range
    sc.confine(3, 1, pos=4)
    assert sc.read(4) == 0x2
    with pytest.raises(ParameterError):
        sc.confine(3, 2)  # past the end of the buffer
