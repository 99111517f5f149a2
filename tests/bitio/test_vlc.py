"""Unit tests for the pointer-jumping prefix decoder (repro.bitio.vlc)."""

import numpy as np
import pytest

from repro.bitio.vlc import (
    decode_prefix_stream,
    gather_bit_windows,
    gather_bit_windows_var,
    sliding_windows_u16,
    token_start_positions,
)
from repro.errors import FormatError


def bits_of(s: str) -> np.ndarray:
    return np.array([int(c) for c in s], dtype=np.uint8)


def test_token_start_positions_unary_chain():
    # Tokens of length 2 everywhere: starts at 0, 2, 4, ...
    len_at = np.full(10, 2, dtype=np.int64)
    pos = token_start_positions(len_at, 5)
    assert pos.tolist() == [0, 2, 4, 6, 8]


def test_token_start_positions_variable_lengths():
    # lengths: offset0 ->1, offset1 ->3, offset4 ->2 ...
    len_at = np.array([1, 3, 9, 9, 2, 9, 1], dtype=np.int64)
    pos = token_start_positions(len_at, 4)
    assert pos.tolist() == [0, 1, 4, 6]


def test_token_start_positions_zero_tokens():
    assert token_start_positions(np.array([1]), 0).size == 0


def test_decode_prefix_stream_simple_code():
    # Code: '0' -> len 1; '1x' -> len 2.
    stream = bits_of("0" + "11" + "0" + "10")

    def length_fn(b, off):
        return np.where(b[off] == 0, 1, 2)

    pos, lens = decode_prefix_stream(stream, 0, 4, length_fn, 1)
    assert pos.tolist() == [0, 1, 3, 4]
    assert lens.tolist() == [1, 2, 1, 2]


def test_decode_prefix_stream_with_start_offset():
    stream = bits_of("1111" + "0" + "10")

    def length_fn(b, off):
        return np.where(b[off] == 0, 1, 2)

    pos, lens = decode_prefix_stream(stream, 4, 2, length_fn, 1)
    assert pos.tolist() == [4, 5]


def test_decode_prefix_stream_truncation_raises():
    stream = bits_of("10")

    def length_fn(b, off):
        return np.full(off.shape, 5, dtype=np.int64)

    with pytest.raises(FormatError):
        decode_prefix_stream(stream, 0, 3, length_fn, 1)


def test_gather_bit_windows_values():
    bits = bits_of("1011001110")
    got = gather_bit_windows(bits, np.array([0, 3, 6]), 3)
    assert got.tolist() == [0b101, 0b100, 0b111]


def test_gather_bit_windows_empty_offsets():
    assert gather_bit_windows(bits_of("101"), np.zeros(0, dtype=np.int64), 2).size == 0


def test_sliding_windows_match_gather(rng):
    bits = (rng.random(200) < 0.5).astype(np.uint8)
    for width in (1, 5, 8, 13, 16):
        win = sliding_windows_u16(bits, width)
        offsets = np.arange(bits.size - width, dtype=np.int64)
        want = gather_bit_windows(bits, offsets, width)
        assert np.array_equal(win[: offsets.size], want.astype(np.int64))


def test_sliding_windows_rejects_wide_window():
    with pytest.raises(FormatError):
        sliding_windows_u16(np.zeros(8, dtype=np.uint8), 17)


def test_packed_windows_up_to_64_bits(rng):
    """Windows of any width to 64 bits at any bit offset, one call mixing
    narrow and wide ones (a wide window is read as two halves)."""
    bits = (rng.random(400) < 0.5).astype(np.uint8)
    by = np.concatenate([np.packbits(bits), np.zeros(8, dtype=np.uint8)])
    offsets = rng.integers(0, 400 - 64, size=64)
    widths = np.concatenate([rng.integers(0, 65, size=60), [0, 57, 58, 64]])
    got = gather_bit_windows_var(by, offsets, widths)
    want = [int("".join(map(str, bits[o : o + w])) or "0", 2) for o, w in zip(offsets, widths)]
    assert got.tolist() == want


def test_packed_windows_reject_wider_than_64():
    by = np.zeros(16, dtype=np.uint8)
    with pytest.raises(FormatError):
        gather_bit_windows_var(by, np.array([0]), np.array([65]))
