"""Unit tests for the five ECQ encoding trees: the reference coder
(tests.core.ecq_oracle) against the decoder and sizing in repro.core.trees."""

import numpy as np
import pytest

from repro.bitio import BitWriter
from repro.core.trees import TREE_IDS, decode_ecq, encoded_size_bits_batch
from tests.core.ecq_oracle import encode_ecq
from repro.errors import ParameterError


def roundtrip(vals, ecb, tree):
    codes, lengths = encode_ecq(np.asarray(vals, dtype=np.int64), ecb, tree)
    w = BitWriter()
    w.write_varlen_array(codes, lengths)
    bits = np.unpackbits(np.frombuffer(w.getvalue(), np.uint8))
    out, end = decode_ecq(bits, 0, len(vals), ecb, tree)
    assert end == w.nbits
    return out.tolist(), w.nbits


def test_tree1_codeword_shapes():
    codes, lengths = encode_ecq(np.array([0, 1, -5]), 4, 1)
    assert lengths.tolist() == [1, 5, 5]
    assert codes[0] == 0
    # '1' + offset-binary(1 + 8) = 1_1001
    assert codes[1] == 0b11001


def test_tree2_puts_plus_one_high():
    codes, lengths = encode_ecq(np.array([0, 1, -1, 3]), 4, 2)
    assert lengths.tolist() == [1, 2, 3, 7]
    assert codes[1] == 0b10 and codes[2] == 0b110


def test_tree3_pushes_others_higher_than_tree2():
    vals = np.array([5, -6, 7])
    _, l3 = encode_ecq(vals, 5, 3)
    _, l2 = encode_ecq(vals, 5, 2)
    assert np.all(l3 == l2 - 1)  # exactly the paper's "1 less bit"


def test_tree4_paper_examples():
    # Paper: 0 -> '0'; -1 -> '10' + '1'; +1 -> '10' + '0'.
    codes, lengths = encode_ecq(np.array([0, 1, -1]), 6, 4)
    assert (codes[0], lengths[0]) == (0, 1)
    assert (codes[1], lengths[1]) == (0b100, 3)
    assert (codes[2], lengths[2]) == (0b101, 3)
    # ±[2,3] -> '110' + 2 bits.
    codes, lengths = encode_ecq(np.array([2, 3, -2, -3]), 6, 4)
    assert lengths.tolist() == [5, 5, 5, 5]
    assert codes.tolist() == [0b11000, 0b11001, 0b11010, 0b11011]


def test_tree4_top_bin_drops_terminator():
    # ecb=4: top bin ±[4,7] has prefix '111' (no trailing 0) + 3 bits.
    codes, lengths = encode_ecq(np.array([4, -7]), 4, 4)
    assert lengths.tolist() == [6, 6]


def test_tree5_small_range_is_three_leaf_code():
    codes, lengths = encode_ecq(np.array([0, 1, -1]), 2, 5)
    assert codes.tolist() == [0b0, 0b10, 0b11]
    assert lengths.tolist() == [1, 2, 2]


def test_tree5_defers_to_tree3_for_large_range():
    vals = np.array([0, 1, -1, 9, -12])
    c5, l5 = encode_ecq(vals, 6, 5)
    c3, l3 = encode_ecq(vals, 6, 3)
    assert np.array_equal(c5, c3) and np.array_equal(l5, l3)


@pytest.mark.parametrize("tree", TREE_IDS)
@pytest.mark.parametrize("ecb", [2, 3, 5, 11, 22])
def test_roundtrip_random_skewed(tree, ecb, rng):
    hi = (1 << (ecb - 1)) - 1
    vals = rng.integers(-hi, hi + 1, 500)
    mask = rng.random(500) < 0.85
    vals[mask] = rng.integers(-1, 2, int(mask.sum()))
    if ecb == 2:
        vals = np.clip(vals, -1, 1)
    out, _ = roundtrip(vals, ecb, tree)
    assert out == vals.tolist()


@pytest.mark.parametrize("tree", TREE_IDS)
def test_encoded_size_matches_actual_bits(tree, rng):
    ecb = 7
    vals = rng.integers(-63, 64, 300)
    _, nbits = roundtrip(vals, ecb, tree)
    (size,) = encoded_size_bits_batch(vals[None, :], np.array([ecb]), tree)
    assert nbits == size


@pytest.mark.parametrize("tree", TREE_IDS)
def test_extremes_of_range_roundtrip(tree):
    ecb = 9
    hi = (1 << (ecb - 1)) - 1
    vals = [0, hi, -hi, 1, -1, hi // 2, -(hi // 2)]
    out, _ = roundtrip(vals, ecb, tree)
    assert out == vals


def test_all_zero_stream_costs_one_bit_per_point():
    vals = np.zeros((1, 64), dtype=np.int64)
    for tree in TREE_IDS:
        assert encoded_size_bits_batch(vals, np.array([3]), tree)[0] == 64


def test_rejects_unknown_tree_and_bad_ecb():
    with pytest.raises(ParameterError):
        encode_ecq(np.array([0]), 4, 6)
    with pytest.raises(ParameterError):
        encode_ecq(np.array([0]), 1, 1)
    with pytest.raises(ParameterError):
        decode_ecq(np.zeros(8, dtype=np.uint8), 0, 1, 4, 0)


def test_decode_zero_tokens_is_empty():
    out, end = decode_ecq(np.zeros(4, dtype=np.uint8), 2, 0, 4, 5)
    assert out.size == 0 and end == 2


def test_decode_is_bounded_by_segment():
    # decoding must not scan past n * max_token_len even in a long stream
    vals = np.array([0, 0, 1])
    codes, lengths = encode_ecq(vals, 2, 5)
    w = BitWriter()
    w.write_varlen_array(codes, lengths)
    w.write_uint(0xFFFF, 16)  # trailing unrelated data
    bits = np.unpackbits(np.frombuffer(w.getvalue(), np.uint8))
    out, end = decode_ecq(bits, 0, 3, 2, 5)
    assert out.tolist() == [0, 0, 1]
    assert end == 4
