"""Property-based tests for the ECQ encoding trees."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitio import BitWriter
from repro.core.trees import TREE_IDS, decode_ecq, encoded_size_bits_batch
from tests.core.ecq_oracle import encode_ecq


@st.composite
def ecq_streams(draw):
    ecb = draw(st.integers(2, 24))
    hi = (1 << (ecb - 1)) - 1
    n = draw(st.integers(1, 200))
    vals = draw(
        st.lists(st.integers(-hi, hi), min_size=n, max_size=n)
    )
    return np.array(vals, dtype=np.int64), ecb


@given(stream=ecq_streams(), tree=st.sampled_from(TREE_IDS))
@settings(max_examples=150, deadline=None)
def test_roundtrip_identity(stream, tree):
    vals, ecb = stream
    codes, lengths = encode_ecq(vals, ecb, tree)
    w = BitWriter()
    w.write_varlen_array(codes, lengths)
    bits = np.unpackbits(np.frombuffer(w.getvalue(), np.uint8))
    out, end = decode_ecq(bits, 0, vals.size, ecb, tree)
    assert end == int(lengths.sum())
    assert np.array_equal(out, vals)


@given(stream=ecq_streams(), tree=st.sampled_from(TREE_IDS))
@settings(max_examples=80, deadline=None)
def test_size_formula_exact(stream, tree):
    vals, ecb = stream
    _, lengths = encode_ecq(vals, ecb, tree)
    (size,) = encoded_size_bits_batch(vals[None, :], np.array([ecb]), tree)
    assert int(lengths.sum()) == size


@given(stream=ecq_streams())
@settings(max_examples=80, deadline=None)
def test_tree5_never_loses_to_tree3_or_small_case(stream):
    vals, ecb = stream
    s5 = int(encode_ecq(vals, ecb, 5)[1].sum())
    s3 = int(encode_ecq(vals, ecb, 3)[1].sum())
    assert s5 <= s3  # adaptive tree is at least as good as its base


@given(stream=ecq_streams(), tree=st.sampled_from(TREE_IDS))
@settings(max_examples=50, deadline=None)
def test_zero_is_always_one_bit(stream, tree):
    vals, ecb = stream
    vals = np.zeros_like(vals)
    _, lengths = encode_ecq(vals, ecb, tree)
    assert np.all(lengths == 1)
