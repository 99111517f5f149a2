"""Property-based tests for the ZFP transform stack."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.zfp import transform as tf
from tests.zfp.bitplane_oracle import decode_block, encode_block

ints60 = st.integers(-(2**60), 2**60)


@given(block=st.tuples(ints60, ints60, ints60, ints60))
@settings(max_examples=200, deadline=None)
def test_lift_inverse_within_ulps(block):
    q = np.array([block], dtype=np.int64)
    back = tf.inv_lift(tf.fwd_lift(q))
    assert np.abs(back - q).max() <= 4


@given(values=hnp.arrays(np.int64, 16, elements=st.integers(-(2**62), 2**62 - 1)))
@settings(max_examples=150, deadline=None)
def test_negabinary_bijection(values):
    assert np.array_equal(tf.from_negabinary(tf.to_negabinary(values)), values)


@given(
    u=st.tuples(*[st.integers(0, 2**62)] * 4),
    maxprec=st.integers(1, 63),
)
@settings(max_examples=200, deadline=None)
def test_plane_coder_reconstructs_kept_planes(u, maxprec):
    top = tf.TOP_PLANE
    payload, nbits = encode_block(u, top, maxprec)
    vals, used = decode_block(payload, nbits, top, maxprec)
    assert used == nbits
    keep = 0
    for k in range(top, top - maxprec, -1):
        keep |= 1 << k
    assert list(vals) == [v & keep for v in u]


@given(
    blocks=hnp.arrays(
        np.float64,
        (6, 4),
        elements=st.floats(-1e8, 1e8, allow_nan=False, allow_infinity=False),
    )
)
@settings(max_examples=100, deadline=None)
def test_fixed_point_bound(blocks):
    e = tf.block_exponents(blocks)
    q = tf.to_fixed_point(blocks, e)
    back = tf.from_fixed_point(q, e)
    step = np.ldexp(1.0, e - tf.SCALE_BITS)
    assert np.all(np.abs(back - blocks) <= 0.5 * step[:, None] + 1e-300)
