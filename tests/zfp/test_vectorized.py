"""The vectorised ZFP encoder must be bit-identical to the scalar reference."""

import numpy as np
import pytest

from repro.bitio import BitWriter
from repro.zfp import ZFPCompressor
from repro.zfp import compressor as zc
from repro.zfp import transform as tf
from tests.zfp.bitplane_oracle import encode_block
from repro.zfp.vectorized import encode_blocks, msb_positions


def _reference_stream(data, eb):
    """The ZFP stream written one block at a time with the scalar coder."""
    n = data.size
    blocks = np.concatenate([data, np.repeat(data[-1], (-n) % 4)]).reshape(-1, 4)
    e = tf.block_exponents(blocks)
    u = tf.to_negabinary(tf.fwd_lift(tf.to_fixed_point(blocks, e)))
    maxprec = tf.max_precision(e, eb)
    w = BitWriter()
    w.write_uint(zc._MAGIC, 32)
    w.write_uint(zc._VERSION, 8)
    w.write_double(eb)
    w.write_uint(n, 48)
    for b in range(blocks.shape[0]):
        if np.abs(blocks[b]).max() == 0.0:
            w.write_bit(0)
            continue
        w.write_bit(1)
        w.write_uint(int(e[b]) + zc._E_BIAS, 12)
        mp = int(maxprec[b])
        if mp > zc._RAW_PREC:
            w.write_uint_array(blocks[b].view(np.uint64), 64)
        elif mp > 0:
            payload, nbits = encode_block(tuple(int(x) for x in u[b]), tf.TOP_PLANE, mp)
            w.write_bigint(payload, nbits)
    return w.getvalue()


def test_msb_positions_exact(rng):
    vals = np.concatenate(
        [
            rng.integers(0, 2**63 - 1, 2000, dtype=np.uint64),
            np.array([0, 1, 2, 2**52, 2**53 + 1, 2**62, 2**63 - 1], dtype=np.uint64),
        ]
    )
    got = msb_positions(vals)
    want = np.array([int(v).bit_length() - 1 for v in vals])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("maxprec", [1, 2, 7, 23, 58])
def test_tokens_concatenate_to_scalar_payload(maxprec, rng):
    top = tf.TOP_PLANE
    u = rng.integers(0, 2**62, (50, 4), dtype=np.uint64)
    codes, lengths = encode_blocks(u, top, maxprec)
    for g in range(u.shape[0]):
        w = BitWriter()
        w.write_varlen_array(codes[g], lengths[g])
        got = w.getvalue()
        payload, nbits = encode_block(tuple(int(x) for x in u[g]), top, maxprec)
        ref = BitWriter()
        ref.write_bigint(payload, nbits)
        assert nbits == int(lengths[g].sum())
        assert got == ref.getvalue()


@pytest.mark.parametrize("eb", [1e-6, 1e-10, 1e-13])
def test_full_streams_bit_identical(eb, rng):
    data = rng.standard_normal(4096) * np.exp(rng.uniform(-25, 2, 4096))
    data[100:120] = 0.0
    fast = ZFPCompressor().compress(data, eb)
    assert fast == _reference_stream(data, eb)


def test_vectorized_roundtrip_and_speed(rng):
    data = rng.standard_normal(20000) * 1e-6
    c = ZFPCompressor()
    out = c.decompress(c.compress(data, 1e-10))
    assert np.max(np.abs(out - data)) <= 1e-10


def test_raw_and_zero_blocks_in_vector_path(rng):
    data = np.concatenate(
        [np.zeros(8), rng.standard_normal(8) * 1e20, rng.standard_normal(8) * 1e-7]
    )
    eb = 1e-12
    fast = ZFPCompressor().compress(data, eb)
    assert fast == _reference_stream(data, eb)
    out = ZFPCompressor().decompress(fast)
    assert np.max(np.abs(out - data)) <= eb
