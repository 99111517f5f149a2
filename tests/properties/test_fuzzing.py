"""Failure injection: decoders must degrade cleanly on corrupt input.

For every codec, flipping bits / truncating / extending a valid stream must
either (a) raise a :class:`repro.errors.ReproError` subclass, or (b) return
*some* float array — never escape with an arbitrary exception.  (A lossy
decoder cannot detect every corruption — there are no checksums, as in the
original SZ/ZFP formats — but it must stay contained.)
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import PaSTRICompressor
from repro.errors import ReproError
from repro.lossless import DeflateCodec, FPCCodec
from repro.sz import SZCompressor
from repro.zfp import ZFPCompressor
from tests.conftest import make_patterned_stream


def _codecs():
    return [
        PaSTRICompressor(dims=(2, 2, 3, 3)),
        SZCompressor(capacity=256),
        ZFPCompressor(),
        DeflateCodec(),
        FPCCodec(table_log2=8),
    ]


def _valid_blob(codec, rng):
    data = make_patterned_stream(rng, n_blocks=6, dims=(2, 2, 3, 3))
    return codec.compress(data, 1e-10)


def _attempt(codec, blob):
    try:
        out = codec.decompress(bytes(blob))
    except ReproError:
        return  # clean, typed failure
    assert isinstance(out, np.ndarray)
    assert out.dtype == np.float64


@given(
    codec_idx=st.integers(0, 4),
    positions=st.lists(st.integers(0, 10_000), min_size=1, max_size=8),
    seed=st.integers(0, 3),
)
# A flip that gives an SZ Huffman table a 31-bit code length.
@example(codec_idx=1, positions=[239], seed=0)
@settings(max_examples=120, deadline=None)
def test_bit_flips_contained(codec_idx, positions, seed):
    rng = np.random.default_rng(seed)
    codec = _codecs()[codec_idx]
    blob = bytearray(_valid_blob(codec, rng))
    for p in positions:
        byte = (p // 8) % len(blob)
        blob[byte] ^= 1 << (p % 8)
    _attempt(codec, blob)


@given(codec_idx=st.integers(0, 4), cut=st.floats(0.01, 0.99), seed=st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_truncation_contained(codec_idx, cut, seed):
    rng = np.random.default_rng(seed)
    codec = _codecs()[codec_idx]
    blob = _valid_blob(codec, rng)
    _attempt(codec, blob[: max(1, int(len(blob) * cut))])


@given(codec_idx=st.integers(0, 4), junk=st.binary(min_size=1, max_size=64), seed=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_trailing_junk_contained(codec_idx, junk, seed):
    rng = np.random.default_rng(seed)
    codec = _codecs()[codec_idx]
    blob = _valid_blob(codec, rng)
    _attempt(codec, blob + junk)


@given(codec_idx=st.integers(0, 4), junk=st.binary(min_size=8, max_size=256))
@settings(max_examples=80, deadline=None)
def test_pure_garbage_contained(codec_idx, junk):
    codec = _codecs()[codec_idx]
    _attempt(codec, junk)
