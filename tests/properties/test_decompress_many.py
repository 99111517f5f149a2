"""``decompress_many`` returns what ``decompress`` returns, blob by blob.

One call decodes a mix of blobs — three block geometries, all five trees,
adaptive / dense / sparse ECQ, several error bounds, zero / raw /
tail-bearing streams and the committed version-1 streams — and every
output must equal, bit for bit, ``decompress`` of that blob alone, in an
array of its own.  A corrupt blob anywhere in a batch must raise the
``FormatError``, with the same message, that ``decompress`` raises on it
alone.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import PaSTRICompressor
from repro.errors import FormatError
from tests.conftest import make_class_block
from tests.core.test_stream_versions import CASES as V1_CASES
from tests.core.test_stream_versions import FIXTURES as V1

#: (dd|dd), (ff|ff) and an odd shape
GEOMETRIES = [(6, 6, 6, 6), (10, 10, 10, 10), (1, 3, 2, 5)]
KINDS = ("zero", "raw", "no_ecq", "dense", "sparse")

blob_specs = st.tuples(
    st.sampled_from(GEOMETRIES),
    st.sampled_from([1, 2, 3, 4, 5]),
    st.sampled_from(["adaptive", "dense", "sparse"]),
    st.sampled_from([1e-12, 1e-10, 1e-8]),
    st.lists(st.sampled_from(KINDS), max_size=3),
    st.integers(0, 4),  # raw tail values
)


def _blob(spec, rng) -> bytes:
    dims, tree, mode, eb, kinds, n_tail = spec
    parts = [make_class_block(k, rng, dims).reshape(-1) for k in kinds]
    parts.append(rng.standard_normal(n_tail if kinds or n_tail else 1))
    codec = PaSTRICompressor(dims=dims, tree_id=tree, ecq_mode=mode)
    return codec.compress(np.concatenate(parts), eb)


def _alone(blob: bytes) -> np.ndarray:
    return PaSTRICompressor(dims=(1, 1, 1, 1)).decompress(blob)


def _assert_same(got: list, blobs: list) -> None:
    assert len(got) == len(blobs)
    for out, blob in zip(got, blobs):
        want = _alone(blob)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
    for i in range(len(got)):
        for j in range(i):
            assert not np.shares_memory(got[i], got[j])


@given(
    specs=st.lists(blob_specs, min_size=1, max_size=6),
    v1=st.lists(st.sampled_from(V1_CASES), max_size=2),
    warm=st.integers(0, 2**8 - 1),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_batch_equals_one_blob_decodes(specs, v1, warm, seed):
    rng = np.random.default_rng(seed)
    blobs = [_blob(s, rng) for s in specs] + [V1[n + "_blob"].tobytes() for n in v1]
    blobs = [blobs[i] for i in rng.permutation(len(blobs))]
    codec = PaSTRICompressor(dims=(2, 2, 2, 2))
    for i, blob in enumerate(blobs):  # memoised parses join fresh walks
        if warm >> i & 1:
            codec.decompress(blob)
    _assert_same(codec.decompress_many(blobs), blobs)


def test_empty_batch():
    assert PaSTRICompressor(dims=(6, 6, 6, 6)).decompress_many([]) == []


def test_buffer_inputs_decode_like_bytes(rng):
    """bytearray and memoryview blobs (mmap views, reply buffers) decode
    like the bytes they hold, alone and in a batch."""
    blob = _blob(((6, 6, 6, 6), 5, "adaptive", 1e-10, ["dense", "sparse"], 2), rng)
    codec = PaSTRICompressor(dims=(6, 6, 6, 6))
    want = _alone(blob)
    assert np.array_equal(codec.decompress(bytearray(blob)), want)
    for out in codec.decompress_many([memoryview(blob), bytearray(blob)]):
        assert np.array_equal(out, want)


def test_sparse_entries_wider_than_48_bits(rng):
    """A forced-sparse (ff|ff) block whose spikes push EC_b,max past 34:
    each entry is a 14-bit index plus EC_b,max value bits."""
    dims = (10, 10, 10, 10)
    block = make_class_block("sparse", rng, dims)
    block[3, 7] += 20.0
    block[7, 2] -= 7.0
    codec = PaSTRICompressor(dims=dims, ecq_mode="sparse")
    wide = codec.compress(block.reshape(-1), 1e-10)
    codec.decompress(wide)
    ecb, sparse = (codec._parse_cache[wide][i] for i in (2, 6))
    assert sparse[0] and 14 + int(ecb[0]) > 48
    small = _blob(((6, 6, 6, 6), 5, "sparse", 1e-10, ["sparse", "dense"], 0), rng)
    blobs = [small, wide, small]
    got = PaSTRICompressor(dims=dims).decompress_many(blobs)
    _assert_same(got, blobs)
    assert np.max(np.abs(got[1] - block.reshape(-1))) <= 1e-10


def _healthy(rng) -> list[bytes]:
    specs = [
        ((6, 6, 6, 6), 5, "adaptive", 1e-10, ["dense", "sparse", "raw"], 3),
        ((6, 6, 6, 6), 4, "dense", 1e-10, ["dense", "no_ecq"], 0),
        ((1, 3, 2, 5), 2, "sparse", 1e-8, ["sparse", "zero"], 1),
    ]
    return [_blob(s, rng) for s in specs]


@given(
    where=st.integers(0, 3),
    cut=st.floats(0.0, 1.0),
    flips=st.lists(st.integers(0, 2**31 - 1), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(where=1, cut=0.5, flips=[], seed=1)  # truncated mid-body
@example(where=0, cut=1.0, flips=[8 * 28 + 7], seed=2)  # n_tail count bit
@example(where=3, cut=1.0, flips=[8 * 33 + 1], seed=3)  # first block header
@settings(max_examples=40, deadline=None)
def test_corrupt_blob_raises_what_it_raises_alone(where, cut, flips, seed):
    rng = np.random.default_rng(seed)
    blobs = _healthy(rng)
    target = bytearray(blobs[where % len(blobs)])
    del target[max(1, int(cut * len(target))) :]
    for f in flips:
        target[f // 8 % len(target)] ^= 0x80 >> f % 8
    bad = bytes(target)
    batch = blobs[:where] + [bad] + blobs[where:]
    try:
        _alone(bad)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            PaSTRICompressor(dims=(6, 6, 6, 6)).decompress_many(batch)
        assert str(got.value) == str(exc)
    else:  # the damage left a decodable stream
        _assert_same(PaSTRICompressor(dims=(6, 6, 6, 6)).decompress_many(batch), batch)


def test_one_codec_decodes_batches_on_many_threads(rng):
    """The store decodes outside its lock, so one codec runs several
    batches at once; its parse memo and header table must keep every
    output right (more threads than cores, a short switch interval)."""
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    blobs = [
        _blob(((6, 6, 6, 6), 5, "adaptive", 1e-10, [kind], tail), rng)
        for kind in ("dense", "sparse", "no_ecq", "raw") for tail in (0, 3)
    ]
    want = [_alone(b) for b in blobs]
    codec = PaSTRICompressor(dims=(6, 6, 6, 6))
    barrier = threading.Barrier(6)

    def work(t):
        barrier.wait()
        for i in range(60):
            k = (i + t) % len(blobs)
            ids = [k, (k + 3) % len(blobs), (k + t) % len(blobs)]
            for j, out in zip(ids, codec.decompress_many([blobs[j] for j in ids])):
                assert np.array_equal(out.view(np.uint64), want[j].view(np.uint64))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as ex:
            for f in [ex.submit(work, t) for t in range(6)]:
                f.result(timeout=120)
    finally:
        sys.setswitchinterval(old)
