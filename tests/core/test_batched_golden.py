"""Golden-blob regression tests for the batched codec kernels.

The byte counts, output digests and stats digests below were produced by
the *pre-batching* per-block implementation on the cached
``trialanine_dd_dd_400`` dataset (seeded, so a cache miss regenerates
identical data).  Batched execution is an execution strategy, not a format
change: the reconstruction and the ``StreamStats`` breakdown must stay
bit-identical.  The blob digests are those of stream version 2, whose
planar dense layout reorders the version-1 bits without adding any, so the
byte counts are unchanged.  Any change to these digests means the stream
format moved and ``docs/FORMAT.md`` (plus a version bump) must move with it.
"""

import hashlib

import numpy as np
import pytest

from repro.core import PaSTRICompressor
from repro.harness.datasets import standard_dataset

#: error bound -> (blob sha256, blob bytes, output sha256, stats sha256); the
#: last three are from the per-block implementation predating the batched
#: kernels, the blob digest from the stream-version-2 writer.
GOLDEN = {
    1e-6: (
        "69222e2d865fe52627905dd8b17e50556c3ae2611cebb70321417c38f86acb2c",
        35674,
        "762a706ddbe3c7a5b9a88b8a2115c0211dead30deb74c3e31eadc355ad1972e5",
        "2e910accd041f374e1bb9cea445fea6ada1d7908a60e919dfa9558129fa6a9d3",
    ),
    1e-10: (
        "d055869ed3bd875d28d5791ee56b73b6e1f50942c8cf1c6848b09c918db26548",
        161243,
        "73236715a64d7f2fd7f6ffb7871fb8abeb4d4bb7ca85d164e177bcfb58e797ab",
        "6a2179263a254a441d63750a0c3e9785cc023befe6f3c7ccbe1f1063f7dff4c3",
    ),
    1e-14: (
        "984d005e1f7a6c42a96e908cbe6558b69ce993f97553074ba49cdb33021f8fc8",
        397046,
        "7b21910eeb001ca38955aa54bd8e150d96958ae6bcd545921b994cdb7e33dc27",
        "f718d9d825e821941eefd197ae51a4565c9beeb0f4fc5d0a7ac0417b9109b6bc",
    ),
}


@pytest.fixture(scope="module")
def dd_data():
    return standard_dataset("trialanine", "(dd|dd)", "small").data


def stats_digest(st) -> str:
    """Canonical digest of a StreamStats breakdown (order-independent)."""
    parts = [
        st.n_points, st.n_blocks, st.bits_global_header, st.bits_block_headers,
        st.bits_pattern, st.bits_scales, st.bits_ecq, st.bits_raw, st.bits_tail,
        st.degenerate_blocks,
        sorted((int(k), int(v)) for k, v in st.kind_counts.items()),
        sorted((int(k), int(v)) for k, v in st.type_counts.items()),
        sorted((int(t), np.asarray(h).tolist()) for t, h in st.ecq_hist.items()),
    ]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("eb", sorted(GOLDEN))
def test_blob_output_and_stats_match_per_block_golden(dd_data, eb):
    blob_d, nbytes, out_d, st_d = GOLDEN[eb]
    codec = PaSTRICompressor(config="(dd|dd)", collect_stats=True)
    blob = codec.compress(dd_data, eb)
    assert len(blob) == nbytes
    assert hashlib.sha256(blob).hexdigest() == blob_d
    out = codec.decompress(blob)
    assert hashlib.sha256(out.tobytes()).hexdigest() == out_d
    assert np.max(np.abs(out - dd_data)) <= eb
    assert stats_digest(codec.last_stats) == st_d


def test_repeat_decodes_are_identical(dd_data):
    """Memoised (warm) and cold decodes must return the same array."""
    codec = PaSTRICompressor(config="(dd|dd)")
    blob = codec.compress(dd_data, 1e-10)
    cold = PaSTRICompressor(config="(dd|dd)").decompress(blob)
    first = codec.decompress(blob)
    warm = codec.decompress(blob)  # hits the parse cache
    assert np.array_equal(cold, first)
    assert np.array_equal(first, warm)
    assert warm is not first  # fresh output array per call


def test_parse_cache_is_bounded(dd_data):
    from repro.core.compressor import _PARSE_CACHE_MAX

    codec = PaSTRICompressor(config="(dd|dd)")
    blobs = [codec.compress(dd_data[: 1296 * (k + 1)], 1e-10) for k in range(4)]
    for b in blobs:
        codec.decompress(b)
    assert len(codec._parse_cache) == _PARSE_CACHE_MAX
    # most recent blobs survive
    assert blobs[-1] in codec._parse_cache


def test_parse_cache_survives_concurrent_decodes(dd_data):
    """Threads decoding different blobs through one codec evict from the
    parse cache at once; none may fail, and the cache stays bounded."""
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro.core.compressor import _PARSE_CACHE_MAX

    codec = PaSTRICompressor(config="(dd|dd)")
    blobs = [codec.compress(dd_data[1296 * k:1296 * (k + 1)], 1e-10) for k in range(8)]
    expected = [PaSTRICompressor(config="(dd|dd)").decompress(b) for b in blobs]
    barrier = threading.Barrier(4)

    def work(t):
        barrier.wait()
        for i in range(400):
            k = (i + t) % len(blobs)
            assert np.array_equal(codec.decompress(blobs[k]), expected[k])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as ex:
            for f in [ex.submit(work, t) for t in range(4)]:
                f.result(timeout=60)
    finally:
        sys.setswitchinterval(old)
    codec.decompress(blobs[0])
    assert len(codec._parse_cache) <= _PARSE_CACHE_MAX


def test_corrupt_blob_is_never_cached(dd_data):
    from repro.errors import FormatError

    codec = PaSTRICompressor(config="(dd|dd)")
    blob = codec.compress(dd_data[: 1296 * 8], 1e-10)
    bad = blob[: len(blob) // 2]
    with pytest.raises(FormatError):
        codec.decompress(bad)
    assert bad not in codec._parse_cache
