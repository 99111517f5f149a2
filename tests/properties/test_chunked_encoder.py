"""The chunked word encoder against a block-at-a-time oracle.

``compress_many`` must give, blob for blob, what ``compress`` gives each
stream alone and what :func:`tests.core.ecq_oracle.oracle_blob` writes
(every field of every block as Python ints, dense segments from the
reference codewords in planar order) — for every tree, every ``ecq_mode``
and several block geometries, and wherever the edges of the encoder's
:data:`PLANAR_CHUNK`-token chunks fall.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PaSTRICompressor
from repro.core.stats import StreamStats
from repro.core.trees import PLANAR_CHUNK
from repro.errors import ParameterError
from tests.conftest import make_class_block
from tests.core.ecq_oracle import oracle_blob
from tests.core.test_batched_golden import stats_digest

EB = 1e-10
KINDS = ("zero", "raw", "no_ecq", "sparse", "dense")
#: (4, 4, 4, 4) blocks tile a chunk exactly: 512 of them are PLANAR_CHUNK tokens.
TILE = (4, 4, 4, 4)
PER_CHUNK = PLANAR_CHUNK // 256


def _stream(kinds, n_tail, rng, dims) -> np.ndarray:
    parts = [make_class_block(k, rng, dims).reshape(-1) for k in kinds]
    parts.append(rng.standard_normal(n_tail))
    return np.concatenate(parts)


def _check(codec, arrays) -> list[bytes]:
    blobs = codec.compress_many(arrays, EB)
    assert blobs == [codec.compress(a, EB) for a in arrays]
    assert blobs == [oracle_blob(codec, a, EB) for a in arrays]
    for blob, a in zip(blobs, arrays):
        assert np.max(np.abs(codec.decompress(blob) - a)) <= EB
    return blobs


@pytest.mark.parametrize("dims", [(2, 2, 3, 3), (6, 6, 6, 6), (10, 10, 10, 10)])
@pytest.mark.parametrize("tree_id", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("ecq_mode", ["adaptive", "dense", "sparse"])
@given(
    streams=st.lists(
        st.tuples(st.lists(st.sampled_from(KINDS), max_size=3), st.integers(0, 4)),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=3, deadline=None)
def test_compress_many_matches_the_oracle(dims, tree_id, ecq_mode, streams, seed):
    rng = np.random.default_rng(seed)
    arrays = [_stream(k, t if k or t else 1, rng, dims) for k, t in streams]
    _check(PaSTRICompressor(dims=dims, tree_id=tree_id, ecq_mode=ecq_mode), arrays)


def _tiles(n_blocks: int, rng, kinds=("dense", "sparse", "zero", "no_ecq")) -> np.ndarray:
    """``n_blocks`` (4,4,4,4) blocks cycling through ``kinds``."""
    return _stream([kinds[i % len(kinds)] for i in range(n_blocks)], 0, rng, TILE)


@pytest.mark.parametrize("n_blocks", [PER_CHUNK - 1, PER_CHUNK, PER_CHUNK + 1])
def test_calls_at_the_chunk_edge(n_blocks):
    """One stream, and the same blocks as streams of 1-3 blocks, of
    exactly PLANAR_CHUNK tokens, one block fewer and one block more."""
    rng = np.random.default_rng(n_blocks)
    data = _tiles(n_blocks, rng)
    codec = PaSTRICompressor(dims=TILE)
    _check(codec, [data])
    cuts = np.cumsum(rng.integers(1, 4, n_blocks))
    cuts = cuts[cuts < n_blocks] * 256
    _check(codec, np.split(data, cuts))


def test_stream_longer_than_a_chunk_between_one_block_streams():
    rng = np.random.default_rng(1)
    long = np.concatenate([_tiles(2 * PER_CHUNK + 37, rng), rng.standard_normal(5)])
    arrays = [_tiles(1, rng), long, _tiles(1, rng), rng.standard_normal(3), _tiles(1, rng)]
    _check(PaSTRICompressor(dims=TILE), arrays)


@pytest.mark.parametrize("lead", [0, 1, 5])
def test_raw_block_as_the_last_row_of_a_chunk(lead):
    """A raw block closes the first chunk (and opens the second); ``lead``
    one-block streams shift where the chunk edge falls in the stream."""
    rng = np.random.default_rng(lead)
    kinds = ["dense", "sparse", "no_ecq"] * PER_CHUNK
    kinds[PER_CHUNK - 1 - lead] = kinds[PER_CHUNK - lead] = "raw"
    body = _stream(kinds[: PER_CHUNK + 3], 2, rng, TILE)
    arrays = [_tiles(1, rng) for _ in range(lead)] + [body]
    codec = PaSTRICompressor(dims=TILE, collect_stats=True)
    _check(codec, arrays)
    codec.compress(body, EB)
    assert codec.last_stats.kind_counts[2] == 2


def test_tail_only_and_empty_streams():
    rng = np.random.default_rng(2)
    codec = PaSTRICompressor(dims=TILE)
    assert codec.compress_many([], EB) == []
    _check(codec, [rng.standard_normal(255), rng.standard_normal(1)])
    _check(codec, [rng.standard_normal(7), _tiles(3, rng), rng.standard_normal(255)])
    for arrays in ([np.zeros(0)], [_tiles(1, rng), np.zeros(0)]):
        with pytest.raises(ParameterError, match="empty"):
            codec.compress_many(arrays, EB)
    with pytest.raises(ParameterError, match="empty"):
        codec.compress(np.zeros(0), EB)


def test_threads_share_one_codec():
    """Four threads run compress_many through one codec at once; each gets
    the bytes it gets alone."""
    rng = np.random.default_rng(3)
    codec = PaSTRICompressor(dims=TILE)
    batches = [
        [_tiles(int(n), rng) for n in rng.integers(1, 300, 6)] for _ in range(4)
    ]
    alone = [codec.compress_many(b, EB) for b in batches]
    got: list[list] = [[] for _ in range(4)]
    start = threading.Barrier(4)

    def work(i):
        start.wait()
        for _ in range(3):
            got[i].append(codec.compress_many(batches[i], EB))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the kernel
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[blobs] * 3 for blobs in alone]


def test_stats_over_several_chunks_sum_the_chunks():
    """collect_stats over a stream of several chunks is the sum of the
    stats of its chunks compressed alone — degenerate (zero) blocks
    included, which every chunk here holds."""
    rng = np.random.default_rng(4)
    data = _tiles(3 * PER_CHUNK + 11, rng, ("dense", "zero", "sparse", "raw", "no_ecq"))
    codec = PaSTRICompressor(dims=TILE, collect_stats=True)
    codec.compress(data, EB)
    whole = codec.last_stats
    assert whole.degenerate_blocks >= 4
    total = StreamStats(bits_global_header=whole.bits_global_header, n_points=data.size)
    for part in np.split(data, np.arange(1, 4) * PLANAR_CHUNK):
        codec.compress(part, EB)
        part_stats = codec.last_stats
        for name in ("n_blocks", "bits_block_headers", "bits_pattern", "bits_scales",
                     "bits_ecq", "bits_raw", "degenerate_blocks"):
            setattr(total, name, getattr(total, name) + getattr(part_stats, name))
        total.kind_counts.update(part_stats.kind_counts)
        total.type_counts.update(part_stats.type_counts)
        for t, h in part_stats.ecq_hist.items():
            total.ecq_hist[t] = total.ecq_hist.get(t, 0) + h
    assert stats_digest(whole) == stats_digest(total)
