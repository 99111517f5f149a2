"""The store's write path: ``put`` checks and stages, ``_flush`` compresses.

A ``put`` returns once its checked copy is staged.  The stage is compressed
in one ``compress_many`` call per geometry when it outgrows its limit, or
before anything reads blobs or counters, and its blobs enter in put order.
The oracle is the same store with ``stats`` read after every ``put``: that
compresses each block at once, as a store without a stage would, so the
two must agree on every array, blob, counter and spill byte.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import PaSTRICompressor
from repro.errors import ParameterError
from repro.pipeline import CompressedERIStore, ContainerBackend
from repro.streamio import open_container
from tests.conftest import make_patterned_stream
from tests.pipeline.test_store_read_path import TIMEOUT_S, result, start

EB = 1e-10
DIMS = (6, 6, 6, 6)
GEOMS = ((6, 6, 6, 6), (3, 3, 6, 6))


def _block(rng, dims=DIMS):
    return make_patterned_stream(rng, n_blocks=1, dims=dims, zero_blocks=0)


def _noisy(rng, dims=DIMS):
    """A block PaSTRI packs ~4.5x: the spill tests need blobs that fill
    a blob tier a few blocks of stage can fit beside."""
    return rng.standard_normal(int(np.prod(dims))) * 1e-7


def _store(tmp_path, name, budget):
    backend = None
    if budget is not None:
        backend = ContainerBackend(str(tmp_path / name), memory_budget_bytes=budget)
    return CompressedERIStore(
        PaSTRICompressor(dims=DIMS), EB, backend=backend,
        hot_cache_bytes=64 << 10, readahead_depth=1,
    )


def _drive(store, after_put) -> tuple[list, dict]:
    """One fixed sequence over two geometries.  Returns what it read and
    the blob each key must hold: ``{key: expected_blob}``."""
    rng = np.random.default_rng(5)
    reads: list = []
    expected: dict = {}

    def put(key, dims):
        block = _noisy(rng, dims)
        store.put(key, block, dims=dims)
        expected[key] = PaSTRICompressor(dims=dims).compress(block, EB)
        after_put(store)

    for key in range(24):
        put(key, GEOMS[key % 2])
    put(23, GEOMS[1])  # overwrites a staged key
    put(22, GEOMS[0])
    blob = PaSTRICompressor(dims=GEOMS[0]).compress(_noisy(rng, GEOMS[0]), EB)
    put(30, GEOMS[0])
    store.put_blob(30, blob, 1296 * 8, GEOMS[0])  # over a staged key
    expected[30] = blob
    reads.append(store.get(5))
    reads.append(store.get_blob(23))
    put(5, GEOMS[1])  # overwrites a flushed key...
    put(0, GEOMS[0])
    reads.extend(store.get(k) for k in (5, 6, 0, 30))  # ...and reads it back
    for key in range(31, 45):
        put(key, GEOMS[key % 2])
    reads.extend(store.get_blob(k) for k in (0, 44, 30))
    reads.extend(store.get(k) for k in range(40, 45))
    for key in range(45, 50):
        put(key, GEOMS[0])
    return reads, expected


def _assert_same_reads(a: list, b: list) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
        else:
            assert x == y


@pytest.mark.parametrize("budget", [None, 24 << 10], ids=["memory", "container"])
def test_staged_store_matches_a_store_that_compresses_each_put(tmp_path, budget):
    staged = _store(tmp_path, "staged.pstf", budget)
    oracle = _store(tmp_path, "oracle.pstf", budget)
    reads, expected = _drive(staged, lambda s: None)
    oracle_reads, _ = _drive(oracle, lambda s: s.stats)
    _assert_same_reads(reads, oracle_reads)

    # the last puts are still staged: len, in and keys count them as is
    assert staged._stage and not oracle._stage
    assert len(staged) == len(oracle) == len(expected)
    assert set(staged.keys()) == set(oracle.keys()) == set(expected)
    assert all(k in staged for k in expected)
    assert staged._stage, "len, in or keys() compressed the stage"

    assert staged.stats == oracle.stats
    assert staged.stats.seq_profile == oracle.stats.seq_profile
    assert staged.keys() == oracle.keys()
    for key, blob in expected.items():
        assert staged.get_blob(key)[0] == blob
        assert oracle.get_blob(key)[0] == blob
    if budget is None:
        staged.save(str(tmp_path / "staged.snap"))
        oracle.save(str(tmp_path / "oracle.snap"))
        names = ("staged.snap", "oracle.snap")
    else:
        assert staged.stats.spills > 0  # the sequence reaches the spill file
        names = ("staged.pstf", "oracle.pstf")
    staged.close()
    oracle.close()
    left, right = ((tmp_path / n).read_bytes() for n in names)
    assert left == right


def test_full_stage_compresses_in_one_call_per_geometry(rng):
    calls = []

    class CountingCodec(PaSTRICompressor):
        def compress_many(self, arrays, error_bound):
            arrays = list(arrays)
            calls.append(len(arrays))
            return super().compress_many(arrays, error_bound)

        def reshaped(self, dims):
            return CountingCodec(dims=dims)

    store = CompressedERIStore(CountingCodec(dims=DIMS), EB)
    per_stage = (1 << 20) // (1296 * 8) + 1  # the put that makes it exceed 1 MiB
    for key in range(per_stage):
        store.put(key, _block(rng), dims=DIMS)
    assert calls == [per_stage]
    store.put("d", _block(rng), dims=DIMS)
    store.put("p", _block(rng, GEOMS[1]), dims=GEOMS[1])
    assert store.stats.puts == per_stage + 2
    assert calls == [per_stage, 1, 1]


def test_budget_below_one_block_compresses_at_every_put(tmp_path, rng):
    store = _store(tmp_path, "spill.pstf", 2048)
    for key in range(3):
        store.put(key, _block(rng), dims=DIMS)
        assert not store._stage
    assert store._stats.puts == 3
    store.close()


class HeldCodec(PaSTRICompressor):
    """Holds a ``compress_many`` call inside the codec, while the test
    needs it, when one chosen block is among its inputs."""

    def __init__(self) -> None:
        super().__init__(dims=DIMS)
        self.held: np.ndarray | None = None
        self.entered = threading.Event()
        self.release = threading.Event()

    def compress_many(self, arrays, error_bound):
        arrays = list(arrays)
        if self.held is not None and any(np.array_equal(a, self.held) for a in arrays):
            self.entered.set()
            # outlasts every join below, so a blocked caller is what fails
            assert self.release.wait(3 * TIMEOUT_S), "held flush never released"
        return super().compress_many(arrays, error_bound)


def _within(arr, block) -> bool:
    return bool(np.max(np.abs(arr - block)) <= EB)


@pytest.mark.parametrize("later", ["put", "put_blob"])
def test_a_write_during_a_held_flush_of_its_key_wins(rng, later):
    codec = HeldCodec()
    store = CompressedERIStore(codec, EB)
    v1, v2 = _block(rng), _block(rng)
    blob2 = PaSTRICompressor(dims=DIMS).compress(v2, EB)
    store.put(0, v1)
    codec.held = v1
    flusher = start(store.get, 0)
    try:
        assert codec.entered.wait(TIMEOUT_S)
        if later == "put":
            result(*start(store.put, 0, v2))  # staged: returns while held
            assert 0 in store._stage_keys
            writer = None
        else:
            writer = start(store.put_blob, 0, blob2, v2.nbytes)
            time.sleep(0.1)
            assert writer[0].is_alive(), "put_blob landed under a held flush"
    finally:
        codec.release.set()
    first = result(*flusher)
    assert _within(first, v1) or _within(first, v2)  # the two overlap
    if writer is not None:
        result(*writer)
    assert store.get_blob(0)[0] == blob2
    assert _within(store.get(0), v2)
    assert store.stats.puts == 2 and store.stats.n_entries == 1


def test_overlapping_flushes_of_one_key_admit_in_put_order(rng):
    codec = HeldCodec()
    store = CompressedERIStore(codec, EB)
    v1, v2 = _block(rng), _block(rng)
    store.put(0, v1)
    codec.held = v1
    first = start(lambda: store.stats)  # flush 1 holds v1
    try:
        assert codec.entered.wait(TIMEOUT_S)
        store.put(0, v2)
        second = start(store.get, 0)  # flush 2 must wait for flush 1
        time.sleep(0.1)
        assert second[0].is_alive(), "a flush of the key overtook a held one"
    finally:
        codec.release.set()
    result(*first)
    assert _within(result(*second), v2)
    assert _within(store.get(0), v2)
    assert store.stats.puts == 2 and store.stats.n_entries == 1


def test_held_flush_leaves_other_keys_readable(rng):
    codec = HeldCodec()
    store = CompressedERIStore(codec, EB)
    v0, v1 = _block(rng), _block(rng)
    store.put(1, v1)
    assert _within(store.get(1), v1)
    store.put(0, v0)
    codec.held = v0
    flusher = start(store.get, 0)
    try:
        assert codec.entered.wait(TIMEOUT_S)
        assert _within(result(*start(store.get, 1)), v1)
        assert 0 in store and len(store) == 2
    finally:
        codec.release.set()
    assert _within(result(*flusher), v0)


def test_get_or_compute_finds_a_staged_key_without_computing(rng):
    store = CompressedERIStore(PaSTRICompressor(dims=DIMS), EB)
    block = _block(rng)
    store.put("k", block, dims=DIMS)

    def compute():
        raise AssertionError("a staged key was computed again")

    assert _within(store.get_or_compute("k", compute, dims=DIMS), block)


def test_put_stages_a_copy_of_the_callers_buffer(rng):
    store = CompressedERIStore(PaSTRICompressor(dims=DIMS), EB)
    block = _block(rng)
    buf = block.copy()
    store.put(0, buf, dims=DIMS)
    view = buf.reshape(DIMS)  # a 4-D view is raveled, still copied
    store.put(1, view, dims=DIMS)
    buf[:] = 1.0  # the caller reuses its buffer before any flush
    assert store._stage
    assert _within(store.get(0), block)
    assert _within(store.get(1), block)


def test_float32_put_is_indexed_as_the_float64_block_it_decodes_to(tmp_path, rng):
    """The stage holds float64 copies, so the frame index and the byte
    counts describe what a get returns (a store that counted the caller's
    float32 bytes indexed half the elements)."""
    block = _block(rng).astype(np.float32)
    store = CompressedERIStore(PaSTRICompressor(dims=DIMS), EB)
    store.put(0, block, dims=DIMS)
    assert store.get(0).size == block.size
    assert store.stats.original_bytes == 8 * block.size
    store.save(str(tmp_path / "snap.pstf"))
    with open_container(str(tmp_path / "snap.pstf")) as r:
        assert r.frames[0].n_elements == block.size


@pytest.mark.parametrize(
    ("block", "dims", "key", "eb"),
    [
        (np.array([1.0, np.nan]), None, 0, EB),
        (np.array([]), None, 0, EB),
        (np.ones(1296), (6, 6, 6), 0, EB),
        (np.ones(1296), (0, 6, 6, 6), 0, EB),
        (np.ones(1296), (70000, 1, 1, 1), 0, EB),
        (np.ones(1296), None, "k" * 70000, EB),
        (np.ones(1296), None, 0, 0.0),
    ],
    ids=[
        "nan", "empty", "3-d dims", "zero dim", "dim over index limit",
        "long key", "store error bound",
    ],
)
def test_put_raises_on_bad_input_before_staging(block, dims, key, eb):
    store = CompressedERIStore(PaSTRICompressor(dims=DIMS), eb)
    with pytest.raises(ParameterError):
        store.put(key, block, dims=dims)
    assert not store._stage and len(store) == 0
    assert store.stats.puts == 0


def test_abort_drops_the_stage_and_keeps_what_spilled(tmp_path, rng):
    path = str(tmp_path / "spill.pstf")
    store = _store(tmp_path, "spill.pstf", 24 << 10)
    for key in range(62):  # a flush every third put: two stay staged
        store.put(key, _noisy(rng), dims=DIMS)
    staged = set(store._stage_keys)
    spilled = set(store.backend._ondisk)
    assert staged and spilled and not staged & spilled
    store.abort()
    assert not any(k in store for k in staged)  # dropped, not compressed

    reopened = CompressedERIStore(
        PaSTRICompressor(dims=DIMS), EB,
        backend=ContainerBackend(path, memory_budget_bytes=24 << 10),
    )
    assert set(reopened.keys()) == spilled
    assert reopened.stats.recovered == len(spilled)
    reopened.close()


def test_concurrent_puts_of_one_key_count_every_put(rng):
    store = CompressedERIStore(PaSTRICompressor(dims=DIMS), EB)
    blocks = [_block(rng) for _ in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [start(lambda b=b: [store.put(0, b) for _ in range(20)]) for b in blocks]
        for t in threads:
            result(*t)
    finally:
        sys.setswitchinterval(old)
    assert store.stats.puts == 80 and store.stats.n_entries == 1
    assert any(_within(store.get(0), b) for b in blocks)
