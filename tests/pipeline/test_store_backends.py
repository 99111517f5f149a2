"""Backend-specific store behavior: spilling, persistence, hot caches."""

import gc
import hashlib
import json
import os
import weakref

import numpy as np
import pytest

from repro.core import PaSTRICompressor
from repro.errors import ParameterError
from repro.parallel import parallel_compress_to_container
from repro.pipeline import CompressedERIStore, ContainerBackend, MemoryBackend
from repro.streamio import open_container
from tests.conftest import make_patterned_stream

EB = 1e-10


#: decompressed bytes of one block from ``fill``: a (6,6,6,6) float64 quartet
BLOCK_NBYTES = 1296 * 8


def codec():
    return PaSTRICompressor(dims=(6, 6, 6, 6))


def fill(store, rng, n=8):
    blocks = {}
    for i in range(n):
        b = make_patterned_stream(rng, n_blocks=1, zero_blocks=0)
        store.put((i, 0), b, dims=(6, 6, 6, 6))
        blocks[(i, 0)] = b
    return blocks


# ---------------------------------------------------------------------------
# spill-to-disk


def test_spill_and_promote(tmp_path, rng):
    path = str(tmp_path / "spill.pstf")
    store = CompressedERIStore(
        codec(), EB, backend=ContainerBackend(path, memory_budget_bytes=1024)
    )
    with store:
        blocks = fill(store, rng)
        assert store.stats.spills > 0, "budget too large to exercise spilling"
        assert len(store) == len(blocks)
        # everything reads back within the bound, whether hot or spilled
        for key, b in blocks.items():
            assert np.max(np.abs(store.get(key) - b)) <= EB
        assert store.stats.disk_reads > 0
        # a freshly promoted key is hot: re-reading it costs no disk traffic
        reads = store.stats.disk_reads
        last = (len(blocks) - 1, 0)
        store.get(last)
        assert store.stats.disk_reads == reads


def test_zero_budget_keeps_at_most_one_hot_entry(tmp_path, rng):
    store = CompressedERIStore(
        codec(),
        EB,
        backend=ContainerBackend(str(tmp_path / "s.pstf"), memory_budget_bytes=0),
    )
    with store:
        blocks = fill(store, rng, n=4)
        assert store.stats.spills >= len(blocks) - 1
        for key, b in blocks.items():
            assert np.max(np.abs(store.get(key) - b)) <= EB


def test_overwriting_a_spilled_key_serves_the_new_value(tmp_path, rng):
    store = CompressedERIStore(
        codec(), EB, backend=ContainerBackend(str(tmp_path / "s.pstf"), 0)
    )
    with store:
        blocks = fill(store, rng, n=3)
        assert (0, 0) not in store.backend._hot  # forced out by the 0 budget
        replacement = make_patterned_stream(rng, n_blocks=1, zero_blocks=0)
        store.put((0, 0), replacement, dims=(6, 6, 6, 6))
        assert np.max(np.abs(store.get((0, 0)) - replacement)) <= EB
        assert store.stats.n_entries == len(blocks)


def test_closed_spill_file_is_a_valid_container(tmp_path, rng):
    path = str(tmp_path / "spill.pstf")
    store = CompressedERIStore(codec(), EB, backend=ContainerBackend(path, 1024))
    blocks = fill(store, rng)
    store.close()
    # the flushed spill file opens standalone, with no codec arguments
    with open_container(path) as r:
        assert r.codec_name == "pastri"
        assert r.meta["role"] == "eri-store-spill"
        assert r.meta["error_bound"] == EB
        served = {}
        for key in r.keys():  # orphaned frames share keys; later frames win
            served[key] = r.get(key)
        assert set(served) == {json.dumps(k) for k in blocks}
        for key, b in blocks.items():
            assert np.max(np.abs(served[json.dumps(key)] - b)) <= EB


def test_closed_store_is_freed_without_the_cyclic_gc(tmp_path, rng):
    """Neither cache tier refers back to its owner, so reference counting
    alone frees a closed store, its array tier and its blob tier."""
    path = str(tmp_path / "spill.pstf")
    store = CompressedERIStore(
        codec(), EB, backend=ContainerBackend(path, 1024),
        hot_cache_bytes=4 * BLOCK_NBYTES,
    )
    blocks = fill(store, rng)
    for key in blocks:
        store.get(key)
    assert store.stats.spills > 0 and store.stats.hot_bytes > 0  # both tiers used
    refs = [weakref.ref(store), weakref.ref(store.backend)]
    gc.disable()
    try:
        store.close()
        del store
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_backend_outside_a_store_is_rejected(tmp_path):
    backend = ContainerBackend(str(tmp_path / "s.pstf"), 0)
    from repro.pipeline.store import _Entry

    with pytest.raises(ParameterError, match="outside a store"):
        backend.put("k", _Entry(b"x" * 100, 800, None))
        backend.put("k2", _Entry(b"y" * 100, 800, None))  # forces a spill

    with pytest.raises(ParameterError):
        ContainerBackend(str(tmp_path / "t.pstf"), memory_budget_bytes=-1)


# ---------------------------------------------------------------------------
# save / load


@pytest.mark.parametrize("backend_kind", ["memory", "container"])
def test_save_load_roundtrip(tmp_path, rng, backend_kind):
    backend = (
        ContainerBackend(str(tmp_path / "spill.pstf"), memory_budget_bytes=1024)
        if backend_kind == "container"
        else None
    )
    store = CompressedERIStore(codec(), EB, backend=backend)
    with store:
        blocks = fill(store, rng)
        originals = {k: store.get(k) for k in blocks}
        snap = str(tmp_path / "snap.pstf")
        summary = store.save(snap)
        assert summary.n_chunks == len(blocks)

    revived = CompressedERIStore.load(snap)
    assert isinstance(revived.backend, MemoryBackend)
    assert revived.error_bound == EB
    assert revived.codec.spec.dims == (6, 6, 6, 6)
    assert set(revived.keys()) == set(blocks)  # tuple keys revived from JSON
    assert revived.stats.puts == 0  # no traffic served yet
    assert revived.stats.n_entries == len(blocks)
    for key in blocks:
        # blobs are carried verbatim, so reads are bit-identical to the
        # original store's, not merely within the bound
        assert np.array_equal(revived.get(key), originals[key])


def test_load_into_container_backend(tmp_path, rng):
    store = CompressedERIStore(codec(), EB)
    blocks = fill(store, rng, n=5)
    snap = str(tmp_path / "snap.pstf")
    store.save(snap)

    revived = CompressedERIStore.load(
        snap, backend=ContainerBackend(str(tmp_path / "spill.pstf"), 0)
    )
    with revived:
        assert revived.stats.spills > 0  # restoring spilled immediately
        for key, b in blocks.items():
            assert np.max(np.abs(revived.get(key) - b)) <= EB


def test_load_rejects_plain_containers(tmp_path, rng):
    from repro.streamio import compress_dataset_to_file

    path = str(tmp_path / "plain.pstf")
    compress_dataset_to_file([np.zeros(1296)], codec(), EB, path)
    with pytest.raises(ParameterError, match="error bound"):
        CompressedERIStore.load(path)


@pytest.mark.parametrize("footer", [True, False], ids=["closed", "footerless"])
def test_spill_path_holding_a_foreign_container_is_refused(tmp_path, rng, footer):
    """A ``pastri pack`` output at the spill path is not the store's to
    resume: the store refuses it before touching a byte."""
    packed = tmp_path / "packed.pstf"
    path = str(packed)
    data = make_patterned_stream(rng, n_blocks=4, zero_blocks=0)
    parallel_compress_to_container(
        "pastri", data, EB, 1, 1296, path,
        codec_kwargs={"dims": (6, 6, 6, 6)}, n_frames=4,
    )
    with open_container(path) as r:
        assert len(r.frames) == 4
        end_of_frames = max(f.offset + f.length for f in r.frames)
    if not footer:
        os.truncate(path, end_of_frames)  # a writer killed before its index
    digest = hashlib.sha256(packed.read_bytes()).hexdigest()
    with pytest.raises(ParameterError, match="spill path .* did not write"):
        CompressedERIStore(codec(), EB, backend=ContainerBackend(path, 1024))
    assert hashlib.sha256(packed.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# hot decompressed-array cache


def test_hot_array_cache_hits(rng):
    store = CompressedERIStore(codec(), EB, hot_cache_bytes=2 * BLOCK_NBYTES)
    blocks = fill(store, rng, n=3)
    store.get((0, 0))
    store.get((0, 0))
    assert store.stats.cache_hits == 1
    assert store.stats.cache_misses == 1
    # capacity 2 blocks: the tier never holds more than its budget, and
    # churning through every key costs at least one eviction
    for key in blocks:
        store.get(key)
    assert len(store._hot_arrays) <= 2
    assert store.stats.array_evictions >= 1
    for key, b in blocks.items():
        assert np.max(np.abs(store.get(key) - b)) <= EB


def test_hot_array_cache_byte_budget(rng):
    """hot_cache_bytes sizes the tier in decompressed bytes, not entries."""
    one_block = 1296 * 8  # (6,6,6,6) quartet, float64
    store = CompressedERIStore(codec(), EB, hot_cache_bytes=2 * one_block)
    blocks = fill(store, rng, n=4)
    for key in blocks:
        store.get(key)
    assert store._hot_arrays.bytes <= 2 * one_block
    assert store.stats.hot_bytes == store._hot_arrays.bytes
    assert store.stats.hot_bytes % one_block == 0
    # repeated reads of a resident key are pure cache hits
    hits = store.stats.cache_hits
    resident = next(iter(store._hot_arrays.keys()))
    store.get(resident)
    assert store.stats.cache_hits == hits + 1


def test_cached_arrays_are_frozen(rng):
    store = CompressedERIStore(codec(), EB, hot_cache_bytes=4 * BLOCK_NBYTES)
    fill(store, rng, n=1)
    out = store.get((0, 0))
    with pytest.raises(ValueError):
        out[0] = 1.0


def test_put_invalidates_cached_array(rng):
    store = CompressedERIStore(codec(), EB, hot_cache_bytes=4 * BLOCK_NBYTES)
    fill(store, rng, n=1)
    stale = store.get((0, 0))
    replacement = make_patterned_stream(rng, n_blocks=1, zero_blocks=0)
    store.put((0, 0), replacement, dims=(6, 6, 6, 6))
    fresh = store.get((0, 0))
    assert not np.array_equal(fresh, stale)
    assert np.max(np.abs(fresh - replacement)) <= EB
