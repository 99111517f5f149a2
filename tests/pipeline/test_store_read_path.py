"""The store's one read sequence: claim under the lock, decode outside it,
admit under it again.

``get``, ``get_many`` and readahead all go through it.  Each test holds one
decode open and checks what the rest of the store may do meanwhile: other
keys stay readable (no decode holds the store lock), a ``put`` racing a
batch decode keeps the old array out of the array tier, and overlapping
batches wait out each other's claims without deadlocking.
"""

import sys
import threading
import time

import numpy as np

from repro.core import PaSTRICompressor
from repro.pipeline import CompressedERIStore
from tests.conftest import make_patterned_stream

EB = 1e-10
DIMS = (6, 6, 6, 6)
TIMEOUT_S = 10.0


class HeldCodec(PaSTRICompressor):
    """Blocks the decode of one chosen blob, alone or in a batch, until the
    test releases it."""

    def __init__(self) -> None:
        super().__init__(dims=DIMS)
        self.held: bytes | None = None
        self.entered = threading.Event()
        self.release = threading.Event()

    def hold(self, blob) -> None:
        self.held = bytes(blob)

    def _wait_if_held(self, blobs) -> None:
        if self.held is not None and any(bytes(b) == self.held for b in blobs):
            self.entered.set()
            # outlasts every join below, so a blocked reader is what fails
            assert self.release.wait(3 * TIMEOUT_S), "held decode never released"

    def decompress(self, blob):
        self._wait_if_held([blob])
        return super().decompress(blob)

    def decompress_many(self, blobs):
        blobs = list(blobs)
        self._wait_if_held(blobs)
        return super().decompress_many(blobs)


def filled_store(rng, n, **kwargs):
    blocks = [make_patterned_stream(rng, n_blocks=1, zero_blocks=0) for _ in range(n)]
    codec = kwargs.pop("codec", None) or PaSTRICompressor(dims=DIMS)
    store = CompressedERIStore(codec, EB, **kwargs)
    for key, block in enumerate(blocks):
        store.put(key, block)
    return store, blocks


def start(fn, *args) -> tuple[threading.Thread, list]:
    """Run ``fn(*args)`` on a daemon thread (a deadlock must not hang the
    suite); the returned list receives its result or exception."""
    box: list = []

    def run():
        try:
            box.append(fn(*args))
        except BaseException as exc:  # surfaced by the test's assertions
            box.append(exc)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t, box


def result(t: threading.Thread, box: list):
    """Join ``t`` and return its result, asserting it finished in time."""
    t.join(TIMEOUT_S)
    assert not t.is_alive(), f"still blocked after {TIMEOUT_S} s"
    if isinstance(box[0], BaseException):
        raise box[0]
    return box[0]


def test_put_racing_a_pool_batch_keeps_the_old_block_out_of_the_tier(rng, monkeypatch):
    store, blocks = filled_store(rng, 2, hot_cache_bytes=1 << 20)
    new = make_patterned_stream(rng, n_blocks=1, zero_blocks=0)
    entered, release = threading.Event(), threading.Event()

    class HeldPool:
        def decompress_batch(self, blobs):
            entered.set()
            assert release.wait(TIMEOUT_S)
            return [store.codec.decompress(b) for b in blobs]

    monkeypatch.setattr(
        "repro.parallel.pool.shared_pool", lambda *args, **kwargs: HeldPool()
    )
    batch = start(store.get_many, [0, 1], 2)
    try:
        assert entered.wait(TIMEOUT_S)
        store.put(0, new)  # lands while the batch decodes the old blob
    finally:
        release.set()
    old = result(*batch)[0]
    assert np.max(np.abs(old - blocks[0])) <= EB  # the batch's own snapshot
    got = store.get(0)
    assert np.max(np.abs(got - new)) <= EB, "the stale batch array was cached"


def test_held_decode_without_array_tier_leaves_other_keys_readable(rng):
    codec = HeldCodec()
    store, blocks = filled_store(rng, 2, codec=codec)  # no array tier
    codec.hold(store.get_blob(0)[0])
    held = start(store.get, 0)
    try:
        assert codec.entered.wait(TIMEOUT_S)
        got = result(*start(store.get, 1))
        assert np.max(np.abs(got - blocks[1])) <= EB
    finally:
        codec.release.set()
    assert np.max(np.abs(result(*held) - blocks[0])) <= EB


def test_held_readahead_decode_leaves_other_keys_readable(rng):
    codec = HeldCodec()
    store, blocks = filled_store(
        rng, 5, codec=codec, hot_cache_bytes=1 << 20, readahead_depth=1
    )
    codec.hold(store.get_blob(1)[0])  # get(0)'s readahead candidate
    held = start(store.get, 0)
    try:
        assert codec.entered.wait(TIMEOUT_S)
        got = result(*start(store.get, 3))
        assert np.max(np.abs(got - blocks[3])) <= EB
    finally:
        codec.release.set()
    assert np.max(np.abs(result(*held) - blocks[0])) <= EB
    hits = store.stats.cache_hits
    store.get(1)  # served by the prefetch the held decode finished
    assert store.stats.cache_hits == hits + 1
    assert store.stats.readahead_useful == 1


def test_overlapping_batches_wait_out_a_claim_without_deadlock(rng):
    """Both batches need key 3 while a get holds its decode.  A batch that
    claimed its other keys as it went would wait on 3 holding 1 (or 2),
    and once 3 was released the two batches would wait on each other."""
    codec = HeldCodec()
    store, blocks = filled_store(rng, 4, codec=codec, hot_cache_bytes=1 << 20)
    codec.hold(store.get_blob(3)[0])
    held = start(store.get, 3)
    orders = ([1, 3, 2], [2, 3, 1])
    try:
        assert codec.entered.wait(TIMEOUT_S)
        batches = [start(store.get_many, keys) for keys in orders]
        deadline = time.monotonic() + TIMEOUT_S
        while store.stats.gets < 3:  # both batches have started reading
            assert time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.1)  # ...and reached key 3
    finally:
        codec.release.set()
    for batch, keys in zip(batches, orders):
        for key, arr in zip(keys, result(*batch)):
            assert np.max(np.abs(arr - blocks[key])) <= EB
    assert np.max(np.abs(result(*held) - blocks[3])) <= EB


def test_concurrent_reads_and_overwrites_never_cache_a_stale_block():
    """Writers overwrite their own keys while readers hammer every key
    through get (with readahead) and get_many.  A writer's get right after
    its put must read that put back (a stale array admitted by a reader's
    racing decode would be served instead); afterwards every claim is
    released and the tier's byte gauge matches its contents."""
    rng = np.random.default_rng(7)
    n_keys, versions, n_writers, n_readers = 8, 12, 2, 4
    blocks = {
        (k, v): make_patterned_stream(rng, n_blocks=1, zero_blocks=0)
        for k in range(n_keys) for v in range(versions)
    }
    store = CompressedERIStore(
        PaSTRICompressor(dims=DIMS), EB, hot_cache_bytes=4 * 1296 * 8,
        readahead_depth=2,
    )
    for k in range(n_keys):
        store.put(k, blocks[k, 0])
    stop = threading.Event()

    def writer(w):
        for v in range(1, versions):
            for k in range(w, n_keys, n_writers):
                store.put(k, blocks[k, v])
                assert np.max(np.abs(store.get(k) - blocks[k, v])) <= EB

    def reader(r):
        picks = np.random.default_rng(r)
        while not stop.is_set():
            keys = [int(k) for k in picks.integers(0, n_keys, size=3)]
            outs = store.get_many(keys) if r % 2 else [store.get(k) for k in keys]
            for k, out in zip(keys, outs):
                assert any(
                    np.max(np.abs(out - blocks[k, v])) <= EB for v in range(versions)
                )

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [start(reader, r) for r in range(n_readers)]
        writers = [start(writer, w) for w in range(n_writers)]
        for w in writers:
            result(*w)
        stop.set()
        for r in readers:
            result(*r)
    finally:
        stop.set()
        sys.setswitchinterval(old)
    assert not store._decoding and not store._decode_stale
    assert store.stats.hot_bytes == store._hot_arrays.bytes
    for k in range(n_keys):
        assert np.max(np.abs(store.get(k) - blocks[k, versions - 1])) <= EB
