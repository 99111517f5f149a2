"""Property tests for the store's cache tiers (PR 6).

Three invariants, each the contract of one overhaul mechanism:

* **Budget**: a :class:`SegmentedCache` never holds more cost units than
  its budget, whatever the op sequence, value sizes, or policy — and its
  internal byte counter always equals the sum over resident entries.
* **Scan resistance**: after a working set is established by repeated
  hits, a single full scan of arbitrary one-shot keys cannot evict it
  (the frequency-gated admission filter's whole purpose).
* **Single-flight**: ``get_or_compute`` under 8 threads computes a
  missing key exactly once, and the store never runs two decodes of the
  same key concurrently (the condition-variable claim protocol).
"""

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PaSTRICompressor
from repro.pipeline import CompressedERIStore, SegmentedCache

EB = 1e-10

keys_st = st.integers(min_value=0, max_value=30)
ops_st = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "pop", "sticky_put", "unstick"]),
        keys_st,
        st.integers(min_value=1, max_value=400),  # value size
    ),
    max_size=120,
)


@given(
    budget=st.integers(min_value=0, max_value=1000),
    policy=st.sampled_from(["2q", "lru"]),
    ops=ops_st,
)
@settings(max_examples=80, deadline=None)
def test_budget_never_exceeded(budget, policy, ops):
    cache = SegmentedCache(budget, policy=policy)
    sticky = set()
    for op, key, size in ops:
        if op == "put":
            cache.put(key, b"x" * size)
            sticky.discard(key)
        elif op == "sticky_put":
            cache.put(key, b"x" * size, sticky=True)
            sticky.add(key)
        elif op == "get":
            cache.get(key)
        elif op == "pop":
            cache.pop(key)
            sticky.discard(key)
        else:
            cache.unstick(key)
            sticky.discard(key)
        resident = cache.keys()
        total = sum(len(cache.peek(k)) for k in resident)
        assert cache.bytes == total, "byte counter drifted from contents"
        # sticky entries may not be droppable, so they can pin the cache
        # above budget transiently; everything else obeys the cap
        overshoot = sum(
            len(cache.peek(k)) for k in resident if k in sticky
        )
        assert cache.bytes <= budget + overshoot


@given(
    scan=st.lists(
        st.integers(min_value=1000, max_value=5000), max_size=60, unique=True
    ),
    n_hot=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_full_scan_cannot_evict_the_working_set(scan, n_hot):
    cache = SegmentedCache(100 * (n_hot + 2))
    hot = list(range(n_hot))
    for k in hot:
        cache.put(k, b"x" * 100)
    for _ in range(10):
        for k in hot:
            assert cache.get(k) is not None
    for k in scan:  # one-shot keys, disjoint from the working set
        cache.put(k, b"x" * 100)
    assert all(k in cache for k in hot)


class _TrackingCodec(PaSTRICompressor):
    """Counts concurrent decompressions per blob (keyed by its bytes)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lock = threading.Lock()
        self.active = {}
        self.max_concurrent = {}
        self.total = {}

    def decompress(self, blob):
        key = bytes(blob)
        with self.lock:
            self.active[key] = self.active.get(key, 0) + 1
            self.max_concurrent[key] = max(
                self.max_concurrent.get(key, 0), self.active[key]
            )
            self.total[key] = self.total.get(key, 0) + 1
        try:
            return super().decompress(blob)
        finally:
            with self.lock:
                self.active[key] -= 1


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_get_or_compute_is_single_flight_under_threads(seed):
    rng = np.random.default_rng(seed)
    codec = _TrackingCodec(dims=(6, 6, 6, 6))
    blocks = {k: rng.standard_normal(1296) for k in range(3)}
    store = CompressedERIStore(codec, EB, hot_cache_bytes=8 * blocks[0].nbytes)
    computed = {k: 0 for k in blocks}
    count_lock = threading.Lock()

    def compute(k):
        def _go():
            with count_lock:
                computed[k] += 1
            return blocks[k]

        return _go

    def worker():
        for k in sorted(blocks, key=lambda k: rng.integers(100)):
            out = store.get_or_compute(k, compute(k), dims=(6, 6, 6, 6))
            assert np.max(np.abs(out - blocks[k])) <= EB

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert all(n == 1 for n in computed.values()), computed
    # the decode of any one key never ran twice at the same time
    assert all(n <= 1 for n in codec.max_concurrent.values())
