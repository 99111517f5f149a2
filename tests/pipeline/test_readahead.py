"""Class-adjacent + profile-driven readahead: issuance and accounting."""

import numpy as np
import pytest

from repro.core import PaSTRICompressor
from repro.errors import FormatError
from repro.pipeline import CompressedERIStore
from tests.conftest import make_patterned_stream

EB = 1e-10


def make_store(rng, keys, *, depth, blocks=64):
    data = {k: make_patterned_stream(rng, n_blocks=1, zero_blocks=0) for k in keys}
    store = CompressedERIStore(
        PaSTRICompressor(dims=(6, 6, 6, 6)),
        EB,
        hot_cache_bytes=blocks * next(iter(data.values())).nbytes,
        readahead_depth=depth,
    )
    for k, b in data.items():
        store.put(k, b, dims=(6, 6, 6, 6))
    return store, data


def test_disabled_by_default(rng):
    store, _ = make_store(rng, range(4), depth=0)
    for k in range(4):
        store.get(k)
    assert store.stats.readahead_issued == 0


def test_class_adjacent_int_keys(rng):
    store, data = make_store(rng, range(6), depth=2)
    store.get(0)  # miss: decode 0, speculatively decode 1 and 2
    assert store.stats.readahead_issued == 2
    assert 1 in store._hot_arrays and 2 in store._hot_arrays
    hits = store.stats.cache_hits
    out = store.get(1)  # served by the prefetch
    assert store.stats.cache_hits == hits + 1
    assert store.stats.readahead_useful == 1
    assert np.max(np.abs(out - data[1])) <= EB


def test_class_adjacent_tuple_keys_step_the_last_index(rng):
    keys = [("dd", 0), ("dd", 1), ("dd", 2), ("ss", 0)]
    store, _ = make_store(rng, keys, depth=2)
    store.get(("dd", 0))
    # neighbors share the class prefix; ("ss", 0) is not a candidate
    assert ("dd", 1) in store._hot_arrays
    assert ("dd", 2) in store._hot_arrays
    assert ("ss", 0) not in store._hot_arrays


def test_missing_neighbors_are_skipped(rng):
    store, _ = make_store(rng, [0, 7], depth=2)  # 1 and 2 don't exist
    store.get(0)
    assert store.stats.readahead_issued == 0


def test_profile_beats_adjacency_once_trained(rng):
    """A learned successor is prefetched even when it is not adjacent."""
    store, _ = make_store(rng, [0, 100], depth=1)
    for _ in range(3):  # train the sequence profile: 0 is followed by 100
        store.get(0)
        store.get(100)
    assert store.stats.seq_profile[0][100] >= 2
    # evict both so the next get(0) is a real miss that triggers readahead
    store._hot_arrays.pop(0)
    store._hot_arrays.pop(100)
    store._prefetched.discard(100)
    issued = store.stats.readahead_issued
    store.get(0)
    assert store.stats.readahead_issued == issued + 1
    assert 100 in store._hot_arrays  # profile candidate won the single slot


def test_prefetch_accounting_balances(rng):
    """issued == useful + wasted + still-pending, and accuracy is in [0,1]."""
    store, _ = make_store(rng, range(10), depth=1, blocks=2)
    for k in (0, 2, 4, 6, 8):  # prefetched odd keys are never read
        store.get(k)
    st = store.stats
    assert st.readahead_issued > 0
    assert st.readahead_issued == (
        st.readahead_useful + st.readahead_wasted + len(store._prefetched)
    )
    assert st.readahead_wasted >= 1  # tiny tier: unused prefetches churned out
    assert 0.0 <= st.readahead_accuracy <= 1.0


def test_profile_fanout_is_bounded(rng):
    from repro.pipeline.store import _PROFILE_FANOUT

    store, _ = make_store(rng, range(_PROFILE_FANOUT + 6), depth=0)
    for succ in range(1, _PROFILE_FANOUT + 6):  # key 0 "precedes" everything
        store.get(0)
        store.get(succ)
    assert len(store.stats.seq_profile[0]) <= _PROFILE_FANOUT


def test_readahead_counts_surface_in_cache_report(rng):
    store, _ = make_store(rng, range(4), depth=2)
    store.get(0)
    store.get(1)
    report = store.format_cache_report()
    assert "readahead" in report
    assert "issued" in report and "useful" in report


def test_corrupt_neighbor_does_not_fail_a_healthy_get(rng):
    keys = [(0, 0, 0, 0), (0, 0, 0, 1)]
    store, data = make_store(rng, keys, depth=2)
    blob, nbytes, dims = store.get_blob(keys[1])
    store.put_blob(keys[1], blob[: len(blob) // 2], nbytes, dims=dims)
    out = store.get(keys[0])  # speculates on the truncated neighbour
    assert np.max(np.abs(out - data[keys[0]])) <= EB
    assert store.stats.readahead_issued == 0
    assert keys[1] not in store._hot_arrays
    with pytest.raises(FormatError):
        store.get(keys[1])  # the error surfaces where the key is read


def _zipf_store(rng, n_keys, **kwargs):
    """``n_keys`` (dd|dd) blocks behind the ``pastri serve`` store defaults."""
    codec = PaSTRICompressor(dims=(6, 6, 6, 6))
    blocks = [make_patterned_stream(rng, n_blocks=1, zero_blocks=0) for _ in range(n_keys)]
    store = CompressedERIStore(codec, EB, hot_cache_bytes=4 << 20, readahead_depth=2)
    for key, (block, blob) in enumerate(zip(blocks, codec.compress_many(blocks, EB))):
        store.put_blob(key, blob, block.nbytes, dims=(6, 6, 6, 6))
    return store


def test_readahead_backs_off_when_random_keys_waste_it(rng):
    """6000 Zipf(1.1) gets (numpy's unbounded draws folded onto 520 keys,
    popularity shuffled): a miss's neighbours are mostly not read before
    they leave the tier, so once the recent prefetches measure inaccurate,
    readahead stops, but for a probe every 16th miss."""
    n_keys = 520
    store = _zipf_store(rng, n_keys)
    keys = rng.permutation(n_keys)[(rng.zipf(1.1, size=6000) - 1) % n_keys]
    for key in keys[:1000]:  # warm-up: fill the tier, measure the accuracy
        store.get(int(key))
    st = store.stats
    issued, misses = st.readahead_issued, st.cache_misses
    for key in keys[1000:]:
        store.get(int(key))
    issued, misses = st.readahead_issued - issued, st.cache_misses - misses
    assert misses > 300
    assert issued < 0.10 * misses


def test_sequential_sweeps_keep_their_prefetches(rng):
    """Sweeps over more keys than the tier holds: every prefetch is read
    next, so readahead keeps issuing ``depth`` per miss."""
    store, _ = make_store(rng, range(120), depth=2, blocks=40)
    for _ in range(3):
        for key in range(120):
            store.get(key)
    st = store.stats
    assert st.readahead_issued >= 1.5 * st.cache_misses
    assert st.readahead_useful >= 0.95 * st.readahead_issued
