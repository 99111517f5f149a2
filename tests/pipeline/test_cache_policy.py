"""SegmentedCache unit tests: budgets, scan resistance, admission, modes."""

import pytest

from repro.errors import ParameterError
from repro.pipeline import SegmentedCache


def val(n):
    return b"x" * n


# ---------------------------------------------------------------------------
# construction and basic mechanics


def test_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        SegmentedCache(-1)
    with pytest.raises(ParameterError):
        SegmentedCache(100, policy="mru")


def test_put_get_pop_roundtrip():
    c = SegmentedCache(1000)
    c.put("a", val(10))
    assert "a" in c
    assert c.get("a") == val(10)
    assert c.bytes == 10
    assert c.pop("a") == val(10)
    assert "a" not in c
    assert c.bytes == 0
    assert c.pop("missing") is None
    assert c.get("missing") is None
    assert c.stats.hits == 1 and c.stats.misses == 1


def test_overwrite_replaces_cost():
    c = SegmentedCache(1000)
    c.put("a", val(100))
    c.put("a", val(40))
    assert c.bytes == 40
    assert len(c) == 1
    assert c.get("a") == val(40)


def test_sizeof_hook_controls_cost():
    c = SegmentedCache(3, sizeof=lambda v: 1)  # entry-count budget
    for k in "abcd":
        c.put(k, val(100))
    assert len(c) <= 3


def test_peek_does_not_touch_recency():
    c = SegmentedCache(1000, policy="lru")
    c.put("a", val(10))
    c.put("b", val(10))
    assert c.peek("a") == val(10)
    assert c.peek("zz") is None
    # "a" stays oldest despite the peek: an overflow evicts it first
    c.put("big", val(985))
    assert "a" not in c


# ---------------------------------------------------------------------------
# the budget invariant


@pytest.mark.parametrize("policy", ["2q", "lru"])
def test_budget_never_exceeded(policy):
    c = SegmentedCache(256, policy=policy)
    for i in range(200):
        c.put(i, val(1 + (i * 37) % 90))
        assert c.bytes <= 256
        if i % 3 == 0:
            c.get((i * 7) % 50)
            assert c.bytes <= 256
    assert c.bytes == sum(len(c.peek(k)) for k in c.keys())


def test_zero_budget_holds_nothing_after_shrink():
    c = SegmentedCache(0)
    c.put("a", val(10))
    # the shrink loops keep >=1 entry per segment to avoid livelock on
    # oversized values, but the budget is still respected for multi-entry
    # populations: a second insert displaces the first
    c.put("b", val(10))
    assert len(c) <= 1


# ---------------------------------------------------------------------------
# scan resistance (the reason this class exists)


def test_one_time_scan_cannot_flush_the_working_set():
    c = SegmentedCache(1000)
    hot = [f"hot{i}" for i in range(5)]
    for k in hot:
        c.put(k, val(100))
    for _ in range(10):  # establish frequency
        for k in hot:
            assert c.get(k) is not None
    # a full scan of 200 cold one-shot keys
    for i in range(200):
        c.put(f"scan{i}", val(100))
    survivors = sum(1 for k in hot if k in c)
    assert survivors == len(hot), "scan displaced the frequently-hit set"
    assert c.stats.rejections > 0  # the filter actually did the work


def test_lru_baseline_is_scan_vulnerable():
    """The A/B contrast: plain LRU loses the working set to the same scan."""
    c = SegmentedCache(1000, policy="lru")
    hot = [f"hot{i}" for i in range(5)]
    for k in hot:
        c.put(k, val(100))
    for _ in range(10):
        for k in hot:
            c.get(k)
    for i in range(200):
        c.put(f"scan{i}", val(100))
    assert all(k not in c for k in hot)


def test_cyclic_sweep_pins_a_stable_subset():
    """N-wide cyclic reuse with capacity < N: 2Q keeps a pinned subset hot."""

    def sweep(policy):
        c = SegmentedCache(800, policy=policy)
        for _ in range(8):
            for i in range(20):  # 20 x 100 B over an 800 B budget
                k = f"b{i}"
                if c.get(k) is None:
                    c.put(k, val(100))
        return c.stats.hits

    assert sweep("lru") == 0  # the classic pathology
    assert sweep("2q") > 25


def test_record_access_feeds_admission_without_lookup():
    c = SegmentedCache(400)
    c.put("resident", val(100))
    for _ in range(8):
        c.record_access("resident")
    for i in range(50):
        c.put(f"noise{i}", val(100))
    assert "resident" in c


# ---------------------------------------------------------------------------
# sticky entries and the departures put returns


def test_sticky_bypasses_admission_and_unstick_reverts():
    dropped = []
    c = SegmentedCache(400)

    def put(key, value, **kw):
        dropped.extend(k for k, _ in c.put(key, value, **kw))

    for i in range(20):  # established, popular main region
        put(f"m{i}", val(100))
        for _ in range(5):
            c.get(f"m{i}")
    put("dirty", val(100), sticky=True)
    for i in range(20):  # pressure that would reject a normal newcomer
        put(f"n{i}", val(100))
    assert "dirty" in c, "sticky entry was lost to the admission filter"
    c.unstick("dirty")
    # once unstuck it competes normally: hotter newcomers push it out
    for i in range(40):
        put(f"p{i}", val(100))
        for _ in range(10):
            c.get(f"p{i}")
    assert "dirty" not in c
    assert "dirty" in dropped


def test_on_discard_fires_for_capacity_departures_only():
    dropped = []
    c = SegmentedCache(300)
    dropped.extend(c.put("a", val(100)))
    c.pop("a")  # explicit removal: not a departure
    assert dropped == []
    for i in range(10):
        dropped.extend(c.put(i, val(100)))
    assert len(dropped) >= 7  # the rest left for capacity reasons
    # every departed value is handed over intact
    assert all(v == val(100) for _, v in dropped)
    total = c.stats.evictions + c.stats.rejections
    assert total == len(dropped)
