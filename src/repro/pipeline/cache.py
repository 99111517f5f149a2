"""Scan-resistant, byte-budgeted cache for the compressed ERI store.

The spillable store's original caches were plain LRUs sized in *entries*.
Both properties are wrong for SCF traffic:

* ERI blocks differ in size by orders of magnitude between shell classes
  (an s-quartet block is tens of doubles, a d-quartet block thousands), so
  an entry-count budget is a byte budget only by accident.
* SCF/MP2 sweeps re-read far more blocks than fit in memory.  Under LRU a
  cyclic sweep over N blocks with capacity C < N hits *zero* times — every
  block is evicted exactly one sweep before it is needed again — and a
  one-off full scan (``save``, fsck, a cold MP2 transform) flushes the
  resident working set for no benefit.

:class:`SegmentedCache` replaces both.  It is a windowed segmented LRU
with frequency-gated admission (the 2Q/TinyLFU family of scan-resistant
policies):

* A small **window** segment (an LRU over ~1/8 of the budget) absorbs
  bursts and gives brand-new entries a grace period — readahead lands
  here, where it survives exactly long enough for the sequential access
  that justified it.
* The **main** region is a segmented LRU: entries start in *probation*
  and are promoted to *protected* on re-reference; protected overflow
  demotes back to probation rather than straight out of the cache.
* **Admission**: when the window overflows, the candidate is compared
  against the main region's eviction victim by approximate access
  frequency (a small decaying counter table).  The candidate is admitted
  only when it is *strictly* more popular — a one-time scan (frequency 1
  against an established working set) can never displace resident
  entries, and a cyclic sweep wider than the budget stabilises on a
  pinned subset instead of thrashing to a 0% hit rate.

Budgets are in **cost units** from a caller-supplied ``sizeof`` (bytes
for both store tiers; pass ``lambda v: 1`` for a legacy entry-count cap).
The invariant ``total_cost <= budget`` holds after every mutation.
Entries the owner cannot afford to drop silently (dirty blobs that have
never been spilled) are flagged at insert time; they bypass the admission
filter.  :meth:`SegmentedCache.put` — the only operation that makes room —
returns every ``(key, value)`` pair that left for capacity, so the owner
can spill or account for them; the cache holds no reference to its owner.
``policy="lru"`` degrades the whole structure to the exact pre-overhaul
plain LRU — kept as the A/B baseline for benchmarks and the
``store-bench-smoke`` CI gate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.errors import ParameterError

__all__ = ["SegmentedCache", "CacheTierStats"]

#: fraction of the budget given to the admission window
_WINDOW_FRACTION = 0.125
#: fraction of the main region reserved for the protected segment
_PROTECTED_FRACTION = 0.8
#: decay the frequency table once total observations exceed this multiple
#: of the table size (TinyLFU "reset" aging)
_FREQ_SAMPLE_FACTOR = 8
#: hard cap on tracked frequencies; beyond it the coldest entries are shed
_FREQ_MAX_KEYS = 65536


@dataclass
class CacheTierStats:
    """Traffic counters one :class:`SegmentedCache` maintains about itself."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: candidates the frequency filter refused to admit (scan traffic)
    rejections: int = 0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rejections": self.rejections,
        }


class _Freq:
    """Decaying approximate access-frequency table (TinyLFU-style aging)."""

    def __init__(self) -> None:
        self._counts: dict = {}
        self._total = 0

    def record(self, key) -> None:
        self._counts[key] = self._counts.get(key, 0) + 1
        self._total += 1
        if self._total >= _FREQ_SAMPLE_FACTOR * max(len(self._counts), 1024):
            self._age()
        elif len(self._counts) > _FREQ_MAX_KEYS:
            self._age()

    def estimate(self, key) -> int:
        return self._counts.get(key, 0)

    def _age(self) -> None:
        """Halve every count and drop the ones that reach zero.

        Aging keeps the table reactive: a working set that *was* popular
        decays within a few sample periods, so a genuine phase change in
        the access pattern can re-win admission.
        """
        self._counts = {k: c >> 1 for k, c in self._counts.items() if c >> 1 > 0}
        self._total = sum(self._counts.values())


class SegmentedCache:
    """Scan-resistant windowed SLRU with frequency-gated admission.

    Parameters
    ----------
    budget:
        Total capacity in cost units (``sizeof`` units); must be >= 0.
    sizeof:
        Cost of one cached value (``len`` by default — right for blobs;
        pass ``lambda a: a.nbytes`` for arrays, ``lambda v: 1`` to make
        the budget an entry count).
    policy:
        ``"2q"`` (default) for the scan-resistant policy described in the
        module docstring; ``"lru"`` for a plain LRU over the same byte
        budget (the pre-overhaul baseline).
    """

    def __init__(
        self,
        budget: int,
        *,
        sizeof: Callable = len,
        policy: str = "2q",
    ) -> None:
        if budget < 0:
            raise ParameterError("cache budget must be >= 0")
        if policy not in ("2q", "lru"):
            raise ParameterError(f"unknown cache policy {policy!r}")
        self.budget = int(budget)
        self.policy = policy
        self._sizeof = sizeof
        self.stats = CacheTierStats()
        # each segment maps key -> value; sizes held separately so sizeof
        # runs once per insert
        self._window: OrderedDict = OrderedDict()
        self._probation: OrderedDict = OrderedDict()
        self._protected: OrderedDict = OrderedDict()
        self._sizes: dict = {}
        self._sticky: set = set()  # keys that bypass the admission filter
        self._departed: list = []  # capacity departures of the put in progress
        self._bytes = 0
        self._window_bytes = 0
        self._protected_bytes = 0
        self._freq = _Freq()
        self._window_budget = max(1, int(budget * _WINDOW_FRACTION))
        self._protected_budget = max(
            1, int((budget - self._window_budget) * _PROTECTED_FRACTION)
        )

    # -- introspection -------------------------------------------------------

    @property
    def bytes(self) -> int:
        """Total cost units currently held (the budget invariant's subject)."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, key) -> bool:
        return key in self._sizes

    def keys(self) -> list:
        """All resident keys (window, then probation, then protected)."""
        return (
            list(self._window) + list(self._probation) + list(self._protected)
        )

    def peek(self, key):
        """Return the cached value without touching recency or frequency."""
        for seg in (self._window, self._probation, self._protected):
            if key in seg:
                return seg[key]
        return None

    # -- core operations -----------------------------------------------------

    def record_access(self, key) -> None:
        """Feed the frequency filter without a lookup (owner bookkeeping)."""
        if self.policy == "2q":
            self._freq.record(key)

    def get(self, key):
        """Return the cached value, or ``None``; updates recency + frequency."""
        if self.policy == "lru":
            if key in self._window:
                self._window.move_to_end(key)
                self.stats.hits += 1
                return self._window[key]
            self.stats.misses += 1
            return None
        self._freq.record(key)
        if key in self._window:
            self._window.move_to_end(key)
            self.stats.hits += 1
            return self._window[key]
        if key in self._probation:
            value = self._probation.pop(key)
            self._promote(key, value)
            self.stats.hits += 1
            return value
        if key in self._protected:
            self._protected.move_to_end(key)
            self.stats.hits += 1
            return self._protected[key]
        self.stats.misses += 1
        return None

    def put(self, key, value, *, sticky: bool = False) -> list:
        """Insert or overwrite ``key``; enforces the budget before returning.

        Returns the ``(key, value)`` pairs that left for capacity (evicted
        *or* refused admission, ``key`` itself included), in departure order.
        ``sticky`` marks an entry the owner must not lose silently (a dirty
        blob): it bypasses the admission filter, so making room for it can
        only evict, never reject it.  Stickiness is cleared by
        :meth:`unstick` (e.g. once the blob reaches disk).
        """
        self.pop(key)  # overwrite = remove old cost first
        size = self._sizeof(value)
        self._sizes[key] = size
        if sticky:
            self._sticky.add(key)
        if self.policy == "lru":
            self._window[key] = value
            self._bytes += size
            self._shrink_lru()
        else:
            self._freq.record(key)
            self._window[key] = value
            self._bytes += size
            self._window_bytes += size
            self._shrink()
        departed, self._departed = self._departed, []
        return departed

    def pop(self, key):
        """Remove and return ``key`` (not a capacity departure), or ``None``."""
        if key not in self._sizes:
            return None
        size = self._sizes.pop(key)
        self._sticky.discard(key)
        self._bytes -= size
        if key in self._window:
            self._window_bytes -= size
            return self._window.pop(key)
        if key in self._protected:
            self._protected_bytes -= size
            return self._protected.pop(key)
        return self._probation.pop(key)

    def unstick(self, key) -> None:
        """Clear the sticky flag (the owner made the entry safe to drop)."""
        self._sticky.discard(key)

    # -- internals -----------------------------------------------------------

    def _discard(self, key, value, *, rejected: bool = False) -> None:
        if rejected:
            self.stats.rejections += 1
        else:
            self.stats.evictions += 1
        self._departed.append((key, value))

    def _drop(self, seg: OrderedDict, key, *, rejected: bool = False) -> None:
        size = self._sizes.pop(key)
        self._sticky.discard(key)
        self._bytes -= size
        if seg is self._window:
            self._window_bytes -= size
        elif seg is self._protected:
            self._protected_bytes -= size
        self._discard(key, seg.pop(key), rejected=rejected)

    def _shrink_lru(self) -> None:
        while self._bytes > self.budget and self._window:
            key = next(iter(self._window))
            self._drop(self._window, key)

    def _promote(self, key, value) -> None:
        """probation -> protected, demoting protected overflow back."""
        self._protected[key] = value
        self._protected_bytes += self._sizes[key]
        while self._protected_bytes > self._protected_budget and len(self._protected) > 1:
            demoted = next(iter(self._protected))
            self._protected_bytes -= self._sizes[demoted]
            self._probation[demoted] = self._protected.pop(demoted)

    def _main_victim(self):
        """The key the main region would evict next (probation first)."""
        if self._probation:
            return next(iter(self._probation))
        if self._protected:
            return next(iter(self._protected))
        return None

    def _evict_main_victim(self) -> None:
        if self._probation:
            self._drop(self._probation, next(iter(self._probation)))
        elif self._protected:
            self._drop(self._protected, next(iter(self._protected)))

    def _shrink(self) -> None:
        # 1) window overflow: oldest window entries face the admission filter
        while self._window_bytes > self._window_budget and len(self._window) > 1:
            self._admit_or_reject(next(iter(self._window)))
        # 2) total overflow: shrink main, then whatever the window still holds
        while self._bytes > self.budget:
            if self._probation or self._protected:
                self._evict_main_victim()
            elif self._window:
                self._admit_or_reject(next(iter(self._window)))
            else:  # pragma: no cover - empty cache cannot exceed its budget
                break

    def _admit_or_reject(self, key) -> None:
        """Move a window-evicted candidate into main, or discard it.

        A sticky candidate is always admitted (the owner still has to
        persist it; dropping it here would lose data).  Otherwise the
        candidate must be strictly more popular than the main victim —
        ties keep the incumbent, which is what pins a stable subset under
        cyclic sweeps and makes one-time scans harmless.
        """
        size = self._sizes[key]
        value = self._window.pop(key)
        self._window_bytes -= size
        if key not in self._sticky:
            victim = self._main_victim()
            if victim is not None and (
                self._bytes - self._window_bytes + size
                > self.budget - self._window_budget
            ):
                if self._freq.estimate(key) <= self._freq.estimate(victim):
                    self._sizes.pop(key)
                    self._bytes -= size
                    self._discard(key, value, rejected=True)
                    return
        self._probation[key] = value
        while (
            self._bytes - self._window_bytes > self.budget - self._window_budget
            and self._main_victim() is not None
            and self._main_victim() != key
        ):
            self._evict_main_victim()
