"""Shared-memory segment pool: the zero-copy worker transport.

``multiprocessing.Pool`` ships every task argument and result through a
pipe: pickle-serialize (copy), write (syscall per 64 KB), read, rebuild
(copy).  For the multi-megabyte float64 payloads the codec pipeline moves,
that serialization dominates dispatch cost.  This module replaces it with
POSIX shared memory: the parent writes arrays into a pooled
:class:`multiprocessing.shared_memory.SharedMemory` segment once, tasks
carry only tiny *descriptors* (segment name, offset, dtype, shape), and
workers map the same physical pages — no pickle, no pipe traffic, no
second copy.

Lifecycle is explicit and leak-checked:

* :class:`ShmSegmentPool` owns every segment the parent creates.  Leases
  (:meth:`ShmSegmentPool.acquire`) hand out whole segments sized by
  geometric class so consecutive micro-batches reuse warm segments
  (``store.shm.pool_hits``); :meth:`ShmSegmentPool.close` unlinks
  everything and reports anything still leased.
* Workers attach lazily and cache attachments by name
  (:func:`attach_segment`), so a persistent pool touches ``shm_open``
  once per segment, not once per task.
* Worker-created *result* segments (sizes the parent cannot know ahead of
  time) transfer ownership through :func:`ship_array` /
  :func:`adopt_array`: the whole process family shares one
  ``resource_tracker``, so a worker's ``register`` is balanced by the
  parent's ``unlink`` and a crash on either side still gets swept.
* Every segment name carries :data:`SEGMENT_PREFIX`, so tests (and the
  ``scaling-smoke`` CI gate) can assert ``/dev/shm`` holds no orphans.

Telemetry rides the existing registry under ``store.shm.*``:
``segments_live`` (gauge), ``segments_created``, ``pool_hits``,
``bytes_borrowed`` (moved through shared memory) vs. ``bytes_copied``
(fell back to pickle).  When shared memory is unavailable — platforms
without ``/dev/shm``, or creation failures under memory pressure — every
entry point degrades to the pickling path automatically.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.errors import ParameterError

try:  # pragma: no cover - import guard exercised only on exotic platforms
    from multiprocessing import shared_memory as _shm_mod
except ImportError:  # pragma: no cover
    _shm_mod = None

__all__ = [
    "SEGMENT_PREFIX",
    "shm_available",
    "ArrayRef",
    "BytesRef",
    "SegmentLease",
    "ShmSegmentPool",
    "attach_segment",
    "attach_array",
    "attach_bytes",
    "detach_all",
    "ship_array",
    "adopt_array",
    "SharedOutput",
    "active_segments",
    "count_borrowed",
    "count_copied",
]

#: Every segment this library creates is named ``<prefix>-<pid>-<seq>``,
#: so orphan checks can scan ``/dev/shm`` without false positives.
SEGMENT_PREFIX = "pastri-shm"

_SEQ = itertools.count()
_METRIC_PREFIX = "store.shm"

#: Names created by this process and not yet unlinked (leak accounting).
_LIVE_SEGMENTS: dict[str, object] = {}
_LIVE_LOCK = threading.Lock()


def shm_available() -> bool:
    """Whether POSIX shared memory can be used on this host."""
    return _shm_mod is not None


def ensure_family_tracker() -> None:
    """Start the ``multiprocessing`` resource tracker *before* workers fork.

    On Python < 3.13 merely attaching to a segment registers it with the
    process's resource tracker.  If each worker lazily starts its own
    tracker, every worker-side attach leaves a stale per-worker
    registration that warns (and tries to unlink live segments) at worker
    exit.  Starting the tracker in the parent first means fork and spawn
    children inherit the *same* tracker, so a worker's attach-register is
    a set-idempotent no-op against the parent's create-register and the
    parent's unlink balances the books exactly once.
    """
    if _shm_mod is None:
        return
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - tracker unavailable (exotic platform)
        pass


def _count(name: str, n: int = 1) -> None:
    if telemetry.is_enabled():
        telemetry.REGISTRY.counter(f"{_METRIC_PREFIX}.{name}").add(n)


def _gauge_live() -> None:
    if telemetry.is_enabled():
        telemetry.REGISTRY.gauge(f"{_METRIC_PREFIX}.segments_live").set(
            len(_LIVE_SEGMENTS)
        )


def count_borrowed(nbytes: int) -> None:
    """Record ``nbytes`` crossing a process boundary via shared memory."""
    _count("bytes_borrowed", nbytes)


def count_copied(nbytes: int) -> None:
    """Record ``nbytes`` crossing a process boundary via pickle fallback."""
    _count("bytes_copied", nbytes)


def _new_segment(size: int):
    """Create a tracked segment with a recognizable unique name."""
    name = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_SEQ)}"
    seg = _shm_mod.SharedMemory(name=name, create=True, size=size)
    with _LIVE_LOCK:
        _LIVE_SEGMENTS[seg.name] = seg
    _count("segments_created")
    _gauge_live()
    return seg


def _destroy_segment(seg) -> None:
    with _LIVE_LOCK:
        _LIVE_SEGMENTS.pop(seg.name, None)
    try:
        seg.close()
    finally:
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already swept
            pass
    _gauge_live()


def active_segments() -> list[str]:
    """Names of segments this process created and has not yet unlinked."""
    with _LIVE_LOCK:
        return sorted(_LIVE_SEGMENTS)


# ---------------------------------------------------------------------------
# descriptors: what actually crosses the pickle boundary


@dataclass(frozen=True)
class ArrayRef:
    """A numpy array living inside a named segment."""

    segment: str
    offset: int
    shape: tuple
    dtype: str

    @property
    def nbytes(self) -> int:
        n = 1
        for d in self.shape:
            n *= int(d)
        return n * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class BytesRef:
    """A raw byte range living inside a named segment."""

    segment: str
    offset: int
    length: int


# ---------------------------------------------------------------------------
# parent side: the segment pool


def _size_class(nbytes: int) -> int:
    """Geometric (power-of-two) size classes, floored at 64 KB.

    Rounding requests up means a lease for 1.1 MB and a later lease for
    1.9 MB land on the same 2 MB segment — the reuse that makes the pool a
    pool.  The floor keeps tiny micro-batches from minting one-off
    segments that can never be reused for real traffic.
    """
    size = 1 << 16
    while size < nbytes:
        size <<= 1
    return size


class SegmentLease:
    """Exclusive use of one pooled segment until :meth:`release`.

    The lease is a bump allocator: :meth:`put_array` / :meth:`put_bytes`
    copy data in at the current watermark and return the descriptor a
    worker needs to map it back out.  (That copy-in is the *one* copy the
    transport pays — it replaces pickle's serialize-copy *and* the pipe
    round-trip.)
    """

    def __init__(self, pool: "ShmSegmentPool", seg) -> None:
        self._pool = pool
        self._seg = seg
        self._used = 0
        self._released = False

    @property
    def name(self) -> str:
        return self._seg.name

    @property
    def capacity(self) -> int:
        return self._seg.size

    def _claim(self, nbytes: int) -> int:
        if self._released:
            raise ParameterError("lease already released")
        offset = self._used
        if offset + nbytes > self._seg.size:
            raise ParameterError(
                f"segment {self._seg.name} overflow: "
                f"{offset + nbytes} > {self._seg.size}"
            )
        self._used = offset + nbytes
        return offset

    def put_array(self, arr: np.ndarray) -> ArrayRef:
        """Copy ``arr`` into the segment; returns its descriptor."""
        arr = np.ascontiguousarray(arr)
        offset = self._claim(arr.nbytes)
        dst = np.ndarray(arr.shape, dtype=arr.dtype,
                         buffer=self._seg.buf, offset=offset)
        np.copyto(dst, arr)
        count_borrowed(arr.nbytes)
        return ArrayRef(self._seg.name, offset, tuple(arr.shape), arr.dtype.str)

    def put_bytes(self, data) -> BytesRef:
        """Copy a bytes-like object into the segment; returns its descriptor."""
        view = memoryview(data).cast("B")
        offset = self._claim(len(view))
        self._seg.buf[offset:offset + len(view)] = view
        count_borrowed(len(view))
        return BytesRef(self._seg.name, offset, len(view))

    def release(self) -> None:
        """Return the segment to the pool for reuse."""
        if not self._released:
            self._released = True
            self._used = 0
            self._pool._give_back(self._seg)


class ShmSegmentPool:
    """A small pool of reusable shared-memory segments.

    ``max_free`` bounds how many idle segments are kept warm; extras are
    unlinked on release, and :meth:`close` unlinks everything.  The pool
    is thread-safe — the service's dispatcher thread and executor threads
    can lease concurrently.
    """

    def __init__(self, max_free: int = 4) -> None:
        if not shm_available():
            raise ParameterError("shared memory is not available on this platform")
        self._max_free = max_free
        self._free: list = []  # idle segments, any sizes
        self._leased: dict[str, object] = {}
        self._lock = threading.Lock()
        self._closed = False

    def acquire(self, nbytes: int) -> SegmentLease:
        """Lease a segment of at least ``nbytes`` (reusing a warm one if
        possible).  May raise ``OSError`` under shm exhaustion — callers
        fall back to pickling."""
        want = _size_class(max(int(nbytes), 1))
        with self._lock:
            if self._closed:
                raise ParameterError("segment pool is closed")
            best = None
            for i, seg in enumerate(self._free):
                if seg.size >= want and (best is None or seg.size < self._free[best].size):
                    best = i
            if best is not None:
                seg = self._free.pop(best)
                _count("pool_hits")
                self._leased[seg.name] = seg
                return SegmentLease(self, seg)
        seg = _new_segment(want)
        with self._lock:
            if self._closed:  # closed while we were creating: don't leak
                _destroy_segment(seg)
                raise ParameterError("segment pool is closed")
            self._leased[seg.name] = seg
        return SegmentLease(self, seg)

    def _give_back(self, seg) -> None:
        with self._lock:
            self._leased.pop(seg.name, None)
            if not self._closed and len(self._free) < self._max_free:
                self._free.append(seg)
                return
        _destroy_segment(seg)

    @property
    def leaked(self) -> list[str]:
        """Names of segments currently leased out (unreleased)."""
        with self._lock:
            return sorted(self._leased)

    def close(self) -> list[str]:
        """Unlink every pooled segment; returns names that were still
        leased (a lifecycle bug upstream — they are unlinked anyway so
        nothing orphans)."""
        with self._lock:
            if self._closed:
                return []
            self._closed = True
            stray = sorted(self._leased)
            doomed = list(self._free) + list(self._leased.values())
            self._free.clear()
            self._leased.clear()
        for seg in doomed:
            _destroy_segment(seg)
        if stray:
            _count("leaked_leases", len(stray))
        return stray

    def __enter__(self) -> "ShmSegmentPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# worker side: cached attachments

_ATTACH_CACHE: dict[str, object] = {}
_ATTACH_MAX = 16


def attach_segment(name: str):
    """Attach to a named segment, caching the mapping per process.

    A persistent worker sees the same pooled segment names batch after
    batch; caching turns every task after the first into a pure pointer
    lookup.  The cache is bounded — oldest attachments are closed when it
    overflows (their exported views, if any, keep the pages alive).
    """
    seg = _ATTACH_CACHE.pop(name, None)
    if seg is None:
        seg = _shm_mod.SharedMemory(name=name)
        while len(_ATTACH_CACHE) >= _ATTACH_MAX:
            oldest = next(iter(_ATTACH_CACHE))
            try:
                _ATTACH_CACHE.pop(oldest).close()
            except BufferError:  # pragma: no cover - view still exported
                pass
    _ATTACH_CACHE[name] = seg  # re-insert = move to MRU end
    return seg


def attach_array(ref: ArrayRef) -> np.ndarray:
    """Map an :class:`ArrayRef` to a live array over the shared pages."""
    seg = attach_segment(ref.segment)
    return np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                      buffer=seg.buf, offset=ref.offset)


def attach_bytes(ref: BytesRef) -> memoryview:
    """Map a :class:`BytesRef` to a zero-copy memoryview."""
    seg = attach_segment(ref.segment)
    return memoryview(seg.buf)[ref.offset:ref.offset + ref.length]


def detach_all() -> None:
    """Close every cached attachment (worker shutdown / tests)."""
    while _ATTACH_CACHE:
        _, seg = _ATTACH_CACHE.popitem()
        try:
            seg.close()
        except BufferError:  # pragma: no cover
            pass


# ---------------------------------------------------------------------------
# ownership transfer: worker-created result segments

#: Results smaller than this return by pickle — a 4 KB array is cheaper to
#: pickle than to mint a segment for.
SHIP_MIN_BYTES = 64 << 10


def ship_array(arr: np.ndarray) -> ArrayRef:
    """(Worker) place ``arr`` in a fresh segment whose ownership passes to
    whoever :func:`adopt_array`\\ s the returned descriptor.

    The register stays with the family-wide resource tracker, so if the
    parent dies before adopting, the tracker still unlinks the segment at
    family exit — transfer can delay cleanup but never defeat it.
    """
    arr = np.ascontiguousarray(arr)
    seg = _new_segment(max(arr.nbytes, 1))
    dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
    np.copyto(dst, arr)
    ref = ArrayRef(seg.name, 0, tuple(arr.shape), arr.dtype.str)
    count_borrowed(arr.nbytes)
    # The worker keeps no handle: drop it from local leak accounting (the
    # adopter unlinks) and close our mapping.
    with _LIVE_LOCK:
        _LIVE_SEGMENTS.pop(seg.name, None)
    _gauge_live()
    del dst
    seg.close()
    return ref


def adopt_array(ref: ArrayRef) -> np.ndarray:
    """(Parent) take ownership of a shipped array without copying it.

    The segment is unlinked *immediately* — on POSIX the pages stay valid
    while mapped, so nothing can orphan in ``/dev/shm`` even if the caller
    leaks the array — and the mapping is closed by a finalizer once the
    returned array is garbage collected.
    """
    seg = _shm_mod.SharedMemory(name=ref.segment)
    arr = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                     buffer=seg.buf, offset=ref.offset)
    seg.unlink()
    weakref.finalize(arr, seg.close)
    return arr


def _close_quietly(seg) -> None:
    try:
        seg.close()
    except BufferError:  # pragma: no cover - a view outlived the finalizer
        pass


class SharedOutput:
    """A parent-sized scatter buffer workers write results into.

    The parent knows the total output size (e.g. from a container's frame
    index), creates one segment, and hands each worker an :class:`ArrayRef`
    slice (:meth:`ref`).  :meth:`finish` unlinks the segment *immediately*
    — the pages stay valid while mapped, so nothing can orphan — and
    returns the assembled array zero-copy; the mapping is closed by a
    finalizer when that array is garbage collected.
    """

    def __init__(self, n_elements: int, dtype="<f8") -> None:
        self._dtype = np.dtype(dtype)
        self._n = int(n_elements)
        self._seg = _new_segment(max(self._n * self._dtype.itemsize, 1))
        self._done = False

    def ref(self, offset_elements: int, n_elements: int) -> ArrayRef:
        """Descriptor for the slice ``[offset, offset + n)`` (element units)."""
        return ArrayRef(
            self._seg.name,
            int(offset_elements) * self._dtype.itemsize,
            (int(n_elements),),
            self._dtype.str,
        )

    def finish(self) -> np.ndarray:
        """Unlink and hand back the whole buffer as one array, zero-copy."""
        self._done = True
        arr = np.ndarray((self._n,), dtype=self._dtype, buffer=self._seg.buf)
        seg = self._seg
        with _LIVE_LOCK:
            _LIVE_SEGMENTS.pop(seg.name, None)
        _gauge_live()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
        weakref.finalize(arr, _close_quietly, seg)
        count_borrowed(arr.nbytes)
        return arr

    def abort(self) -> None:
        """Destroy the buffer without assembling (error-path cleanup)."""
        if not self._done:
            self._done = True
            _destroy_segment(self._seg)


# ---------------------------------------------------------------------------
# process-exit backstop: never leave named segments behind

def _sweep() -> None:  # pragma: no cover - exercised via subprocess tests
    with _LIVE_LOCK:
        doomed = list(_LIVE_SEGMENTS.values())
        _LIVE_SEGMENTS.clear()
    for seg in doomed:
        try:
            seg.close()
        except BufferError:
            pass
        try:
            seg.unlink()
        except FileNotFoundError:
            pass


atexit.register(_sweep)
