"""Compressed ERI store: compute once, decompress per use — now spillable.

The paper's closing observation (§III-A, Fig. 11): with PaSTRI's ratios,
compressed ERIs for moderate systems *fit in memory*, so every SCF
iteration after the first replaces an O(N⁴) recomputation with a ~GB/s
decompression.  :class:`CompressedERIStore` is that infrastructure piece: a
keyed store of compressed shell blocks with exact-bound reconstruction.

Storage is pluggable.  :class:`MemoryBackend` (default) keeps every blob in
a dict — the original behavior.  :class:`ContainerBackend` keeps a bounded
hot set in memory and spills colder blobs to a PSTF-v2 container on disk
(:mod:`repro.streamio`), so stores larger than RAM keep working; its spill
file finalizes into a valid container on close.

The write path pays the codec's per-call cost once per batch: ``put``
checks its block and stages a copy, and the stage is compressed with one
``compress_many`` call per geometry once it outgrows ~1 MiB (or the blob
tier's budget), or as soon as anything reads blobs or counters.  The blobs
then enter the tiers in put order, as if each ``put`` had compressed its
own block.

The read path is built for SCF/MP2 traffic, which re-reads far more blocks
than fit in memory and interleaves the reuse with one-off full scans:

* Both the blob tier and the decompressed array tier are
  :class:`repro.pipeline.cache.SegmentedCache` instances — scan-resistant
  windowed SLRUs with frequency-gated admission, budgeted in **bytes**
  with independent budgets (``memory_budget_bytes`` for blobs,
  ``hot_cache_bytes`` for arrays).
* Spilled blobs keep their on-disk frame record when promoted back into
  memory, so evicting a clean blob is free — the pre-overhaul store
  deleted the record on promote and re-spilled (with a flush and a
  journal write) on every eviction, which is what held amortized store
  throughput to ~29 MB/s.  Dirty blobs spill in batches: one data flush
  and one journal write per batch, not per frame.
* Spilled-frame reads are served zero-copy from an mmap of the container
  (:class:`repro.streamio.FrameMap`) — CRC-checked views of the page
  cache instead of seek+read copies.
* On an array-tier miss the store can read ahead: likely-next keys (from
  a per-key access-sequence profile, falling back to class-adjacent
  neighbors) are decoded speculatively into the admission window, in the
  same decode call as the miss.  Readahead stops while its recent
  prefetches go mostly unused, probing now and then.
* Overwritten keys orphan their old frames; :meth:`ContainerBackend.compact`
  rewrites the container with only live frames using the same atomic
  create-then-rename commit as :meth:`CompressedERIStore.save`, and
  :meth:`maybe_compact` makes that an idle-time call.

All traffic is accounted in :class:`StoreStats` (per-tier hits/misses/
evictions, readahead accuracy, and compaction work included), and any
store can be persisted with :meth:`CompressedERIStore.save` and revived —
codec and error bound included — with :meth:`CompressedERIStore.load`.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from repro import api
from repro.api import Codec
from repro.errors import FormatError, ParameterError, ReproError
from repro.pipeline.cache import SegmentedCache
from repro.streamio import (
    ContainerWriter,
    FrameMap,
    check_frame_entry,
    journal_line,
    open_container,
    read_checked_frame,
    salvage_frames,
)
from repro.telemetry import REGISTRY as _METRICS
from repro.telemetry import state as _tstate

__all__ = [
    "StoreStats",
    "MemoryBackend",
    "ContainerBackend",
    "CompressedERIStore",
]

#: telemetry names for counters whose dotted path differs from the field name
_METRIC_NAMES = {
    "readahead_issued": "store.readahead.issued",
    "readahead_useful": "store.readahead.useful",
    "readahead_wasted": "store.readahead.wasted",
    "compactions": "store.compaction.runs",
    "compaction_reclaimed_bytes": "store.compaction.reclaimed_bytes",
    "blob_hits": "store.tier.blob.hits",
    "blob_misses": "store.tier.blob.misses",
    "blob_evictions": "store.tier.blob.evictions",
    "array_evictions": "store.tier.array.evictions",
}

#: header ``meta.role`` of a spill file; a container without it is not ours
_SPILL_ROLE = "eri-store-spill"
#: per-key cap on tracked successors in the access-sequence profile
_PROFILE_FANOUT = 8
#: hard cap on profiled keys; beyond it the profile restarts from empty
_PROFILE_MAX_KEYS = 65536
#: readahead judges itself on this many most recent resolved prefetches
#: (used, or evicted unused) ...
_READAHEAD_WINDOW = 32
#: ... and stops speculating while fewer than this share of them were used:
#: a used prefetch saves a decode, while a wasted one costs a decode and
#: takes a tier slot a hit may have needed
_READAHEAD_FLOOR = 0.5
#: below the floor, every this-many-th miss still prefetches one candidate,
#: so the window sees when the access pattern turns predictable again
_READAHEAD_PROBE_EVERY = 16
#: the write stage is compressed once its raw bytes exceed this, or the
#: blob tier's budget when that is smaller: 2^17 float64 values, the
#: ``PLANAR_CHUNK`` the PaSTRI kernels batch by
_STAGE_BYTES = 1 << 20


@dataclass
class StoreStats:
    """Aggregate accounting for a :class:`CompressedERIStore`.

    The public fields are per-store, as they always were.  Mutations made
    through :meth:`bump` are *also* mirrored into the global telemetry
    registry (``store.<field>``, or the dotted name in ``_METRIC_NAMES``
    for the tiered counters, e.g. ``store.readahead.issued``) when
    telemetry is enabled, so a process-wide snapshot aggregates traffic
    across every live store while this object keeps serving per-store
    numbers.  Direct assignment (e.g. the ``load`` path's
    ``stats.puts = 0`` or the ``hot_bytes`` gauge) only touches the
    per-store value — the global registry is an append-only ledger.
    """

    n_entries: int = 0
    original_bytes: int = 0
    compressed_bytes: int = 0
    puts: int = 0
    gets: int = 0
    #: hot decompressed-block cache traffic (only moves when the cache is on)
    cache_hits: int = 0
    cache_misses: int = 0
    #: blobs written to the spill container (ContainerBackend only)
    spills: int = 0
    #: blob reads served from the spill container rather than memory
    disk_reads: int = 0
    #: entries salvaged from a pre-existing spill container on open
    recovered: int = 0
    #: decompressed bytes currently held by the hot array tier (a gauge,
    #: assigned directly — not a counter)
    hot_bytes: int = 0
    #: in-memory blob tier traffic (ContainerBackend only)
    blob_hits: int = 0
    blob_misses: int = 0
    blob_evictions: int = 0
    #: decompressed-tier capacity departures
    array_evictions: int = 0
    #: speculative decodes issued / later hit / evicted unused
    readahead_issued: int = 0
    readahead_useful: int = 0
    readahead_wasted: int = 0
    #: spill-container compaction runs and bytes given back to the filesystem
    compactions: int = 0
    compaction_reclaimed_bytes: int = 0
    #: per-key access-sequence profile driving readahead: key -> {next: count}
    seq_profile: dict = field(default_factory=dict, repr=False, compare=False)

    def bump(self, field_name: str, delta: int = 1) -> None:
        """Add ``delta`` to a counter field, mirroring it into telemetry."""
        setattr(self, field_name, getattr(self, field_name) + delta)
        if _tstate.enabled:
            metric = _METRIC_NAMES.get(field_name, "store." + field_name)
            _METRICS.counter(metric).add(delta)

    @property
    def ratio(self) -> float:
        """Compression ratio, or 0.0 for a store that holds no bytes yet."""
        if self.compressed_bytes == 0:
            return 0.0
        return self.original_bytes / self.compressed_bytes

    @property
    def hit_rate(self) -> float:
        """Hot-cache hit fraction, or 0.0 before any cached traffic."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    @property
    def readahead_accuracy(self) -> float:
        """Fraction of issued prefetches that were later hit (0.0 if none)."""
        if self.readahead_issued == 0:
            return 0.0
        return self.readahead_useful / self.readahead_issued


@dataclass(frozen=True)
class _Entry:
    """One stored blob plus the metadata save/load must preserve."""

    blob: bytes
    nbytes: int
    dims: tuple[int, ...] | None


class MemoryBackend:
    """Blob backend holding everything in a dict (the original store)."""

    def __init__(self) -> None:
        self._entries: dict = {}
        self.stats: StoreStats | None = None  # bound by the store

    def put(self, key, entry: _Entry) -> tuple[int, int] | None:
        """Insert/overwrite; returns the replaced entry's
        ``(compressed_len, nbytes)`` for accounting, or ``None``."""
        prev = self._entries.get(key)
        self._entries[key] = entry
        if prev is None:
            return None
        return (len(prev.blob), prev.nbytes)

    def get(self, key) -> _Entry:
        return self._entries[key]

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        return self._entries.keys()

    def close(self) -> None:
        """Nothing to release."""


class ContainerBackend:
    """Blob backend with a bounded hot set that spills to a PSTF container.

    Blobs live in an in-memory scan-resistant cache (a
    :class:`SegmentedCache`) up to ``memory_budget_bytes``; entries the
    cache lets go are appended to the spill container at ``path``
    (``stats.spills``) in batches — one data flush and one journal write
    per batch.  Reads of spilled keys are CRC-verified zero-copy views of
    an mmap over the container (``stats.disk_reads``) and re-promote the
    blob to the hot set **without forgetting the on-disk frame**: a clean
    blob's later eviction is a free drop, not a re-spill.

    Overwriting a key orphans its old frame (append-only spill); the dead
    bytes are tracked and :meth:`compact` / :meth:`maybe_compact` rewrite
    the container with only live frames via the same atomic
    create-then-rename commit used by store snapshots.  :meth:`close`
    flushes every dirty blob and finalizes the footer index, so the spill
    file is itself a valid container readable by
    :func:`repro.streamio.open_container`.

    **Crash safety.**  Every spilled frame is also logged to an append-only
    sidecar journal (``path + ".journal"``, one
    :func:`repro.streamio.journal_line` per frame: key, offset, length,
    CRC, dims) that is flushed with its batch, after the frames, and
    deleted on a clean close.  With ``recover=True`` (default) a backend
    pointed at an existing spill file *recovers* it instead of truncating
    it: a valid (footered) container is reloaded from its index; a
    footerless one — the writer was killed mid-run — goes through
    :func:`repro.streamio.salvage_frames`, the same scan ``pastri fsck``
    runs, and keeps the frames it could key.  So a killed store's spill
    file may be fsck'd first: fsck keys the frames from the journal too.
    The backend itself never parses container bytes or journal lines.
    Recovered entries land in the on-disk set, append continues after the
    last intact frame, and ``stats.recovered`` counts them, so a restarted
    ``pastri serve`` comes back with its data.
    Compaction is kill-safe at every step: the replacement container is
    footered *before* it atomically replaces the old one, and the journal
    is rewritten *before* the footer is truncated for resumed appends, so
    any crash point leaves either a self-describing container or a
    salvageable journal+frames pair.

    ``policy="lru"`` and ``retain_spills=False`` together reproduce the
    pre-overhaul store (plain LRU, forget-on-promote, per-eviction
    flushes) — kept as the A/B baseline for ``make store-bench-smoke``.
    """

    def __init__(
        self,
        path: str,
        memory_budget_bytes: int = 64 << 20,
        *,
        recover: bool = True,
        fsync: bool = False,
        policy: str = "2q",
        use_mmap: bool = True,
        retain_spills: bool = True,
    ) -> None:
        if memory_budget_bytes < 0:
            raise ParameterError("memory_budget_bytes must be >= 0")
        self.path = str(path)
        self.journal_path = self.path + ".journal"
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.stats: StoreStats | None = None  # bound by the store
        self._recover = bool(recover)
        self._fsync = bool(fsync)
        self._use_mmap = bool(use_mmap)
        self._retain_spills = bool(retain_spills)
        self._hot = SegmentedCache(
            self.memory_budget_bytes, sizeof=lambda e: len(e.blob), policy=policy
        )
        #: key -> FrameInfo: every key with a clean copy on disk (possibly
        #: *also* resident in the hot cache)
        self._ondisk: dict = {}
        #: dirty entries the cache discarded, awaiting one batched spill
        self._pending: list = []
        self._dead_bytes = 0  # orphaned frame payload awaiting compaction
        self._writer: ContainerWriter | None = None
        self._write_fh = None
        self._read_fh = None
        self._map: FrameMap | None = None
        self._journal_fh = None
        self._codec: Codec | None = None
        self._error_bound: float | None = None
        self._closed = False
        #: test hook: called with a stage name at each compaction kill point
        self._compact_hook = None

    def bind(self, codec: Codec, error_bound: float, stats: StoreStats) -> None:
        """Called once by the owning store; spill headers need the codec spec.

        Recovery of a pre-existing spill file happens here (not in
        ``__init__``) because registering salvaged entries needs the bound
        stats object.
        """
        self._codec = codec
        self._error_bound = error_bound
        self.stats = stats
        if self._recover:
            self._recover_existing()

    # -- spill machinery -----------------------------------------------------

    def _ensure_writer(self) -> ContainerWriter:
        if self._writer is None:
            if self._codec is None:
                raise ParameterError("ContainerBackend used outside a store")
            if self._ondisk:
                # live frames but no writer (e.g. an aborted compaction):
                # reattach to the existing file instead of truncating it
                self._resume_writer()
                return self._writer
            # fresh container: a journal left by an earlier life of this
            # path describes bytes that are about to be truncated away
            with contextlib.suppress(OSError):
                os.remove(self.journal_path)
            self._write_fh = open(self.path, "wb")
            self._writer = ContainerWriter(
                self._write_fh,
                self._codec,
                self._error_bound,
                meta={"error_bound": self._error_bound, "role": _SPILL_ROLE},
                fsync=self._fsync,
            )
        return self._writer

    def _resume_writer(self, end: int | None = None) -> None:
        """Reattach a writer to the spill file after the frames in ``_ondisk``.

        ``end`` is the byte past the last intact frame (the end of the
        live frames when omitted); everything after it — a footer or a
        torn tail — is truncated so appends continue cleanly.
        """
        if end is None:
            end = max(f.offset + f.length for f in self._ondisk.values())
        fh = open(self.path, "r+b")
        fh.truncate(end)
        fh.seek(end)
        self._write_fh = fh
        self._writer = ContainerWriter.resume(
            fh,
            self._codec,
            self._error_bound,
            frames=self._ondisk.values(),
            pos=end,
            fsync=self._fsync,
        )

    def _admit(self, key, entry: _Entry, *, sticky: bool = False) -> None:
        """Put into the blob tier, then spill what left it in one batch.

        A departing clean blob is a free drop; a dirty one is queued.
        """
        for gone, gone_entry in self._hot.put(key, entry, sticky=sticky):
            if self.stats is not None:
                self.stats.bump("blob_evictions")
            if gone not in self._ondisk:
                self._pending.append((gone, gone_entry))
        self._flush_pending()

    def _flush_pending(self) -> None:
        """Write every queued dirty blob: frames, one flush, one journal write.

        The data flush lands before the journal records (a journaled frame
        must be readable), and the in-memory records are updated only after
        both — a crash mid-batch loses at most the in-flight dirty blobs,
        exactly as a crash just before the batch would have.
        """
        if not self._pending:
            return
        w = self._ensure_writer()
        spilled = [
            (key, w.append_blob(
                entry.blob, entry.nbytes // 8, key=json.dumps(key), dims=entry.dims
            ))
            for key, entry in self._pending
        ]
        self._pending.clear()
        self._write_fh.flush()
        self._journal_write_batch(spilled)
        for key, info in spilled:
            self._ondisk[key] = info
            if self.stats is not None:
                self.stats.bump("spills")

    def _journal_write_batch(self, records) -> None:
        """Append a batch of ``(key, FrameInfo)`` spill records with a
        single write + flush."""
        if self._journal_fh is None:
            self._journal_fh = open(self.journal_path, "a", encoding="utf-8")
        self._journal_fh.write("".join(journal_line(k, f) for k, f in records))
        self._journal_fh.flush()

    def _read_spilled(self, key) -> _Entry:
        """CRC-checked payload of a spilled frame: a zero-copy mmap view, or
        a seek+read with ``use_mmap=False``."""
        f = self._ondisk[key]
        what = f"spill frame for key {key!r}"
        if self._use_mmap:
            if self._map is None:
                self._map = FrameMap(self.path)
            blob = self._map.check(f.offset, f.length, f.crc32, what)
        else:
            if self._read_fh is None:
                if self._write_fh is not None:
                    self._write_fh.flush()
                self._read_fh = open(self.path, "rb")
            blob = read_checked_frame(self._read_fh, f, what)
        if self.stats is not None:
            self.stats.bump("disk_reads")
        return _Entry(blob, f.n_elements * 8, f.dims)

    # -- compaction -----------------------------------------------------------

    def _kill_point(self, stage: str) -> None:
        if self._compact_hook is not None:
            self._compact_hook(stage)

    def compact(self) -> int:
        """Rewrite the spill container with only live frames; returns bytes
        given back to the filesystem.

        Kill-safe sequence (each step leaves a recoverable state):

        1. The replacement container is written to ``path + ".tmp"`` and
           **footered** before ``os.replace`` makes it visible — a crash
           before the rename leaves the old container + journal untouched;
           after it, the new container recovers from its own index and the
           (stale) journal is ignored.
        2. The journal is rewritten for the new layout *before* the footer
           is truncated for resumed appends — a footerless crash after
           that salvages via the fresh journal.
        """
        self._flush_pending()
        if not self._ondisk:
            return 0
        self._kill_point("begin")
        try:
            old_size = os.path.getsize(self.path)
        except OSError:
            return 0
        live: dict = {}
        with open(self.path, "rb") as src:
            with ContainerWriter.create(
                self.path,
                self._codec,
                self._error_bound,
                meta={
                    "error_bound": self._error_bound,
                    "role": _SPILL_ROLE,
                },
            ) as w:
                for i, (key, f) in enumerate(self._ondisk.items()):
                    blob = read_checked_frame(src, f, f"spill frame for key {key!r}")
                    live[key] = w.append_blob(blob, f.n_elements, key=f.key, dims=f.dims)
                    if i == 0:
                        self._kill_point("mid_copy")
        # the old inode is gone; drop every handle that pointed at it
        self._kill_point("after_replace")
        if self._write_fh is not None:
            self._write_fh.close()
            self._write_fh = None
        self._writer = None
        if self._read_fh is not None:
            self._read_fh.close()
            self._read_fh = None
        if self._map is not None:
            self._map.invalidate()
        self._ondisk = live
        self._dead_bytes = 0
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None
        self._rewrite_journal(live)
        self._kill_point("after_journal")
        self._resume_writer()
        self._kill_point("after_resume")
        try:
            reclaimed = max(0, old_size - os.path.getsize(self.path))
        except OSError:  # pragma: no cover - file must exist post-rename
            reclaimed = 0
        if self.stats is not None:
            self.stats.bump("compactions")
            self.stats.bump("compaction_reclaimed_bytes", reclaimed)
        return reclaimed

    def maybe_compact(
        self,
        *,
        min_dead_bytes: int = 1 << 16,
        min_dead_fraction: float = 0.5,
    ) -> int:
        """Compact only when enough of the container is orphaned frames.

        Meant for idle moments (the service calls it between batches).
        Returns the bytes reclaimed, or 0 when the thresholds say the
        rewrite is not worth the I/O yet.
        """
        if self._dead_bytes < min_dead_bytes:
            return 0
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return 0
        if size <= 0 or self._dead_bytes < min_dead_fraction * size:
            return 0
        return self.compact()

    # -- crash recovery -------------------------------------------------------

    def _recover_existing(self) -> None:
        """Revive spilled entries from a pre-existing spill file, if any.

        Valid container → reload from the footer index.  Footerless
        (crashed writer) → :func:`repro.streamio.salvage_frames`, the scan
        ``pastri fsck`` uses, which keys intact frames from a torn index
        tail or the journal; only keyed frames are kept.  A file whose
        very header is torn holds nothing locatable; it is left for
        :func:`_ensure_writer` to truncate.  A container whose header does
        not name it a spill file (a ``pastri pack`` output, another
        store's snapshot) is refused untouched.  Otherwise the survivors'
        frames seed a resumed writer so the eventual clean close writes a
        footer covering them.
        """
        try:
            if os.path.getsize(self.path) == 0:
                return
        except OSError:
            return  # no spill file: a genuinely fresh backend
        try:
            with open_container(self.path) as r:
                meta = r.meta
                frames = r.frames
                end_of_frames = max([r.data_start, *(f.offset + f.length for f in frames)])
        except ReproError:
            try:
                with open(self.path, "rb") as fh:
                    found = salvage_frames(fh, self.journal_path)
            except FormatError:
                return  # torn header: nothing locatable
            meta = found.header.get("meta", {})
            frames = found.entries.values()
            end_of_frames = found.walk.end_of_frames
        if meta.get("role") != _SPILL_ROLE:
            raise ParameterError(
                f"spill path {self.path} holds a container this store did not "
                f"write (role {meta.get('role')!r}); refusing to overwrite it"
            )
        # key -> FrameInfo, last write wins
        live = {_revive_key(json.loads(f.key)): f for f in frames if f.key is not None}
        self._ondisk = live
        self._resume_writer(end_of_frames)  # drop the stale footer / torn tail
        for f in live.values():  # bind() set the stats before calling us
            self.stats.bump("n_entries")
            self.stats.bump("original_bytes", f.n_elements * 8)
            self.stats.bump("compressed_bytes", f.length)
            self.stats.bump("recovered")
        self._rewrite_journal(live)

    def _rewrite_journal(self, live: dict) -> None:
        """Replace the journal with exactly the surviving entries.

        Appending after a crash (or a compaction) must start from a clean
        file: the old journal may end in a torn line (which would corrupt
        the next record) or reference frames that no longer exist.  Written
        via temp-file + rename so a crash here cannot lose the old journal
        before the new one is complete.
        """
        if not live:
            with contextlib.suppress(OSError):
                os.remove(self.journal_path)
            return
        tmp = self.journal_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("".join(journal_line(k, f) for k, f in live.items()))
            fh.flush()
        os.replace(tmp, self.journal_path)

    # -- backend interface ----------------------------------------------------

    def put(self, key, entry: _Entry) -> tuple[int, int] | None:
        """Insert/overwrite; returns the replaced entry's
        ``(compressed_len, nbytes)`` without touching the disk."""
        prev = None
        dropped = self._hot.pop(key)
        if dropped is not None:
            prev = (len(dropped.blob), dropped.nbytes)
        rec = self._ondisk.pop(key, None)
        if rec is not None:
            self._dead_bytes += rec.length  # old frame is orphaned
            if prev is None:
                prev = (rec.length, rec.n_elements * 8)
        self._admit(key, entry, sticky=True)  # dirty: must reach disk
        return prev

    def get(self, key) -> _Entry:
        entry = self._hot.get(key)
        if entry is not None:
            if self.stats is not None:
                self.stats.bump("blob_hits")
            return entry
        if self.stats is not None and (key in self._ondisk):
            self.stats.bump("blob_misses")
        entry = self._read_spilled(key)  # KeyError for unknown keys
        if not self._retain_spills:
            # legacy promote: forget the on-disk copy, re-spill on eviction
            self._dead_bytes += self._ondisk.pop(key).length
        # clean unless forgotten: the on-disk record is retained
        self._admit(key, entry, sticky=not self._retain_spills)
        return entry

    def __contains__(self, key) -> bool:
        return key in self._hot or key in self._ondisk

    def __len__(self) -> int:
        extra = sum(1 for k in self._hot.keys() if k not in self._ondisk)
        return len(self._ondisk) + extra

    def keys(self):
        seen = dict.fromkeys(self._hot.keys())
        seen.update(dict.fromkeys(self._ondisk))
        return list(seen)

    def close(self) -> None:
        """Flush all dirty blobs and finalize the spill container's footer.

        Clean blobs (already on disk) are simply dropped.  A footer that
        reached the disk supersedes the journal, which is removed — after a
        clean close the spill file alone is the durable, self-describing
        record (readable by ``open_container`` and recoverable from its own
        index on the next open).
        """
        if self._closed:
            return
        self._closed = True
        for key in list(self._hot.keys()):
            entry = self._hot.pop(key)
            if key not in self._ondisk:
                self._pending.append((key, entry))
        footered = False
        if self._pending or self._writer is not None:
            self._flush_pending()
            self._writer.close()
            footered = True
        if self._write_fh is not None:
            self._write_fh.close()
        if self._read_fh is not None:
            self._read_fh.close()
        if self._map is not None:
            self._map.close()
            self._map = None
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None
        if footered:
            with contextlib.suppress(OSError):
                os.remove(self.journal_path)

    def abort(self) -> None:
        """Crash simulation: release descriptors, persist *nothing* new.

        No pending spill flush, no container footer, no journal removal —
        the disk keeps exactly what earlier batched flushes wrote, i.e.
        the footerless-container + journal state a killed process leaves.
        Dirty hot-tier entries die with the process; a successor backend
        over the same path recovers the spilled subset via the salvage
        path (``recover=True``), which is the point of the exercise.
        """
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        self._writer = None
        for fh in (self._write_fh, self._read_fh, self._journal_fh):
            if fh is not None:
                with contextlib.suppress(OSError, ValueError):
                    fh.close()
        self._write_fh = self._read_fh = self._journal_fh = None
        if self._map is not None:
            with contextlib.suppress(OSError, ValueError):
                self._map.close()
            self._map = None


@dataclass
class CompressedERIStore:
    """Keyed store of compressed ERI blocks.

    Keys are arbitrary hashables (canonically shell-quartet tuples); for
    :meth:`save`/:meth:`load` round-trips they must be JSON-serializable
    (tuples are preserved).

    Examples
    --------
    >>> store = CompressedERIStore(codec, error_bound=1e-10)
    >>> store.put((0, 1, 2, 3), block)
    >>> again = store.get((0, 1, 2, 3))   # |again - block| <= 1e-10

    Spillable variant (bounded memory, disk-backed, with a byte-budgeted
    decompressed tier and sequence-profile readahead):

    >>> backend = ContainerBackend("eris.pstf", memory_budget_bytes=256 << 20)
    >>> store = CompressedERIStore(
    ...     codec, 1e-10, backend=backend,
    ...     hot_cache_bytes=64 << 20, readahead_depth=2,
    ... )

    ``hot_cache_bytes`` budgets the decompressed tier in bytes (the right
    unit — d-quartet blocks are orders of magnitude bigger than s-quartet
    blocks).  The tier is scan-resistant (:class:`SegmentedCache`), so one
    full sweep — a ``save``, an fsck, a cold MP2 transform — cannot flush
    the SCF working set.

    The store is **thread-safe**: one reentrant lock serializes backend
    mutations, cache updates, and stats bumps.  No codec call holds it:
    :meth:`get` and :meth:`get_many` share one read sequence that claims
    each array-tier miss (and a ``get``'s readahead candidates) under the
    lock, decodes them outside it in one call, and admits the results
    under it again.  Concurrent readers of a claimed
    key wait on the one in-flight decode instead of repeating it, readers
    of other keys decode in parallel, and a ``put`` racing a decode keeps
    the stale array out of the tier.  Writes mirror that: :meth:`_flush`
    claims the staged keys under the lock, compresses them outside it, and
    admits the blobs under it again; a reader of a key in flight waits for
    it, and a later write of the key lands after it.
    """

    codec: Codec
    error_bound: float
    backend: MemoryBackend | ContainerBackend | None = None
    #: decompressed-tier budget in bytes (0 disables the array tier)
    hot_cache_bytes: int = 0
    #: keys to speculatively decode after an array-tier miss (0 = off)
    readahead_depth: int = 0
    _shaped: dict = field(default_factory=dict, repr=False)
    _hot_arrays: SegmentedCache | None = field(default=None, repr=False)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    def __post_init__(self) -> None:
        if self.backend is None:
            self.backend = MemoryBackend()
        if self.hot_cache_bytes > 0:
            self._hot_arrays = SegmentedCache(
                self.hot_cache_bytes, sizeof=lambda a: a.nbytes
            )
        self._stats = StoreStats()
        self._cond = threading.Condition(self._lock)
        # the write stage: checked ``(key, block, dims)`` puts in put order
        self._stage: list = []
        self._stage_keys: dict = {}  # keys in the stage (an ordered set)
        self._stage_bytes = 0
        self._stage_limit = min(
            _STAGE_BYTES, getattr(self.backend, "memory_budget_bytes", _STAGE_BYTES)
        )
        self._flushing: dict = {}  # claimed keys: a flush is in flight
        self._decoding: set = set()  # claimed keys: a decode is in flight
        self._decode_stale: set = set()  # claimed keys overwritten by a put
        self._computing: set = set()  # keys with a get_or_compute in flight
        self._hot_array_bytes = 0
        self._prefetched: set = set()  # readahead keys not yet hit
        # outcomes of the latest resolved prefetches (1 used, 0 wasted)
        self._readahead_outcomes: collections.deque = collections.deque(
            maxlen=_READAHEAD_WINDOW
        )
        self._readahead_probe = 0  # misses since speculation stopped
        self._last_key = None  # previous accessed key (sequence profile)
        bind = getattr(self.backend, "bind", None)
        if bind is not None:
            bind(self.codec, self.error_bound, self._stats)
        else:
            self.backend.stats = self._stats

    @property
    def stats(self) -> StoreStats:
        """The store's :class:`StoreStats`, read after the write stage is
        compressed, so every put that returned is counted."""
        self._flush()
        return self._stats

    def codec_for(self, dims) -> Codec:
        """Per-geometry codec dispatch.

        ERI stores hold quartets of *different* shell classes; shape-aware
        codecs (PaSTRI, lowrank — anything with a ``reshaped`` method) are
        block-geometry specific, so when ``dims`` is given a per-shape
        instance is used (decompression is unaffected — their streams are
        self-describing).  Shape-independent codecs are shared as-is.  The
        compression service reuses this dispatch for its ``compress`` op.
        """
        reshaped = getattr(self.codec, "reshaped", None)
        if dims is None or reshaped is None:
            return self.codec
        dims = tuple(int(d) for d in dims)
        with self._lock:
            codec = self._shaped.get(dims)
            if codec is None:
                codec = reshaped(dims)
                self._shaped[dims] = codec
        return codec

    def put(self, key, block: np.ndarray, dims=None) -> None:
        """Stage one block for compression (overwrites an existing key).

        ``dims`` optionally gives the block's 4-D shell geometry so PaSTRI
        uses the right sub-block split (see :meth:`codec_for`).  The block
        is checked here, so bad input raises at ``put``, and a copy of it
        joins the write stage, so the caller may reuse its buffer.  The
        stage is compressed by :meth:`_flush`, here once it is full.
        """
        api.validate_error_bound(self.error_bound)
        arr = api.validate_input(np.array(block, dtype=np.float64))
        dims_t = None if dims is None else tuple(int(d) for d in dims)
        self.codec_for(dims_t)
        check_frame_entry(arr.size, json.dumps(key), dims_t)
        with self._lock:
            self._supersede(key)
            self._stage.append((key, arr, dims_t))
            self._stage_keys[key] = None
            self._stage_bytes += arr.nbytes
            full = self._stage_bytes > self._stage_limit
        if full:
            self._flush(())

    def put_blob(self, key, blob: bytes, nbytes: int, dims=None) -> None:
        """Insert an already-compressed blob verbatim (replica transfer).

        ``nbytes`` is the original (decompressed) byte size the blob
        decodes to.  The cluster's hinted-handoff drain moves blocks
        between shards with this + :meth:`get_blob` so a drained replica
        is **byte-identical** to its source — no lossy decode/re-encode
        cycle in the middle.  The write stage enters first, so the blob
        wins over an earlier ``put`` of the key.
        """
        dims_t = None if dims is None else tuple(int(d) for d in dims)
        nbytes = int(nbytes)
        check_frame_entry(nbytes // 8, json.dumps(key), dims_t)
        self._flush((key,))
        with self._lock:
            self._admit_blob(key, bytes(blob), nbytes, dims_t)

    def get_blob(self, key) -> tuple[bytes, int, tuple[int, ...] | None]:
        """The raw compressed entry ``(blob, original_nbytes, dims)``.

        Raises ``KeyError`` for unknown keys; no decompression happens.
        """
        self._flush((key,))
        with self._lock:
            entry = self.backend.get(key)
        return entry.blob, entry.nbytes, entry.dims

    def _supersede(self, key) -> None:
        """Under the lock: a new value of ``key`` is on its way.  Drop its
        array-tier entry and mark an in-flight decode of it stale."""
        if self._hot_arrays is not None:
            dropped = self._hot_arrays.pop(key)
            if dropped is not None:
                self._hot_array_bytes -= dropped.nbytes
                self._stats.hot_bytes = self._hot_array_bytes
            self._prefetched.discard(key)
        if key in self._decoding:
            self._decode_stale.add(key)

    def _admit_blob(self, key, blob: bytes, nbytes: int, dims) -> None:
        """Under the lock: store a checked blob and account for it."""
        prev = self.backend.put(key, _Entry(blob, nbytes, dims))
        if prev is not None:
            prev_len, prev_nbytes = prev
            self._stats.bump("compressed_bytes", -prev_len)
            self._stats.bump("original_bytes", -prev_nbytes)
            self._stats.bump("n_entries", -1)
        self._supersede(key)
        self._stats.bump("n_entries")
        self._stats.bump("puts")
        self._stats.bump("original_bytes", nbytes)
        self._stats.bump("compressed_bytes", len(blob))

    # -- write stage -----------------------------------------------------------

    def _flush(self, keys=None) -> None:
        """The store's one compress site: compress the write stage and admit
        its blobs, then wait out other threads' flushes of ``keys`` (of
        every key when ``keys`` is None).

        The stage is taken once no in-flight flush holds one of its keys,
        so the flushes of one key admit in put order.  Its blocks are
        compressed outside the lock, one ``compress_many`` call per
        geometry, and each blob enters through :meth:`_admit_blob` under
        the lock, in put order.  An error on the way (a codec fault, which
        the checks in :meth:`put` leave none of to the built-in codecs, or
        a spill the disk refuses) reaches the caller that flushed, and the
        blocks not yet admitted are dropped.
        """
        with self._cond:
            while self._flushing and not self._flushing.keys().isdisjoint(
                self._stage_keys
            ):
                self._cond.wait()
            batch, claimed = self._stage, self._stage_keys
            self._stage, self._stage_keys, self._stage_bytes = [], {}, 0
            self._flushing.update(claimed)
        if batch:
            blobs: list = []
            try:
                blobs = self._compress(batch)
            finally:
                with self._cond:
                    try:
                        for (key, block, dims), blob in zip(batch, blobs):
                            self._admit_blob(key, blob, block.nbytes, dims)
                    finally:
                        for key in claimed:
                            del self._flushing[key]
                        self._cond.notify_all()
        if keys is None or keys:
            with self._cond:
                while self._flushing and (
                    keys is None or not self._flushing.keys().isdisjoint(keys)
                ):
                    self._cond.wait()

    def _compress(self, batch: list) -> list[bytes]:
        """Blobs of staged ``(key, block, dims)`` items, in order: one
        ``compress_many`` call per geometry."""
        by_dims: dict = {}
        for i, (_key, _block, dims) in enumerate(batch):
            by_dims.setdefault(dims, []).append(i)
        blobs: list = [None] * len(batch)
        for dims, idx in by_dims.items():
            out = api.compress_many(
                self.codec_for(dims), [batch[i][1] for i in idx], self.error_bound
            )
            for i, blob in zip(idx, out):
                blobs[i] = blob
        return blobs

    def _known(self, key) -> bool:
        """Under the lock: whether ``key`` is stored, staged or in flight."""
        return key in self._stage_keys or key in self._flushing or key in self.backend

    # -- array tier ------------------------------------------------------------

    def _admit_array(self, key, arr) -> None:
        """Under the lock: put a decoded array into the tier and account for
        it and for whatever left the tier to make room."""
        self._hot_array_bytes += arr.nbytes
        for gone, gone_arr in self._hot_arrays.put(key, arr):
            self._hot_array_bytes -= gone_arr.nbytes
            self._stats.bump("array_evictions")
            if gone in self._prefetched:
                self._prefetched.discard(gone)
                self._stats.bump("readahead_wasted")
                self._readahead_outcomes.append(0)
        self._stats.hot_bytes = self._hot_array_bytes

    def _note_access(self, key) -> None:
        """Feed the per-key access-sequence profile that drives readahead."""
        prev = self._last_key
        self._last_key = key
        if prev is None or prev == key:
            return
        profile = self._stats.seq_profile
        if len(profile) > _PROFILE_MAX_KEYS:
            profile.clear()  # runaway key space; restart the profile
        succ = profile.setdefault(prev, {})
        if key in succ:
            succ[key] += 1
        elif len(succ) < _PROFILE_FANOUT:
            succ[key] = 1
        else:
            coldest = min(succ, key=succ.get)
            if succ[coldest] <= 1:
                del succ[coldest]
                succ[key] = 1

    def _class_adjacent(self, key):
        """Neighbor keys in the same shell class (canonical quartet layout).

        Quartet tuples share their class prefix and step in the final
        index; integer keys (flat block numbering) step directly.
        """
        for step in range(1, self.readahead_depth + 1):
            if isinstance(key, tuple) and key and isinstance(key[-1], int):
                yield key[:-1] + (key[-1] + step,)
            elif isinstance(key, int) and not isinstance(key, bool):
                yield key + step

    def get(self, key) -> np.ndarray:
        """Decompress one block; raises KeyError for unknown keys.

        Feeds the access-sequence profile.  A miss claims its readahead
        candidates in the same lock hold and decodes them with it, in one
        decode call.  The write stage is compressed first.
        """
        self._flush((key,))
        with self._cond:
            self._stats.bump("gets")
            self._note_access(key)
            hits, claims = self._claim([key])
            if hits:
                return hits[key]
            speculative = self._claim_readahead(key)
            claims.update(speculative)
        return self._decode_and_admit(claims, speculative=speculative)[0]

    def get_many(self, keys, n_workers: int = 1) -> list[np.ndarray]:
        """Bulk fetch: the batch form of :meth:`get`'s read sequence.

        The misses are decoded in one call: one ``decompress_many`` call
        inline, or with ``n_workers > 1`` one ``decompress_batch`` call on
        the persistent shared worker pool (blobs and large results travel
        over shared memory), so a bulk load — snapshot warm-up, an MP2
        sweep — uses every core.  The access-sequence profile is *not*
        fed (a bulk scan is not a pattern worth learning).  Raises
        ``KeyError`` on the first unknown key, before any decode runs.
        """
        keys = list(keys)
        self._flush(keys)
        with self._cond:
            self._stats.bump("gets", len(keys))
            hits, claims = self._claim(keys)
        found = dict(zip(claims, self._decode_and_admit(claims, n_workers)))
        found.update(hits)
        return [found[k] for k in keys]

    def _claim_readahead(self, key) -> dict:
        """Under the lock: pick and claim the readahead candidates of a miss.

        Candidates are the access-sequence profile's successors of ``key``
        (what actually followed it before), then its class-adjacent
        neighbors.  The first ones that are neither cached, claimed nor
        unknown are claimed; :meth:`_readahead_budget` says how many.
        A candidate whose blob cannot be fetched is skipped.  Returns
        ``{key: blob}``.
        """
        claims: dict = {}
        if self.readahead_depth <= 0 or self._hot_arrays is None:
            return claims
        budget = self._readahead_budget()
        succ = self._stats.seq_profile.get(key, {})
        candidates = sorted(succ, key=succ.get, reverse=True)
        candidates.extend(self._class_adjacent(key))
        for cand in dict.fromkeys(candidates):
            if len(claims) >= budget:
                break
            busy = cand == key or cand in self._decoding or cand in self._hot_arrays
            if busy or cand not in self.backend:
                continue
            try:
                claims[cand] = self.backend.get(cand).blob
            except FormatError:
                continue
        self._decoding.update(claims)
        return claims

    def _readahead_budget(self) -> int:
        """Under the lock: candidates this miss may prefetch.

        ``readahead_depth`` while at least :data:`_READAHEAD_FLOOR` of
        the last :data:`_READAHEAD_WINDOW` resolved prefetches were used
        (or fewer have resolved yet).  Below the floor readahead stops,
        except that every :data:`_READAHEAD_PROBE_EVERY`-th miss probes
        one candidate, whose outcome can lift the window again.
        """
        window = self._readahead_outcomes
        if len(window) < window.maxlen or sum(window) >= _READAHEAD_FLOOR * len(window):
            self._readahead_probe = 0
            return self.readahead_depth
        self._readahead_probe += 1
        return 1 if self._readahead_probe % _READAHEAD_PROBE_EVERY == 0 else 0

    def _claim(self, keys: list) -> tuple[dict, dict]:
        """Under the lock: serve array-tier hits, fetch and claim each miss.

        Returns ``({key: array}, {key: blob})``.  Other readers' claims on
        ``keys`` are waited out before any is taken: claiming as it went,
        a reader could hold one key while waiting for another, and two
        overlapping batches would deadlock.
        """
        while not self._decoding.isdisjoint(keys):
            self._cond.wait()
        hits: dict = {}
        claims: dict = {}
        for key in keys:
            hit = None if self._hot_arrays is None else self._hot_arrays.get(key)
            if hit is not None:
                self._stats.bump("cache_hits")
                if key in self._prefetched:
                    self._prefetched.discard(key)
                    self._stats.bump("readahead_useful")
                    self._readahead_outcomes.append(1)
                hits[key] = hit
                continue
            if self._hot_arrays is not None:
                self._stats.bump("cache_misses")
            if key not in claims:
                claims[key] = self.backend.get(key).blob  # KeyError if unknown
        if self._hot_arrays is not None:  # no tier, nothing to admit
            self._decoding.update(claims)
        return hits, claims

    def _decode_and_admit(self, claims: dict, n_workers=1, speculative=()) -> list:
        """Decode ``{key: blob}`` outside the lock; returns arrays in order.

        One decode call for all claims: inline, or one pool batch when
        ``n_workers > 1``.  If that call raises :class:`FormatError`, the
        blobs are decoded one at a time: a key in ``speculative`` whose
        blob fails maps to ``None`` (its error belongs to a get of that
        key), any other raises.  Then, under the lock, every claim is
        released and each array no ``put`` marked stale is admitted.
        """
        arrays: list = []
        try:
            try:
                arrays = self._decode(list(claims.values()), n_workers)
            except FormatError:
                if len(claims) < 2:
                    raise
                for key, blob in claims.items():
                    try:
                        (arr,) = self._decode([blob], 1)
                    except FormatError:
                        if key not in speculative:
                            raise
                        arr = None
                    arrays.append(arr)
        finally:
            with self._cond:
                stale = self._decode_stale.intersection(claims)
                self._decode_stale -= stale
                self._decoding.difference_update(claims)
                for key, arr in zip(claims, arrays):
                    if arr is None or key in stale or self._hot_arrays is None:
                        continue
                    arr.setflags(write=False)  # cached arrays are shared
                    self._admit_array(key, arr)
                    if key in speculative:
                        self._prefetched.add(key)
                        self._stats.bump("readahead_issued")
                self._cond.notify_all()
        return arrays

    def _decode(self, blobs: list, n_workers: int) -> list:
        """The store's one decode site: a pool batch, or one
        ``decompress_many`` call."""
        if n_workers > 1 and blobs:
            from repro.parallel.pool import shared_pool

            spec = api.codec_spec(self.codec)
            pool = shared_pool(spec["name"], spec.get("kwargs"), n_workers)
            return pool.decompress_batch(blobs)
        return api.decompress_many(self.codec, blobs)

    def get_or_compute(self, key, compute, dims=None) -> np.ndarray:
        """Fetch from the store, or compute, insert, and return.

        The returned array is always the *decompressed* value — including
        on the first, freshly-computed use — so a key yields bit-identical
        data on every access (the lossy roundtrip is never silently
        bypassed).  Computation is single-flight: under concurrent calls
        for the same missing key exactly one thread computes and inserts;
        the rest wait and then read the stored value.
        """
        claimed = False
        with self._cond:
            while True:
                if self._known(key):
                    break
                if key not in self._computing:
                    self._computing.add(key)
                    claimed = True
                    break
                self._cond.wait()
        if not claimed:
            return self.get(key)
        try:
            self.put(key, compute(), dims=dims)
        finally:
            with self._cond:
                self._computing.discard(key)
                self._cond.notify_all()
        return self.get(key)

    # -- maintenance -----------------------------------------------------------

    def maybe_compact(self, **thresholds) -> int:
        """Idle-time spill-container compaction (no-op for MemoryBackend)."""
        fn = getattr(self.backend, "maybe_compact", None)
        if fn is None:
            return 0
        with self._lock:
            return fn(**thresholds)

    def compact(self) -> int:
        """Force spill-container compaction (no-op for MemoryBackend)."""
        fn = getattr(self.backend, "compact", None)
        if fn is None:
            return 0
        with self._lock:
            return fn()

    def format_cache_report(self) -> str:
        """Human-readable per-tier cache report (the ``pastri stats`` view)."""
        st = self.stats
        lines = ["cache report"]
        if self._hot_arrays is not None:
            c = self._hot_arrays
            lines.append(
                f"  array tier [{c.policy}]: {c.bytes}/{c.budget} B "
                f"({len(c)} blocks, {st.hot_bytes} B decompressed)"
            )
            lines.append(
                f"    hits {st.cache_hits}  misses {st.cache_misses}  "
                f"hit-rate {st.hit_rate:.3f}  evictions {st.array_evictions}  "
                f"rejections {c.stats.rejections}"
            )
        else:
            lines.append("  array tier: disabled")
        hot = getattr(self.backend, "_hot", None)
        if isinstance(hot, SegmentedCache):
            lines.append(
                f"  blob tier [{hot.policy}]: {hot.bytes}/{hot.budget} B "
                f"({len(hot)} blobs hot, "
                f"{len(getattr(self.backend, '_ondisk', {}))} frames on disk)"
            )
            lines.append(
                f"    hits {st.blob_hits}  disk reads {st.disk_reads}  "
                f"spills {st.spills}  evictions {st.blob_evictions}  "
                f"rejections {hot.stats.rejections}"
            )
            dead = getattr(self.backend, "_dead_bytes", 0)
            lines.append(
                f"    compactions {st.compactions}  "
                f"reclaimed {st.compaction_reclaimed_bytes} B  "
                f"dead {dead} B"
            )
        else:
            lines.append("  blob tier: in-memory (unbounded)")
        lines.append(
            f"  readahead: depth {self.readahead_depth}  "
            f"issued {st.readahead_issued}  useful {st.readahead_useful}  "
            f"wasted {st.readahead_wasted}  "
            f"accuracy {st.readahead_accuracy:.3f}"
        )
        return "\n".join(lines)

    # -- persistence -----------------------------------------------------------

    def save(self, path: str):
        """Write a compact v2 container snapshot of every entry.

        Frames are keyed with the JSON encoding of each store key and carry
        the entry's ``dims``; the header records the codec spec and error
        bound, so :meth:`load` needs nothing but the path.  Returns the
        :class:`repro.streamio.StreamSummary` of the written container.

        The snapshot is crash-safe: it is written to ``path + ".tmp"``,
        fsynced, and renamed into place on success — a failure (or kill)
        mid-save can never shadow or corrupt an existing snapshot at
        ``path``.  (The scan this performs cannot flush the working set:
        the blob tier's admission filter treats it as the one-time sweep
        it is.)
        """
        self._flush()
        with self._lock:
            with ContainerWriter.create(
                str(path),
                self.codec,
                self.error_bound,
                meta={"error_bound": self.error_bound, "role": "eri-store"},
            ) as w:
                for key in self.backend.keys():
                    entry = self.backend.get(key)
                    w.append_blob(
                        entry.blob,
                        entry.nbytes // 8,
                        key=json.dumps(key),
                        dims=entry.dims,
                    )
        return w.summary

    @classmethod
    def load(
        cls,
        path: str,
        backend: MemoryBackend | ContainerBackend | None = None,
        *,
        hot_cache_bytes: int = 0,
        readahead_depth: int = 0,
    ) -> "CompressedERIStore":
        """Revive a store from a :meth:`save` snapshot (or spill container).

        The codec is rebuilt from the container's codec spec and the error
        bound from its metadata — no caller knowledge needed.  List-valued
        JSON keys are restored as tuples (the canonical quartet keys).
        """
        with open_container(path) as r:
            eb = r.meta.get("error_bound")
            if eb is None:
                raise ParameterError(
                    f"{path!r} has no stored error bound; not a store snapshot?"
                )
            store = cls(
                r.codec,
                float(eb),
                backend=backend,
                hot_cache_bytes=hot_cache_bytes,
                readahead_depth=readahead_depth,
            )
            for i, f in enumerate(r.frames):
                if f.key is None:
                    raise ParameterError(f"frame {i} in {path!r} has no key")
                key = _revive_key(json.loads(f.key))
                store.put_blob(key, r.read_blob(i), f.n_elements * 8, f.dims)
        # a freshly loaded store has served no traffic yet
        store._stats.puts = 0
        return store

    def close(self) -> None:
        """Compress the write stage, then release backend resources
        (finalizes a spill container's footer)."""
        try:
            self._flush()
        finally:
            with self._lock:
                self.backend.close()

    def abort(self) -> None:
        """Crash simulation: drop everything unflushed, close descriptors.

        The write stage is dropped, as a killed process loses it.
        Delegates to :meth:`ContainerBackend.abort` when the backend has
        one; a memory backend simply closes (nothing is durable anyway).
        """
        with self._lock:
            self._stage, self._stage_keys, self._stage_bytes = [], {}, 0
            aborter = getattr(self.backend, "abort", None)
            if aborter is not None:
                aborter()
            else:
                self.backend.close()

    def __enter__(self) -> "CompressedERIStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ``in``, ``len`` and ``keys`` count staged keys without compressing them

    def __contains__(self, key) -> bool:
        with self._lock:
            return self._known(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self.backend) + len(self._unstored())

    def keys(self):
        with self._lock:
            return list(self.backend.keys()) + self._unstored()

    def _unstored(self) -> list:
        """Under the lock: staged or in-flight keys the backend lacks."""
        pending = dict.fromkeys(self._flushing)
        pending.update(self._stage_keys)
        return [k for k in pending if k not in self.backend]


def _revive_key(key):
    """JSON round-trips tuples as lists; restore hashability recursively."""
    if isinstance(key, list):
        return tuple(_revive_key(k) for k in key)
    return key
