"""The hinted-handoff journal: writes owed to a dead shard.

When a ``store.put`` targets a shard the gateway cannot reach, the block
is written to a live stand-in ("holder") and a *hint* is recorded: the
intended shard, the key, and the holder.  When the dead shard rejoins
(its health check recovers — its own spill container comes back through
the PR 5 salvage path), the gateway *drains*: each hinted block is read
from its holder and re-put to the rightful owner, restoring the shard to
a byte-identical serving state for those keys.  A newer put that reaches
the shard first supersedes its hint (:meth:`owes`, then :meth:`drained`).

The log is append-only JSON-lines, one record per event::

    {"op": "hint",  "shard": "shard-01", "key": [0,0,3,1], "holder": "shard-02"}
    {"op": "drain", "shard": "shard-01", "key": [0,0,3,1]}

so a restarted gateway replays the file and owes exactly the still-open
hints — the same journal-replay discipline the spill store uses.  The
in-memory view is ``shard -> {canonical key json -> (key, holder)}``.

**Durability.**  With ``durable=True`` (the default) every appended
record is ``fsync``'d — a hint that survived :meth:`record` survives a
host crash, which is exactly when it is needed.  Tests that hammer the
journal can pass ``durable=False`` to skip the syncs.

**Shared journals.**  Several gateway processes may open the *same*
journal file: appends are serialized through an ``fcntl`` lock on a
sidecar ``<path>.lock`` file, records written by peers are merged in by
:meth:`refresh` (the gateway calls it from its health loop), and a
compaction by any process is detected by the others via an inode check
and answered with a clean re-replay.  This is what makes the router
itself replicable — N gateways share one hint ledger.

**Compaction.**  ``drain`` records accumulate forever in a long-lived
journal; when they dominate the open set, :meth:`maybe_compact` rewrites
just the open hints to a temp file and ``os.replace``'s it into place —
the same kill-safe pattern as the spill-store compaction.  A process
killed at any stage leaves either the complete old file or the complete
new one; ``tests/cluster/test_hint_journal.py`` pins the kill matrix.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager

from repro.cluster.ring import key_bytes

try:  # POSIX only; on other platforms a shared journal is best-effort
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

__all__ = ["HintLog"]

#: don't bother compacting journals smaller than this many drain records
COMPACT_MIN_DRAINS = 64


class HintLog:
    """Durable (optional) record of writes owed to dead shards."""

    def __init__(self, path: str | None = None, durable: bool = True) -> None:
        self.path = str(path) if path else None
        self.durable = bool(durable)
        self._lock = threading.Lock()
        #: shard -> {key_json: (key, holder)}
        self._open: dict[str, dict[str, tuple[object, str]]] = {}
        self._fh = None
        self._lock_fh = None
        self._offset = 0     # replay position within the current file
        self._drains = 0     # drain records seen since open/compaction
        self.compactions = 0
        self._compact_hook = None  # test seam: called with the stage name
        if self.path:
            self._lock_fh = open(self.path + ".lock", "ab")
            # "a+" so one handle both appends (always at EOF, O_APPEND)
            # and replays/refreshes (explicit seek before reads)
            self._fh = open(self.path, "a+", encoding="utf-8")
            with self._flock():
                self._replay_tail()

    # -- shared-file plumbing ------------------------------------------------

    @contextmanager
    def _flock(self):
        """Exclusive cross-process lock around journal file operations."""
        if fcntl is None or self._lock_fh is None:  # pragma: no cover
            yield
            return
        fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_UN)

    def _reopen_if_replaced(self) -> None:
        """Another process compacted the journal: re-replay the new file.

        The compactor wrote a complete snapshot of every open hint (its
        own view merged with the tail of ours — it refreshes under the
        lock first), so the new file is authoritative: drop the in-memory
        view and rebuild from offset 0.
        """
        try:
            disk = os.stat(self.path)
        except FileNotFoundError:  # pragma: no cover - deleted underneath us
            return
        if disk.st_ino == os.fstat(self._fh.fileno()).st_ino:
            return
        self._fh.close()
        self._fh = open(self.path, "a+", encoding="utf-8")
        self._open = {}
        self._offset = 0
        self._drains = 0
        self._replay_tail()

    def _replay_tail(self) -> bool:
        """Merge whole records appended since ``_offset`` (ours or a peer's).

        Callers hold the flock, so a last line without its newline is a
        record torn by a writer killed mid-append: ``_offset`` stays at
        its start and this returns True.
        """
        # readline loop, not iteration: iterating a text file disables
        # tell(), and the offset must stay trackable
        self._fh.seek(self._offset)
        while True:
            line = self._fh.readline()
            if not line.endswith("\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue  # a line garbled before torn tails were cut
            if rec.get("op") == "hint":
                self._open.setdefault(rec["shard"], {})[
                    _kj(rec["key"])
                ] = (rec["key"], rec.get("holder", ""))
            elif rec.get("op") == "drain":
                self._drains += 1
                self._open.get(rec.get("shard"), {}).pop(
                    _kj(rec.get("key")), None
                )
        # records are ASCII (json.dumps escapes the rest): one char, one byte
        self._offset = self._fh.tell() - len(line)
        return bool(line)

    def _append(self, rec: dict) -> None:
        if self._fh is None:
            return
        with self._flock():
            self._reopen_if_replaced()
            # merge the peers' tail first: advancing the offset past
            # unreplayed peer records would lose them forever
            if self._replay_tail():
                # cut the torn record, or this one would join its line
                self._fh.seek(self._offset)
                self._fh.truncate()
            self._fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
            self._fh.flush()
            if self.durable:
                os.fsync(self._fh.fileno())
            self._offset = self._fh.tell()
        if rec.get("op") == "drain":
            self._drains += 1

    # -- recording -----------------------------------------------------------

    def record(self, shard: str, key, holder: str) -> None:
        """A write owed to ``shard`` currently lives on ``holder``."""
        with self._lock:
            # append first (it merges the peers' tail), then mutate: the
            # in-memory view must match the file's record order
            self._append(
                {"op": "hint", "shard": shard, "key": _jsonable(key),
                 "holder": holder}
            )
            self._open.setdefault(shard, {})[_kj(key)] = (key, holder)

    def drained(self, shard: str, key) -> None:
        """The hinted block has been handed back to its owner."""
        with self._lock:
            self._append({"op": "drain", "shard": shard, "key": _jsonable(key)})
            self._open.get(shard, {}).pop(_kj(key), None)

    def forget(self, shard: str) -> int:
        """Drop every hint owed to ``shard`` (it left the fleet for good).

        Appends a ``drain`` record per dropped hint so a replay (by this
        process or a journal-sharing peer) agrees.  Returns the count.
        """
        with self._lock:
            owed = dict(self._open.get(shard, {}))
            for kj, (key, _holder) in owed.items():
                self._append({"op": "drain", "shard": shard,
                              "key": _jsonable(key)})
                self._open.get(shard, {}).pop(kj, None)
            return len(owed)

    # -- shared-journal maintenance ------------------------------------------

    def refresh(self) -> None:
        """Merge records appended by journal-sharing peer processes."""
        if self._fh is None:
            return
        with self._lock:
            with self._flock():
                self._reopen_if_replaced()
                self._replay_tail()

    def maybe_compact(self) -> int:
        """Compact when drained records dominate the open set."""
        with self._lock:
            if self._fh is None:
                return 0
            if self._drains < COMPACT_MIN_DRAINS or self._drains < len(self):
                return 0
            return self._compact_locked()

    def compact(self) -> int:
        """Rewrite the journal down to just the open hints (kill-safe).

        A fresh file holding one ``hint`` record per open hint is written
        to ``<path>.tmp``, fsync'd, and ``os.replace``'d over the journal
        — a kill at any point leaves either the complete old file or the
        complete new one, never a mix.  Returns the number of records
        reclaimed (hint/drain pairs folded away).
        """
        with self._lock:
            if self._fh is None:
                return 0
            return self._compact_locked()

    def _compact_locked(self) -> int:
        with self._flock():
            self._hook("begin")
            # fold in anything peers appended before snapshotting
            self._reopen_if_replaced()
            self._replay_tail()
            before = _count_lines(self.path)
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as out:
                live = 0
                for shard, owed in self._open.items():
                    for key, holder in owed.values():
                        out.write(json.dumps(
                            {"op": "hint", "shard": shard,
                             "key": _jsonable(key), "holder": holder},
                            separators=(",", ":")) + "\n")
                        live += 1
                out.flush()
                os.fsync(out.fileno())
            self._hook("after_tmp")
            os.replace(tmp, self.path)
            self._hook("after_replace")
            self._fh.close()
            self._fh = open(self.path, "a+", encoding="utf-8")
            self._fh.seek(0, os.SEEK_END)
            self._offset = self._fh.tell()
            self._drains = 0
            self.compactions += 1
            return max(before - live, 0)

    def _hook(self, stage: str) -> None:
        if self._compact_hook is not None:
            self._compact_hook(stage)

    # -- inspection ----------------------------------------------------------

    def owes(self, shard: str, key) -> str | None:
        """The holder of the open hint owed to ``shard`` for ``key``, if any."""
        with self._lock:
            owed = self._open.get(shard, {}).get(_kj(key))
            return owed[1] if owed else None

    def pending(self, shard: str) -> list[tuple[object, str]]:
        """Open ``(key, holder)`` hints owed to ``shard``."""
        with self._lock:
            return list(self._open.get(shard, {}).values())

    def counts(self) -> dict[str, int]:
        """Open hint count per shard (empty shards omitted)."""
        with self._lock:
            return {s: len(m) for s, m in self._open.items() if m}

    def __len__(self) -> int:
        return sum(len(m) for m in self._open.values())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if self._lock_fh is not None:
            self._lock_fh.close()
            self._lock_fh = None


def _count_lines(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())
    except OSError:  # pragma: no cover
        return 0


def _kj(key) -> str:
    return key_bytes(key).decode("utf-8")


def _jsonable(key):
    return list(key) if isinstance(key, tuple) else key
