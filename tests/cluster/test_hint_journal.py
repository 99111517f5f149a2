"""Hint-journal durability, compaction, and multi-gateway sharing (PR 10).

Three contracts:

* **Durability** — with ``durable=True`` every appended record is
  fsync'd (a hint that survived :meth:`HintLog.record` survives a host
  crash); ``durable=False`` skips the syncs for fast tests.
* **Kill-safe compaction** — the same tmp-file + ``os.replace``
  discipline as the spill-store compaction, pinned with a kill-point
  matrix (the ``tests/faults`` idiom): a process dying at any stage
  leaves a journal whose replay yields exactly the open hints.
* **Shared journals** — N gateway processes appending to one file see
  each other's records via :meth:`refresh`, and survive a peer's
  compaction via the inode-change re-replay.
"""

import os

import pytest

from repro.cluster.hints import COMPACT_MIN_DRAINS, HintLog


def _keys(n):
    return [["blk", i] for i in range(n)]


class TestDurability:
    @pytest.mark.parametrize("durable", [True, False])
    def test_fsync_follows_the_knob(self, tmp_path, monkeypatch, durable):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        log = HintLog(str(tmp_path / "hints.jsonl"), durable=durable)
        log.record("shard-01", ["blk", 1], "shard-02")
        log.drained("shard-01", ["blk", 1])
        log.close()
        assert (len(synced) == 2) if durable else (not synced)

    def test_hints_survive_an_unclosed_journal(self, tmp_path):
        path = str(tmp_path / "hints.jsonl")
        log = HintLog(path)
        for key in _keys(5):
            log.record("shard-01", key, "shard-02")
        log.drained("shard-01", ["blk", 0])
        # simulated kill: no close(), a new process replays the file
        revived = HintLog(path)
        owed = {tuple(k) for k, _ in revived.pending("shard-01")}
        assert owed == {("blk", i) for i in range(1, 5)}
        revived.close()
        log.close()

    def test_replay_tolerates_a_torn_tail(self, tmp_path):
        path = str(tmp_path / "hints.jsonl")
        log = HintLog(path)
        log.record("shard-01", ["blk", 1], "shard-02")
        log.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "hint", "shard": "shard-0')  # killed mid-write
        revived = HintLog(path)
        assert [k for k, _ in revived.pending("shard-01")] == [["blk", 1]]
        # the next record must not land on the end of the torn line
        revived.record("shard-01", ["blk", 2], "shard-02")
        revived.close()
        again = HintLog(path)
        assert [k for k, _ in again.pending("shard-01")] == [["blk", 1], ["blk", 2]]
        again.close()


class _Kill(Exception):
    """Injected process death inside the compaction sequence."""


class TestCompaction:
    def test_maybe_compact_waits_for_drains_to_dominate(self, tmp_path):
        path = str(tmp_path / "hints.jsonl")
        log = HintLog(path, durable=False)
        log.record("shard-01", ["open", 0], "shard-02")
        for key in _keys(COMPACT_MIN_DRAINS - 1):
            log.record("shard-01", key, "shard-02")
            log.drained("shard-01", key)
        assert log.maybe_compact() == 0  # one drain short of the floor
        log.record("shard-01", ["blk", 999], "shard-02")
        log.drained("shard-01", ["blk", 999])
        assert log.maybe_compact() > 0
        assert log.compactions == 1
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh if ln.strip()]
        assert len(lines) == 1  # just the open hint survived
        assert [k for k, _ in log.pending("shard-01")] == [["open", 0]]
        log.close()

    def test_compacted_journal_replays_identically(self, tmp_path):
        path = str(tmp_path / "hints.jsonl")
        log = HintLog(path, durable=False)
        for key in _keys(20):
            log.record("shard-01", key, "shard-02")
        for key in _keys(15):
            log.drained("shard-01", key)
        log.record("shard-03", ["other", 1], "shard-00")
        before = {
            shard: {tuple(k) for k, _ in log.pending(shard)}
            for shard in ("shard-01", "shard-03")
        }
        assert log.compact() > 0
        log.close()
        revived = HintLog(path)
        after = {
            shard: {tuple(k) for k, _ in revived.pending(shard)}
            for shard in ("shard-01", "shard-03")
        }
        assert after == before
        revived.close()

    @pytest.mark.parametrize("stage", ["begin", "after_tmp", "after_replace"])
    def test_kill_at_every_compaction_stage_loses_nothing(self, tmp_path, stage):
        path = str(tmp_path / "hints.jsonl")
        log = HintLog(path, durable=False)
        for key in _keys(12):
            log.record("shard-01", key, "shard-02")
        for key in _keys(8):
            log.drained("shard-01", key)
        expected = {tuple(k) for k, _ in log.pending("shard-01")}

        def hook(at):
            if at == stage:
                raise _Kill(at)

        log._compact_hook = hook
        with pytest.raises(_Kill):
            log.compact()
        # the killed process is gone; a fresh one replays what's on disk
        revived = HintLog(path)
        assert {tuple(k) for k, _ in revived.pending("shard-01")} == expected
        revived.close()
        log.close()


class TestSharedJournal:
    def test_peer_appends_arrive_via_refresh(self, tmp_path):
        path = str(tmp_path / "hints.jsonl")
        a = HintLog(path, durable=False)
        b = HintLog(path, durable=False)
        a.record("shard-01", ["blk", 1], "shard-02")
        assert not b.pending("shard-01")  # not merged yet
        b.refresh()
        assert [k for k, _ in b.pending("shard-01")] == [["blk", 1]]
        b.drained("shard-01", ["blk", 1])
        a.refresh()
        assert not a.pending("shard-01")
        a.close()
        b.close()

    def test_append_merges_the_peer_tail_first(self, tmp_path):
        path = str(tmp_path / "hints.jsonl")
        a = HintLog(path, durable=False)
        b = HintLog(path, durable=False)
        a.record("shard-01", ["blk", 1], "shard-02")
        # b appends without an explicit refresh: the append itself must
        # fold a's record in, or b's offset would skip it forever
        b.record("shard-01", ["blk", 2], "shard-03")
        owed = {tuple(k) for k, _ in b.pending("shard-01")}
        assert owed == {("blk", 1), ("blk", 2)}
        a.close()
        b.close()

    def test_peer_compaction_is_survived_via_inode_reopen(self, tmp_path):
        path = str(tmp_path / "hints.jsonl")
        a = HintLog(path, durable=False)
        b = HintLog(path, durable=False)
        for key in _keys(10):
            a.record("shard-01", key, "shard-02")
        for key in _keys(9):
            a.drained("shard-01", key)
        b.refresh()
        assert a.compact() > 0  # b's fd now points at the replaced inode
        b.refresh()
        assert {tuple(k) for k, _ in b.pending("shard-01")} == {("blk", 9)}
        # and b can still append; a sees it through its own refresh
        b.record("shard-03", ["post", 1], "shard-00")
        a.refresh()
        assert [k for k, _ in a.pending("shard-03")] == [["post", 1]]
        a.close()
        b.close()
