"""Kill, fsck, restart: a salvaged spill file keeps every spilled key.

An aborted spill-backed store leaves what a SIGKILL leaves: a footerless
container plus its ``.journal``.  ``open_container`` then points the
operator at ``pastri fsck``.  fsck and the store's own recovery share one
salvage scan (``repro.streamio.salvage_frames``), so fsck keys the frames
from the journal, and the restarted store reloads every spilled entry
from the footer fsck wrote.
"""

import json
import os

import numpy as np
import pytest

from repro.core import PaSTRICompressor
from repro.errors import FormatError
from repro.pipeline import CompressedERIStore, ContainerBackend
from repro.streamio import open_container, salvage_container

EB = 1e-10
DIMS = (6, 6, 6, 6)
BLOCK = 6**4 * 2  # elements per stored block


def _store(path):
    backend = ContainerBackend(str(path), memory_budget_bytes=2048)
    return CompressedERIStore(
        PaSTRICompressor(dims=DIMS), error_bound=EB, backend=backend
    )


def _killed_store(path, n_blocks=40, seed=11):
    """Fill a spill-backed store, then abort it; returns (blocks, spilled keys)."""
    rng = np.random.default_rng(seed)
    blocks = {(0, 0, 0, i): rng.standard_normal(BLOCK) * 1e-7 for i in range(n_blocks)}
    store = _store(path)
    for key, block in blocks.items():
        store.put(key, block, dims=DIMS)
    spilled = list(store.backend._ondisk)
    assert spilled
    store.abort()
    return blocks, spilled


def test_kill_fsck_restart_keeps_every_spilled_key(tmp_path):
    spill = str(tmp_path / "spill.pstf")
    journal = spill + ".journal"
    blocks, spilled = _killed_store(spill)
    with pytest.raises(FormatError, match="pastri fsck"):
        open_container(spill)

    report = salvage_container(spill)
    assert report.frames_recovered == len(spilled)
    revived = _store(spill)
    with revived:
        # (keys fsck recovered, entries the store recovered, journal kept)
        assert (
            report.keys_recovered, revived.stats.recovered, os.path.exists(journal)
        ) == (report.frames_recovered, len(spilled), True)
        for key in spilled:
            assert np.max(np.abs(revived.get(key) - blocks[key])) <= EB


def test_frame_whose_journal_crc_disagrees_stays_unkeyed(tmp_path):
    """A journal record keys a frame only with the frame's CRC: fsck
    decode-checks and keeps the other frame unkeyed, the store drops it."""
    spill = str(tmp_path / "spill.pstf")
    journal = spill + ".journal"
    blocks, spilled = _killed_store(spill, n_blocks=12)
    with open(journal, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    records[0]["crc"] ^= 1
    with open(journal, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)

    report = salvage_container(spill)
    assert report.frames_recovered == len(spilled)
    assert report.frames_dropped == 0
    assert report.keys_recovered == len(spilled) - 1
    with open_container(spill) as r:
        assert r.frames[0].key is None
        assert np.max(np.abs(r.read_frame(0) - blocks[spilled[0]])) <= EB

    revived = _store(spill)
    with revived:
        assert revived.stats.recovered == len(spilled) - 1
        assert spilled[0] not in revived
        for key in spilled[1:]:
            assert np.max(np.abs(revived.get(key) - blocks[key])) <= EB
