"""Cluster smoke test (``make cluster-smoke``).

Boots a 3-shard ``SubprocessFleet`` (real ``pastri serve`` processes,
each owning its own spill container) behind an in-process
:class:`ClusterGateway` with replication 2, then gates on the PR 8
acceptance criteria end to end:

* a client round-trip through the gateway honors the error bound;
* SIGKILLing one shard mid-traffic leaves **zero** failed client reads
  (the gateway fails over to the surviving replica);
* writes issued while the shard is dead leave hints; the restarted
  shard drains them and the fleet reports all-up with no open hints;
* those keys, overwritten right after the restart so each drain races a
  newer put, end byte-identical on both preference-list shards (keys
  written before the kill are left out: the killed shard's unspilled
  blobs are lost by contract);
* a hint journal torn by a gateway killed mid-append loses no later
  hint: a new gateway records hints over the torn tail (another shard
  SIGKILLed), a third gateway replaying the journal owes every one of
  them, and the shard's restart drains them to 0;
* after teardown no shm segment survives: the in-process ledger is
  empty and ``/dev/shm`` gained no ``pastri-shm-*`` entries.

Hard deadlines everywhere — a wedged fleet fails the build, never hangs
it (the Makefile adds an outer ``timeout`` as a backstop).
"""

import glob
import os
import sys
import tempfile
import time

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.cluster import GatewayConfig, SubprocessFleet, gateway_in_thread  # noqa: E402
from repro.parallel import shm  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

EB = 1e-10
SHAPE = (4, 4, 4, 4)
N_BLOCKS = 16
RECOVER_DEADLINE_S = 30.0


def _dev_shm_segments() -> set[str]:
    return set(glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}*"))


def _start_gateway(fleet: SubprocessFleet, journal: str):
    return gateway_in_thread(GatewayConfig(
        shards=[(s.name, s.host, s.port) for s in fleet.specs],
        replication=2,
        hint_path=journal,
        health_interval_s=0.2,
        fail_after=1,
    ))


def _recovered(c: ServiceClient) -> bool:
    """Wait until every shard is up and no hint is owed."""
    deadline = time.monotonic() + RECOVER_DEADLINE_S
    while time.monotonic() < deadline:
        h = c.health()
        if not h["shards_down"] and h["hints_pending"] == 0:
            return True
        time.sleep(0.2)
    print(f"FAIL: fleet never recovered: {c.health()}", file=sys.stderr)
    return False


def _torn_journal_hints(fleet: SubprocessFleet, journal: str, rng) -> int | None:
    """Tear the journal's tail, record hints over it through a new gateway,
    then check that a third gateway owes them all and drains them when the
    shard rejoins.  Returns the hint count, or None after a FAIL line."""
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write('{"op":"hint","shard":"shard-0')  # a gateway killed mid-append
    written = {}
    handle = _start_gateway(fleet, journal)
    try:
        with ServiceClient(handle.host, handle.port) as c:
            fleet.kill("shard-02")
            hinted = 0
            for i in range(N_BLOCKS):  # until a few puts were hinted
                written[("torn", i)] = rng.normal(size=SHAPE)
                c.put(("torn", i), written[("torn", i)])
                hinted = c.health()["hints_pending"]
                if hinted >= 3:
                    break
    finally:
        handle.stop()
    if not hinted:
        print("FAIL: no hint recorded with shard-02 dead", file=sys.stderr)
        return None
    handle = _start_gateway(fleet, journal)
    try:
        with ServiceClient(handle.host, handle.port) as c:
            replayed = c.health()["hints_pending"]
            if replayed != hinted:
                print(f"FAIL: the journal replays {replayed} of the {hinted} "
                      f"hints recorded over its torn tail", file=sys.stderr)
                return None
            fleet.restart("shard-02")
            if not _recovered(c):
                return None
            for key, data in written.items():
                if np.max(np.abs(c.get(key).reshape(SHAPE) - data)) > EB:
                    print(f"FAIL: bound violated for {key} after the drain",
                          file=sys.stderr)
                    return None
    finally:
        handle.stop()
    return hinted


def _smoke(tmp: str) -> int:
    shm_baseline = _dev_shm_segments()
    journal = os.path.join(tmp, "hints.jsonl")
    rng = np.random.default_rng(7)
    blocks = {("blk", i): rng.normal(size=SHAPE) for i in range(N_BLOCKS)}

    fleet = SubprocessFleet(3, tmp, error_bound=EB)
    with fleet:
        handle = _start_gateway(fleet, journal)
        try:
            with ServiceClient(handle.host, handle.port) as c:
                # -- round-trip through the gateway ---------------------------
                for key, data in blocks.items():
                    c.put(key, data)
                for key, data in blocks.items():
                    out = c.get(key).reshape(SHAPE)
                    if np.max(np.abs(out - data)) > EB:
                        print(f"FAIL: bound violated for {key}", file=sys.stderr)
                        return 1

                # -- hard kill: every read must still succeed -----------------
                fleet.kill("shard-01")
                failed = 0
                for key, data in blocks.items():
                    try:
                        out = c.get(key).reshape(SHAPE)
                    except Exception as exc:
                        print(f"FAIL: read {key} failed after kill: {exc}",
                              file=sys.stderr)
                        failed += 1
                        continue
                    if np.max(np.abs(out - data)) > EB:
                        print(f"FAIL: bound violated for {key} after kill",
                              file=sys.stderr)
                        failed += 1
                if failed:
                    return 1

                # -- writes while down leave hints; restart drains them -------
                for i in range(N_BLOCKS, N_BLOCKS + 8):
                    key = ("blk", i)
                    blocks[key] = rng.normal(size=SHAPE)
                    c.put(key, blocks[key])
                hinted = c.health()["hints_pending"]
                fleet.restart("shard-01")
                rewritten = [("blk", i) for i in range(N_BLOCKS, N_BLOCKS + 8)]
                for key in rewritten:
                    blocks[key] = rng.normal(size=SHAPE)
                    c.put(key, blocks[key])
                if not _recovered(c):
                    return 1
                for key, data in blocks.items():
                    out = c.get(key).reshape(SHAPE)
                    if np.max(np.abs(out - data)) > EB:
                        print(f"FAIL: bound violated for {key} after rejoin",
                              file=sys.stderr)
                        return 1
                # -- replicas converge: read each copy from its shard ---------
                ring = handle.endpoint.ring
                addrs = {s.name: (s.host, s.port) for s in fleet.specs}
                for key in rewritten:
                    copies = {}
                    for shard in ring.preference(key, 2):
                        with ServiceClient(*addrs[shard]) as sc:
                            _, copies[shard] = sc.call(
                                "store.get_raw", {"key": list(key)}
                            )
                    if len(set(copies.values())) != 1:
                        print(f"FAIL: replicas {sorted(copies)} of {key} hold "
                              f"different blobs after rejoin", file=sys.stderr)
                        return 1
        finally:
            handle.stop()
        # -- a torn hint journal loses no later hint ----------------------
        torn_hints = _torn_journal_hints(fleet, journal, rng)
        if torn_hints is None:
            return 1

    if shm.active_segments():
        print(f"FAIL: leaked shm segments: {shm.active_segments()}",
              file=sys.stderr)
        return 1
    orphans = sorted(_dev_shm_segments() - shm_baseline)
    if orphans:
        print(f"FAIL: orphaned /dev/shm entries: {orphans}", file=sys.stderr)
        return 1

    print(
        f"OK: 3-shard fleet R=2, {len(blocks)} blocks round-tripped, hard kill "
        f"survived with zero failed reads, {hinted} hints drained on rejoin, "
        f"{len(rewritten)} overwritten keys byte-identical on both replicas, "
        f"{torn_hints} hints recorded over a torn journal tail all replayed "
        f"and drained, zero leaked shm segments"
    )
    return 0


def main() -> int:
    # Opened outside ``with fleet:`` so the shards stop before their
    # directory goes; it goes on a failure too.
    with tempfile.TemporaryDirectory(prefix="pastri-cluster-smoke-") as tmp:
        return _smoke(tmp)


if __name__ == "__main__":
    sys.exit(main())
