"""Live resharding: membership changes while the fleet serves (PR 10).

The contract under test, end to end on a thread-hosted fleet:

* ``add_shard`` boots a new shard, streams its share of keys over as raw
  compressed blobs, and flips the ring — moving about 1/N of the keys
  (the consistent-hashing minimal-remap promise) byte-identically;
* ``remove_shard`` migrates a shard's keys to their new owners before
  the shard stops, losing nothing;
* clients hammering the gateway throughout see **zero** failed reads —
  the migration read path tries the new owner first and falls back to
  the old owner on NOT_FOUND until the flip;
* the migration-aware routing primitives (``_candidates`` new-ring-first
  ordering, ``_put_targets`` old∪new dual-write) hold as unit properties;
  ``test_write_order.py`` pins that a write racing a copy lands last.
"""

import threading

import numpy as np
import pytest

from repro import telemetry
from repro.cluster import GatewayConfig, LocalFleet
from repro.cluster.gateway import ClusterGateway, _Migration

EB = 1e-10
SHAPE = (4, 4, 4, 4)
N_KEYS = 48


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.disable()
    telemetry.reset()


def _block(seed):
    return np.random.default_rng(seed).normal(size=SHAPE)


def _fleet(tmp_path, n=3, replication=1):
    return LocalFleet(
        n, str(tmp_path), replication=replication,
        server_kwargs={"memory_budget_bytes": 4096},
        gateway_kwargs={"health_interval_s": 0.1, "fail_after": 1},
    )


class TestAddShard:
    def test_add_moves_about_one_nth_and_every_key_survives(self, tmp_path):
        blocks = {("blk", i): _block(i) for i in range(N_KEYS)}
        fleet = _fleet(tmp_path, 3, replication=1)
        with fleet:
            with fleet.client() as c:
                for key, data in blocks.items():
                    c.put(key, data)
            summary = fleet.add_shard()
            assert summary["action"] == "add"
            assert summary["shard"] == "shard-03"
            assert sorted(summary["members"]) == [
                "shard-00", "shard-01", "shard-02", "shard-03"
            ]
            assert summary["keys_scanned"] == N_KEYS
            assert summary["copy_failures"] == 0
            assert summary["keys_moved"] == summary["keys_remapped"]
            # the consistent-hash promise: ~1/4 of keys remap, no more
            ideal = N_KEYS / 4
            assert ideal / 2 <= summary["keys_moved"] <= 2 * ideal
            with fleet.client() as c:
                for key, data in blocks.items():
                    out = c.get(key).reshape(SHAPE)
                    assert np.max(np.abs(out - data)) <= EB

    def test_moved_blobs_land_byte_identical(self, tmp_path):
        blocks = {("blk", i): _block(i) for i in range(N_KEYS)}
        fleet = _fleet(tmp_path, 3, replication=1)
        with fleet:
            with fleet.client() as c:
                for key, data in blocks.items():
                    c.put(key, data)
            gw = fleet.gateway.endpoint
            before = {}
            for key in blocks:
                owner = gw.ring.primary(key)
                with fleet.shard_client(owner) as sc:
                    _, blob = sc.call("store.get_raw", {"key": list(key)})
                before[key] = blob
            summary = fleet.add_shard()
            moved = [tuple(k) for k in summary["moved"]]
            assert moved
            for key in moved:
                with fleet.shard_client("shard-03") as sc:
                    _, blob = sc.call("store.get_raw", {"key": list(key)})
                assert blob == before[key]

    def test_reads_never_fail_during_add_and_remove(self, tmp_path):
        blocks = {("blk", i): _block(i) for i in range(24)}
        keys = list(blocks)
        fleet = _fleet(tmp_path, 3, replication=1)
        with fleet:
            with fleet.client() as c:
                for key, data in blocks.items():
                    c.put(key, data)
            stop = threading.Event()
            failures: list = []
            reads = [0]

            def hammer():
                with fleet.client() as c:
                    i = 0
                    while not stop.is_set():
                        key = keys[i % len(keys)]
                        try:
                            out = c.get(key).reshape(SHAPE)
                            if np.max(np.abs(out - blocks[key])) > EB:
                                failures.append(("corrupt", key))
                        except Exception as exc:  # noqa: BLE001
                            failures.append((key, exc))
                        reads[0] += 1
                        i += 1

            t = threading.Thread(target=hammer)
            t.start()
            try:
                fleet.add_shard()
                fleet.remove_shard("shard-00")
            finally:
                stop.set()
                t.join(30)
            assert not failures
            assert reads[0] > 0
            with fleet.client() as c:
                for key, data in blocks.items():
                    out = c.get(key).reshape(SHAPE)
                    assert np.max(np.abs(out - data)) <= EB


class TestRemoveShard:
    def test_remove_migrates_everything_off_the_leaver(self, tmp_path):
        blocks = {("blk", i): _block(i) for i in range(N_KEYS)}
        fleet = _fleet(tmp_path, 3, replication=1)
        with fleet:
            with fleet.client() as c:
                for key, data in blocks.items():
                    c.put(key, data)
            summary = fleet.remove_shard("shard-01")
            assert summary["action"] == "remove"
            assert "shard-01" not in summary["members"]
            assert summary["copy_failures"] == 0
            gw = fleet.gateway.endpoint
            assert "shard-01" not in gw.ring
            assert "shard-01" not in gw._addrs
            with fleet.client() as c:
                for key, data in blocks.items():
                    out = c.get(key).reshape(SHAPE)
                    assert np.max(np.abs(out - data)) <= EB

    def test_status_reports_idle_between_migrations(self, tmp_path):
        fleet = _fleet(tmp_path, 2, replication=1)
        with fleet:
            with fleet.client() as c:
                status = c.reshard_status()
            assert status == {
                "active": False, "members": ["shard-00", "shard-01"]
            }


class TestMigrationRouting:
    """Unit properties of the migration-aware routing primitives."""

    def _gateway(self):
        config = GatewayConfig(
            shards=[("a", "127.0.0.1", 1), ("b", "127.0.0.1", 2)],
            replication=1, spares=1,
        )
        return ClusterGateway(config)

    def _remapped_key(self, gw, new_ring):
        for i in range(10_000):
            key = ["blk", i]
            if new_ring.primary(key) == "c" and gw.ring.primary(key) != "c":
                return key
        raise AssertionError("no key remapped to the new shard")

    def test_candidates_try_new_owner_then_fall_back_to_old(self):
        gw = self._gateway()
        new_ring = gw.ring.copy()
        new_ring.add("c")
        gw._migration = _Migration(gw.ring, new_ring, "c", None, {})
        key = self._remapped_key(gw, new_ring)
        cands = gw._candidates(key)
        assert cands[0] == "c"
        assert gw.ring.primary(key) in cands  # the fallback source
        assert len(cands) == len(set(cands))

    def test_put_targets_dual_write_old_and_new_owners(self):
        gw = self._gateway()
        new_ring = gw.ring.copy()
        new_ring.add("c")
        gw._migration = _Migration(gw.ring, new_ring, "c", None, {})
        key = self._remapped_key(gw, new_ring)
        preferred, _spares = gw._put_targets(key)
        assert "c" in preferred
        assert gw.ring.primary(key) in preferred

