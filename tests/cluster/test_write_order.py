"""One write order per key: no transfer puts older bytes over a newer put.

The gateway moves blobs between shards along one path, used by the hint
drain and the reshard copy, and runs every put fan-out and every transfer
of a key under that key's lock.  A put that lands on a shard supersedes
any transfer of the key still owed to that shard.  Each test forces one
race by holding one step: it wraps the live gateway's ``_call`` or
``_drain_hints``, then reads every replica directly and through the
gateway.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.cluster import LocalFleet

EB = 1e-10
SHAPE = (4, 4, 4, 4)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.disable()
    telemetry.reset()


def _fleet(tmp_path, replication=2):
    return LocalFleet(
        3, str(tmp_path), replication=replication,
        server_kwargs={"memory_budget_bytes": 4096},
        gateway_kwargs={"health_interval_s": 0.1, "fail_after": 1},
    )


def _block(seed):
    return np.random.default_rng(seed).normal(size=SHAPE)


def _wait(predicate, timeout_s=15.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _key_owned_by(gw, shard):
    return next(["blk", i] for i in range(10_000) if gw.ring.primary(["blk", i]) == shard)


def _hold_call(gw, op, hold_s, shard=None):
    """Delay the gateway's first ``op`` call (to ``shard``, if given) by
    ``hold_s``.  Returns an event set when the hold starts and a list that
    receives that call's params."""
    held, seen = threading.Event(), []
    call = gw._call

    async def holding_call(target, what, params=None, *args, **kwargs):
        if what == op and shard in (None, target) and not held.is_set():
            seen.append(params)
            held.set()
            await asyncio.sleep(hold_s)
        return await call(target, what, params, *args, **kwargs)

    gw._call = holding_call
    return held, seen


def _assert_holds(fleet, shard, key, data):
    with fleet.shard_client(shard) as sc:
        out = sc.get(key).reshape(SHAPE)
    assert np.max(np.abs(out - data)) <= EB, f"{shard} holds another write"


def _assert_gateway_reads(fleet, key, data):
    with fleet.client() as c:
        out = c.get(key).reshape(SHAPE)
    assert np.max(np.abs(out - data)) <= EB, "the gateway reads another write"


class TestHintDrainOrder:
    """Kill a key's owner, write v1 (hinted to a spare), restart the owner
    and write v2 to it directly: the drain must not put v1 back over v2."""

    def test_put_after_rejoin_supersedes_the_hint(self, tmp_path):
        v1, v2 = _block(1), _block(2)
        with _fleet(tmp_path) as fleet:
            gw = fleet.gateway.endpoint
            key = _key_owned_by(gw, "shard-01")
            owner, peer = gw.ring.preference(key, 2)
            release, drain = threading.Event(), gw._drain_hints

            async def held_drain(shard):
                while not release.is_set():
                    await asyncio.sleep(0.01)
                await drain(shard)

            gw._drain_hints = held_drain
            with fleet.client() as c:
                fleet.kill(owner)
                c.put(key, v1)
                assert gw.hints.counts() == {owner: 1}
                fleet.restart(owner)
                assert _wait(lambda: owner not in c.health()["shards_down"])
                c.put(key, v2)
                release.set()
                assert _wait(lambda: not gw._drain_active and not gw.hints.counts())
                superseded = c.metrics().get("cluster.hints.superseded", {})
            _assert_holds(fleet, owner, key, v2)
            _assert_holds(fleet, peer, key, v2)
            _assert_gateway_reads(fleet, key, v2)
            assert superseded.get("value") == 1

    def test_put_waits_for_the_drain_in_flight(self, tmp_path):
        v1, v2 = _block(1), _block(2)
        with _fleet(tmp_path) as fleet:
            gw = fleet.gateway.endpoint
            key = _key_owned_by(gw, "shard-01")
            owner, peer = gw.ring.preference(key, 2)
            held, _ = _hold_call(gw, "store.put_raw", 1.0)
            with fleet.client() as c:
                fleet.kill(owner)
                c.put(key, v1)
                fleet.restart(owner)
                assert held.wait(15), "the drain never put the hinted block"
                c.put(key, v2)
                assert _wait(lambda: not gw._drain_active)
            _assert_holds(fleet, owner, key, v2)
            _assert_holds(fleet, peer, key, v2)
            _assert_gateway_reads(fleet, key, v2)


    def test_a_refused_put_raw_fails_one_key_not_the_drain(self, tmp_path):
        """A target that refuses a transfer is a failed target: the drain
        counts it and goes on, and a later drain delivers the key."""
        with _fleet(tmp_path) as fleet:
            gw = fleet.gateway.endpoint
            keys = [k for k in (["blk", i] for i in range(200))
                    if gw.ring.primary(k) == "shard-01"][:2]
            refused, call = [], gw._call

            async def refusing_call(target, op, params=None, *args, **kwargs):
                if op == "store.put_raw" and not refused:
                    refused.append(params["key"])
                    return {"ok": False, "error": {"code": "BAD_REQUEST"}}, b""
                return await call(target, op, params, *args, **kwargs)

            gw._call = refusing_call
            with fleet.client() as c:
                fleet.kill("shard-01")
                for i, key in enumerate(keys):
                    c.put(key, _block(i))
                fleet.restart("shard-01")
                assert _wait(lambda: not c.health()["shards_down"] and not gw.hints.counts())
                failures = c.metrics().get("cluster.hints.drain_failures", {})
            assert refused and failures.get("value") == 1
            for i, key in enumerate(keys):
                _assert_holds(fleet, "shard-01", key, _block(i))


class TestConcurrentPuts:
    def test_replicas_agree_after_two_racing_puts(self, tmp_path):
        a, b = _block(1), _block(2)
        key = ["blk", 0]
        with _fleet(tmp_path) as fleet:
            gw = fleet.gateway.endpoint
            first, second = gw.ring.preference(key, 2)
            held, _ = _hold_call(gw, "store.put", 0.5, shard=second)
            done = []

            def put_a():
                with fleet.client() as c:
                    done.append(c.put(key, a))

            writer = threading.Thread(target=put_a)
            writer.start()
            try:
                assert held.wait(15), "put A never reached the second replica"
                with fleet.client() as c:
                    c.put(key, b)
            finally:
                writer.join(15)
            assert not writer.is_alive() and done
            _assert_holds(fleet, first, key, b)
            _assert_holds(fleet, second, key, b)

    def test_many_writers_leave_identical_replicas_and_no_locks(self, tmp_path):
        keys = [["blk", i] for i in range(12)]
        with _fleet(tmp_path) as fleet:
            gw = fleet.gateway.endpoint
            done = []

            def writer(seed):
                with fleet.client() as c:
                    for round_ in range(3):
                        for i, key in enumerate(keys):
                            c.put(key, _block(1000 * seed + 100 * round_ + i))
                done.append(seed)

            threads = [threading.Thread(target=writer, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads) and len(done) == 4
            differ = []
            for key in keys:
                blobs = set()
                for shard in gw.ring.preference(key, 2):
                    with fleet.shard_client(shard) as sc:
                        blobs.add(sc.call("store.get_raw", {"key": key})[1])
                if len(blobs) != 1:
                    differ.append(key)
            assert not differ, f"replicas differ for {differ}"
            assert gw._key_locks == {}  # no lock outlives its last user


class TestReshardCopyOrder:
    def test_write_during_a_held_copy_reaches_the_new_owner(self, tmp_path):
        """A write made while the reshard copies its key lands last, on the
        new owner too (the copy cannot put the older blob over it)."""
        fresh = _block(99)
        with _fleet(tmp_path, replication=1) as fleet:
            with fleet.client() as c:
                for i in range(24):
                    c.put(("blk", i), _block(i))
            held, seen = _hold_call(fleet.gateway.endpoint, "store.put_raw", 1.0)
            summary = {}
            adder = threading.Thread(target=lambda: summary.update(fleet.add_shard()))
            adder.start()
            try:
                assert held.wait(30), "the reshard copied nothing"
                key = seen[0]["key"]
                with fleet.client() as c:
                    c.put(key, fresh)
            finally:
                adder.join(60)
            assert not adder.is_alive() and summary["shard"] == "shard-03"
            _assert_holds(fleet, "shard-03", key, fresh)
            _assert_gateway_reads(fleet, key, fresh)
