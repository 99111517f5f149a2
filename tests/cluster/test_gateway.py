"""Gateway tests: routing, replication, failover, spreading, zero-copy.

Every test boots a real :class:`~repro.cluster.fleet.LocalFleet` — N
thread-hosted shard servers plus a thread-hosted gateway — and talks
PSRV through real sockets.  Nothing is mocked, so these pin the PR 8
acceptance criteria directly:

* a ``store.put`` lands on exactly the ring's R preferred shards (each
  verified by asking the shard *directly*, bypassing the gateway);
* reads fail over past a dead replica with zero client-visible errors;
* stateless ``compress``/``decompress`` spread over live shards;
* the gateway forward path copies **zero** payload bytes
  (``service.buffers.bytes_copied`` delta stays 0 — same telemetry
  discipline as the PR 7 data plane);
* ``cluster.stats`` aggregates fleet health and per-shard stores;
* ``stop()`` hangs up on connected clients before its loop closes.
"""

import asyncio
import socket

import numpy as np
import pytest

from repro import telemetry
from repro.cluster import LocalFleet
from repro.errors import RemoteError
from repro.service import protocol

EB = 1e-10
SHAPE = (4, 4, 4, 4)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.disable()
    telemetry.reset()


@pytest.fixture
def fleet(tmp_path):
    fl = LocalFleet(
        3, str(tmp_path), replication=2,
        server_kwargs={"memory_budget_bytes": 4096},
        gateway_kwargs={"health_interval_s": 0.2, "fail_after": 1},
    )
    with fl:
        yield fl


def _block(seed):
    return np.random.default_rng(seed).normal(size=SHAPE)


def _fill(client, n, base=0):
    blocks = {}
    for i in range(base, base + n):
        key = ("blk", i)
        blocks[key] = _block(i)
        client.put(key, blocks[key])
    return blocks


class TestRouting:
    def test_round_trip_through_gateway(self, fleet):
        with fleet.client() as c:
            blocks = _fill(c, 10)
            for key, data in blocks.items():
                out = c.get(key).reshape(SHAPE)
                assert np.max(np.abs(out - data)) <= EB

    def test_put_lands_on_the_preference_list(self, fleet):
        ring = fleet.gateway.gateway.ring
        with fleet.client() as c:
            blocks = _fill(c, 8)
        for key in blocks:
            preferred = ring.preference(key, 2)
            for name in (s.name for s in fleet.specs):
                with fleet.shard_client(name) as sc:
                    if name in preferred:
                        sc.get(key)  # must be there
                    else:
                        with pytest.raises(KeyError):
                            sc.get(key)

    def test_replicas_hold_identical_bytes(self, fleet):
        ring = fleet.gateway.gateway.ring
        with fleet.client() as c:
            c.put(("blk", 0), _block(0))
        a, b = ring.preference(("blk", 0), 2)
        with fleet.shard_client(a) as ca, fleet.shard_client(b) as cb:
            _, blob_a = ca.call("store.get_raw", {"key": ("blk", 0)})
            _, blob_b = cb.call("store.get_raw", {"key": ("blk", 0)})
        assert blob_a == blob_b and len(blob_a) > 0

    def test_unknown_key_is_not_found(self, fleet):
        with fleet.client() as c:
            with pytest.raises(KeyError):
                c.get(("nope", 1))

    def test_unknown_op_is_bad_request(self, fleet):
        with fleet.client() as c:
            with pytest.raises((RemoteError, ValueError)):
                c.call("store.evaporate", {})


class TestFailover:
    def test_reads_survive_primary_death(self, fleet):
        with fleet.client() as c:
            blocks = _fill(c, 12)
            fleet.kill("shard-01")
            for key, data in blocks.items():
                out = c.get(key).reshape(SHAPE)
                assert np.max(np.abs(out - data)) <= EB
            m = c.metrics()
            down = m.get("cluster.shard_down", {}).get("value", 0)
            assert down >= 1

    def test_writes_survive_shard_death(self, fleet):
        with fleet.client() as c:
            _fill(c, 4)
            fleet.kill("shard-02")
            blocks = _fill(c, 8, base=100)
            for key, data in blocks.items():
                out = c.get(key).reshape(SHAPE)
                assert np.max(np.abs(out - data)) <= EB

    def test_compress_spreads_and_fails_over(self, fleet):
        data = _block(5).ravel()
        with fleet.client() as c:
            blobs = [c.compress(data, EB, dims=SHAPE)[0] for _ in range(6)]
            fleet.kill("shard-00")
            for blob in blobs:
                out = c.decompress(blob)
                assert np.max(np.abs(out - data)) <= EB


class TestZeroCopy:
    def test_forward_path_copies_no_payload_bytes(self, fleet):
        def copied():
            snap = telemetry.metrics_snapshot()
            return snap.get("service.buffers.bytes_copied", {}).get("value", 0)

        with fleet.client() as c:
            c.put(("warm", 0), _block(0))  # settle pools/telemetry
            before = copied()
            blocks = _fill(c, 10, base=10)
            for key in blocks:
                c.get(key)
            snap = telemetry.metrics_snapshot()
            borrowed = snap.get("service.buffers.bytes_borrowed", {}).get("value", 0)
        assert copied() == before  # zero payload bytes materialized
        assert borrowed > 0


class TestStats:
    def test_cluster_stats_shape(self, fleet):
        with fleet.client() as c:
            _fill(c, 6)
            stats = c.cluster_stats()
        fleet_info = stats["fleet"]
        assert fleet_info["n_shards"] == 3
        assert fleet_info["replication"] == 2
        assert sorted(stats["shards"]) == [s.name for s in fleet.specs]
        for shard in stats["shards"].values():
            assert shard["up"] is True
            assert shard["health"].get("status") == "ok"
        assert any(k.startswith("cluster.") for k in stats["gateway_metrics"])

    def test_store_stats_aggregates_over_shards(self, fleet):
        with fleet.client() as c:
            _fill(c, 9)
            agg = c.stats()
        assert agg["shards_reporting"] == 3
        # R=2: every block stored twice across the fleet
        assert agg.get("n_entries", 0) == 18
        assert agg.get("puts", 0) == 18

    def test_gateway_health_reports_fleet(self, fleet):
        with fleet.client() as c:
            h = c.health()
        assert h["role"] == "gateway"
        assert sorted(h["shards_up"]) == [s.name for s in fleet.specs]
        assert h["shards_down"] == []
        assert h["hints_pending"] == 0


class TestLifecycle:
    def test_stop_hangs_up_on_connected_clients(self, fleet):
        """A client connected across ``stop()`` sees EOF at once, and the
        gateway's loop closes with no connection handler still pending."""
        handle = fleet.gateway
        with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
            fh = sock.makefile("rb")
            sock.sendall(protocol.encode_request("health", 1))
            header, _ = protocol.read_frame(fh)
            assert header["ok"]
            handle.stop()
            assert fh.read(1) == b""  # EOF, not the 5 s socket timeout
        assert not asyncio.all_tasks(handle._loop)
