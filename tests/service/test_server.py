"""End-to-end server tests: round-trips, batching, backpressure, drain.

Each test boots a real asyncio server on an ephemeral port (via
``serve_in_thread``) and talks to it with the real clients — nothing is
mocked, so these cover the acceptance criteria directly: bound-verified
round-trips, 16 concurrent clients without deadlock, BUSY (not hangs)
under saturation with backoff eventually succeeding, and non-empty
``service.*`` counters from the ``metrics`` op.
"""

import asyncio
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import telemetry
from repro.core import PaSTRICompressor
from repro.errors import (
    DeadlineExceeded,
    ParameterError,
    ServerBusyError,
)
from repro.service import RetryPolicy, ServerConfig, ServiceClient, serve_in_thread
from repro.service import server as server_mod
from repro.service.client import AsyncServiceClient
from tests.conftest import make_patterned_stream

EB = 1e-10
DIMS = (2, 2, 3, 3)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Servers enable the global registry; leave no state for other tests."""
    yield
    telemetry.disable()
    telemetry.reset()


def _data(seed=0, n_blocks=6):
    return make_patterned_stream(np.random.default_rng(seed), n_blocks=n_blocks, dims=DIMS)


def _config(**overrides):
    kwargs = dict(codec_kwargs={"dims": list(DIMS)}, error_bound=EB)
    kwargs.update(overrides)
    return ServerConfig(**kwargs)


class SlowCodec:
    """A codec that sleeps: lets tests hold the batch dispatcher busy."""

    name = "slow-test"

    def __init__(self, delay_s: float = 0.25) -> None:
        self.delay_s = delay_s

    def compress(self, data, error_bound):
        time.sleep(self.delay_s)
        return np.ascontiguousarray(data, dtype="<f8").tobytes()

    def decompress(self, blob):
        return np.frombuffer(blob, dtype="<f8").copy()


class TestRoundTrip:
    def test_compress_decompress_bound_verified(self):
        data = _data()
        with serve_in_thread(_config()) as h:
            with ServiceClient(h.host, h.port) as c:
                blob, info = c.compress(data, EB, dims=DIMS)
                assert info["n"] == data.size
                assert info["compressed_bytes"] == len(blob) > 0
                back = c.decompress(blob)
        assert back.shape == data.shape
        assert np.max(np.abs(back - data)) <= EB

    def test_remote_blob_matches_local_codec(self):
        data = _data(3)
        with serve_in_thread(_config()) as h:
            with ServiceClient(h.host, h.port) as c:
                blob, _ = c.compress(data, EB, dims=DIMS)
        local = PaSTRICompressor(dims=DIMS).compress(data, EB)
        assert blob == local

    def test_store_put_get_stats(self):
        data = _data(1)
        block = data[: 36]
        with serve_in_thread(_config()) as h:
            with ServiceClient(h.host, h.port) as c:
                info = c.put((0, 1, 2, 3), block, dims=DIMS)
                assert info["stored"] is True
                got = c.get((0, 1, 2, 3))
                assert np.max(np.abs(got - block)) <= EB
                stats = c.stats()
                assert stats["puts"] == 1 and stats["gets"] == 1
                assert stats["n_entries"] == 1
                assert stats["error_bound"] == EB
                with pytest.raises(KeyError):
                    c.get((9, 9, 9, 9))

    def test_spill_backed_store(self, tmp_path):
        spill = str(tmp_path / "spill.pstf")
        cfg = _config(spill_path=spill, memory_budget_bytes=64, hot_cache_blocks=0)
        with serve_in_thread(cfg) as h:
            with ServiceClient(h.host, h.port) as c:
                blocks = {i: _data(i)[:36] for i in range(12)}
                for i, b in blocks.items():
                    c.put(i, b, dims=DIMS)
                for i, b in blocks.items():
                    assert np.max(np.abs(c.get(i) - b)) <= EB
                assert c.stats()["spills"] > 0

    def test_health_and_metrics_nonempty(self):
        with serve_in_thread(_config()) as h:
            with ServiceClient(h.host, h.port) as c:
                health = c.health()
                assert health["status"] == "ok"
                assert health["codec"]["name"] == "pastri"
                c.compress(_data(), EB, dims=DIMS)
                metrics = c.metrics()
        service_keys = [k for k in metrics if k.startswith("service.")]
        assert "service.requests" in metrics
        assert metrics["service.requests"]["value"] >= 2
        assert metrics["service.requests.compress"]["value"] == 1
        assert len(service_keys) >= 4

    def test_bad_requests_are_typed(self):
        with serve_in_thread(_config()) as h:
            with ServiceClient(h.host, h.port) as c:
                with pytest.raises(ParameterError):
                    c.compress(_data(), eb=-1.0)  # invalid bound
                with pytest.raises(ParameterError):
                    c._roundtrip("no.such.op")
                with pytest.raises(ParameterError):
                    c._roundtrip("store.put", {"n": 0})  # missing key
                # the connection survives structured errors
                assert c.health()["status"] == "ok"


class TestConcurrency:
    def test_16_concurrent_clients_complete(self):
        datasets = [_data(seed) for seed in range(16)]
        cfg = _config(batch_window_ms=5.0)
        with serve_in_thread(cfg) as h:
            def job(i):
                with ServiceClient(h.host, h.port) as c:
                    blob, _ = c.compress(datasets[i], EB, dims=DIMS)
                    back = c.decompress(blob)
                    return float(np.max(np.abs(back - datasets[i])))
            with ThreadPoolExecutor(16) as ex:
                errors = list(ex.map(job, range(16)))
            with ServiceClient(h.host, h.port) as c:
                batched = c.metrics()["service.batch.requests"]["value"]
        assert len(errors) == 16
        assert max(errors) <= EB
        assert batched == 16  # every compress went through the dispatcher

    def test_microbatching_coalesces(self):
        cfg = _config(batch_window_ms=25.0, batch_max=8)
        datasets = [_data(seed, n_blocks=2) for seed in range(8)]
        with serve_in_thread(cfg) as h:
            def job(i):
                with ServiceClient(h.host, h.port) as c:
                    c.compress(datasets[i], EB, dims=DIMS)
            with ThreadPoolExecutor(8) as ex:
                list(ex.map(job, range(8)))
            with ServiceClient(h.host, h.port) as c:
                m = c.metrics()
        assert m["service.batch.requests"]["value"] == 8
        # 8 near-simultaneous requests inside a 25 ms window cannot need 8
        # separate dispatches; coalescing must have happened.
        assert m["service.batches"]["value"] < 8

    def test_worker_pool_roundtrip(self):
        data = _data(7)
        cfg = _config(n_workers=2, batch_window_ms=10.0)
        with serve_in_thread(cfg) as h:
            def job(i):
                with ServiceClient(h.host, h.port) as c:
                    blob, _ = c.compress(datasets[i], EB, dims=DIMS)
                    return np.max(np.abs(c.decompress(blob) - datasets[i]))
            datasets = [data * (1 + 0.01 * i) for i in range(6)]
            with ThreadPoolExecutor(6) as ex:
                errs = list(ex.map(job, range(6)))
        assert max(errs) <= EB * 1.01  # scaled data, same absolute bound


class TestBackpressure:
    def test_saturation_yields_busy_not_hangs(self):
        cfg = ServerConfig(
            codec=SlowCodec(0.4),
            max_inflight_bytes=2_000,  # fits one ~1.7kB payload, not two
            batch_max=1,
        )
        data = np.arange(200, dtype=np.float64)
        no_retry = RetryPolicy(max_retries=0)
        with serve_in_thread(cfg) as h:
            busy = []

            def hammer():
                try:
                    with ServiceClient(h.host, h.port, retry=no_retry) as c:
                        c.compress(data, EB)
                except ServerBusyError as exc:
                    busy.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            t0 = time.monotonic()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert time.monotonic() - t0 < 30  # refused, not buffered
            assert busy, "saturating the server must produce BUSY replies"
            assert all(e.retry_after_s > 0 for e in busy)

    def test_backoff_eventually_succeeds(self):
        cfg = ServerConfig(
            codec=SlowCodec(0.2),
            max_inflight_bytes=2_000,
            batch_max=1,
        )
        data = np.arange(200, dtype=np.float64)
        # generous retry budget: 4 clients serialize ~0.8s of slow-codec work
        # behind a one-slot gate, and full jitter can draw near-zero delays,
        # so a tight budget makes this probabilistic — 16 retries is not
        retry = RetryPolicy(max_retries=16, backoff_base_s=0.05, backoff_cap_s=0.4)
        with serve_in_thread(cfg) as h:
            def job(_):
                with ServiceClient(h.host, h.port, retry=retry) as c:
                    blob, info = c.compress(data, EB)
                    return info["n"]
            with ThreadPoolExecutor(4) as ex:
                results = list(ex.map(job, range(4)))
        assert results == [200] * 4  # everyone got through after backing off

    def test_queue_wait_past_deadline_is_dropped(self):
        cfg = ServerConfig(
            codec=SlowCodec(0.5),
            batch_max=1,
            request_deadline_ms=100.0,
            batch_window_ms=0.0,
        )
        data = np.arange(64, dtype=np.float64)
        no_retry = RetryPolicy(max_retries=0)
        with serve_in_thread(cfg) as h:
            outcomes = []

            def job(i):
                time.sleep(0.03 * i)  # ensure ordering: first fills the batch
                try:
                    with ServiceClient(h.host, h.port, retry=no_retry) as c:
                        c.compress(data, EB)
                        outcomes.append("ok")
                except DeadlineExceeded:
                    outcomes.append("deadline")

            threads = [threading.Thread(target=job, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert outcomes.count("ok") >= 1
        assert "deadline" in outcomes


class TestDrain:
    def test_graceful_drain_finishes_admitted_work(self):
        cfg = _config()
        h = serve_in_thread(cfg)
        data = _data(5)
        with ServiceClient(h.host, h.port) as c:
            blob, _ = c.compress(data, EB, dims=DIMS)
        h.stop()
        assert np.max(np.abs(PaSTRICompressor(dims=DIMS).decompress(blob) - data)) <= EB

    def test_drain_refuses_new_requests(self):
        cfg = ServerConfig(codec=SlowCodec(0.01))
        h = serve_in_thread(cfg)
        try:
            h.stop()
            with pytest.raises((ServerBusyError, ConnectionError, OSError)):
                with ServiceClient(h.host, h.port, retry=RetryPolicy(max_retries=0)) as c:
                    c.health()
        finally:
            h.stop()

    def test_spill_store_finalized_on_drain(self, tmp_path):
        spill = str(tmp_path / "drain.pstf")
        cfg = _config(spill_path=spill, memory_budget_bytes=512, hot_cache_blocks=0)
        h = serve_in_thread(cfg)
        with ServiceClient(h.host, h.port) as c:
            for i in range(6):
                c.put(i, _data(i)[:36], dims=DIMS)
        h.stop()
        # the drained server closed its store; the spill file is a valid container
        from repro.streamio import open_container

        with open_container(spill) as r:
            assert len(r) > 0


    def test_hang_up_resets_a_peer_that_never_reads(self, monkeypatch):
        """A connection whose peer leaves its last bytes unread cannot finish
        closing; ``hang_up`` resets it after the grace period, so a stop
        that hangs up cannot be held up by such a peer."""
        monkeypatch.setattr(server_mod, "HANGUP_GRACE_S", 0.2)

        async def scenario():
            conns, buffered = {}, []

            async def handler(reader, writer):
                conns[writer] = asyncio.current_task()
                try:
                    writer.write(bytes(16 << 20))  # more than the kernel takes
                    buffered.append(writer.transport.get_write_buffer_size())
                    while await reader.read(1 << 16):
                        pass
                finally:  # the server's handler epilogue
                    conns.pop(writer, None)
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass

            srv = await asyncio.start_server(handler, "127.0.0.1", 0)
            with socket.socket() as peer:
                peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                peer.setblocking(False)
                try:
                    peer.connect(srv.sockets[0].getsockname())
                except BlockingIOError:
                    pass
                while not buffered:
                    await asyncio.sleep(0.01)
                handler_task = next(iter(conns.values()))
                t0 = time.monotonic()
                srv.close()
                await asyncio.wait_for(server_mod.hang_up(conns), 10)
                await asyncio.wait_for(srv.wait_closed(), 10)
                return buffered[0], handler_task.done(), time.monotonic() - t0, conns

        unsent, handler_done, elapsed, conns = asyncio.run(scenario())
        assert unsent > 0  # the close really had bytes to flush
        assert handler_done and not conns
        assert elapsed < 5.0


class TestAsyncClient:
    def test_async_roundtrip_and_concurrency(self):
        import asyncio

        data = _data(11)
        with serve_in_thread(_config(batch_window_ms=5.0)) as h:
            async def one(i):
                async with AsyncServiceClient(h.host, h.port) as c:
                    blob, _ = await c.compress(data, EB, dims=DIMS)
                    back = await c.decompress(blob)
                    return float(np.max(np.abs(back - data)))

            async def main():
                return await asyncio.gather(*(one(i) for i in range(8)))

            errors = asyncio.run(main())
        assert max(errors) <= EB

    def test_async_store_and_metrics(self):
        import asyncio

        data = _data(13)[:36]
        with serve_in_thread(_config()) as h:
            async def main():
                async with AsyncServiceClient(h.host, h.port) as c:
                    await c.put("block", data, dims=DIMS)
                    got = await c.get("block")
                    stats = await c.stats()
                    metrics = await c.metrics()
                    health = await c.health()
                    return got, stats, metrics, health

            got, stats, metrics, health = asyncio.run(main())
        assert np.max(np.abs(got - data)) <= EB
        assert stats["n_entries"] == 1
        # put + get + stats counted; the metrics request itself is recorded
        # only after its reply is written, so it is not in its own snapshot.
        assert metrics["service.requests"]["value"] >= 3
        assert health["status"] == "ok"
