"""Client-side behavior: retry policy math, reconnects, error surfacing."""

import asyncio
import socket
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.errors import (
    DeadlineExceeded,
    ParameterError,
    ProtocolError,
    RemoteError,
    ServerBusyError,
)
from repro.service import (
    RetryPolicy,
    ServerConfig,
    ServiceClient,
    protocol,
    serve_in_thread,
)
from repro.service.client import AsyncServiceClient, _is_retryable

EB = 1e-10


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.disable()
    telemetry.reset()


class TestRetryPolicy:
    def test_delay_bounded_by_cap(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.5)
        for attempt in range(12):
            assert 0.0 <= policy.delay(attempt) <= 0.5

    def test_delay_window_grows_with_attempt(self):
        policy = RetryPolicy(backoff_base_s=0.01, backoff_cap_s=100.0)
        # full jitter: uniform over [0, base * 2^attempt]; the max over many
        # samples approaches the window top, so late attempts dominate.
        early = max(policy.delay(0) for _ in range(200))
        late = max(policy.delay(8) for _ in range(200))
        assert early <= 0.01
        assert late > 0.1

    def test_delay_respects_server_hint(self):
        policy = RetryPolicy(backoff_base_s=0.001, backoff_cap_s=0.001)
        assert policy.delay(0, hint_s=0.9) >= 0.9

    def test_retryable_classification(self):
        assert _is_retryable(ServerBusyError("full"))
        assert _is_retryable(DeadlineExceeded("late"))
        assert _is_retryable(ConnectionResetError("gone"))
        assert _is_retryable(socket.timeout("slow"))
        assert _is_retryable(OSError("broken"))
        assert not _is_retryable(ProtocolError("garbage"))
        assert not _is_retryable(RemoteError("boom"))
        assert not _is_retryable(ParameterError("bad eb"))
        assert not _is_retryable(ValueError("unrelated"))


class _FlakyServer:
    """Raw socket server that rejects with BUSY ``n_failures`` times, then serves."""

    def __init__(self, n_failures: int) -> None:
        self.n_failures = n_failures
        self.seen = 0
        self._srv = socket.create_server(("127.0.0.1", 0))
        self.port = self._srv.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            try:
                conn, _ = self._srv.accept()
            except OSError:
                return
            with conn:
                fh = conn.makefile("rwb")
                while True:
                    try:
                        frame = protocol.read_frame(fh)
                    except (ProtocolError, OSError):
                        break
                    if frame is None:
                        break
                    header, _ = frame
                    self.seen += 1
                    if self.seen <= self.n_failures:
                        reply = protocol.encode_error(
                            header.get("id"), "BUSY", "warming up",
                            retry_after_s=0.01,
                        )
                    else:
                        reply = protocol.encode_response(
                            header.get("id"), {"status": "ok"}
                        )
                    fh.write(reply)
                    fh.flush()

    def close(self) -> None:
        self._srv.close()


class TestRetryBehavior:
    def test_busy_retries_until_success(self):
        srv = _FlakyServer(n_failures=3)
        try:
            policy = RetryPolicy(max_retries=5, backoff_base_s=0.005, backoff_cap_s=0.02)
            with ServiceClient("127.0.0.1", srv.port, retry=policy) as c:
                assert c.health()["status"] == "ok"
            assert srv.seen == 4  # 3 BUSY + 1 success
        finally:
            srv.close()

    def test_busy_exhausts_retries(self):
        srv = _FlakyServer(n_failures=100)
        try:
            policy = RetryPolicy(max_retries=2, backoff_base_s=0.001, backoff_cap_s=0.002)
            with ServiceClient("127.0.0.1", srv.port, retry=policy) as c:
                with pytest.raises(ServerBusyError):
                    c.health()
            assert srv.seen == 3  # initial try + 2 retries
        finally:
            srv.close()

    def test_connection_refused_retries_then_raises(self):
        # grab a port that is guaranteed closed
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.001, backoff_cap_s=0.002)
        with ServiceClient("127.0.0.1", port, timeout=0.5, retry=policy) as c:
            with pytest.raises(OSError):
                c.health()

    def test_client_reconnects_after_server_restart(self):
        cfg = ServerConfig(codec_kwargs={"dims": [1, 1, 2, 2]}, error_bound=EB)
        h1 = serve_in_thread(cfg)
        policy = RetryPolicy(max_retries=4, backoff_base_s=0.01, backoff_cap_s=0.05)
        c = ServiceClient(h1.host, h1.port, retry=policy)
        try:
            assert c.health()["status"] == "ok"
            h1.stop()
            # restart on the same port; the stale connection dies and the
            # client transparently reconnects under the retry loop
            cfg2 = ServerConfig(
                port=h1.port, codec_kwargs={"dims": [1, 1, 2, 2]}, error_bound=EB
            )
            h2 = serve_in_thread(cfg2)
            try:
                data = np.linspace(0.0, 1.0, 16)
                blob, info = c.compress(data, EB)
                assert info["n"] == 16
                np.testing.assert_allclose(c.decompress(blob), data, atol=EB)
            finally:
                h2.stop()
        finally:
            c.close()
            h1.stop()

    def test_non_retryable_error_surfaces_immediately(self):
        srv = _FlakyServer(n_failures=0)
        try:
            with ServiceClient("127.0.0.1", srv.port) as c:
                c.health()
                first = srv.seen
                with pytest.raises(ParameterError):
                    # server replies ok to everything; force a client-side
                    # BAD_REQUEST by mapping an error reply instead
                    protocol.raise_for_error(
                        {"ok": False, "error": {"code": "BAD_REQUEST", "message": "x"}}
                    )
                assert srv.seen == first  # no retry traffic for typed failures
        finally:
            srv.close()

    def test_response_id_mismatch_is_protocol_error(self):
        srv = socket.create_server(("127.0.0.1", 0))
        port = srv.getsockname()[1]

        def answer_wrong_id():
            conn, _ = srv.accept()
            with conn:
                fh = conn.makefile("rwb")
                frame = protocol.read_frame(fh)
                assert frame is not None
                fh.write(protocol.encode_response(9999, {"status": "ok"}))
                fh.flush()

        t = threading.Thread(target=answer_wrong_id, daemon=True)
        t.start()
        try:
            with ServiceClient("127.0.0.1", port) as c:
                with pytest.raises(ProtocolError, match="id"):
                    c.health()
        finally:
            srv.close()
            t.join(timeout=5)


class TestFramingErrors:
    """A reply above the client's payload cap is a framing error.  The rest
    of that reply is never read, so the client must drop the connection
    rather than parse the leftover bytes as the next reply."""

    @pytest.fixture
    def server_with_a_128k_block(self):
        cfg = ServerConfig(codec_kwargs={"dims": [1, 1, 2, 2]}, error_bound=EB)
        with serve_in_thread(cfg) as h:
            with ServiceClient(h.host, h.port) as c:
                c.put("big", np.linspace(0.0, 1.0, 16384))  # 128 KiB decoded
            yield h

    def test_sync_client_reconnects_after_an_over_cap_reply(
            self, server_with_a_128k_block):
        h = server_with_a_128k_block
        with ServiceClient(h.host, h.port, max_payload=64 << 10) as c:
            with pytest.raises(ProtocolError, match="exceeds cap"):
                c.get("big")
            for _ in range(3):
                assert c.health()["status"] == "ok"

    def test_async_client_reconnects_after_an_over_cap_reply(
            self, server_with_a_128k_block):
        h = server_with_a_128k_block

        async def main():
            async with AsyncServiceClient(h.host, h.port, max_payload=64 << 10) as c:
                with pytest.raises(ProtocolError, match="exceeds cap"):
                    await c.get("big")
                return [(await c.health())["status"] for _ in range(3)]

        assert asyncio.run(main()) == ["ok"] * 3

