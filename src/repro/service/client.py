"""Service clients: sync and async, with retry, backoff, and jitter.

:class:`ServiceClient` is the blocking client: one reused TCP connection,
one request in flight at a time.  :class:`AsyncServiceClient` is its
asyncio counterpart for event-loop callers.  It runs on a
:class:`Connection`, which carries many requests at once: each reply is
matched to its request by ``id``, and the server answers in whatever
order the requests finish.  The cluster gateway forwards to its shards
over the same :class:`Connection`.  Both clients speak
:mod:`repro.service.protocol` and raise the typed :mod:`repro.errors`
hierarchy.

Retries follow :class:`RetryPolicy`: BUSY/SHUTTING_DOWN replies and
connection failures back off exponentially with full jitter
(``delay = uniform(0, base * 2**attempt)``, capped) and retry up to
``max_retries`` times; every service op here is idempotent, so a retry
after a torn connection is always safe.  ``DEADLINE`` replies retry too —
the server dropped the request unprocessed.  ``BAD_REQUEST`` and other
structured failures surface immediately.
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    DeadlineExceeded,
    ProtocolError,
    ServerBusyError,
    ServiceError,
)
from repro.service import protocol

__all__ = ["RetryPolicy", "ServiceClient", "AsyncServiceClient", "Connection"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter for retryable failures."""

    max_retries: int = 6
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0

    def delay(self, attempt: int, hint_s: float = 0.0) -> float:
        """Jittered delay before retry ``attempt`` (0-based), >= ``hint_s``."""
        span = min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** attempt))
        return max(hint_s, random.uniform(0.0, span))


def _is_retryable(exc: Exception) -> bool:
    if isinstance(exc, (ServerBusyError, DeadlineExceeded)):
        return True
    if isinstance(exc, ServiceError):  # ProtocolError / RemoteError: surface
        return False
    # ConnectionError and socket.timeout are OSErrors; asyncio.TimeoutError
    # is one only from Python 3.11 on
    return isinstance(exc, (OSError, asyncio.TimeoutError))


def _retry_hint(exc: Exception) -> float:
    return exc.retry_after_s if isinstance(exc, ServerBusyError) else 0.0


def _array_request(data: np.ndarray, dims, **params) -> tuple[dict, memoryview]:
    """Params and zero-copy payload of an op that carries a float64 array."""
    payload, params["n"] = protocol.array_to_view(data)
    if dims is not None:
        params["dims"] = [int(d) for d in dims]
    return params, payload


class ServiceClient:
    """Blocking client over one reused TCP connection.

    >>> with ServiceClient("127.0.0.1", 7557) as c:
    ...     blob, info = c.compress(data, eb=1e-10)
    ...     again = c.decompress(blob)

    The connection is opened lazily and re-opened transparently after a
    failure; ``timeout`` bounds every socket operation.  Each reply
    payload is read once, into the ``bytes`` a call returns or the
    (read-only) array it wraps.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7557,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        max_payload: int = protocol.DEFAULT_MAX_PAYLOAD,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.max_payload = max_payload
        self._sock: socket.socket | None = None
        self._rfile = None  # buffered reader over ``_sock``
        self._next_id = 0

    # -- connection management -------------------------------------------------

    def _connect(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._rfile = sock, sock.makefile("rb")

    def close(self) -> None:
        """Close the connection (the client can be reused; it reconnects)."""
        if self._sock is not None:
            try:
                self._sock.close()
                self._rfile.close()  # the last reference: closes the socket
            except OSError:
                pass
            self._sock = self._rfile = None

    def _send_parts(self, parts: list) -> None:
        """writev-style send: header prefix + payload go out as one
        scatter-gather call, no concatenation copy."""
        bufs = [memoryview(p) if not isinstance(p, memoryview) else p
                for p in parts]
        while bufs:
            sent = self._sock.sendmsg(bufs)
            while bufs and sent >= bufs[0].nbytes:
                sent -= bufs[0].nbytes
                bufs.pop(0)
            if bufs and sent:
                bufs[0] = bufs[0][sent:]

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- request plumbing ------------------------------------------------------

    def _roundtrip_once(self, op: str, params: dict, payload
                        ) -> tuple[dict, bytes]:
        """One request/response; returns the result and the reply payload."""
        self._connect()
        self._next_id += 1
        req_id = self._next_id
        try:
            self._send_parts(
                protocol.encode_request_parts(op, req_id, params, payload)
            )
            frame = protocol.read_frame(self._rfile, self.max_payload)
        except (OSError, ProtocolError):
            # a framing error leaves the rest of the reply unread: the byte
            # stream is out of step, so the next call must reconnect
            self.close()
            raise
        if frame is None:
            self.close()
            raise ConnectionResetError("server closed the connection mid-request")
        header, body = frame
        got = header.get("id")
        if got is not None and got != req_id:
            self.close()
            raise ProtocolError(
                f"response id {got} does not match request {req_id}"
            )
        result = protocol.raise_for_error(header)
        return result, body

    def _roundtrip(self, op: str, params: dict | None = None,
                   payload=b"") -> tuple[dict, bytes]:
        params = params or {}
        attempt = 0
        while True:
            try:
                return self._roundtrip_once(op, params, payload)
            except Exception as exc:
                if not _is_retryable(exc) or attempt >= self.retry.max_retries:
                    raise
                time.sleep(self.retry.delay(attempt, _retry_hint(exc)))
                attempt += 1

    # -- operations ------------------------------------------------------------

    def compress(self, data: np.ndarray, eb: float, dims=None
                 ) -> tuple[bytes, dict]:
        """Compress ``data`` remotely; returns ``(blob, info)`` where info
        carries ``n``, ``compressed_bytes``, ``ratio``, and the applied
        ``eb``."""
        params, payload = _array_request(data, dims, eb=float(eb))
        result, body = self._roundtrip("compress", params, payload)
        return body, result

    def decompress(self, blob: bytes) -> np.ndarray:
        """Decompress a codec blob remotely; returns a read-only float64
        array over the reply payload."""
        result, body = self._roundtrip("decompress", {}, blob)
        return protocol.payload_to_array(body, result.get("n"), copy=False)

    def put(self, key, block: np.ndarray, dims=None) -> dict:
        """Store one block under ``key`` (compressed server-side at the
        store's error bound)."""
        params, payload = _array_request(block, dims, key=key)
        result, _ = self._roundtrip("store.put", params, payload)
        return result

    def get(self, key) -> np.ndarray:
        """Fetch (decompress) the block stored under ``key``; a read-only
        array over the reply payload."""
        result, body = self._roundtrip("store.get", {"key": key})
        return protocol.payload_to_array(body, result.get("n"), copy=False)

    def stats(self) -> dict:
        """The server store's :class:`StoreStats` as a dict."""
        return self._roundtrip("store.stats")[0]

    def health(self) -> dict:
        """Server liveness/drain state, uptime, queue depth, codec spec."""
        return self._roundtrip("health")[0]

    def metrics(self) -> dict:
        """The server's full telemetry registry snapshot."""
        return self._roundtrip("metrics")[0].get("metrics", {})

    def cluster_stats(self) -> dict:
        """Fleet-wide stats (gateways only; shards answer BAD_REQUEST)."""
        return self._roundtrip("cluster.stats")[0]

    def reshard_add(self, name: str, host: str, port: int) -> dict:
        """Add a shard to a live gateway and migrate its keys over.

        Blocks until the migration completes and the ring has flipped;
        the returned summary reports keys scanned/remapped/moved and the
        moved key list.  Gateways only.
        """
        return self._roundtrip(
            "cluster.reshard.add", {"name": name, "host": host, "port": int(port)}
        )[0]

    def reshard_remove(self, name: str) -> dict:
        """Drain a shard's keys to their new owners and drop it (gateways)."""
        return self._roundtrip("cluster.reshard.remove", {"name": name})[0]

    def reshard_status(self) -> dict:
        """Progress of the in-flight migration, if any (gateways only)."""
        return self._roundtrip("cluster.reshard.status")[0]

    def call(self, op: str, params: dict | None = None, payload=b""
             ) -> tuple[dict, bytes]:
        """Raw escape hatch: one op round-trip, retries included.

        Returns ``(result, payload_bytes)``.  The cluster CLI and tests use
        this for ops without a dedicated method.
        """
        return self._roundtrip(op, params, payload)


class Connection:
    """One asyncio PSRV connection that carries many calls at once.

    Each call sends its frame under a fresh request ``id`` and awaits a
    future that one reader task resolves when the reply with that id
    arrives, in whatever order the peer answers.  A cancelled or timed-out
    call drops only its own future; its late reply is read and discarded.
    A transport or framing failure fails every pending call and closes the
    connection; the next call reconnects.
    """

    def __init__(self, host: str, port: int,
                 max_payload: int = protocol.DEFAULT_MAX_PAYLOAD) -> None:
        self.host = host
        self.port = port
        self.max_payload = max_payload
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}  # request id -> reply
        self._connecting = asyncio.Lock()
        self._next_id = 0

    async def call(self, op: str, params: dict | None = None, payload=b"",
                   route: dict | None = None) -> tuple[dict, bytes]:
        """Send one request; returns the raw reply ``(header, payload)``.

        Error *replies* come back as headers (``ok: false``); only transport
        and framing failures raise.  The payload goes out uncopied.
        """
        writer = await self._connect()
        self._next_id += 1
        req_id = self._next_id
        reply = self._pending[req_id] = asyncio.get_running_loop().create_future()
        try:
            writer.writelines(
                protocol.encode_request_parts(op, req_id, params, payload, route)
            )
            try:
                await writer.drain()
            except OSError:
                pass  # the reader task fails this call's reply with the cause
            return await reply
        finally:
            self._pending.pop(req_id, None)

    async def _connect(self) -> asyncio.StreamWriter:
        async with self._connecting:
            if self._writer is None:
                reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
                self._reader_task = asyncio.ensure_future(
                    self._read_replies(reader, self._writer)
                )
            return self._writer

    async def _read_replies(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        """Resolve pending calls by request id until the connection fails."""
        failure: Exception = ConnectionAbortedError("connection closed")
        try:
            while True:
                frame = await protocol.read_frame_async(reader, self.max_payload)
                if frame is None:
                    raise ConnectionResetError("peer closed the connection")
                header = frame[0]
                if header.get("id") is None:  # a refusal that names no request
                    protocol.raise_for_error(header)
                reply = self._pending.pop(header.get("id"), None)
                if reply is not None and not reply.done():
                    reply.set_result(frame)
        except Exception as exc:  # every pending call raises it
            failure = exc
        finally:
            # calls register only while ``_writer`` is this connection's, so
            # ``_pending`` now holds exactly the calls that it strands
            self._writer = self._reader_task = None
            pending, self._pending = self._pending, {}
            writer.close()
            for reply in pending.values():
                if not reply.done():
                    reply.set_exception(failure)

    async def close(self) -> None:
        """Close the connection; calls still pending fail with a
        :class:`ConnectionError`.  A later call reconnects."""
        task, writer = self._reader_task, self._writer
        if task is None:
            return
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class AsyncServiceClient:
    """Asyncio client with the same surface as :class:`ServiceClient`.

    Concurrent calls share one multiplexed :class:`Connection`, so a slow
    request does not hold up the others.  ``timeout`` bounds each call,
    connect included; a call that times out drops only its own reply.
    Retry and backoff are identical to the sync client.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7557,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        max_payload: int = protocol.DEFAULT_MAX_PAYLOAD,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.max_payload = max_payload
        self._conn = Connection(host, port, max_payload)

    async def close(self) -> None:
        await self._conn.close()

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def _roundtrip(self, op: str, params: dict | None = None,
                         payload: bytes = b"") -> tuple[dict, bytes]:
        params = params or {}
        attempt = 0
        while True:
            try:
                header, body = await asyncio.wait_for(
                    self._conn.call(op, params, payload), self.timeout
                )
                return protocol.raise_for_error(header), body
            except Exception as exc:
                if not _is_retryable(exc) or attempt >= self.retry.max_retries:
                    raise
                await asyncio.sleep(self.retry.delay(attempt, _retry_hint(exc)))
                attempt += 1

    async def compress(self, data: np.ndarray, eb: float, dims=None
                       ) -> tuple[bytes, dict]:
        params, payload = _array_request(data, dims, eb=float(eb))
        result, body = await self._roundtrip("compress", params, payload)
        return body, result

    async def decompress(self, blob: bytes) -> np.ndarray:
        result, body = await self._roundtrip("decompress", {}, blob)
        return protocol.payload_to_array(body, result.get("n"))

    async def put(self, key, block: np.ndarray, dims=None) -> dict:
        params, payload = _array_request(block, dims, key=key)
        result, _ = await self._roundtrip("store.put", params, payload)
        return result

    async def get(self, key) -> np.ndarray:
        result, body = await self._roundtrip("store.get", {"key": key})
        return protocol.payload_to_array(body, result.get("n"))

    async def stats(self) -> dict:
        return (await self._roundtrip("store.stats"))[0]

    async def health(self) -> dict:
        return (await self._roundtrip("health"))[0]

    async def metrics(self) -> dict:
        return (await self._roundtrip("metrics"))[0].get("metrics", {})
