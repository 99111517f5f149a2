"""One PSRV endpoint: the frame-serving core of the server and the gateway.

A shard (:class:`repro.service.server.CompressionServer`) and a gateway
(:class:`repro.cluster.gateway.ClusterGateway`) differ only in what they do
with a request.  :class:`Endpoint` owns the rest: the connection loop (one
task per admitted frame, so replies leave in completion order, each
echoing its request ``id``), one ``writelines`` call per reply (a cancelled
task never leaves half a frame on the wire), the mapping from exceptions
to PSRV error codes, request timing under the role's metric prefix, the
stop order, and the thread host behind ``serve_in_thread`` and
``gateway_in_thread``.

``stop()`` closes the listener, quiesces the role's background work, gives
admitted requests :data:`HANGUP_GRACE_S` to reply, hangs up (:func:`hang_up`),
cancels what is still running, and only then releases the role's
resources: a peer that never reads delays it by at most twice the grace.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time

from repro import telemetry
from repro.errors import (
    DeadlineExceeded,
    ParameterError,
    ProtocolError,
    ReproError,
    ServiceError,
)
from repro.service import protocol
from repro.telemetry import REGISTRY as _METRICS

__all__ = [
    "BYTES_BORROWED", "HANGUP_GRACE_S", "Endpoint", "EndpointHandle", "hang_up",
    "run_in_thread",
]

#: seconds a stopping endpoint gives admitted requests to reply, and then
#: hung-up peers to take their last replies, before it resets what is left
HANGUP_GRACE_S = 5.0
#: counter of payload bytes a role serves or relays from a buffer it
#: already holds (a request, a reply body, a decoded array), uncopied
BYTES_BORROWED = "service.buffers.bytes_borrowed"


async def hang_up(conns: dict[asyncio.StreamWriter, asyncio.Task]) -> None:
    """Close every live connection and await its handler task.

    ``conns`` maps each writer to its handler, which removes its own entry
    on exit.  A peer that has not read its last replies within
    :data:`HANGUP_GRACE_S` is reset, so it cannot hold up a stop.
    """
    for writer in list(conns):
        writer.close()
    if not conns:
        return
    _, stuck = await asyncio.wait(list(conns.values()), timeout=HANGUP_GRACE_S)
    for writer in list(conns):
        writer.transport.abort()
    await asyncio.gather(*stuck, return_exceptions=True)


class Endpoint:
    """A PSRV listener; a role subclasses it and supplies the hooks below.

    ``config`` needs ``host``, ``port``, ``max_payload_bytes`` and
    ``telemetry``.
    """

    #: the role named in refusals, errors and the host thread's name
    role: str
    #: prefix of the request counter, timer and error counters
    metric_prefix: str

    def __init__(self, config) -> None:
        self.config = config
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()  # one per admitted request
        self._conns: dict[asyncio.StreamWriter, asyncio.Task] = {}  # -> handler
        self._draining = False
        self._started = time.monotonic()
        self._stopped = asyncio.Event()

    # -- role hooks ------------------------------------------------------------

    async def _dispatch(self, header: dict, payload: bytes):
        """One admitted request -> its reply frame (``bytes`` or parts);
        an exception becomes an error reply (:meth:`_error_reply`)."""
        raise NotImplementedError

    def _admit(self, header: dict, payload: bytes) -> bytes | None:
        """Admission rule: a refusal frame, or ``None`` to admit the request."""
        if self._draining:
            return protocol.encode_error(
                header.get("id"), "SHUTTING_DOWN", f"{self.role} is draining",
                retry_after_s=0.2,
            )
        return None

    async def _open(self) -> None:
        """Start the role's background work (before the listener binds)."""

    async def _quiesce(self, hard: bool) -> None:
        """Stop the role's background work; ``hard`` on :meth:`abort`."""

    async def _release(self, hard: bool) -> None:
        """Free the role's resources; ``hard`` on :meth:`abort`."""

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._server is None:
            raise ServiceError(f"{self.role} is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Start the role's background work, then bind the listener."""
        if self.config.telemetry:
            telemetry.enable()
        self._started = time.monotonic()
        await self._open()
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or SIGTERM/SIGINT on platforms with
        signal-handler support) initiates the drain."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.stop())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful drain: refuse new work, finish admitted work, release."""
        await self._shut_down(hard=False)

    async def abort(self) -> None:
        """Hard kill (tests, fault injection): reset every connection as a
        SIGKILLed process would, cancel admitted work, release the hard way."""
        await self._shut_down(hard=True)

    async def _shut_down(self, hard: bool) -> None:
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if hard:
            for writer in list(self._conns):
                writer.transport.abort()
            for task in self._tasks:
                task.cancel()
        await self._quiesce(hard)
        if self._tasks:  # admitted work gets the grace period to reply
            await asyncio.wait(list(self._tasks), timeout=HANGUP_GRACE_S)
        # hang up before wait_closed(): Python 3.12+ waits there for every
        # accepted connection
        await hang_up(self._conns)
        for task in self._tasks:  # nobody is left to take these replies
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        await self._release(hard)
        self._stopped.set()

    # -- connections and requests ------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self._conns[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    frame = await protocol.read_frame_async(
                        reader, self.config.max_payload_bytes
                    )
                except ProtocolError as exc:
                    # Structured refusal, then hang up: after a framing error
                    # the byte stream can no longer be trusted.
                    self._count(f"{self.metric_prefix}.protocol_errors")
                    await self._write(
                        writer, protocol.encode_error(None, "PROTOCOL", str(exc))
                    )
                    break
                if frame is None:  # clean disconnect
                    break
                header, payload = frame
                refusal = self._admit(header, payload)
                if refusal is not None:
                    await self._write(writer, refusal)
                    continue
                task = asyncio.ensure_future(
                    self._serve_request(header, payload, writer)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        except ConnectionError:
            pass
        finally:
            self._conns.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _write(self, writer: asyncio.StreamWriter, frame) -> None:
        """Write one frame, ``bytes`` or a writev-style parts list, in one
        ``writelines`` call: a bulk payload is never concatenated with its
        header, and frames from concurrent tasks never interleave."""
        if writer.is_closing():  # Python 3.12.1's writelines raises TypeError
            raise ConnectionResetError("the connection closed before the reply")
        writer.writelines(frame if isinstance(frame, list) else [frame])
        await writer.drain()

    async def _serve_request(self, header: dict, payload: bytes,
                             writer: asyncio.StreamWriter) -> None:
        t0 = time.perf_counter()
        try:
            reply = await self._dispatch(header, payload)
        except Exception as exc:
            reply = self._error_reply(header.get("id"), exc)
        self._record_request(header.get("op"), time.perf_counter() - t0, len(payload))
        try:
            await self._write(writer, reply)
        except (ConnectionError, OSError):
            pass  # the peer went away; the work is already accounted

    def _error_reply(self, req_id, exc: Exception) -> bytes:
        """Map a failed request onto its PSRV error code."""
        prefix = self.metric_prefix
        if isinstance(exc, ParameterError):
            return protocol.encode_error(req_id, "BAD_REQUEST", str(exc))
        if isinstance(exc, KeyError):
            self._count(f"{prefix}.not_found")
            return protocol.encode_error(req_id, "NOT_FOUND", str(exc))
        if isinstance(exc, DeadlineExceeded):
            self._count(f"{prefix}.deadline")
            return protocol.encode_error(req_id, "DEADLINE", str(exc))
        self._count(f"{prefix}.errors")
        kind = type(exc).__name__ if isinstance(exc, ReproError) else "unexpected error"
        return protocol.encode_error(req_id, "INTERNAL", f"{kind}: {exc}")

    def _record_request(self, op: str | None, wall_s: float, bytes_in: int) -> None:
        """Count one served request and time it (dispatch only, not the write)."""
        self._count(f"{self.metric_prefix}.requests")
        if telemetry.is_enabled():
            _METRICS.timer(f"{self.metric_prefix}.request").observe(
                wall_s, nbytes=bytes_in
            )

    @staticmethod
    def _count(name: str, n: int = 1) -> None:
        if telemetry.is_enabled():
            _METRICS.counter(name).add(n)


# ---------------------------------------------------------------------------
# thread-hosted endpoints (tests, notebooks, smoke scripts)


class EndpointHandle:
    """An endpoint running on a background thread with its own event loop.

    :meth:`stop` drains it and joins the thread; :meth:`kill` aborts it
    instead.  Both raise :class:`ServiceError` if a task (a leaked reader,
    handler, health or drain task) was still pending when the loop closed.
    """

    def __init__(self, endpoint: Endpoint, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread, leaked: list) -> None:
        self.endpoint = endpoint
        self.host = endpoint.config.host
        self.port = endpoint.port
        self._loop = loop
        self._thread = thread
        self._leaked = leaked

    def stop(self, timeout: float = 30.0) -> None:
        self._shut_down(self.endpoint.stop, timeout)

    def kill(self, timeout: float = 10.0) -> None:
        """Hard-kill the endpoint (:meth:`Endpoint.abort`): a shard dies
        without a drain or a spill-container footer."""
        self._shut_down(self.endpoint.abort, timeout)

    def _shut_down(self, method, timeout: float) -> None:
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(method(), self._loop).result(timeout)
            self._thread.join(timeout)
        if self._leaked:
            names = sorted(t.get_coro().__qualname__ for t in self._leaked)
            self._leaked.clear()
            raise ServiceError(
                f"{self.endpoint.role} left tasks pending on its closed loop: {names}"
            )

    def __enter__(self) -> "EndpointHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def run_in_thread(endpoint: Endpoint, start_timeout: float = 30.0) -> EndpointHandle:
    """Start ``endpoint`` on a daemon thread; returns its handle once the
    listener is bound and accepting."""
    started = threading.Event()
    boot_error: list[BaseException] = []
    leaked: list[asyncio.Task] = []
    loop = asyncio.new_event_loop()

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(endpoint.start())
        except BaseException as exc:  # surface bind/codec failures to the caller
            boot_error.append(exc)
            return
        finally:
            started.set()
        try:
            loop.run_until_complete(endpoint._stopped.wait())
            leaked.extend(asyncio.all_tasks(loop))
            for task in leaked:  # reported by the handle; unwound here
                task.cancel()
            loop.run_until_complete(asyncio.gather(*leaked, return_exceptions=True))
        finally:
            loop.close()

    thread = threading.Thread(target=run, name=f"pastri-{endpoint.role}", daemon=True)
    thread.start()
    if not started.wait(start_timeout):
        raise ServiceError(f"{endpoint.role} failed to start within the timeout")
    if boot_error:
        raise boot_error[0]
    return EndpointHandle(endpoint, loop, thread, leaked)
