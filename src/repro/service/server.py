"""Asyncio compression server: micro-batching, backpressure, graceful drain.

One :class:`CompressionServer` owns a codec, a (thread-safe)
:class:`repro.pipeline.store.CompressedERIStore`, and optionally a
persistent :class:`repro.parallel.pool.CodecWorkerPool`.  Request flow:

* **compress** requests are *micro-batched*: they queue up and a single
  dispatcher coalesces up to ``batch_max`` of them (or whatever arrives
  within ``batch_window_ms`` of the first), then dispatches the whole
  batch through the worker pool — concurrent clients amortize pool and
  dispatch overhead exactly like the block-parallel paths in
  :mod:`repro.parallel.pool`.
* **decompress** / **store.*** requests run directly on the executor (the
  store serializes internally; see its ``RLock``).
* **health** / **metrics** answer inline on the event loop.

Backpressure is refusal, not buffering: when the compress queue is full,
total in-flight payload bytes exceed ``max_inflight_bytes``, or the server
is draining, the request gets an immediate ``BUSY``/``SHUTTING_DOWN``
error reply (the 429 pattern) and the client backs off.  A request that
waits in queue past ``request_deadline_ms`` is answered ``DEADLINE``
without being processed, so a stampede cannot build an invisible backlog.

On SIGTERM (and SIGINT) the server drains gracefully: the listener
closes, queued and in-flight requests finish, live connections are
closed (see :func:`hang_up`), then the store and pool shut down — a
spill-backed store finalizes its container footer.

Every request is traced with a ``service.request`` span (grafted into the
telemetry buffer whole, so concurrent coroutines cannot mis-nest) and
counted under ``service.*``; a ``metrics`` request returns the full
registry snapshot, so the PR 3 reporting tools work unchanged against a
running server.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro import api, telemetry
from repro.errors import (
    ParameterError,
    ProtocolError,
    ReproError,
    ServiceError,
)
from repro.pipeline.store import (
    CompressedERIStore,
    ContainerBackend,
    _revive_key,
)
from repro.service import buffers, protocol
from repro.telemetry import REGISTRY as _METRICS
from repro.telemetry.spans import adopt_spans

__all__ = ["ServerConfig", "CompressionServer", "serve_in_thread", "ServerHandle"]

#: seconds a stopping server gives hung-up peers to take their last
#: replies before it resets the connections still open
HANGUP_GRACE_S = 5.0


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


@dataclass
class ServerConfig:
    """Everything a :class:`CompressionServer` needs to run.

    The codec is named registry-style (``codec_name`` + ``codec_kwargs``)
    so multiprocessing workers can rebuild it; tests may instead inject a
    ``codec`` instance (in-process execution only).
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off the server
    #: fleet identity: set by the cluster tier so health/stats replies are
    #: attributable when aggregated by a gateway (None = standalone server)
    shard_id: str | None = None
    codec_name: str = "pastri"
    codec_kwargs: dict = field(default_factory=lambda: {"dims": [1, 1, 1, 1]})
    codec: object | None = None  # pre-built instance (overrides the name)
    error_bound: float = 1e-10  # the store's bound; compress takes eb per request
    n_workers: int = 1  # >1 enables the multiprocessing batch pool
    # micro-batching
    batch_max: int = 32
    batch_window_ms: float = 2.0
    # backpressure
    max_queue: int = 256
    max_inflight_bytes: int = 256 << 20
    request_deadline_ms: float = 10_000.0
    max_payload_bytes: int = protocol.DEFAULT_MAX_PAYLOAD
    # store
    spill_path: str | None = None  # None = MemoryBackend
    #: on start, salvage a pre-existing spill container at ``spill_path``
    #: (e.g. left by a killed server) instead of overwriting it; recovered
    #: entries show up in ``store.stats`` as ``recovered``
    spill_recover: bool = True
    memory_budget_bytes: int = 64 << 20
    hot_cache_blocks: int = 64
    #: decompressed-tier budget in bytes (preferred over hot_cache_blocks
    #: when > 0; see CompressedERIStore.hot_cache_bytes)
    hot_cache_bytes: int = 0
    #: speculative decodes after an array-tier miss (0 = off)
    readahead: int = 2
    #: cache admission policy for both tiers: "2q" or "lru" (A/B baseline)
    store_policy: str = "2q"
    #: idle seconds on the batch queue before the spill container is
    #: checked for compaction (0 disables idle compaction)
    idle_compact_s: float = 5.0
    #: enable the telemetry registry for the server's lifetime (metrics
    #: replies are empty without it)
    telemetry: bool = True


class _Request:
    """One admitted request moving through the server."""

    __slots__ = ("header", "payload", "future", "arrived", "op")

    def __init__(self, header: dict, payload: bytes, future: asyncio.Future) -> None:
        self.header = header
        self.payload = payload
        self.future = future
        self.arrived = time.monotonic()
        self.op = header.get("op")


class CompressionServer:
    """The asyncio TCP server; see the module docstring for semantics."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.codec = self.config.codec or api.get_codec(
            self.config.codec_name, **self.config.codec_kwargs
        )
        backend = None
        if self.config.spill_path:
            backend = ContainerBackend(
                self.config.spill_path,
                memory_budget_bytes=self.config.memory_budget_bytes,
                recover=self.config.spill_recover,
                policy=self.config.store_policy,
            )
        self.store = CompressedERIStore(
            self.codec,
            self.config.error_bound,
            backend=backend,
            hot_cache_blocks=self.config.hot_cache_blocks,
            hot_cache_bytes=self.config.hot_cache_bytes,
            readahead_depth=self.config.readahead,
            hot_cache_policy=self.config.store_policy,
        )
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, self.config.n_workers + 1),
            thread_name_prefix="pastri-svc",
        )
        self._pool = None  # CodecWorkerPool, created on start when n_workers > 1
        self._inflight_bytes = 0
        self._draining = False
        self._started = time.monotonic()
        self._tasks: set[asyncio.Task] = set()
        self._conns: dict[asyncio.StreamWriter, asyncio.Task] = {}  # -> handler
        self._stopped = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._server is None:
            raise ServiceError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listener and start the batch dispatcher."""
        if self.config.telemetry:
            telemetry.enable()
        if self.config.n_workers > 1 and self.config.codec is None:
            from repro.parallel.pool import CodecWorkerPool

            self._pool = CodecWorkerPool(
                self.config.codec_name,
                self.config.codec_kwargs,
                self.config.n_workers,
            )
        self._queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._dispatcher = asyncio.ensure_future(self._batch_dispatcher())
        self._started = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
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
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        # let already-admitted compress requests flow through the dispatcher
        if self._queue is not None:
            await self._queue.put(None)  # dispatcher shutdown sentinel
        if self._dispatcher is not None:
            await self._dispatcher
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        # admitted work has replied: hang up, so no handler outlives the
        # loop; only then can wait_closed() return (Python 3.12+ waits for
        # every accepted connection)
        await hang_up(self._conns)
        if self._server is not None:
            await self._server.wait_closed()
        if self._pool is not None:
            self._pool.close()
        self._executor.shutdown(wait=True)
        self.store.close()
        self._stopped.set()

    async def abort(self) -> None:
        """Hard kill (tests/fault injection): die without draining.

        The listener closes, in-flight work is cancelled, and the store is
        *aborted* — its spill container is left footerless with only the
        journal describing it, exactly the disk state a SIGKILLed process
        leaves.  A successor server over the same spill path must come
        back through the salvage/recovery path (``spill_recover=True``).
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        # RST every live connection — peers see the same abrupt reset a
        # SIGKILLed process would give them, with no drain and no goodbye
        for writer in list(self._conns):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
        for task in list(self._tasks):
            task.cancel()
        pending = [t for t in (*self._tasks, self._dispatcher) if t is not None]
        if pending:  # let cancellations unwind while the loop still runs
            await asyncio.gather(*pending, return_exceptions=True)
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self._pool is not None:
            self._pool.terminate()
        self.store.abort()
        self._stopped.set()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
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
                    self._count("service.protocol_errors")
                    await self._write(
                        writer, write_lock,
                        protocol.encode_error(None, "PROTOCOL", str(exc)),
                    )
                    break
                if frame is None:  # clean disconnect
                    break
                header, payload = frame
                refusal = self._admission_check(header, payload)
                if refusal is not None:
                    await self._write(writer, write_lock, refusal)
                    continue
                # account in-flight bytes at admission, not inside the task:
                # several frames can arrive in one event-loop tick, and the
                # gate must see each other's bytes before any task runs
                self._inflight_bytes += len(payload)
                task = asyncio.ensure_future(
                    self._serve_request(header, payload, writer, write_lock)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conns.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _admission_check(self, header: dict, payload: bytes) -> bytes | None:
        """Backpressure gate; returns a refusal frame or ``None`` to admit."""
        req_id = header.get("id")
        if self._draining:
            return protocol.encode_error(
                req_id, "SHUTTING_DOWN", "server is draining", retry_after_s=0.2
            )
        if self._inflight_bytes + len(payload) > self.config.max_inflight_bytes:
            self._count("service.busy")
            return protocol.encode_error(
                req_id, "BUSY",
                f"in-flight bytes limit reached ({self.config.max_inflight_bytes})",
                retry_after_s=0.05,
            )
        if header.get("op") == "compress" and self._queue.full():
            self._count("service.busy")
            return protocol.encode_error(
                req_id, "BUSY",
                f"compress queue full ({self.config.max_queue})",
                retry_after_s=0.05,
            )
        return None

    async def _write(self, writer, lock: asyncio.Lock, frame) -> None:
        """Write one frame — ``bytes`` or a writev-style parts list.

        Parts go out via ``writelines`` so a bulk payload (a codec blob, a
        decompressed array's memoryview) is never concatenated with its
        header; the transport scatter-gathers straight from the source
        buffers.
        """
        parts = frame if isinstance(frame, list) else [frame]
        nbytes = sum(
            p.nbytes if isinstance(p, memoryview) else len(p) for p in parts
        )
        async with lock:
            writer.writelines(parts)
            await writer.drain()
        self._count("service.bytes_out", nbytes)

    async def _serve_request(
        self, header: dict, payload: bytes, writer, write_lock: asyncio.Lock
    ) -> None:
        op = header.get("op")
        req_id = header.get("id")
        t0 = time.perf_counter()
        try:
            reply = await self._dispatch(header, payload)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            reply = self._error_reply(req_id, exc)
        finally:
            self._inflight_bytes -= len(payload)
        wall = time.perf_counter() - t0
        self._record_request(op, wall, len(payload))
        try:
            await self._write(writer, write_lock, reply)
        except (ConnectionError, OSError):
            pass  # client went away; the work is already accounted

    def _error_reply(self, req_id, exc: Exception) -> bytes:
        if isinstance(exc, ParameterError):
            return protocol.encode_error(req_id, "BAD_REQUEST", str(exc))
        if isinstance(exc, KeyError):
            self._count("service.not_found")
            return protocol.encode_error(req_id, "NOT_FOUND", str(exc))
        if isinstance(exc, _Deadline):
            self._count("service.deadline")
            return protocol.encode_error(req_id, "DEADLINE", str(exc))
        self._count("service.errors")
        kind = type(exc).__name__ if isinstance(exc, ReproError) else "unexpected error"
        return protocol.encode_error(req_id, "INTERNAL", f"{kind}: {exc}")

    def _record_request(self, op: str | None, wall_s: float, bytes_in: int) -> None:
        self._count("service.requests")
        self._count(f"service.requests.{op or 'unknown'}")
        self._count("service.bytes_in", bytes_in)
        if telemetry.is_enabled():
            _METRICS.timer("service.request").observe(wall_s, nbytes=bytes_in)
            # Graft a finished span rather than opening one around awaits:
            # concurrent coroutines share the thread-local span stack, so a
            # live span here could adopt another request's children.
            adopt_spans([{
                "name": "service.request",
                "wall_s": wall_s,
                "cpu_s": 0.0,
                "attrs": {"op": op or "unknown", "bytes_in": bytes_in},
            }])

    @staticmethod
    def _count(name: str, n: int = 1) -> None:
        if telemetry.is_enabled():
            _METRICS.counter(name).add(n)

    # -- request dispatch ------------------------------------------------------

    async def _dispatch(self, header: dict, payload: bytes) -> bytes:
        op = header.get("op")
        req_id = header.get("id")
        params = header.get("params") or {}
        if not isinstance(params, dict):
            raise ParameterError("request params must be a JSON object")
        if header.get("route"):  # forwarded to us by a cluster gateway
            self._count("service.forwarded")
        if op == "health":
            return protocol.encode_response(req_id, self._health())
        if op == "metrics":
            return protocol.encode_response(
                req_id, {"metrics": telemetry.metrics_snapshot()}
            )
        if op == "compress":
            return await self._enqueue_compress(req_id, params, payload)
        loop = asyncio.get_running_loop()
        if op == "decompress":
            return await loop.run_in_executor(
                self._executor, self._do_decompress, req_id, payload
            )
        if op == "store.put":
            return await loop.run_in_executor(
                self._executor, self._do_store_put, req_id, params, payload
            )
        if op == "store.get":
            return await loop.run_in_executor(
                self._executor, self._do_store_get, req_id, params
            )
        if op == "store.put_raw":
            return await loop.run_in_executor(
                self._executor, self._do_store_put_raw, req_id, params, payload
            )
        if op == "store.get_raw":
            return await loop.run_in_executor(
                self._executor, self._do_store_get_raw, req_id, params
            )
        if op == "store.keys":
            return await loop.run_in_executor(
                self._executor, self._do_store_keys, req_id
            )
        if op == "store.stats":
            return protocol.encode_response(req_id, self._store_stats())
        raise ParameterError(f"unknown op {op!r}")

    def _health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "role": "shard" if self.config.shard_id else "server",
            "shard_id": self.config.shard_id,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "inflight_bytes": self._inflight_bytes,
            "queued": self._queue.qsize() if self._queue is not None else 0,
            "codec": api.codec_spec(self.codec),
            "store_entries": len(self.store),
        }

    def _store_stats(self) -> dict:
        s = self.store.stats
        return {
            "n_entries": s.n_entries,
            "original_bytes": s.original_bytes,
            "compressed_bytes": s.compressed_bytes,
            "puts": s.puts,
            "gets": s.gets,
            "cache_hits": s.cache_hits,
            "cache_misses": s.cache_misses,
            "spills": s.spills,
            "disk_reads": s.disk_reads,
            "recovered": s.recovered,
            "ratio": s.ratio,
            "hit_rate": s.hit_rate,
            "error_bound": self.store.error_bound,
            "hot_bytes": s.hot_bytes,
            "blob_hits": s.blob_hits,
            "blob_misses": s.blob_misses,
            "blob_evictions": s.blob_evictions,
            "array_evictions": s.array_evictions,
            "readahead_issued": s.readahead_issued,
            "readahead_useful": s.readahead_useful,
            "readahead_wasted": s.readahead_wasted,
            "readahead_accuracy": s.readahead_accuracy,
            "compactions": s.compactions,
            "compaction_reclaimed_bytes": s.compaction_reclaimed_bytes,
            "cache_report": self.store.format_cache_report(),
        }

    # -- blocking op bodies (executor threads) ---------------------------------

    def _do_decompress(self, req_id, payload: bytes) -> list:
        out = self.codec.decompress(payload)
        body, n = protocol.array_to_view(out)
        buffers.count_borrowed(body.nbytes)
        return protocol.encode_response_parts(req_id, {"n": n}, body)

    def _do_store_put(self, req_id, params: dict, payload: bytes) -> bytes:
        if "key" not in params:
            raise ParameterError("store.put requires a 'key' param")
        # Borrow, don't copy: the store compresses the block without
        # retaining it, and ``payload`` outlives the call.
        data = protocol.payload_to_array(payload, params.get("n"), copy=False)
        buffers.count_borrowed(data.nbytes)
        key = _revive_key(params["key"])
        self.store.put(key, data, dims=params.get("dims"))
        return protocol.encode_response(req_id, {"stored": True, "n": int(data.size)})

    def _do_store_get(self, req_id, params: dict) -> list:
        if "key" not in params:
            raise ParameterError("store.get requires a 'key' param")
        key = _revive_key(params["key"])
        out = self.store.get(key)
        body, n = protocol.array_to_view(out)
        buffers.count_borrowed(body.nbytes)
        return protocol.encode_response_parts(req_id, {"n": n}, body)

    def _do_store_put_raw(self, req_id, params: dict, payload: bytes) -> bytes:
        """Accept an already-compressed blob verbatim (replica transfer).

        The hinted-handoff drain uses this with ``store.get_raw`` so a
        drained block lands byte-identical — no decode/re-encode cycle.
        """
        if "key" not in params or params.get("n") is None:
            raise ParameterError("store.put_raw requires 'key' and 'n' params")
        key = _revive_key(params["key"])
        # the blob is retained by the store, so it must own the bytes
        self.store.put_blob(
            key, bytes(payload), int(params["n"]) * 8, dims=params.get("dims")
        )
        return protocol.encode_response(
            req_id, {"stored": True, "raw": True, "n": int(params["n"])}
        )

    def _do_store_keys(self, req_id) -> bytes:
        """Every key this shard holds, in wire form (tuples become lists).

        The cluster reshard path scans the fleet with this to compute
        which keys a membership change remaps.
        """
        keys = [list(k) if isinstance(k, tuple) else k for k in self.store.keys()]
        return protocol.encode_response(req_id, {"keys": keys})

    def _do_store_get_raw(self, req_id, params: dict) -> list:
        if "key" not in params:
            raise ParameterError("store.get_raw requires a 'key' param")
        key = _revive_key(params["key"])
        blob, nbytes, dims = self.store.get_blob(key)
        buffers.count_borrowed(len(blob))
        return protocol.encode_response_parts(
            req_id,
            {"n": nbytes // 8, "dims": None if dims is None else list(dims)},
            blob,
        )

    # -- micro-batched compression ---------------------------------------------

    async def _enqueue_compress(self, req_id, params: dict, payload: bytes) -> list:
        eb = api.validate_error_bound(params.get("eb", self.config.error_bound))
        # Borrowed view of the request payload (kept alive by the request
        # object until the batch runs) — the kernels only read it.
        data = protocol.payload_to_array(payload, params.get("n"), copy=False)
        buffers.count_borrowed(data.nbytes)
        if data.size == 0:
            raise ParameterError("cannot compress an empty array")
        future = asyncio.get_running_loop().create_future()
        req = _Request(
            {"id": req_id, "eb": eb, "dims": params.get("dims")}, data, future
        )
        try:
            self._queue.put_nowait(req)
        except asyncio.QueueFull:
            # Admission raced another producer; same refusal as the gate.
            self._count("service.busy")
            return protocol.encode_error(
                req_id, "BUSY",
                f"compress queue full ({self.config.max_queue})",
                retry_after_s=0.05,
            )
        blob = await future
        return protocol.encode_response_parts(
            req_id,
            {"n": int(data.size), "compressed_bytes": len(blob),
             "ratio": data.nbytes / max(len(blob), 1), "eb": eb},
            blob,
        )

    async def _batch_dispatcher(self) -> None:
        """Coalesce queued compress requests into batches and run them."""
        loop = asyncio.get_running_loop()
        window_s = self.config.batch_window_ms / 1e3
        idle_s = self.config.idle_compact_s
        while True:
            if idle_s > 0:
                try:
                    first = await asyncio.wait_for(self._queue.get(), idle_s)
                except asyncio.TimeoutError:
                    # the queue sat empty for a while: use the lull to fold
                    # orphaned frames out of the spill container
                    await loop.run_in_executor(
                        self._executor, self.store.maybe_compact
                    )
                    continue
            else:
                first = await self._queue.get()
            if first is None:
                return
            batch = [first]
            deadline = loop.time() + window_s
            while len(batch) < self.config.batch_max:
                timeout = deadline - loop.time()
                if timeout <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(self._queue.get(), timeout)
                except asyncio.TimeoutError:
                    break
                if nxt is None:
                    await self._run_batch(batch)
                    return
                batch.append(nxt)
            await self._run_batch(batch)

    async def _run_batch(self, batch: list[_Request]) -> None:
        loop = asyncio.get_running_loop()
        live: list[_Request] = []
        deadline_s = self.config.request_deadline_ms / 1e3
        for req in batch:
            if time.monotonic() - req.arrived > deadline_s:
                req.future.set_exception(_Deadline(
                    f"request spent more than {self.config.request_deadline_ms:g} ms "
                    "queued; dropped unprocessed"
                ))
            else:
                live.append(req)
        if not live:
            return
        t0 = time.perf_counter()
        jobs = [(r.payload, r.header["eb"], r.header["dims"]) for r in live]
        try:
            blobs = await loop.run_in_executor(
                self._executor, self._compress_jobs, jobs
            )
        except Exception as exc:
            for req in live:
                if not req.future.done():
                    req.future.set_exception(exc)
            return
        for req, blob in zip(live, blobs):
            if not req.future.done():
                req.future.set_result(blob)
        if telemetry.is_enabled():
            _METRICS.timer("service.batch").observe(time.perf_counter() - t0)
            _METRICS.counter("service.batch.requests").add(len(live))
            _METRICS.counter("service.batches").add(1)

    def _compress_jobs(self, jobs: list[tuple[np.ndarray, float, object]]) -> list[bytes]:
        """Run one batch, fused per (eb, dims) class.

        The micro-batch is grouped by error bound and block geometry, and
        each group runs as ONE batched kernel pass (``compress_many``):
        no intermediate ``np.concatenate`` of request arrays — the fused
        numeric front reads the per-request views and emission scatters
        blobs back per request.  With a worker pool, whole groups ship to
        workers over shared memory; without one, the fusion runs inline.
        Output order always matches job order, byte-identical to
        per-request ``compress``.
        """
        groups: dict[tuple, list[int]] = {}
        for i, (_, eb, dims) in enumerate(jobs):
            key = (float(eb), tuple(dims) if dims is not None else None)
            groups.setdefault(key, []).append(i)
        blobs: list[bytes | None] = [None] * len(jobs)
        if self._pool is not None and len(jobs) > 1:
            order = list(groups.items())
            results = self._pool.compress_groups(
                [([jobs[i][0] for i in idxs], eb, dims)
                 for (eb, dims), idxs in order]
            )
            for ((_, idxs), group_blobs) in zip(order, results):
                for i, blob in zip(idxs, group_blobs):
                    blobs[i] = blob
            return blobs
        for (eb, dims), idxs in groups.items():
            codec = self.store.codec_for(dims)
            if len(idxs) > 1 and hasattr(codec, "compress_many"):
                group_blobs = codec.compress_many([jobs[i][0] for i in idxs], eb)
            else:
                group_blobs = [codec.compress(jobs[i][0], eb) for i in idxs]
            for i, blob in zip(idxs, group_blobs):
                blobs[i] = blob
        return blobs


class _Deadline(ServiceError):
    """Internal marker: a queued request expired (wire code ``DEADLINE``)."""


# ---------------------------------------------------------------------------
# thread-hosted server (tests, benchmarks, notebooks)


class ServerHandle:
    """A running server hosted on a background thread.

    ``host``/``port`` identify the live endpoint; :meth:`stop` drains it
    and joins the thread.  Context-manager use guarantees cleanup.
    """

    def __init__(self, server: CompressionServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self.host = server.config.host
        self.port = server.port
        self._loop = loop
        self._thread = thread

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop).result(
                timeout
            )
            self._thread.join(timeout)

    def kill(self, timeout: float = 10.0) -> None:
        """Hard-kill the hosted server: no drain, no container footer.

        The crash analogue of :meth:`stop` — see
        :meth:`CompressionServer.abort`.  Used by the cluster fault tests
        to simulate shard death without burning a subprocess.
        """
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.server.abort(), self._loop
            ).result(timeout)
            self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve_in_thread(config: ServerConfig | None = None,
                    start_timeout: float = 30.0) -> ServerHandle:
    """Start a :class:`CompressionServer` on a daemon thread; returns a
    :class:`ServerHandle` once the port is bound and accepting."""
    server = CompressionServer(config)
    started = threading.Event()
    boot_error: list[BaseException] = []

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # surface bind/codec failures to caller
            boot_error.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_until_complete(server._stopped.wait())
        finally:
            loop.close()

    holder: dict = {}
    thread = threading.Thread(target=run, name="pastri-serve", daemon=True)
    thread.start()
    if not started.wait(start_timeout):
        raise ServiceError("server failed to start within the timeout")
    if boot_error:
        raise boot_error[0]
    return ServerHandle(server, holder["loop"], thread)
