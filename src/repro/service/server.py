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
closed, then the store and pool shut down — a spill-backed store
finalizes its container footer.  The connection loop, the drain order
and the thread host are shared with the cluster gateway
(:mod:`repro.service.endpoint`).

Every request is traced with a ``service.request`` span (grafted into the
telemetry buffer whole, so concurrent coroutines cannot mis-nest) and
counted under ``service.*``; a ``metrics`` request returns the full
registry snapshot, so the PR 3 reporting tools work unchanged against a
running server.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from repro import api, telemetry
from repro.errors import DeadlineExceeded, ParameterError
from repro.pipeline.store import (
    CompressedERIStore,
    ContainerBackend,
    _revive_key,
)
from repro.service import protocol
from repro.service.endpoint import (
    BYTES_BORROWED,
    Endpoint,
    EndpointHandle,
    run_in_thread,
)
from repro.telemetry import REGISTRY as _METRICS
from repro.telemetry.spans import adopt_spans

__all__ = ["ServerConfig", "CompressionServer", "serve_in_thread"]


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
    #: decompressed-tier budget in bytes (0 = off; see
    #: CompressedERIStore.hot_cache_bytes)
    hot_cache_bytes: int = 4 << 20
    #: speculative decodes after an array-tier miss (0 = off)
    readahead: int = 2
    #: idle seconds on the batch queue before the spill container is
    #: checked for compaction (0 disables idle compaction)
    idle_compact_s: float = 5.0
    #: enable the telemetry registry for the server's lifetime (metrics
    #: replies are empty without it)
    telemetry: bool = True


class _Request:
    """One admitted request moving through the server."""

    __slots__ = ("header", "payload", "future", "arrived")

    def __init__(self, header: dict, payload: bytes, future: asyncio.Future) -> None:
        self.header = header
        self.payload = payload
        self.future = future
        self.arrived = time.monotonic()


class CompressionServer(Endpoint):
    """The asyncio TCP server; see the module docstring for semantics."""

    role = "server"
    metric_prefix = "service"

    def __init__(self, config: ServerConfig | None = None) -> None:
        super().__init__(config or ServerConfig())
        self.codec = self.config.codec or api.get_codec(
            self.config.codec_name, **self.config.codec_kwargs
        )
        backend = None
        if self.config.spill_path:
            backend = ContainerBackend(
                self.config.spill_path,
                memory_budget_bytes=self.config.memory_budget_bytes,
                recover=self.config.spill_recover,
            )
        self.store = CompressedERIStore(
            self.codec,
            self.config.error_bound,
            backend=backend,
            hot_cache_bytes=self.config.hot_cache_bytes,
            readahead_depth=self.config.readahead,
        )
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, self.config.n_workers + 1),
            thread_name_prefix="pastri-svc",
        )
        self._pool = None  # CodecWorkerPool, created on start when n_workers > 1
        self._inflight_bytes = 0

    # -- lifecycle hooks ---------------------------------------------------------

    async def _open(self) -> None:
        """Create the worker pool and start the batch dispatcher."""
        if self.config.n_workers > 1 and self.config.codec is None:
            from repro.parallel.pool import CodecWorkerPool

            self._pool = CodecWorkerPool(
                self.config.codec_name,
                self.config.codec_kwargs,
                self.config.n_workers,
            )
        self._queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._dispatcher = asyncio.ensure_future(self._batch_dispatcher())

    async def _quiesce(self, hard: bool) -> None:
        """Let already-admitted compress requests flow through the
        dispatcher, or cancel it on a hard kill."""
        if self._dispatcher is None:
            return
        if hard:
            self._dispatcher.cancel()
        else:
            await self._queue.put(None)  # dispatcher shutdown sentinel
        await asyncio.gather(self._dispatcher, return_exceptions=True)

    async def _release(self, hard: bool) -> None:
        """Shut the pool, executor and store down.  A hard kill *aborts* the
        store, leaving the footerless spill container a SIGKILLed process
        leaves; a successor comes back through the salvage path."""
        if hard:
            self._executor.shutdown(wait=False, cancel_futures=True)
            if self._pool is not None:
                self._pool.terminate()
            self.store.abort()
            return
        if self._pool is not None:
            self._pool.close()
        self._executor.shutdown(wait=True)
        self.store.close()

    # -- admission and accounting ------------------------------------------------

    def _admit(self, header: dict, payload: bytes) -> bytes | None:
        """Backpressure gate; returns a refusal frame or ``None`` to admit."""
        if self._draining:
            return super()._admit(header, payload)
        if self._inflight_bytes + len(payload) > self.config.max_inflight_bytes:
            busy = f"in-flight bytes limit reached ({self.config.max_inflight_bytes})"
        elif header.get("op") == "compress" and self._queue.full():
            busy = f"compress queue full ({self.config.max_queue})"
        else:
            # account in-flight bytes at admission, not inside the task:
            # several frames can arrive in one event-loop tick, and the gate
            # must see each other's bytes before any task runs
            self._inflight_bytes += len(payload)
            return None
        self._count("service.busy")
        return protocol.encode_error(header.get("id"), "BUSY", busy, retry_after_s=0.05)

    async def _write(self, writer: asyncio.StreamWriter, frame) -> None:
        await super()._write(writer, frame)
        parts = frame if isinstance(frame, list) else [frame]
        self._count("service.bytes_out", sum(
            p.nbytes if isinstance(p, memoryview) else len(p) for p in parts
        ))

    def _record_request(self, op: str | None, wall_s: float, bytes_in: int) -> None:
        super()._record_request(op, wall_s, bytes_in)
        self._count(f"service.requests.{op or 'unknown'}")
        self._count("service.bytes_in", bytes_in)
        if telemetry.is_enabled():
            # Graft a finished span rather than opening one around awaits:
            # concurrent coroutines share the thread-local span stack, so a
            # live span here could adopt another request's children.
            adopt_spans([{
                "name": "service.request",
                "wall_s": wall_s,
                "cpu_s": 0.0,
                "attrs": {"op": op or "unknown", "bytes_in": bytes_in},
            }])

    # -- request dispatch ------------------------------------------------------

    async def _dispatch(self, header: dict, payload: bytes):
        try:
            return await self._serve_op(header, payload)
        finally:
            self._inflight_bytes -= len(payload)

    async def _serve_op(self, header: dict, payload: bytes):
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
        blocking = {
            "decompress": self._do_decompress,
            "store.put": self._do_store_put,
            "store.get": self._do_store_get,
            "store.put_raw": self._do_store_put_raw,
            "store.get_raw": self._do_store_get_raw,
            "store.keys": self._do_store_keys,
        }.get(op)
        if blocking is not None:
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, blocking, req_id, params, payload
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
        """Every :class:`StoreStats` counter, its derived rates, the bound
        and the cache report."""
        s = self.store.stats
        reply = {
            f.name: getattr(s, f.name) for f in fields(s) if f.name != "seq_profile"
        }
        reply.update(
            ratio=s.ratio,
            hit_rate=s.hit_rate,
            readahead_accuracy=s.readahead_accuracy,
            error_bound=self.store.error_bound,
            cache_report=self.store.format_cache_report(),
        )
        return reply

    # -- blocking op bodies (executor threads) ---------------------------------
    # each takes (req_id, params, payload) and returns the reply frame

    def _do_decompress(self, req_id, params: dict, payload: bytes) -> list:
        out = self.codec.decompress(payload)
        body, n = protocol.array_to_view(out)
        self._count(BYTES_BORROWED, body.nbytes)
        return protocol.encode_response_parts(req_id, {"n": n}, body)

    def _do_store_put(self, req_id, params: dict, payload: bytes) -> bytes:
        if "key" not in params:
            raise ParameterError("store.put requires a 'key' param")
        # Borrow, don't copy: the store stages its own copy of the block.
        # The put is acknowledged once staged; the stage is compressed by a
        # later read, a full stage or a clean stop.
        data = protocol.payload_to_array(payload, params.get("n"), copy=False)
        self._count(BYTES_BORROWED, data.nbytes)
        key = _revive_key(params["key"])
        self.store.put(key, data, dims=params.get("dims"))
        return protocol.encode_response(req_id, {"stored": True, "n": int(data.size)})

    def _do_store_get(self, req_id, params: dict, payload: bytes) -> list:
        if "key" not in params:
            raise ParameterError("store.get requires a 'key' param")
        key = _revive_key(params["key"])
        out = self.store.get(key)
        body, n = protocol.array_to_view(out)
        self._count(BYTES_BORROWED, body.nbytes)
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

    def _do_store_keys(self, req_id, params: dict, payload: bytes) -> bytes:
        """Every key this shard holds, in wire form (tuples become lists).

        The cluster reshard path scans the fleet with this to compute
        which keys a membership change remaps.
        """
        keys = [list(k) if isinstance(k, tuple) else k for k in self.store.keys()]
        return protocol.encode_response(req_id, {"keys": keys})

    def _do_store_get_raw(self, req_id, params: dict, payload: bytes) -> list:
        if "key" not in params:
            raise ParameterError("store.get_raw requires a 'key' param")
        key = _revive_key(params["key"])
        blob, nbytes, dims = self.store.get_blob(key)
        self._count(BYTES_BORROWED, len(blob))
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
        self._count(BYTES_BORROWED, data.nbytes)
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
                req.future.set_exception(DeadlineExceeded(
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
            group_blobs = api.compress_many(
                self.store.codec_for(dims), [jobs[i][0] for i in idxs], eb
            )
            for i, blob in zip(idxs, group_blobs):
                blobs[i] = blob
        return blobs


# ---------------------------------------------------------------------------
# thread-hosted server (tests, notebooks)


def serve_in_thread(config: ServerConfig | None = None,
                    start_timeout: float = 30.0) -> EndpointHandle:
    """Start a :class:`CompressionServer` on a daemon thread (see
    :func:`~repro.service.endpoint.run_in_thread`)."""
    return run_in_thread(CompressionServer(config), start_timeout)
