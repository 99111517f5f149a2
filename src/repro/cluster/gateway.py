"""The cluster gateway: a stateless PSRV router over a shard fleet.

Clients speak the ordinary service protocol to the gateway; the gateway
consistent-hashes ``store.*`` keys onto shards (:class:`~repro.cluster.
ring.HashRing`, virtual nodes), replicates writes ``replication`` ways,
and spreads stateless ``compress``/``decompress`` traffic round-robin
over live shards.  It holds no blocks itself — all state is the ring, a
health table, and the hint journal — so gateways are horizontally
trivial.

**Zero-copy forwarding.**  A forwarded payload is never re-materialized:
the bytes read off the client socket are handed to the shard link as a
buffer-chain part (:func:`repro.service.protocol.encode_request_parts`),
and a shard's response payload rides back to the client the same way via
``writelines``.  ``service.buffers.bytes_borrowed`` counts every relayed
payload byte; ``bytes_copied`` stays at zero on the forward path — the
same discipline (and telemetry) as the PR 7 data plane.

**Failure semantics.**  A health task pings every shard; ``fail_after``
consecutive failures mark it down (forward-path failures count too, so a
crashed shard stops receiving traffic before the next ping).  Reads walk
the key's preference list and fail over past dead, BUSY, DEADLINE, or
missing replicas; writes that cannot reach a preferred shard go to a
live *holder* instead and leave a hint (:class:`~repro.cluster.hints.
HintLog`).  When the dead shard's health recovers — it has salvaged its
own spill container through the PR 5 recovery path — the gateway drains
the hints back: get from holder, put to owner, byte-identical blocks.

**Live resharding.**  The ``cluster.reshard.add``/``remove`` admin ops
change membership against a serving fleet: scan every shard's keys,
stream the remapped ~1/N of them shard-to-shard as raw blobs, flip the
ring atomically.  Routing is migration-aware throughout — reads try the
new ring's owners first and fall back on NOT_FOUND; writes go to the
union of old and new preference lists — so clients see zero failed
reads.  See ``docs/CLUSTER.md`` for the full protocol.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from dataclasses import dataclass, field

from repro import telemetry
from repro.cluster.hints import HintLog
from repro.cluster.ring import DEFAULT_VNODES, HashRing, key_bytes
from repro.errors import ParameterError, ProtocolError, ServiceError
from repro.service import buffers, protocol
from repro.service.server import hang_up
from repro.telemetry import REGISTRY as _METRICS

__all__ = ["GatewayConfig", "ClusterGateway", "GatewayHandle", "gateway_in_thread"]

#: ops the ring routes by key (everything else is stateless spreading)
_KEYED_OPS = ("store.put", "store.get")


@dataclass
class GatewayConfig:
    """Topology and failure-handling knobs for one gateway."""

    #: the shard fleet: ``(name, host, port)`` triples (or dicts with the
    #: same fields); names are the ring identities and must be unique
    shards: list = field(default_factory=list)
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral
    gateway_id: str = "gateway"
    #: copies per key (clamped to the fleet size)
    replication: int = 2
    vnodes: int = DEFAULT_VNODES
    #: extra ring successors tried as read sources / hint holders
    spares: int = 2
    # health checking
    health_interval_s: float = 0.5
    fail_after: int = 2
    shard_timeout_s: float = 15.0
    #: JSON-lines hint journal (None = in-memory hints only); the same
    #: file may be shared by several gateway processes (replay-merge)
    hint_path: str | None = None
    #: fsync every hint record (crash-durable hints; tests may disable)
    hint_durable: bool = True
    links_per_shard: int = 2
    max_payload_bytes: int = protocol.DEFAULT_MAX_PAYLOAD
    telemetry: bool = True

    def shard_addrs(self) -> list[tuple[str, str, int]]:
        out = []
        for s in self.shards:
            if isinstance(s, dict):
                out.append((str(s["name"]), str(s["host"]), int(s["port"])))
            else:
                name, host, port = s
                out.append((str(name), str(host), int(port)))
        names = [n for n, _, _ in out]
        if len(set(names)) != len(names):
            raise ParameterError("shard names must be unique")
        return out


class _ShardLink:
    """One persistent PSRV connection to a shard (lazy, self-healing)."""

    def __init__(self, host: str, port: int, max_payload: int) -> None:
        self.host = host
        self.port = port
        self.max_payload = max_payload
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 0

    async def _connect(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    def abort(self) -> None:
        """Synchronous close for contexts that cannot await (cancellation).

        The transport tears the connection down on the event loop's next
        tick; the link reconnects lazily on its next use.
        """
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None

    async def call(self, op: str, params: dict, payload, route: dict
                   ) -> tuple[dict, bytes]:
        """Forward one op; returns the raw response ``(header, payload)``.

        Error *replies* come back as headers (``ok: false``) for the
        caller to interpret; only transport failures raise.  The request
        payload goes out as a buffer-chain part — no copy here.
        """
        await self._connect()
        self._next_id += 1
        req_id = self._next_id
        try:
            self._writer.writelines(
                protocol.encode_request_parts(op, req_id, params, payload, route)
            )
            await self._writer.drain()
            frame = await protocol.read_frame_async(self._reader, self.max_payload)
        except (ConnectionError, OSError, ProtocolError):
            await self.close()
            raise
        if frame is None:
            await self.close()
            raise ConnectionResetError("shard closed the connection mid-request")
        header, body = frame
        got = header.get("id")
        if got is not None and got != req_id:
            await self.close()
            raise ProtocolError(f"shard response id {got} != request {req_id}")
        return header, body


class _LinkPool:
    """A small pool of links to one shard; calls lease one at a time."""

    def __init__(self, host: str, port: int, size: int, timeout_s: float,
                 max_payload: int) -> None:
        self._host = host
        self._port = port
        self._timeout_s = timeout_s
        self._max_payload = max_payload
        self._free: asyncio.Queue = asyncio.Queue()
        self._spare = size  # links not yet created
        self._closing = False

    async def call(self, op: str, params: dict, payload, route: dict
                   ) -> tuple[dict, bytes]:
        if self._spare > 0:
            self._spare -= 1
            link = _ShardLink(self._host, self._port, self._max_payload)
        else:
            link = await self._free.get()
        clean = False
        try:
            result = await asyncio.wait_for(
                link.call(op, params, payload, route), self._timeout_s
            )
            clean = True
            return result
        finally:
            # ANY non-clean exit — timeout, transport error, cancellation
            # (e.g. a gateway drain mid-``writelines``) — may leave the
            # connection desynchronized: a request half-written or a
            # response half-read.  Re-pooling it live would hand the next
            # caller a stale or torn frame, so drop the connection; the
            # link reconnects lazily.  (abort() is sync: under
            # cancellation an ``await`` here could itself be cancelled.)
            if not clean or self._closing:
                link.abort()
            self._free.put_nowait(link)

    async def close(self) -> None:
        self._closing = True  # leased links are aborted as they return
        while not self._free.empty():
            await self._free.get_nowait().close()


class _Migration:
    """In-flight reshard state: old/new rings plus the keys still to copy.

    ``pending`` maps canonical key json -> ``(key, targets)``; the
    streaming task pops entries as it copies them, and the write path
    pops an entry when a dual-write already delivered the key to its new
    owners (see :meth:`note_write`) — so a fresh client write is never
    clobbered by a stale migration copy.
    """

    __slots__ = ("old_ring", "new_ring", "adding", "removing", "total",
                 "moved", "bytes_moved", "failures", "pending", "current",
                 "current_dirty")

    def __init__(self, old_ring: HashRing, new_ring: HashRing,
                 adding: str | None, removing: str | None,
                 pending: dict) -> None:
        self.old_ring = old_ring
        self.new_ring = new_ring
        self.adding = adding
        self.removing = removing
        self.pending = pending
        self.total = len(pending)
        self.moved = 0
        self.bytes_moved = 0
        self.failures = 0
        self.current: str | None = None  # key json being copied right now
        self.current_dirty = False       # a write raced the in-flight copy

    def note_write(self, kj: str) -> None:
        """A client write just reached the key's new owners directly."""
        self.pending.pop(kj, None)
        if self.current == kj:
            self.current_dirty = True

    def status(self) -> dict:
        return {
            "active": True,
            "adding": self.adding,
            "removing": self.removing,
            "keys_total": self.total,
            "keys_moved": self.moved,
            "keys_pending": len(self.pending),
            "bytes_moved": self.bytes_moved,
            "copy_failures": self.failures,
        }


class ClusterGateway:
    """The asyncio gateway server; see the module docstring for semantics."""

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        addrs = config.shard_addrs()
        if not addrs:
            raise ParameterError("a gateway needs at least one shard")
        self.ring = HashRing([name for name, _, _ in addrs], config.vnodes)
        self.hints = HintLog(config.hint_path, durable=config.hint_durable)
        self._addrs: dict[str, tuple[str, int]] = {}
        self._pools: dict[str, _LinkPool] = {}
        self._failures: dict[str, int] = {}
        self._down: set[str] = set()
        for name, host, port in addrs:
            self._add_member(name, host, port)
        self._migration: _Migration | None = None
        self._rr = 0  # round-robin cursor for stateless ops
        self._server: asyncio.AbstractServer | None = None
        self._health_task: asyncio.Task | None = None
        self._drain_tasks: set[asyncio.Task] = set()
        self._drain_active: set[str] = set()  # shards with a drain running
        self._tasks: set[asyncio.Task] = set()
        self._conns: dict[asyncio.StreamWriter, asyncio.Task] = {}  # -> handler
        self._draining = False
        self._started = time.monotonic()
        self._stopped = asyncio.Event()

    # -- membership ----------------------------------------------------------

    def _add_member(self, name: str, host: str, port: int) -> None:
        """Wire up links and health state for a shard (not yet in the ring)."""
        self._addrs[name] = (host, port)
        self._pools[name] = _LinkPool(
            host, int(port), self.config.links_per_shard,
            self.config.shard_timeout_s, self.config.max_payload_bytes,
        )
        self._failures[name] = 0

    async def _remove_member(self, name: str) -> None:
        """Forget a shard entirely: links, health state, owed hints."""
        self._addrs.pop(name, None)
        self._failures.pop(name, None)
        self._down.discard(name)
        self.hints.forget(name)
        pool = self._pools.pop(name, None)
        if pool is not None:
            await pool.close()

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise ServiceError("gateway is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self.config.telemetry:
            telemetry.enable()
        self._started = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._health_task = asyncio.ensure_future(self._health_loop())

    async def serve_forever(self) -> None:
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
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._health_task is not None:
            self._health_task.cancel()
        for task in list(self._drain_tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        # admitted work has replied: hang up, then wait_closed() can return
        await hang_up(self._conns)
        if self._server is not None:
            await self._server.wait_closed()
        for pool in self._pools.values():
            await pool.close()
        self.hints.close()
        self._stopped.set()

    # -- shard health --------------------------------------------------------

    def live_shards(self) -> list[str]:
        return sorted(self._addrs.keys() - self._down)

    def _note_failure(self, shard: str) -> None:
        self._failures[shard] = self._failures.get(shard, 0) + 1
        if self._failures[shard] >= self.config.fail_after and shard not in self._down:
            self._down.add(shard)
            self._count("cluster.shard_down")

    def _note_success(self, shard: str) -> None:
        self._failures[shard] = 0
        if shard in self._down:
            self._down.discard(shard)
            self._count("cluster.shard_up")
            if self.hints.pending(shard):
                self._spawn_drain(shard)

    def _spawn_drain(self, shard: str) -> None:
        """Start one hint drain per shard at a time (idempotent)."""
        if shard in self._drain_active or shard not in self._pools:
            return
        self._drain_active.add(shard)
        task = asyncio.ensure_future(self._drain_hints(shard))
        self._drain_tasks.add(task)
        task.add_done_callback(self._drain_tasks.discard)
        task.add_done_callback(lambda _t, s=shard: self._drain_active.discard(s))

    async def _health_loop(self) -> None:
        interval = self.config.health_interval_s
        probe_timeout = min(max(interval, 0.1), self.config.shard_timeout_s)
        while not self._draining:
            await asyncio.sleep(interval)
            await asyncio.gather(
                *(self._probe(name, probe_timeout) for name in list(self._addrs)),
                return_exceptions=True,
            )
            # shared-journal upkeep: merge records appended by peer
            # gateways, fold drained pairs away when they dominate, and
            # drain any hints (ours or a peer's) owed to live shards
            try:
                self.hints.refresh()
                self.hints.maybe_compact()
            except Exception:  # pragma: no cover - journal I/O trouble
                self._count("cluster.hints.refresh_failures")
            for shard, n in self.hints.counts().items():
                if n and shard not in self._down:
                    self._spawn_drain(shard)

    async def _probe(self, shard: str, timeout_s: float) -> None:
        try:
            header, _ = await asyncio.wait_for(
                self._pools[shard].call("health", {}, b"", self._route(shard, 0)),
                timeout_s,
            )
            if header.get("ok"):
                self._note_success(shard)
            else:
                self._note_failure(shard)
        except Exception:
            self._note_failure(shard)

    # -- hinted handoff ------------------------------------------------------

    async def _drain_hints(self, shard: str) -> None:
        """Hand every hinted block back to its rightful, rejoined owner."""
        for key, holder in self.hints.pending(shard):
            if holder not in self._pools or shard not in self._pools:
                continue  # membership changed under us mid-drain
            try:
                # raw blob transfer: the rejoined owner ends up holding
                # byte-identical compressed bytes, no decode/re-encode
                rh, body = await self._pools[holder].call(
                    "store.get_raw", {"key": key}, b"", self._route(holder, 0)
                )
                if not rh.get("ok"):
                    self._count("cluster.hints.drain_failures")
                    continue
                result = rh.get("result", {})
                ph, _ = await self._pools[shard].call(
                    "store.put_raw",
                    {"key": key, "n": result.get("n"),
                     "dims": result.get("dims")},
                    memoryview(body),
                    self._route(shard, 0),
                )
            except Exception:
                self._count("cluster.hints.drain_failures")
                continue
            if ph.get("ok"):
                self.hints.drained(shard, key)
                self._count("cluster.hints.drained")
            else:
                self._count("cluster.hints.drain_failures")

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        self._conns[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    frame = await protocol.read_frame_async(
                        reader, self.config.max_payload_bytes
                    )
                except ProtocolError as exc:
                    await self._write(
                        writer, write_lock,
                        protocol.encode_error(None, "PROTOCOL", str(exc)),
                    )
                    break
                if frame is None:
                    break
                header, payload = frame
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

    async def _write(self, writer, lock: asyncio.Lock, frame) -> None:
        parts = frame if isinstance(frame, list) else [frame]
        async with lock:
            writer.writelines(parts)
            await writer.drain()

    async def _serve_request(self, header: dict, payload: bytes, writer,
                             write_lock: asyncio.Lock) -> None:
        op = header.get("op")
        req_id = header.get("id")
        t0 = time.perf_counter()
        try:
            reply = await self._dispatch(op, req_id, header, payload)
        except asyncio.CancelledError:
            raise
        except ParameterError as exc:
            reply = protocol.encode_error(req_id, "BAD_REQUEST", str(exc))
        except Exception as exc:
            self._count("cluster.errors")
            reply = protocol.encode_error(req_id, "INTERNAL", str(exc))
        self._count("cluster.requests")
        if telemetry.is_enabled():
            _METRICS.timer("cluster.request").observe(
                time.perf_counter() - t0, nbytes=len(payload)
            )
        try:
            await self._write(writer, write_lock, reply)
        except (ConnectionError, OSError):
            pass

    # -- routing -------------------------------------------------------------

    def _route(self, shard: str, attempt: int) -> dict:
        return {"via": self.config.gateway_id, "shard": shard,
                "attempt": attempt}

    def _candidates(self, key) -> list[str]:
        """Preference list + spare successors (read sources, hint holders).

        During a reshard the *new* ring's candidates come first and the
        old ring's are appended (deduped): a read tries the key's future
        owner, and if the block has not been copied yet the NOT_FOUND
        falls through to the current owner — zero failed reads while the
        migration streams.
        """
        depth = self.config.replication + self.config.spares
        cands = self.ring.preference(key, min(depth, len(self.ring)))
        mig = self._migration
        if mig is not None:
            ahead = mig.new_ring.preference(key, min(depth, len(mig.new_ring)))
            cands = ahead + [s for s in cands if s not in ahead]
        return cands

    def _put_targets(self, key) -> tuple[list[str], list[str]]:
        """``(preferred, spares)`` replica placement for one write.

        During a reshard, writes go to the *union* of the old and new
        preference lists — the new owners see fresh data immediately (so
        the flip loses nothing) while the old owners stay current for
        the fallback read path and as migration copy sources.
        """
        r = self.config.replication
        mig = self._migration
        if mig is None:
            candidates = self._candidates(key)
            k = min(r, len(candidates))
            return candidates[:k], candidates[k:]
        new_pref = mig.new_ring.preference(key, min(r, len(mig.new_ring)))
        old_pref = self.ring.preference(key, min(r, len(self.ring)))
        preferred = new_pref + [s for s in old_pref if s not in new_pref]
        pool = mig.new_ring.preference(
            key, min(r + self.config.spares, len(mig.new_ring))
        )
        spares = [s for s in pool if s not in preferred]
        return preferred, spares

    async def _dispatch(self, op, req_id, header: dict, payload: bytes):
        if self._draining:
            return protocol.encode_error(
                req_id, "SHUTTING_DOWN", "gateway is draining", retry_after_s=0.2
            )
        params = header.get("params") or {}
        if not isinstance(params, dict):
            raise ParameterError("request params must be a JSON object")
        if op == "health":
            return protocol.encode_response(req_id, self._health())
        if op == "metrics":
            return protocol.encode_response(
                req_id, {"metrics": telemetry.metrics_snapshot()}
            )
        if op == "cluster.stats":
            return protocol.encode_response(req_id, await self._cluster_stats())
        if op == "store.stats":
            return protocol.encode_response(req_id, await self._fleet_store_stats())
        if op == "store.put":
            return await self._routed_put(req_id, params, payload)
        if op == "store.get":
            return await self._routed_get(req_id, params)
        if op in ("compress", "decompress"):
            return await self._spread(op, req_id, params, payload)
        if op == "cluster.reshard.add":
            return await self._reshard(req_id, params, add=True)
        if op == "cluster.reshard.remove":
            return await self._reshard(req_id, params, add=False)
        if op == "cluster.reshard.status":
            return protocol.encode_response(req_id, self._reshard_status())
        raise ParameterError(f"unknown gateway op {op!r}")

    # -- live resharding -----------------------------------------------------

    async def _reshard(self, req_id, params: dict, add: bool):
        """Admin entry point: change membership and migrate keys live."""
        if self._migration is not None:
            return protocol.encode_error(
                req_id, "BUSY", "a reshard is already in progress",
                retry_after_s=1.0,
            )
        name = str(params.get("name") or "")
        if not name:
            raise ParameterError("reshard requires a shard 'name'")
        if add:
            if name in self._addrs:
                raise ParameterError(f"shard {name!r} is already a member")
            if "host" not in params or "port" not in params:
                raise ParameterError("cluster.reshard.add requires 'host' and 'port'")
            self._add_member(name, str(params["host"]), int(params["port"]))
            try:  # the newcomer must answer before it can receive keys
                header, _ = await self._pools[name].call(
                    "health", {}, b"", self._route(name, 0)
                )
                healthy = bool(header.get("ok"))
            except Exception as exc:
                await self._remove_member(name)
                return protocol.encode_error(
                    req_id, "BUSY", f"new shard {name!r} unreachable: {exc}"
                )
            if not healthy:
                await self._remove_member(name)
                return protocol.encode_error(
                    req_id, "BUSY", f"new shard {name!r} is not healthy"
                )
            new_ring = self.ring.copy()
            new_ring.add(name)
        else:
            if name not in self.ring:
                raise ParameterError(f"shard {name!r} is not a ring member")
            if len(self.ring) < 2:
                raise ParameterError("cannot remove the last shard")
            new_ring = self.ring.copy()
            new_ring.remove(name)
        summary = await self._run_reshard(new_ring, name, add)
        return protocol.encode_response(req_id, summary)

    def _reshard_status(self) -> dict:
        if self._migration is not None:
            return self._migration.status()
        return {"active": False, "members": sorted(self.ring.nodes)}

    async def _collect_keys(self) -> dict[str, object]:
        """Every key held anywhere in the fleet, deduped canonically."""
        keys: dict[str, object] = {}
        for shard in self.live_shards():
            try:
                header, _ = await self._pools[shard].call(
                    "store.keys", {}, b"", self._route(shard, 0)
                )
            except Exception:
                self._note_failure(shard)
                continue
            if not header.get("ok"):
                continue
            for key in header.get("result", {}).get("keys", []):
                keys.setdefault(key_bytes(key).decode("utf-8"), key)
        return keys

    async def _run_reshard(self, new_ring: HashRing, name: str,
                           add: bool) -> dict:
        """Compute the remapped key set, stream it, flip the ring.

        Only keys whose new preference list gained a shard move, and
        they move as raw compressed blobs (``store.get_raw`` →
        ``store.put_raw``) — no decode/re-encode, byte-identical on the
        new owner.  The serving path keeps running throughout: reads
        prefer the new owner and fall back (:meth:`_candidates`), writes
        go to the union of old and new owners (:meth:`_put_targets`).
        The flip itself is two plain assignments between awaits — atomic
        under asyncio's single-threaded execution.
        """
        t0 = time.perf_counter()
        r = self.config.replication
        old_ring = self.ring
        all_keys = await self._collect_keys()
        pending: dict[str, tuple] = {}
        for kj, key in all_keys.items():
            old_pref = old_ring.preference(key, min(r, len(old_ring)))
            new_pref = new_ring.preference(key, min(r, len(new_ring)))
            targets = [t for t in new_pref if t not in old_pref]
            if targets:
                pending[kj] = (key, targets, list(old_pref))
        mig = _Migration(old_ring, new_ring,
                         name if add else None, None if add else name, pending)
        self._migration = mig
        self._count("cluster.reshards")
        moved: list = []
        try:
            while mig.pending:
                kj, (key, targets, sources) = next(iter(mig.pending.items()))
                mig.current = kj
                copied, nbytes = False, 0
                for _attempt in range(8):
                    mig.current_dirty = False
                    fetched, failed, nbytes = await self._copy_key(
                        key, targets, sources
                    )
                    if not fetched:
                        break
                    if mig.current_dirty:
                        # a client write raced this copy: its dual-write
                        # refreshed the sources too, so re-fetch and
                        # re-put to guarantee the newest bytes win
                        continue
                    copied = not failed
                    for target in failed:
                        if sources:
                            self.hints.record(target, key, sources[0])
                            self._count("cluster.hints.recorded")
                    break
                mig.current = None
                still_pending = mig.pending.pop(kj, None) is not None
                if copied:
                    mig.moved += 1
                    mig.bytes_moved += nbytes
                    moved.append(key)
                elif still_pending and not mig.current_dirty:
                    mig.failures += 1
                    self._count("cluster.reshard.copy_failures")
        finally:
            # the atomic flip: no await between these two statements
            self.ring = mig.new_ring
            self._migration = None
        if not add:
            await self._remove_member(name)
        return {
            "action": "add" if add else "remove",
            "shard": name,
            "members": sorted(self.ring.nodes),
            "keys_scanned": len(all_keys),
            "keys_remapped": mig.total,
            "keys_moved": mig.moved,
            "bytes_moved": mig.bytes_moved,
            "copy_failures": mig.failures,
            "moved": moved,
            "duration_s": round(time.perf_counter() - t0, 6),
        }

    async def _copy_key(self, key, targets: list[str], sources: list[str]
                        ) -> tuple[bool, list[str], int]:
        """Stream one raw blob from a live source to its new owners.

        Returns ``(fetched, failed_targets, nbytes)``; the blob rides as
        a borrowed memoryview both ways (zero-copy relay).
        """
        for source in sources:
            if source in self._down or source not in self._pools:
                continue
            try:
                rh, body = await self._pools[source].call(
                    "store.get_raw", {"key": key}, b"", self._route(source, 0)
                )
            except Exception:
                self._note_failure(source)
                continue
            if not rh.get("ok"):
                continue
            result = rh.get("result", {})
            buffers.count_borrowed(len(body) * max(len(targets), 1))
            failed: list[str] = []
            for target in targets:
                try:
                    ph, _ = await self._pools[target].call(
                        "store.put_raw",
                        {"key": key, "n": result.get("n"),
                         "dims": result.get("dims")},
                        memoryview(body), self._route(target, 0),
                    )
                except Exception:
                    self._note_failure(target)
                    failed.append(target)
                    continue
                if not ph.get("ok"):
                    failed.append(target)
            return True, failed, len(body)
        return False, list(targets), 0

    # -- replicated writes ---------------------------------------------------

    async def _routed_put(self, req_id, params: dict, payload: bytes):
        if "key" not in params:
            raise ParameterError("store.put requires a 'key' param")
        key = params["key"]
        preferred, spares = self._put_targets(key)
        body = memoryview(payload)
        buffers.count_borrowed(len(payload) * max(len(preferred), 1))
        results = await asyncio.gather(
            *(self._put_one(target, params, body) for target in preferred)
        )
        ok_result = None
        failures: list[tuple[str, dict | None]] = []
        served_by = []
        for target, (good, outcome) in zip(preferred, results):
            if good:
                served_by.append(target)
                ok_result = ok_result or outcome
            else:
                failures.append((target, outcome))
        # every unreachable preferred replica gets a hinted stand-in
        hinted = []
        holders = [s for s in spares if s not in self._down]
        for target, _ in failures:
            while holders:
                holder = holders.pop(0)
                good, outcome = await self._put_one(holder, params, body)
                if good:
                    self.hints.record(target, key, holder)
                    self._count("cluster.hints.recorded")
                    hinted.append(holder)
                    ok_result = ok_result or outcome
                    break
        if ok_result is None:
            _, err = failures[-1] if failures else (None, None)
            code = (err or {}).get("code", "BUSY")
            msg = (err or {}).get("message", "no live replica accepted the write")
            return protocol.encode_error(
                req_id, code if code in protocol.ERROR_CODES else "INTERNAL",
                msg, retry_after_s=0.2,
            )
        mig = self._migration
        if mig is not None:
            new_pref = mig.new_ring.preference(
                key, min(self.config.replication, len(mig.new_ring))
            )
            if all(t in served_by for t in new_pref):
                # this write just reached every future owner directly —
                # drop the key from the copy queue (and flag the copier
                # if it is streaming this very key) so a stale migration
                # copy can never clobber the fresh bytes
                mig.note_write(key_bytes(key).decode("utf-8"))
        self._count("cluster.replicated_writes", len(served_by) + len(hinted))
        route = {"shard": (served_by or hinted)[0], "replicas": len(served_by),
                 "hinted": len(hinted)}
        return protocol.encode_response_parts(req_id, ok_result, route=route)

    async def _put_one(self, target: str, params: dict, body
                       ) -> tuple[bool, dict | None]:
        """One replica write; ``(ok, result-or-error-dict)``, never raises."""
        if target in self._down:
            return False, {"code": "BUSY", "message": f"{target} is down"}
        try:
            header, _ = await self._pools[target].call(
                "store.put", params, body, self._route(target, 0)
            )
        except Exception as exc:
            self._note_failure(target)
            return False, {"code": "BUSY", "message": str(exc)}
        if header.get("ok"):
            self._note_success(target)
            return True, header.get("result", {})
        err = header.get("error") or {}
        if err.get("code") == "BAD_REQUEST":
            # deterministic refusal: don't blame the shard, don't hint
            raise ParameterError(err.get("message", "bad request"))
        return False, err

    # -- failover reads ------------------------------------------------------

    async def _routed_get(self, req_id, params: dict):
        if "key" not in params:
            raise ParameterError("store.get requires a 'key' param")
        candidates = self._candidates(params["key"])
        attempts = 0
        missing = False
        last_err: dict | None = None
        for target in candidates:
            if target in self._down:
                continue
            attempts += 1
            try:
                header, body = await self._pools[target].call(
                    "store.get", params, b"", self._route(target, attempts)
                )
            except Exception as exc:
                self._note_failure(target)
                self._count("cluster.failovers")
                last_err = {"code": "BUSY", "message": str(exc)}
                continue
            if header.get("ok"):
                self._note_success(target)
                if attempts > 1:
                    self._count("cluster.failovers")
                buffers.count_borrowed(len(body))
                return protocol.encode_response_parts(
                    req_id, header.get("result", {}), memoryview(body),
                    route={"shard": target, "attempts": attempts},
                )
            err = header.get("error") or {}
            if err.get("code") == "NOT_FOUND":
                # maybe written while this shard was down — try the others
                missing = True
                continue
            self._count("cluster.failovers")
            last_err = err
        if missing and last_err is None:
            return protocol.encode_error(
                req_id, "NOT_FOUND",
                f"key {params['key']!r} not found on any replica",
            )
        err = last_err or {"code": "BUSY", "message": "no live replica reachable"}
        code = err.get("code", "BUSY")
        return protocol.encode_error(
            req_id, code if code in protocol.ERROR_CODES else "INTERNAL",
            err.get("message", "replica error"), retry_after_s=0.2,
        )

    # -- stateless spreading -------------------------------------------------

    async def _spread(self, op: str, req_id, params: dict, payload: bytes):
        live = self.live_shards()
        if not live:
            return protocol.encode_error(
                req_id, "BUSY", "no live shards", retry_after_s=0.5
            )
        body = memoryview(payload)
        buffers.count_borrowed(len(payload))
        last_err: dict | None = None
        for attempt in range(len(live)):
            target = live[(self._rr + attempt) % len(live)]
            try:
                header, rbody = await self._pools[target].call(
                    op, params, body, self._route(target, attempt + 1)
                )
            except Exception as exc:
                self._note_failure(target)
                last_err = {"code": "BUSY", "message": str(exc)}
                continue
            finally:
                self._rr += 1
            if header.get("ok"):
                self._note_success(target)
                buffers.count_borrowed(len(rbody))
                return protocol.encode_response_parts(
                    req_id, header.get("result", {}), memoryview(rbody),
                    route={"shard": target, "attempts": attempt + 1},
                )
            err = header.get("error") or {}
            if err.get("code") in ("BUSY", "SHUTTING_DOWN", "DEADLINE"):
                last_err = err
                continue
            return protocol.encode_error(
                req_id, err.get("code", "INTERNAL"),
                err.get("message", "shard error"),
                route={"shard": target, "attempts": attempt + 1},
            )
        err = last_err or {"code": "BUSY", "message": "no shard accepted"}
        return protocol.encode_error(
            req_id, err.get("code", "BUSY"), err.get("message", ""),
            retry_after_s=float(err.get("retry_after_s", 0.1)),
        )

    # -- introspection -------------------------------------------------------

    def _health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "role": "gateway",
            "gateway_id": self.config.gateway_id,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "replication": self.config.replication,
            "shards_up": self.live_shards(),
            "shards_down": sorted(self._down),
            "hints_pending": len(self.hints),
            "resharding": self._reshard_status(),
            # keep the standalone-server health keys renderable
            "inflight_bytes": 0,
            "queued": 0,
            "store_entries": None,
        }

    async def _shard_call(self, shard: str, op: str) -> dict:
        try:
            header, _ = await self._pools[shard].call(
                op, {}, b"", self._route(shard, 0)
            )
        except Exception as exc:
            return {"error": str(exc)}
        if not header.get("ok"):
            return {"error": (header.get("error") or {}).get("message", "?")}
        return header.get("result", {})

    async def _cluster_stats(self) -> dict:
        """Fleet summary + per-shard health and store stats (``cluster.stats``)."""
        names = sorted(self._addrs)
        healths = await asyncio.gather(
            *(self._shard_call(n, "health") for n in names)
        )
        stores = await asyncio.gather(
            *(self._shard_call(n, "store.stats") for n in names)
        )
        shards = {}
        for name, health, store in zip(names, healths, stores):
            store = dict(store)
            store.pop("cache_report", None)
            shards[name] = {
                "addr": "%s:%d" % self._addrs[name],
                "up": name not in self._down,
                "health": health,
                "store": store,
            }
        snapshot = telemetry.metrics_snapshot() if telemetry.is_enabled() else {}
        return {
            "fleet": {
                "gateway_id": self.config.gateway_id,
                "n_shards": len(names),
                "replication": self.config.replication,
                "vnodes": self.config.vnodes,
                "shards_up": self.live_shards(),
                "shards_down": sorted(self._down),
                "hints_pending": self.hints.counts(),
                "resharding": self._reshard_status(),
            },
            "shards": shards,
            "gateway_metrics": {
                k: v for k, v in snapshot.items()
                if k.startswith(("cluster.", "service.buffers."))
            },
        }

    #: store.stats fields that are rates/configs, not additive counters
    _NON_ADDITIVE = ("error_bound", "ratio", "hit_rate", "readahead_accuracy")

    async def _fleet_store_stats(self) -> dict:
        """Aggregate ``store.stats`` over live shards.

        Counters sum; rates are re-derived from the summed components
        (summing per-shard ratios would be meaningless); ``error_bound``
        is taken from the first shard (the fleet shares one bound).
        """
        live = self.live_shards()
        replies = await asyncio.gather(
            *(self._shard_call(n, "store.stats") for n in live)
        )
        agg: dict = {"shards_reporting": 0}
        for reply in replies:
            if "error" in reply:
                continue
            agg["shards_reporting"] += 1
            agg.setdefault("error_bound", reply.get("error_bound"))
            for k, v in reply.items():
                if k in self._NON_ADDITIVE:
                    continue
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    continue
                agg[k] = agg.get(k, 0) + v
        if agg.get("compressed_bytes"):
            agg["ratio"] = agg.get("original_bytes", 0) / agg["compressed_bytes"]
        lookups = agg.get("cache_hits", 0) + agg.get("cache_misses", 0)
        if lookups:
            agg["hit_rate"] = agg.get("cache_hits", 0) / lookups
        return agg

    @staticmethod
    def _count(name: str, n: int = 1) -> None:
        if telemetry.is_enabled():
            _METRICS.counter(name).add(n)


# ---------------------------------------------------------------------------
# thread-hosted gateway (tests, benchmarks, notebooks)


class GatewayHandle:
    """A running gateway hosted on a background thread (see ``stop``)."""

    def __init__(self, gateway: ClusterGateway, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.gateway = gateway
        self.host = gateway.config.host
        self.port = gateway.port
        self._loop = loop
        self._thread = thread

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.gateway.stop(), self._loop
            ).result(timeout)
            self._thread.join(timeout)

    def __enter__(self) -> "GatewayHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def gateway_in_thread(config: GatewayConfig,
                      start_timeout: float = 30.0) -> GatewayHandle:
    """Start a :class:`ClusterGateway` on a daemon thread."""
    gateway = ClusterGateway(config)
    started = threading.Event()
    boot_error: list[BaseException] = []
    holder: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop
        try:
            loop.run_until_complete(gateway.start())
        except BaseException as exc:
            boot_error.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_until_complete(gateway._stopped.wait())
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="pastri-gateway", daemon=True)
    thread.start()
    if not started.wait(start_timeout):
        raise ServiceError("gateway failed to start within the timeout")
    if boot_error:
        raise boot_error[0]
    return GatewayHandle(gateway, holder["loop"], thread)
