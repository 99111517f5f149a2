"""The cluster gateway: a stateless PSRV router over a shard fleet.

Clients speak the ordinary service protocol to the gateway; the gateway
consistent-hashes ``store.*`` keys onto shards (:class:`~repro.cluster.
ring.HashRing`, virtual nodes), replicates writes ``replication`` ways,
and spreads stateless ``compress``/``decompress`` traffic round-robin
over live shards.  It holds no blocks itself — all state is the ring, a
health table, and the hint journal — so gateways are horizontally
trivial.

**Zero-copy forwarding.**  A forwarded payload is never re-materialized:
the bytes read off the client socket are handed to the shard connection
as a buffer-chain part (:func:`repro.service.protocol.encode_request_parts`),
and a shard's response payload rides back to the client the same way via
``writelines``.  ``service.buffers.bytes_borrowed`` counts every relayed
payload byte, and ``tests/cluster/test_gateway.py::TestZeroCopy`` checks
that each relayed ``store.get`` body leaves as the very buffer its shard
connection returned.

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

**One write order per key.**  Hint drains and reshard copies share one
:meth:`ClusterGateway._transfer`.  It and every ``store.put`` fan-out
hold the key's lock, and a put that lands on a shard supersedes any
transfer of the key still owed there, so no transfer puts older bytes
over a newer write made through this gateway.  Writes to one key through
several gateways are still unordered.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import asynccontextmanager
from dataclasses import dataclass, field

from repro import telemetry
from repro.cluster.hints import HintLog
from repro.cluster.ring import DEFAULT_VNODES, HashRing, key_bytes
from repro.errors import ParameterError
from repro.service import protocol
from repro.service.client import Connection
from repro.service.endpoint import (
    BYTES_BORROWED,
    Endpoint,
    EndpointHandle,
    run_in_thread,
)

__all__ = ["GatewayConfig", "ClusterGateway", "gateway_in_thread"]


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


class _Migration:
    """In-flight reshard state: old/new rings plus the keys still to copy.

    ``pending`` maps canonical key json -> ``(key, targets, sources)``; a
    put that lands on a target takes it out of ``targets`` (see
    :meth:`ClusterGateway._supersede`), so no copy overwrites the put.
    """

    __slots__ = ("old_ring", "new_ring", "adding", "removing", "total",
                 "moved", "bytes_moved", "failures", "pending")

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


class ClusterGateway(Endpoint):
    """The asyncio gateway server; see the module docstring for semantics."""

    role = "gateway"
    metric_prefix = "cluster"

    def __init__(self, config: GatewayConfig) -> None:
        super().__init__(config)
        addrs = config.shard_addrs()
        if not addrs:
            raise ParameterError("a gateway needs at least one shard")
        self.ring = HashRing([name for name, _, _ in addrs], config.vnodes)
        self.hints = HintLog(config.hint_path, durable=config.hint_durable)
        self._addrs: dict[str, tuple[str, int]] = {}
        self._links: dict[str, Connection] = {}  # one multiplexed link per shard
        self._failures: dict[str, int] = {}
        self._down: set[str] = set()
        for name, host, port in addrs:
            self._add_member(name, host, port)
        self._migration: _Migration | None = None
        self._rr = 0  # round-robin cursor for stateless ops
        self._health_task: asyncio.Task | None = None
        self._drain_tasks: set[asyncio.Task] = set()
        self._drain_active: set[str] = set()  # shards with a drain running
        #: key json -> [lock, holders + waiters]; an entry lives only while used
        self._key_locks: dict[str, list] = {}

    # -- membership ----------------------------------------------------------

    def _add_member(self, name: str, host: str, port: int) -> None:
        """Wire up the link and health state for a shard (not yet in the ring)."""
        self._addrs[name] = (host, port)
        self._links[name] = Connection(host, int(port), self.config.max_payload_bytes)
        self._failures[name] = 0

    async def _remove_member(self, name: str) -> None:
        """Forget a shard entirely: link, health state, owed hints."""
        self._addrs.pop(name, None)
        self._failures.pop(name, None)
        self._down.discard(name)
        self.hints.forget(name)
        link = self._links.pop(name, None)
        if link is not None:
            await link.close()

    async def _call(self, shard: str, op: str, params: dict | None = None,
                    payload=b"", attempt: int = 0,
                    timeout_s: float | None = None) -> tuple[dict, bytes]:
        """Forward one op to ``shard``; returns the raw reply ``(header,
        payload)``.  Transport failures and the timeout raise."""
        route = {"via": self.config.gateway_id, "shard": shard, "attempt": attempt}
        return await asyncio.wait_for(
            self._links[shard].call(op, params, payload, route),
            timeout_s or self.config.shard_timeout_s,
        )

    # -- lifecycle hooks -----------------------------------------------------

    async def _open(self) -> None:
        self._health_task = asyncio.ensure_future(self._health_loop())

    async def _quiesce(self, hard: bool) -> None:
        """Stop the health loop and every hint drain."""
        tasks = [t for t in (self._health_task, *self._drain_tasks) if t is not None]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    async def _release(self, hard: bool) -> None:
        for link in self._links.values():
            await link.close()
        self.hints.close()

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
        if self._draining or shard in self._drain_active or shard not in self._links:
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
            header, _ = await self._call(shard, "health", timeout_s=timeout_s)
            if header.get("ok"):
                self._note_success(shard)
            else:
                self._note_failure(shard)
        except Exception:
            self._note_failure(shard)

    # -- one write order per key ----------------------------------------------

    @asynccontextmanager
    async def _key_lock(self, key):
        """Hold ``key``'s lock and yield its json; every put fan-out and
        transfer of the key does.  The entry lives while held or awaited."""
        kj = key_bytes(key).decode("utf-8")
        entry = self._key_locks.setdefault(kj, [asyncio.Lock(), 0])
        entry[1] += 1
        try:
            async with entry[0]:
                yield kj
        finally:
            entry[1] -= 1
            if not entry[1]:
                del self._key_locks[kj]

    def _supersede(self, key, kj: str, landed: list[str]) -> None:
        """A put landed on ``landed``: drop every transfer still owed there."""
        for shard in landed:
            if self.hints.owes(shard, key):
                self.hints.drained(shard, key)
                self._count("cluster.hints.superseded")
        mig = self._migration
        if mig is not None and kj in mig.pending:
            _, targets, _ = mig.pending[kj]
            targets[:] = [t for t in targets if t not in landed]
            if not targets:
                del mig.pending[kj]

    async def _transfer(self, key, sources: list[str], targets: list[str]
                        ) -> tuple[str | None, list[str], int]:
        """Copy one raw blob, byte-identical, from the first live source
        to every target; callers hold the key's lock.  Non-members are
        skipped.  Returns ``(source, failed_targets, nbytes)``; ``source``
        is None, and every target failed, when no source had the key."""
        targets = [t for t in targets if t in self._links]
        for source in sources:
            if source in self._down or source not in self._links:
                continue
            try:
                rh, body = await self._call(source, "store.get_raw", {"key": key})
            except Exception:
                self._note_failure(source)
                continue
            if not rh.get("ok"):
                continue
            result = rh.get("result", {})
            params = {"key": key, "n": result.get("n"), "dims": result.get("dims")}
            self._count(BYTES_BORROWED, len(body) * max(len(targets), 1))
            failed = []
            for target in targets:
                try:
                    good, _ = await self._put_one(
                        target, params, memoryview(body), "store.put_raw"
                    )
                except ParameterError:
                    good = False  # refused: a failed target, not the end
                if not good:
                    failed.append(target)
            return source, failed, len(body)
        return None, targets, 0

    async def _drain_hints(self, shard: str) -> None:
        """Hand every hinted block back to its rightful, rejoined owner."""
        for key, _ in self.hints.pending(shard):
            async with self._key_lock(key):
                holder = self.hints.owes(shard, key)
                if holder is None:
                    continue  # a put reached the owner first
                _, failed, _ = await self._transfer(key, [holder], [shard])
                if failed:
                    self._count("cluster.hints.drain_failures")
                else:
                    self.hints.drained(shard, key)
                    self._count("cluster.hints.drained")

    # -- routing -------------------------------------------------------------

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

    async def _dispatch(self, header: dict, payload: bytes):
        op = header.get("op")
        req_id = header.get("id")
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
                header, _ = await self._call(name, "health")
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
                header, _ = await self._call(shard, "store.keys")
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

        Only keys whose new preference list gained a shard move, as raw
        blobs through :meth:`_transfer`.  The serving path keeps running
        throughout: reads prefer the new owner and fall back
        (:meth:`_candidates`), writes go to the union of old and new
        owners (:meth:`_put_targets`).  The flip itself is two plain
        assignments between awaits — atomic under asyncio's
        single-threaded execution.
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
                kj, (key, _, _) = next(iter(mig.pending.items()))
                async with self._key_lock(key):
                    entry = mig.pending.pop(kj, None)
                    if entry is None:
                        continue  # puts reached every target first
                    _, targets, sources = entry
                    source, failed, nbytes = await self._transfer(
                        key, sources, targets
                    )
                    if source is not None:
                        for target in failed:
                            self.hints.record(target, key, source)
                            self._count("cluster.hints.recorded")
                if failed:
                    mig.failures += 1
                    self._count("cluster.reshard.copy_failures")
                else:
                    mig.moved += 1
                    mig.bytes_moved += nbytes
                    moved.append(key)
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

    # -- replicated writes ---------------------------------------------------

    async def _routed_put(self, req_id, params: dict, payload: bytes):
        if "key" not in params:
            raise ParameterError("store.put requires a 'key' param")
        key = params["key"]
        async with self._key_lock(key) as kj:
            preferred, spares = self._put_targets(key)
            body = memoryview(payload)
            self._count(BYTES_BORROWED, len(payload) * max(len(preferred), 1))
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
            self._supersede(key, kj, served_by + hinted)
        if ok_result is None:
            _, err = failures[-1] if failures else (None, None)
            code = (err or {}).get("code", "BUSY")
            msg = (err or {}).get("message", "no live replica accepted the write")
            return protocol.encode_error(
                req_id, code if code in protocol.ERROR_CODES else "INTERNAL",
                msg, retry_after_s=0.2,
            )
        self._count("cluster.replicated_writes", len(served_by) + len(hinted))
        route = {"shard": (served_by or hinted)[0], "replicas": len(served_by),
                 "hinted": len(hinted)}
        return protocol.encode_response_parts(req_id, ok_result, route=route)

    async def _put_one(self, target: str, params: dict, body,
                       op: str = "store.put") -> tuple[bool, dict | None]:
        """One replica write; ``(ok, result-or-error-dict)``.  Raises
        ParameterError only when the shard refuses it as a bad request."""
        if target in self._down:
            return False, {"code": "BUSY", "message": f"{target} is down"}
        try:
            header, _ = await self._call(target, op, params, body)
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
                header, body = await self._call(
                    target, "store.get", params, attempt=attempts
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
                self._count(BYTES_BORROWED, len(body))
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
        self._count(BYTES_BORROWED, len(payload))
        last_err: dict | None = None
        for attempt in range(len(live)):
            target = live[(self._rr + attempt) % len(live)]
            try:
                header, rbody = await self._call(
                    target, op, params, body, attempt=attempt + 1
                )
            except Exception as exc:
                self._note_failure(target)
                last_err = {"code": "BUSY", "message": str(exc)}
                continue
            finally:
                self._rr += 1
            if header.get("ok"):
                self._note_success(target)
                self._count(BYTES_BORROWED, len(rbody))
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
            header, _ = await self._call(shard, op)
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


# ---------------------------------------------------------------------------
# thread-hosted gateway (tests, notebooks, smoke scripts)


def gateway_in_thread(config: GatewayConfig,
                      start_timeout: float = 30.0) -> EndpointHandle:
    """Start a :class:`ClusterGateway` on a daemon thread (see
    :func:`~repro.service.endpoint.run_in_thread`)."""
    return run_in_thread(ClusterGateway(config), start_timeout)
