"""``serve_mix``: an open loop of mixed requests against a launched fleet.

``pastri cluster launch --shards 2 --replication 2`` runs as
subprocesses; the fleet is preloaded with keys, then one asyncio process
holding ``CONNECTIONS`` connections sends Poisson arrivals at the fixed
``RATE``: mostly ``store.get`` on Zipf-skewed keys, some ``store.put``
(overwrites and new keys, both classes), some multi-block ``compress``.
Every request is timed from when it was due, so a stall charges the
requests queued behind it.
"""

from __future__ import annotations

import asyncio
import math
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np

from common import (
    DIMS, EB, Tracer, class_blocks, fast_time, max_err, median, percentile, beyond,
    program_env, session_members, vmhwm_mb,
)

#: The mix has one measured source: the paper's SCF reuse model (Fig. 11)
#: reads each compressed integral about 20 times, so there are
#: ``READS_PER_PUT`` gets per put.  The rest are choices, not measurements:
#: stateless ``compress`` requests as many as puts, so both write paths get
#: equal tail samples; Zipf-skewed gets (an SCF sweep reads uniformly; the
#: skew stands in for many ranks sharing hot keys); half the puts
#: overwrite, so gets are checked against changed values.  A get or put
#: picks a class in proportion to its preloaded keys.
READS_PER_PUT = 20
#: requests of each op in every ``sum(MIX.values())``, shuffled
MIX = {"get": READS_PER_PUT, "put": 1, "compress": 1}
ZIPF_S = 1.1
#: blocks per multi-block compress request
COMPRESS_BLOCKS = 4
#: share of puts that overwrite an existing key
OVERWRITE = 0.5
#: offered load, requests per second; fixed, never calibrated per run.  On a
#: 2-vCPU VM, 240 req/s built a growing backlog in the host's slower phases.
RATE = 120.0
CONNECTIONS = 2
#: preloaded keys per class, and payload pools the puts draw from
SIZES = {"full": {"(dd|dd)": 400, "(ff|ff)": 120},
         "tiny": {"(dd|dd)": 16, "(ff|ff)": 4}}
SETUP_REPS = 5
#: a run whose generator sent later than this at its 99th percentile is
#: invalid: the offered load was not the stated one
LAG_LIMIT_MS = 50.0
REQUEST_TIMEOUT_S = 10.0
#: the tail percentile reported per op: the highest with ``MIN_BEYOND``
#: samples beyond it in a 25 s run (~2700 gets, ~136 puts and compresses)
TAILS = {"get": 99, "put": 90, "compress": 90}
MIN_BEYOND = 10
BOOT_TIMEOUT_S = 60.0


class InvalidRun(RuntimeError):
    """The run cannot be trusted; its numbers are not reported."""


# -- the fleet -------------------------------------------------------------------


class Fleet:
    """One ``pastri cluster launch`` process group and its shards."""

    def __init__(self, data_dir: str) -> None:
        self.data_dir = data_dir
        cmd = [sys.executable, "-m", "repro.cli", "cluster", "launch",
               "--dir", data_dir, "--shards", "2", "--replication", "2",
               "--eb", repr(EB)]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=program_env(), start_new_session=True,
        )
        self.gateway = None
        self.shards: dict[str, tuple[str, int, int]] = {}
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        lines = []
        while time.monotonic() < deadline and len(self.shards) < 2:
            line = self.proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            m = re.search(r"gateway listening on ([\w.\-]+):(\d+)", line)
            if m:
                self.gateway = (m.group(1), int(m.group(2)))
            m = re.search(r"(shard-\d+) pid (\d+) @ ([\w.\-]+):(\d+)", line)
            if m:
                self.shards[m.group(1)] = (m.group(3), int(m.group(4)), int(m.group(2)))
        if self.gateway is None or len(self.shards) < 2:
            self.stop()
            raise RuntimeError("fleet failed to boot:\n" + "".join(lines))

    def pids(self) -> list[int]:
        return [self.proc.pid] + [pid for _, _, pid in self.shards.values()]

    def peak_rss_mb(self) -> float:
        return sum(vmhwm_mb(p) for p in self.pids())

    def stop(self) -> None:
        """SIGTERM the launcher (it drains its shards), then reap the group;
        anything still alive afterwards is killed and reported."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait(10)
        self.proc.stdout.close()
        left = session_members(self.proc.pid)
        deadline = time.monotonic() + 10
        while left and time.monotonic() < deadline:
            time.sleep(0.05)
            left = session_members(self.proc.pid)
        if left:
            os.killpg(self.proc.pid, signal.SIGKILL)
            raise RuntimeError(f"fleet processes outlived teardown: {left}")


# -- inputs ------------------------------------------------------------------------


def make_inputs(size: str, rng, seed: int, n_requests: int):
    """Preload items, payload pools and the request schedule for ``seed``."""
    sizes = SIZES[size]
    # the first n blocks of a pool are the preloaded values, the rest the
    # values puts draw from; each half is a whole stratified sample
    pools = {cfg: np.concatenate([class_blocks(cfg, n, rng, seed + 2 * i + half)
                                  for half in (0, 1)])
             for i, (cfg, n) in enumerate(sizes.items())}
    preload = []  # (key, cfg, value index)
    for cfg, n in sizes.items():
        tag = 0 if cfg == "(dd|dd)" else 1
        preload += [((tag, i), cfg, i) for i in range(n)]
    # within a class, gets are Zipf-skewed over a seed-drawn popularity order
    by_class = {cfg: [k for k, c, _ in preload if c == cfg] for cfg in sizes}
    popularity = {cfg: [keys[i] for i in rng.permutation(len(keys))]
                  for cfg, keys in by_class.items()}
    zipf = {cfg: _zipf(len(keys)) for cfg, keys in by_class.items()}
    # put values cycle through the second half of each pool in a seed-drawn
    # order, so the stored set stays a near-stratified sample
    values = {cfg: list(n + rng.permutation(n)) for cfg, n in sizes.items()}
    gaps = rng.exponential(1.0 / RATE, size=n_requests)
    due = np.cumsum(gaps)
    ops = _balanced(rng, MIX, n_requests)
    classes = {op: iter(_balanced(rng, sizes, n_requests)) for op in ("get", "put")}
    next_new = {cfg: n for cfg, n in sizes.items()}
    n_puts = {cfg: 0 for cfg in sizes}
    schedule = []
    for t, op in zip(due, ops):
        cfg = next(classes[op]) if op in classes else "(dd|dd)"
        if op == "get":
            key = popularity[cfg][rng.choice(len(zipf[cfg]), p=zipf[cfg])]
            schedule.append((float(t), "get", key, None, None))
        elif op == "put":
            if rng.random() < OVERWRITE:
                same = by_class[cfg]
                key = same[rng.integers(len(same))]
            else:
                tag = 2 if cfg == "(dd|dd)" else 3
                key = (tag, next_new[cfg])
                next_new[cfg] += 1
            value = values[cfg][n_puts[cfg] % len(values[cfg])]
            n_puts[cfg] += 1
            schedule.append((float(t), "put", key, cfg, int(value)))
        else:
            lo = int(rng.integers(len(pools["(dd|dd)"]) - COMPRESS_BLOCKS))
            schedule.append((float(t), "compress", None, "(dd|dd)", lo))
    return pools, preload, schedule


def _balanced(rng, weights: dict, n: int) -> list:
    """``n`` labels in rounds that each hold every label in proportion to its
    weight, shuffled: every stretch of the schedule, and so every seed, has
    the same mix to within one round."""
    unit = math.gcd(*weights.values())
    round_ = np.repeat(list(weights), [w // unit for w in weights.values()])
    out: list = []
    while len(out) < n:
        out += [str(x) for x in rng.permutation(round_)]
    return out[:n]


def _zipf(n: int) -> np.ndarray:
    p = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_S
    return p / p.sum()


# -- correctness: a shadow of acknowledged puts ------------------------------------


class Shadow:
    """Per-key history of put values, so a get can be checked against every
    value it may legally return: the last one acknowledged before it was
    sent, and any whose put was in flight while it ran."""

    def __init__(self) -> None:
        self.history: dict = {}  # key -> [[value, issued, acked or None]]

    def issue(self, key, value, t: float) -> list:
        rec = [value, t, None]
        self.history.setdefault(key, []).append(rec)
        return rec

    def acceptable(self, key, sent: float, done: float) -> list:
        recs = self.history.get(key, [])
        acked = [r for r in recs if r[2] is not None and r[2] <= sent]
        # an acknowledged value is current unless a put issued after its
        # acknowledgement was itself acknowledged before the get was sent
        out = [r[0] for r in acked if not any(s[1] > r[2] for s in acked)]
        out += [r[0] for r in recs
                if r[1] < done and (r[2] is None or r[2] > sent)]
        return out


# -- the open loop -------------------------------------------------------------------


async def _preload(host, port, pools, preload, shadow) -> None:
    from repro.service.client import AsyncServiceClient

    clients = [AsyncServiceClient(host, port, timeout=REQUEST_TIMEOUT_S)
               for _ in range(CONNECTIONS)]
    try:
        async def worker(part):
            client = clients[part]
            for key, cfg, idx in preload[part::CONNECTIONS]:
                await client.put(list(key), pools[cfg][idx], dims=DIMS[cfg])
                shadow.issue(key, (cfg, idx), 0.0)[2] = 0.0
            for key, cfg, idx in preload[part::CONNECTIONS][:8]:
                if max_err(await client.get(list(key)), pools[cfg][idx]) > EB:
                    raise RuntimeError(f"preloaded key {key} read back beyond the bound")
            data = pools["(dd|dd)"][:COMPRESS_BLOCKS].ravel()
            await client.compress(data, EB, dims=DIMS["(dd|dd)"])

        await asyncio.gather(*(worker(i) for i in range(CONNECTIONS)))
    finally:
        for c in clients:
            await c.close()


def boot(data_dir, pools, preload) -> tuple[Fleet, Shadow, float]:
    """Launch the fleet and preload it; returns it with its set-up time."""
    t0 = time.perf_counter()
    fleet = Fleet(data_dir)
    shadow = Shadow()
    try:
        asyncio.run(_preload(*fleet.gateway, pools, preload, shadow))
    except BaseException:
        fleet.stop()
        raise
    return fleet, shadow, time.perf_counter() - t0


async def _open_loop(host, port, pools, schedule, shadow, tracer, out) -> None:
    """Send ``schedule`` on time over ``CONNECTIONS`` connections."""
    from repro.errors import ReproError
    from repro.service.client import AsyncServiceClient, RetryPolicy

    no_retry = RetryPolicy(max_retries=0)
    free: asyncio.Queue = asyncio.Queue()
    clients = [AsyncServiceClient(host, port, timeout=REQUEST_TIMEOUT_S, retry=no_retry)
               for _ in range(CONNECTIONS)]
    for c in clients:
        free.put_nowait(c)
    loop = asyncio.get_running_loop()
    t_zero = loop.time() + 0.05

    async def one(i, due_rel, op, key, cfg, idx):
        due = t_zero + due_rel
        out["lag"].append(loop.time() - due)
        client = await free.get()
        sent = loop.time()
        try:
            if op == "get":
                arr = await client.get(list(key))
                done = loop.time()
                out["gets"].append((key, sent, done, arr))
                nbytes = arr.nbytes
            elif op == "put":
                rec = shadow.issue(key, (cfg, idx), sent)
                await client.put(list(key), pools[cfg][idx], dims=DIMS[cfg])
                done = rec[2] = loop.time()
                nbytes = pools[cfg][idx].nbytes
            else:
                data = pools[cfg][idx : idx + COMPRESS_BLOCKS].ravel()
                blob, _info = await client.compress(data, EB, dims=DIMS[cfg])
                done = loop.time()
                out["blobs"].append((bytes(blob), cfg, idx))
                nbytes = data.nbytes
        except (ReproError, OSError, asyncio.TimeoutError) as exc:
            out["failed"] += 1
            out["errors"].append(f"{op}: {exc!r}")
            return
        finally:
            free.put_nowait(client)
        out["lat"][op].append(done - due)
        out["rate"][op].append(nbytes / 1e6 / (done - due))
        out["busy"][op] += done - sent
        tracer.record(f"service.client.{op}", sent, done, rid=i)

    tasks = []
    try:
        for i, (due_rel, op, key, cfg, idx) in enumerate(schedule):
            wait = t_zero + due_rel - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
            tasks.append(asyncio.ensure_future(one(i, due_rel, op, key, cfg, idx)))
        for r in await asyncio.gather(*tasks, return_exceptions=True):
            if isinstance(r, BaseException):
                raise r
    finally:
        for t in tasks:
            t.cancel()
        for c in clients:
            await c.close()


def drive(fleet, pools, schedule, shadow, tracer) -> dict:
    out = {"lag": [], "failed": 0, "errors": [], "blobs": [], "gets": [],
           "lat": {op: [] for op in MIX}, "rate": {op: [] for op in MIX},
           "busy": {op: 0.0 for op in MIX}}
    asyncio.run(_open_loop(*fleet.gateway, pools, schedule, shadow, tracer, out))
    return out


def check(out, pools, shadow) -> None:
    """Hold every reply to the bound, after the timed loop so the generator
    spends no time on it: each get against every value it may legally
    return, each compress reply decoded locally."""
    from repro import api

    for key, sent, done, arr in out.pop("gets"):
        if not any(max_err(arr, pools[c][v]) <= EB
                   for c, v in shadow.acceptable(key, sent, done)):
            out["failed"] += 1
            out["errors"].append(f"get {key}: beyond the bound of every legal version")
    codec = api.get_codec("pastri", dims=list(DIMS["(dd|dd)"]))
    for blob, cfg, idx in out.pop("blobs"):
        ref = pools[cfg][idx : idx + COMPRESS_BLOCKS]
        if max_err(codec.decompress(blob), ref) > EB:
            out["failed"] += 1
            out["errors"].append("compress reply decodes beyond the bound")


# -- server-side counters ------------------------------------------------------------


def _server_snapshot(fleet) -> dict:
    from repro.service.client import ServiceClient

    snap = {}
    with ServiceClient(*fleet.gateway, timeout=REQUEST_TIMEOUT_S) as c:
        snap["store"] = c.stats()
        snap["gateway"] = c.metrics()
    for name, (host, port, _pid) in fleet.shards.items():
        with ServiceClient(host, port, timeout=REQUEST_TIMEOUT_S) as c:
            snap[name] = c.metrics()
    return snap


def _val(metrics: dict, name: str, field: str = "value") -> float:
    m = metrics.get(name) or {}
    return float(m.get(field, 0.0))


#: the shard ops a client request turns into
CLIENT_OPS = ("store.get", "store.put", "compress")


def _server_layers(before, after, shards, client_mean_s) -> dict:
    """Window means from the deltas of the servers' counters and timers.

    A gateway request waits on one shard request: a get or compress goes to
    one shard, a put to its R replicas at once.  So shard and codec time are
    taken per shard request for a client op, and the gateway's own time is
    its mean minus that.  The gateway's health probes and the benchmark's
    stats calls are not counted as shard requests; their time (a few cheap
    requests a second) stays in the shards' timer total.
    """
    def delta(src, name, field="value"):
        return _val(after[src], name, field) - _val(before[src], name, field)

    gw_n = delta("gateway", "cluster.request", "count")
    gw_mean = delta("gateway", "cluster.request", "total_s") / gw_n if gw_n else 0.0
    sh_n = sum(delta(s, f"service.requests.{op}") for s in shards for op in CLIENT_OPS)
    sh_total = sum(delta(s, "service.request", "total_s") for s in shards)
    sh_mean = sh_total / sh_n if sh_n else 0.0
    core_total = sum(delta(s, f"codec.pastri.{op}", "total_s")
                     for s in shards for op in ("compress", "decompress"))
    core_mean = core_total / sh_n if sh_n else 0.0
    comp_bytes = sum(delta(s, "codec.pastri.compress.bytes_in") for s in shards)
    comp_s = sum(delta(s, "codec.pastri.compress", "total_s") for s in shards)
    dec_bytes = sum(delta(s, "codec.pastri.decompress.bytes_out") for s in shards)
    dec_s = sum(delta(s, "codec.pastri.decompress", "total_s") for s in shards)
    batches = sum(delta(s, "service.batches") for s in shards)
    batched = sum(delta(s, "service.batch.requests") for s in shards)

    def weighted(name, field):
        """Count-weighted mean over the shards of a timer percentile.  The
        program's timers keep their last 4096 samples and have no reset, so
        percentiles cover those samples, not only the traced window."""
        counts = [_val(after[s], name, "count") for s in shards]
        vals = [_val(after[s], name, field) for s in shards]
        return sum(c * v for c, v in zip(counts, vals)) / sum(counts) if sum(counts) else 0.0

    st_b, st_a = before["store"], after["store"]

    def sdelta(name):
        return float(st_a.get(name, 0)) - float(st_b.get(name, 0))

    lookups = sdelta("cache_hits") + sdelta("cache_misses")
    blob_lookups = sdelta("blob_hits") + sdelta("blob_misses")
    parts = {
        "core": core_mean,
        "service": max(0.0, sh_mean - core_mean) + max(0.0, client_mean_s - gw_mean),
        "cluster": max(0.0, gw_mean - sh_mean),
    }
    return {
        "parts": parts,
        "core.compress_us_per_mb": 1e12 * comp_s / comp_bytes if comp_bytes else 0.0,
        "core.decode_cold_us_per_mb": 1e12 * dec_s / dec_bytes if dec_bytes else 0.0,
        "pipeline.array_hit_rate": sdelta("cache_hits") / lookups if lookups else 0.0,
        "pipeline.blob_hit_rate":
            sdelta("blob_hits") / blob_lookups if blob_lookups else 0.0,
        "pipeline.disk_reads": sdelta("disk_reads"),
        "pipeline.spills": sdelta("spills"),
        "pipeline.readahead_issued": sdelta("readahead_issued"),
        "pipeline.readahead_useful": sdelta("readahead_useful"),
        "service.request_ms_p50": 1e3 * weighted("service.request", "p50_s"),
        "service.request_ms_p95": 1e3 * weighted("service.request", "p95_s"),
        "service.coalescing": batched / batches if batches else 0.0,
        "service.refused": sum(delta(s, "service.busy") + delta(s, "service.deadline")
                               for s in shards),
        "service.bytes_copied": sum(delta(s, "service.buffers.bytes_copied")
                                    for s in list(shards) + ["gateway"]),
        # the gateway's last 4096 requests: at 25 s, the fleet's whole life
        "cluster.request_ms_p50": 1e3 * _val(after["gateway"], "cluster.request", "p50_s"),
        "cluster.request_ms_p95": 1e3 * _val(after["gateway"], "cluster.request", "p95_s"),
        "cluster.fanout_ms": 1e3 * (gw_mean - sh_mean),
        "cluster.replicated_writes": delta("gateway", "cluster.replicated_writes"),
        "cluster.failovers": delta("gateway", "cluster.failovers"),
        "cluster.hints_recorded": delta("gateway", "cluster.hints.recorded"),
    }


# -- the workload --------------------------------------------------------------------


def _window(schedule, lo, hi):
    return [(t - lo,) + tuple(rest) for t, *rest in schedule if lo <= t < hi]


def _check_valid(out, tails: bool) -> None:
    lag_ms = 1e3 * percentile(out["lag"], 99)
    if lag_ms > LAG_LIMIT_MS:
        raise InvalidRun(f"generator ran {lag_ms:.1f} ms late at p99 "
                         f"(limit {LAG_LIMIT_MS} ms): the offered load was not {RATE}/s")
    if not tails:
        return
    for op, q in TAILS.items():
        n = beyond(out["lat"][op], q)
        if n < MIN_BEYOND:
            raise InvalidRun(f"only {n} {op} samples beyond p{q} (need {MIN_BEYOND})")


def run(seed: int, seconds: float, trace: bool, size: str, tmp: str) -> dict:
    import shutil
    import tempfile

    rng = np.random.default_rng(seed)
    pools, preload, schedule = make_inputs(size, rng, seed, int(RATE * seconds * 1.5) + 50)
    if trace:
        half = seconds / 2
        windows = [_window(schedule, 0.0, half), _window(schedule, half, seconds)]
    else:
        windows = [_window(schedule, 0.0, seconds)]
    setups = []
    fleet = data_dir = None
    try:
        for _ in range(SETUP_REPS):
            if fleet is not None:
                fleet.stop()
                shutil.rmtree(data_dir)
                fleet = None
            data_dir = tempfile.mkdtemp(prefix="fleet-", dir=tmp)
            fleet, shadow, secs = boot(data_dir, pools, preload)
            setups.append(secs)
        out = drive(fleet, pools, windows[0], shadow, Tracer(False))
        check(out, pools, shadow)
        traced = None
        if trace:
            tracer = Tracer(True)
            before = _server_snapshot(fleet)
            traced = drive(fleet, pools, windows[1], shadow, tracer)
            after = _server_snapshot(fleet)
            check(traced, pools, shadow)
        else:
            after = _server_snapshot(fleet)
        rss = fleet.peak_rss_mb()
    finally:
        if fleet is not None:
            fleet.stop()
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)

    # the tail percentiles are reported by full-size end-to-end runs only
    _check_valid(out, tails=size == "full" and not trace)
    if traced:
        _check_valid(traced, tails=False)
    lat = out["lat"]
    attempted = sum(len(w) for w in windows)
    failed = out["failed"] + (traced["failed"] if traced else 0)
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": out["errors"] + (traced["errors"] if traced else []),
        "e2e": {
            "setup_s": fast_time(setups),
            "peak_rss_mb": rss,
            "ratio": float(after["store"]["original_bytes"])
            / float(after["store"]["compressed_bytes"]),
            "write_mb_s": median(out["rate"]["put"]),
            "read_mb_s": median(out["rate"]["get"]),
        },
        "named": {f"{op}_{tag}_ms": 1e3 * percentile(lat[op], q)
                  for op, tail in TAILS.items()
                  for tag, q in (("p50", 50), (f"p{tail}", tail))},
        "samples": {op: len(v) for op, v in lat.items()},
        "lag_ms": {f"p{q}": 1e3 * percentile(out["lag"], q) for q in (50, 90, 99, 100)},
        "counts": {},
    }
    if trace:
        result.update(_traced(out, traced, before, after, tracer))
    return result


def _client_mean(out) -> float:
    n = sum(len(v) for v in out["lat"].values())
    return sum(out["busy"].values()) / n if n else 0.0


def _traced(untraced, traced, before, after, tracer) -> dict:
    shards = [k for k in after if k.startswith("shard-")]
    client_mean = _client_mean(traced)
    layers = _server_layers(before, after, shards, client_mean)
    parts = layers.pop("parts")
    layers["gen.lag_ms"] = 1e3 * percentile(traced["lag"], 99)
    layers["trace.overhead_frac"] = client_mean / _client_mean(untraced) - 1.0
    # the parts add up to client_mean by construction, so there is no
    # trace.accounted_frac to report here
    shares = {k: v / client_mean for k, v in parts.items()}
    return {"layers": layers, "shares": shares, "tracer": tracer}
