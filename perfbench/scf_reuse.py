"""``scf_reuse``: one SCF rank re-reading its integrals from a spill store.

A :class:`CompressedERIStore` over a :class:`ContainerBackend` spill file
with the ``pastri serve`` store defaults (2Q admission on both tiers, mmap
reads, readahead depth 2) is filled with ``put`` on shell-quartet keys of
two classes, then swept ``SWEEPS`` times with ``get`` in canonical order.
The budgets put the working set beyond both caches: the decompressed set
is ``1 / HOT_FRACTION`` times the array tier and the compressed set is
about twice the blob tier.
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import (
    DIMS, EB, Tracer, class_blocks, fast_time, max_err, median, python_run_s,
    reset_peak_rss, vmhwm_mb,
)

#: shells per class: quartets of 9 d shells and of 5 f shells (~20 MB)
SIZES = {"full": {"(dd|dd)": 9, "(ff|ff)": 5}, "tiny": {"(dd|dd)": 3, "(ff|ff)": 2}}
SWEEPS = 3
HOT_FRACTION = 4
#: blob-tier budget as a share of the decompressed set (ratio is ~20x)
BLOB_FRACTION = 40
READAHEAD = 2
MIN_CYCLES = 3

COUNTERS = ("spills", "disk_reads", "cache_hits", "cache_misses", "blob_hits",
            "blob_misses", "readahead_issued", "readahead_useful")


def quartets(shells) -> list[tuple[int, int, int, int]]:
    """Canonical shell quartets (i>=j, k>=l, ij>=kl) in canonical order."""
    pairs = [(i, j) for i in shells for j in shells if j <= i]
    return [p + q for a, p in enumerate(pairs) for q in pairs[: a + 1]]


def make_inputs(size: str, rng, seed: int):
    """``[(key, block, dims)]`` in canonical order, d shells first."""
    items = []
    first = 0
    for cfg, n_shells in SIZES[size].items():
        keys = quartets(range(first, first + n_shells))
        first += n_shells
        blocks = class_blocks(cfg, len(keys), rng, seed)
        items.extend((k, b, DIMS[cfg]) for k, b in zip(keys, blocks))
    return items


class CodecProxy:
    """Times ``compress``/``decompress``; forwards what the store needs."""

    def __init__(self, codec, tracer: Tracer) -> None:
        self._codec = codec
        self._tracer = tracer
        self.name = codec.name

    def spec_kwargs(self) -> dict:
        return self._codec.spec_kwargs()

    def reshaped(self, dims) -> "CodecProxy":
        return CodecProxy(self._codec.reshaped(dims), self._tracer)

    def compress(self, data, error_bound):
        with self._tracer.span("core.compress") as rec:
            rec["nbytes"] = data.nbytes
            return self._codec.compress(data, error_bound)

    def decompress(self, blob):
        with self._tracer.span("core.decompress") as rec:
            out = self._codec.decompress(blob)
            rec["nbytes"] = out.nbytes
            return out


class BackendProxy:
    """Times ``put``/``get``; records each get's disk-read delta."""

    def __init__(self, backend, tracer: Tracer) -> None:
        self._backend = backend
        self._tracer = tracer
        self.get_disk_deltas: list[int] = []

    def bind(self, codec, error_bound, stats) -> None:
        self._backend.bind(codec, error_bound, stats)

    def put(self, key, entry):
        with self._tracer.span("pipeline.backend.put"):
            return self._backend.put(key, entry)

    def get(self, key):
        stats = self._backend.stats
        before = stats.disk_reads
        with self._tracer.span("pipeline.backend.get"):
            entry = self._backend.get(key)
        self.get_disk_deltas.append(stats.disk_reads - before)
        return entry

    def __contains__(self, key) -> bool:
        return key in self._backend

    def __len__(self) -> int:
        return len(self._backend)

    def __getattr__(self, name):
        return getattr(self._backend, name)


def _open(path, total_bytes, tracer):
    from repro.core.compressor import PaSTRICompressor
    from repro.pipeline import CompressedERIStore, ContainerBackend

    codec = PaSTRICompressor(config="(dd|dd)")
    backend = ContainerBackend(path, memory_budget_bytes=total_bytes // BLOB_FRACTION)
    if tracer.enabled:
        codec, backend = CodecProxy(codec, tracer), BackendProxy(backend, tracer)
    store = CompressedERIStore(
        codec, EB, backend=backend,
        hot_cache_bytes=total_bytes // HOT_FRACTION, readahead_depth=READAHEAD,
    )
    return store, backend


#: what an SCF rank sets up before its first put: the interpreter, the
#: program's imports, and the store over a fresh spill file
_SETUP_CODE = f"""
import sys
from repro.core.compressor import PaSTRICompressor
from repro.pipeline import CompressedERIStore, ContainerBackend
total = int(sys.argv[2])
backend = ContainerBackend(sys.argv[1], memory_budget_bytes=total // {BLOB_FRACTION})
store = CompressedERIStore(
    PaSTRICompressor(config="(dd|dd)"), {EB!r}, backend=backend,
    hot_cache_bytes=total // {HOT_FRACTION}, readahead_depth={READAHEAD},
)
store.close()
"""


def _setup(path, total_bytes) -> float:
    secs = python_run_s(_SETUP_CODE, path, str(total_bytes))
    _remove(path)
    return secs


def _remove(path) -> None:
    for p in (path, path + ".journal"):
        if os.path.exists(p):
            os.remove(p)


def _cycle(items, total, path, tracer, stats, get_classes):
    """Open, fill, sweep and close one store; returns the cycle's sample."""
    with tracer.span("pipeline.open"):
        store, backend = _open(path, total, tracer)
    put_s = 0.0
    sweeps = []
    try:
        with tracer.span("bench.fill"):
            for key, block, dims in items:
                stats["attempted"] += 1
                with tracer.span("pipeline.put"):
                    t0 = time.perf_counter()
                    store.put(key, block, dims=dims)
                    put_s += time.perf_counter() - t0
        for _ in range(SWEEPS):
            get_s = 0.0
            with tracer.span("bench.sweep"):
                for key, block, _dims in items:
                    stats["attempted"] += 1
                    hits = store.stats.cache_hits
                    if tracer.enabled:
                        backend.get_disk_deltas.clear()
                    try:
                        with tracer.span("pipeline.get") as rec:
                            t0 = time.perf_counter()
                            out = store.get(key)
                            get_s += time.perf_counter() - t0
                    except Exception as exc:
                        stats["failed"] += 1
                        stats["errors"].append(repr(exc))
                        continue
                    if tracer.enabled:
                        rec["class"] = _classify(store.stats.cache_hits - hits,
                                                 backend.get_disk_deltas)
                        get_classes.append(rec)
                    with tracer.span("bench.verify"):
                        if max_err(out, block) > EB:
                            stats["failed"] += 1
            sweeps.append(get_s)
        counts = {c: getattr(store.stats, c) for c in COUNTERS}
        original = store.stats.original_bytes
    finally:
        with tracer.span("pipeline.close"):
            store.close()
    spill_bytes = os.path.getsize(path)
    _remove(path)
    return {"put_s": put_s, "sweeps": sweeps, "bytes": total,
            "ratio": original / spill_bytes, "counts": counts}


def _classify(hit_delta: int, disk_deltas: list[int]) -> str:
    """A get is a hit (array tier), a decode of an in-memory blob, or a
    decode of a blob read from the spill file (its own backend get, the
    first one, read the disk)."""
    if hit_delta:
        return "hit"
    return "disk" if disk_deltas and disk_deltas[0] else "decode"


def run(seed: int, seconds: float, trace: bool, size: str, tmp: str) -> dict:
    rng = np.random.default_rng(seed)
    items = make_inputs(size, rng, seed)
    total = sum(b.nbytes for _, b, _ in items)
    path = os.path.join(tmp, "scf-spill.pstf")
    reset_peak_rss()
    stats = {"attempted": 0, "failed": 0, "errors": []}
    off = Tracer(False)

    budget = seconds / 2 if trace else seconds
    setups, cycles = [], []
    deadline = time.perf_counter() + budget
    while len(cycles) < MIN_CYCLES or time.perf_counter() < deadline:
        # spread through the run; the cycles keep their whole budget
        setups.append(_setup(path, total))
        deadline += setups[-1]
        cycles.append(_cycle(items, total, path, off, stats, []))

    result = {
        "e2e": {
            "setup_s": fast_time(setups),
            "peak_rss_mb": vmhwm_mb(os.getpid()),
            "ratio": median([c["ratio"] for c in cycles]),
            "write_mb_s": total / 1e6 / fast_time([c["put_s"] for c in cycles]),
            # the first sweep after a fill finds other tiers than the later
            # ones, so each sweep of a cycle is timed against its own kind
            "read_mb_s": SWEEPS * total / 1e6 / sum(
                fast_time([c["sweeps"][i] for c in cycles]) for i in range(SWEEPS)),
        },
        "counts": dict(cycles[0]["counts"]),
    }
    if trace:
        result.update(_traced(items, total, path, stats, cycles, budget))
    result.update(attempted=stats["attempted"], failed=stats["failed"],
                  errors=stats["errors"])
    return result


def _busy(c) -> float:
    return c["put_s"] + sum(c["sweeps"])


def _traced(items, total, path, stats, untraced, budget) -> dict:
    tracer = Tracer(True)
    get_classes: list = []
    traced = []
    t_start = time.perf_counter()
    deadline = t_start + budget
    while len(traced) < MIN_CYCLES or time.perf_counter() < deadline:
        with tracer.span("bench.cycle"):
            traced.append(_cycle(items, total, path, tracer, stats, get_classes))
    wall = time.perf_counter() - t_start
    selfs = tracer.self_times()
    counts = traced[0]["counts"]

    def per_mb(name):
        """Microseconds per MB of decompressed data through a codec call
        (readahead decodes included)."""
        spans = [s for s in tracer.spans if s["name"] == name]
        mb = sum(s["nbytes"] for s in spans) / 1e6
        return 1e6 * selfs.get(name, 0.0) / mb if mb else 0.0

    def mean_us(recs):
        return 1e6 * float(np.mean([r["end"] - r["start"] for r in recs])) if recs else 0.0

    def by_class(name):
        return mean_us([r for r in get_classes if r["class"] == name])

    lookups = counts["cache_hits"] + counts["cache_misses"]
    blob_lookups = counts["blob_hits"] + counts["blob_misses"]
    layers = {
        "core.compress_us_per_mb": per_mb("core.compress"),
        "core.decode_cold_us_per_mb": per_mb("core.decompress"),
        "pipeline.put_us": mean_us(
            [s for s in tracer.spans if s["name"] == "pipeline.put"]),
        "pipeline.get_hit_us": by_class("hit"),
        "pipeline.get_decode_us": by_class("decode"),
        "pipeline.get_disk_us": by_class("disk"),
        "pipeline.array_hit_rate": counts["cache_hits"] / lookups if lookups else 0.0,
        "pipeline.blob_hit_rate":
            counts["blob_hits"] / blob_lookups if blob_lookups else 0.0,
        "pipeline.disk_reads": counts["disk_reads"],
        "pipeline.spills": counts["spills"],
        "pipeline.readahead_issued": counts["readahead_issued"],
        "pipeline.readahead_useful": counts["readahead_useful"],
        "trace.overhead_frac":
            median([_busy(c) for c in traced]) / median([_busy(c) for c in untraced]) - 1.0,
        "trace.accounted_frac": sum(
            v for k, v in selfs.items()
            if not k.startswith("bench.") or k == "bench.verify") / wall,
    }
    return {"layers": layers, "self_times": selfs, "wall_s": wall, "tracer": tracer}
