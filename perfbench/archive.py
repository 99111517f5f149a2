"""``archive``: pack a stream per class into a PSTF-v2 container and open it
cold, through ``parallel_compress_to_container`` /
``parallel_decompress_container`` (``pastri pack/unpack``).

The end-to-end numbers run with one worker.  On a 2-vCPU host the
two-worker figures follow whatever else the host runs: one competing busy
process cut them by 27-37 % while the one-worker figures held, and they
moved by as much between two 10-run sets.  That is beyond the largest bound
the benchmark may set.  The two-worker pass runs in every traced run and
reports its rates and its speedup over one worker per layer.

Each cycle packs a fresh permutation of the same blocks, so every blob is
new to the codec (and to the pool workers) and every unpack pays the cold
index pass, while the work per cycle stays the same.  Both passes write two
frames per container, as two workers would.
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import (
    EB, Tracer, class_blocks, descendants, fast_time, max_err, median, python_run_s,
    reset_peak_rss, vmhwm_mb,
)

FRAMES = 2
#: blocks per class: ~20 MB of each class at full size
SIZES = {"full": {"(dd|dd)": 1930, "(ff|ff)": 250},
         "tiny": {"(dd|dd)": 48, "(ff|ff)": 6}}
#: one set-up sample before every third cycle (~10 in a 25 s run)
SETUP_EVERY = 3
MIN_CYCLES = 4
#: traced one-call-at-a-time passes at least, and traced two-worker cycles
MIN_W1_PASSES = 2
FILES = ("warm.pstf", "archive.pstf", "w1.pstf")


def _pack(cfg, data, bs, path, workers):
    from repro.parallel.pool import parallel_compress_to_container

    parallel_compress_to_container(
        "pastri", data, EB, workers, bs, path, codec_kwargs={"config": cfg},
        n_frames=FRAMES,
    )


def _unpack(path, workers):
    from repro.parallel.pool import parallel_decompress_container

    return parallel_decompress_container(path, workers)


#: what ``pastri pack``/``unpack`` at one worker sets up before the first
#: block is compressed: the interpreter, the program's imports, and each
#: class's codec from its configuration and, as a reader does, from its spec
_SETUP_CODE = """
from repro import api
from repro.parallel.pool import parallel_compress_to_container
for cfg in ("(dd|dd)", "(ff|ff)"):
    api.codec_from_spec(api.codec_spec(api.get_codec("pastri", config=cfg)))
"""


def _warm(classes, tmp, workers) -> None:
    """A round trip of two blocks per class before anything is timed: lazy
    initialisation, and with two workers the pools' spawn."""
    for cfg, blocks in classes:
        data = blocks[:2].ravel()
        path = os.path.join(tmp, "warm.pstf")
        _pack(cfg, data, blocks.shape[1], path, workers)
        if max_err(_unpack(path, workers), data) > EB:
            raise RuntimeError("warm-up round trip exceeded the bound")


def _cycle(classes, rng, tmp, tracer, stats, workers):
    """One pack + cold unpack of every class; returns the cycle's sample."""
    pack_s = unpack_s = 0.0
    nbytes = cbytes = 0
    for cfg, blocks in classes:
        data = blocks[rng.permutation(len(blocks))].ravel()
        path = os.path.join(tmp, "archive.pstf")
        stats["attempted"] += 2
        try:
            with tracer.span("parallel.compress_to_container"):
                t0 = time.perf_counter()
                _pack(cfg, data, blocks.shape[1], path, workers)
                pack_s += time.perf_counter() - t0
            cbytes += os.path.getsize(path)
            with tracer.span("parallel.decompress_container"):
                t0 = time.perf_counter()
                out = _unpack(path, workers)
                unpack_s += time.perf_counter() - t0
        except Exception as exc:  # a failed operation is counted, not fatal
            stats["failed"] += 1
            stats["errors"].append(repr(exc))
            continue
        with tracer.span("bench.verify"):
            if max_err(out, data) > EB:
                stats["failed"] += 1
        del out
        nbytes += data.nbytes
    return {"pack_s": pack_s, "unpack_s": unpack_s, "bytes": nbytes,
            "container_bytes": cbytes}


def _w1_pass(classes, tmp, tracer, stats, counts):
    """One worker, one public call at a time, each in its own span.

    ``counts`` (per class) is filled with block kinds and container
    facts when given; later passes pass ``None``."""
    from repro.core.compressor import PaSTRICompressor
    from repro.parallel.pool import split_stream
    from repro.streamio import ContainerWriter, open_container

    sample = {"pack_s": 0.0, "unpack_s": 0.0, "bytes": 0}
    for cfg, blocks in classes:
        data = blocks.ravel()
        bs = blocks.shape[1]
        path = os.path.join(tmp, "w1.pstf")
        chunks = split_stream(data, FRAMES, bs)
        stats["attempted"] += 2
        with tracer.span("bench.w1_pass"):
            t0 = time.perf_counter()
            codec = PaSTRICompressor(config=cfg)
            blobs = []
            for chunk in chunks:
                with tracer.span("core.compress"):
                    blobs.append(codec.compress(chunk, EB))
            meta = {"error_bound": EB, "block_size": bs}
            with tracer.span("streamio.create"):
                writer = ContainerWriter.create(path, codec, EB, meta=meta)
            for chunk, blob in zip(chunks, blobs):
                with tracer.span("streamio.append_blob"):
                    writer.append_blob(blob, chunk.size)
            with tracer.span("streamio.close"):
                writer.close()
            t1 = time.perf_counter()
            parts = []
            with tracer.span("streamio.open_container"):
                reader = open_container(path)
            try:
                for i in range(len(chunks)):
                    with tracer.span("streamio.read_blob"):
                        blob = reader.read_blob(i)
                    with tracer.span("core.decompress_cold"):
                        parts.append(reader.codec.decompress(blob))
                    if counts is not None:
                        _kind_counts(reader.codec, blob, counts.setdefault(cfg, {}))
                t2 = time.perf_counter()
                for i in range(len(chunks)):
                    blob = reader.read_blob(i)
                    with tracer.span("core.decompress_warm"):
                        reader.codec.decompress(blob)
            finally:
                reader.close()
            with tracer.span("bench.verify"):
                if max_err(np.concatenate(parts), data) > EB:
                    stats["failed"] += 1
        if counts is not None:
            counts[cfg]["streamio.bytes_written"] = os.path.getsize(path)
            counts[cfg]["streamio.frames"] = len(chunks)
        sample["pack_s"] += t1 - t0
        sample["unpack_s"] += t2 - t1
        sample["bytes"] += data.nbytes
    return sample


def _kind_counts(codec, blob, into):
    """Block kinds and ECQ encodings of one decoded frame.

    Read from the codec's memoised index pass (a private attribute): the
    stream statistics the codec can collect do not split dense from
    sparse ECQ.
    """
    from repro.core import header as fmt

    parse = codec._parse_cache[bytes(blob)]
    kinds, sparse_mask, dense_idx = parse[0], parse[6], parse[7]
    add = {
        "core.blocks_patterned": int(np.sum(kinds == fmt.KIND_PATTERNED)),
        "core.blocks_raw": int(np.sum(kinds == fmt.KIND_RAW)),
        "core.blocks_zero": int(np.sum(kinds == fmt.KIND_ZERO)),
        "core.ecq_sparse": int(np.sum(sparse_mask)),
        "core.ecq_dense": int(dense_idx.size),
    }
    for k, v in add.items():
        into[k] = into.get(k, 0) + v


def _sum_counts(counts) -> dict:
    out: dict = {}
    for per_class in counts.values():
        for k, v in per_class.items():
            out[k] = out.get(k, 0) + v
    return out


def _shm_counters(classes, rng, tmp, stats) -> dict:
    """One two-worker cycle with the program's telemetry on, for the
    transport counters (``store.shm.bytes_borrowed`` / ``bytes_copied``)."""
    from repro import telemetry
    from repro.parallel.pool import shutdown_shared_pools

    # pools are keyed by the telemetry flag: close the untraced ones first
    shutdown_shared_pools()
    telemetry.enable()
    telemetry.reset()
    try:
        _cycle(classes, rng, tmp, Tracer(False), stats, 2)
        snap = telemetry.metrics_snapshot()
    finally:
        shutdown_shared_pools()
        telemetry.disable()

    def val(name):
        return float(snap.get(name, {}).get("value", 0))

    return {"parallel.bytes_borrowed": val("store.shm.bytes_borrowed"),
            "parallel.bytes_copied": val("store.shm.bytes_copied")}


def run(seed: int, seconds: float, trace: bool, size: str, tmp: str) -> dict:
    from repro.parallel.pool import shutdown_shared_pools

    rng = np.random.default_rng(seed)
    classes = [(cfg, class_blocks(cfg, n, rng, seed))
               for cfg, n in SIZES[size].items()]
    stats = {"attempted": 0, "failed": 0, "errors": []}
    reset_peak_rss()
    try:
        _warm(classes, tmp, 1)
        budget = seconds / 2 if trace else seconds
        setups, cycles = [], []
        deadline = time.perf_counter() + budget
        while len(cycles) < MIN_CYCLES or time.perf_counter() < deadline:
            if len(cycles) % SETUP_EVERY == 0:
                # spread through the run; the cycles keep their whole budget
                setups.append(python_run_s(_SETUP_CODE))
                deadline += setups[-1]
            cycles.append(_cycle(classes, rng, tmp, Tracer(False), stats, 1))
        rss = vmhwm_mb(os.getpid()) + sum(vmhwm_mb(p) for p in descendants(os.getpid()))
        mb = sum(blocks.nbytes for _, blocks in classes) / 1e6
        result = {
            "e2e": {
                "setup_s": fast_time(setups),
                "peak_rss_mb": rss,
                "ratio": median([c["bytes"] / c["container_bytes"] for c in cycles]),
                "write_mb_s": mb / fast_time([c["pack_s"] for c in cycles]),
                "read_mb_s": mb / fast_time([c["unpack_s"] for c in cycles]),
            },
            "counts": {"container_bytes": cycles[0]["container_bytes"]},
        }
        if trace:
            traced = _traced(classes, rng, tmp, stats, cycles, seconds / 2)
            result["counts"].update(traced.pop("kinds"))
            result.update(traced)
        result.update(attempted=stats["attempted"], failed=stats["failed"],
                      errors=stats["errors"])
        return result
    finally:
        shutdown_shared_pools()
        for name in FILES:
            path = os.path.join(tmp, name)
            if os.path.exists(path):
                os.remove(path)


def _traced(classes, rng, tmp, stats, untraced, budget) -> dict:
    """Half the budget on traced one-worker passes, half on traced
    two-worker cycles; the wall time is that of the root spans."""
    tracer = Tracer(True)
    first_pass: dict = {}
    w1 = []
    deadline = time.perf_counter() + budget / 2
    while len(w1) < MIN_W1_PASSES or time.perf_counter() < deadline:
        w1.append(_w1_pass(classes, tmp, tracer, stats, None if w1 else first_pass))
    w1_spans = list(tracer.spans)
    _warm(classes, tmp, 2)  # spawn the pools outside the traced time
    w2 = []
    deadline = time.perf_counter() + budget / 2
    while len(w2) < MIN_CYCLES or time.perf_counter() < deadline:
        with tracer.span("bench.cycle"):
            w2.append(_cycle(classes, rng, tmp, tracer, stats, 2))
    layers = _shm_counters(classes, rng, tmp, stats)

    def roots_s(spans):
        return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)

    def busy(c):
        return c["pack_s"] + c["unpack_s"]

    w1_selfs = tracer.self_times(w1_spans)
    mb = sum(c["bytes"] for c in w1) / 1e6

    def per_mb(name):
        return 1e6 * w1_selfs.get(name, 0.0) / mb

    w1_pack = median([c["pack_s"] for c in w1])
    w1_unpack = median([c["unpack_s"] for c in w1])
    w2_pack = median([c["pack_s"] for c in w2])
    w2_unpack = median([c["unpack_s"] for c in w2])
    layers.update({
        "core.compress_us_per_mb": per_mb("core.compress"),
        "core.decode_cold_us_per_mb": per_mb("core.decompress_cold"),
        "core.decode_warm_us_per_mb": per_mb("core.decompress_warm"),
        "core.index_pass_us_per_mb":
            per_mb("core.decompress_cold") - per_mb("core.decompress_warm"),
        "streamio.write_us_per_mb": sum(per_mb(n) for n in (
            "streamio.create", "streamio.append_blob", "streamio.close")),
        "streamio.read_us_per_mb":
            per_mb("streamio.open_container") + per_mb("streamio.read_blob"),
        "parallel.pack_mb_s": w2[0]["bytes"] / 1e6 / w2_pack,
        "parallel.unpack_mb_s": w2[0]["bytes"] / 1e6 / w2_unpack,
        "parallel.pack_speedup": w1_pack / w2_pack,
        "parallel.unpack_speedup": w1_unpack / w2_unpack,
        "trace.overhead_frac":
            median([busy(c) for c in w1]) / median([busy(c) for c in untraced]) - 1.0,
        "trace.accounted_frac": sum(
            v for k, v in w1_selfs.items() if k != "bench.w1_pass") / roots_s(w1_spans),
    })
    kinds = _sum_counts(first_pass)
    layers.update(kinds)
    return {"layers": layers, "self_times": tracer.self_times(),
            "wall_s": roots_s(tracer.spans), "tracer": tracer, "kinds": kinds}
