"""CI gate for the spill-store read path (``make store-bench-smoke``).

Runs a fixed-seed spill-heavy reuse workload twice over the same data —
once with the pre-overhaul configuration (plain LRU, forget-on-promote,
seek+read, no decompressed-array tier) and once with the overhauled path
(2Q tiers, retained on-disk records, mmap reads, readahead) — and fails
unless:

* the overhauled amortized throughput is >= 3x the LRU baseline,
* disk reads drop by >= 4x,
* the compression ratio is identical (the cache layer must never touch
  what is stored),
* after an explicit compaction every block still round-trips within the
  error bound, and a *fresh* store over the compacted container recovers
  every frame (no CRC or recovery regressions).

The Makefile wraps this in a hard ``timeout`` so a wedged run is a
failure, never a hung build.
"""

import os
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

import numpy as np  # noqa: E402

from repro.core import PaSTRICompressor  # noqa: E402
from repro.pipeline import CompressedERIStore, ContainerBackend  # noqa: E402

EB = 1e-10
DIMS = (6, 6, 6, 6)
BLOCK = 6**4  # one (dd|dd)-sized quartet block
N_BLOCKS = 96
N_USES = 10
SEED = 20260807

MIN_SPEEDUP = 3.0
MIN_READ_REDUCTION = 4.0


def make_blocks():
    rng = np.random.default_rng(SEED)
    return [rng.standard_normal(BLOCK) * 1e-7 for _ in range(N_BLOCKS)]


def run(tag, path, blocks, backend_kwargs, **store_kwargs):
    store = CompressedERIStore(
        PaSTRICompressor(dims=DIMS),
        EB,
        backend=ContainerBackend(
            path, memory_budget_bytes=16 << 10, **backend_kwargs
        ),
        **store_kwargs,
    )
    try:
        t0 = time.perf_counter()
        for i, b in enumerate(blocks):
            store.put(i, b, dims=DIMS)
        for _ in range(N_USES):
            for i in range(N_BLOCKS):
                store.get(i)
        dt = time.perf_counter() - t0
        st = store.stats
        nbytes = N_BLOCKS * BLOCK * 8
        result = {
            "mb_s": nbytes * N_USES / dt / 1e6,
            "disk_reads": st.disk_reads,
            "ratio": st.ratio,
        }
        print(
            f"  {tag:<12} {dt * 1e3:7.0f} ms  {result['mb_s']:7.1f} MB/s  "
            f"{st.disk_reads:5d} disk reads  ratio {st.ratio:.2f}"
        )
        return result, store
    except BaseException:
        store.close()
        raise


def main() -> int:
    # the spill files, their journals and any compaction .tmp go with it
    with tempfile.TemporaryDirectory() as tmp:
        return gate(tmp)


def gate(tmp) -> int:
    blocks = make_blocks()
    print(f"spill workload: {N_BLOCKS} blocks x {N_USES} uses, 16 KB blob budget")

    baseline, b_store = run(
        "baseline-lru",
        os.path.join(tmp, "baseline.pstf"),
        blocks,
        {"policy": "lru", "use_mmap": False, "retain_spills": False},
    )
    b_store.close()

    path = os.path.join(tmp, "overhauled.pstf")
    overhauled, store = run(
        "overhauled",
        path,
        blocks,
        {"policy": "2q", "use_mmap": True},
        hot_cache_bytes=2 << 20,
        readahead_depth=4,
    )

    failures = []
    speedup = overhauled["mb_s"] / max(baseline["mb_s"], 1e-9)
    print(f"  speedup {speedup:.2f}x (gate >= {MIN_SPEEDUP}x)")
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"throughput regression: {speedup:.2f}x < {MIN_SPEEDUP}x baseline"
        )
    reduction = baseline["disk_reads"] / max(overhauled["disk_reads"], 1)
    print(f"  disk-read reduction {reduction:.1f}x (gate >= {MIN_READ_REDUCTION}x)")
    if reduction < MIN_READ_REDUCTION:
        failures.append(
            f"disk reads: only {reduction:.1f}x below baseline "
            f"(need >= {MIN_READ_REDUCTION}x)"
        )
    if abs(overhauled["ratio"] - baseline["ratio"]) > 1e-9:
        failures.append(
            f"compression ratio changed: {baseline['ratio']} -> "
            f"{overhauled['ratio']}"
        )

    # compaction: orphan half the frames, rewrite, and require every block
    # to survive — through the live store and through a fresh recovery
    with store:
        for i in range(0, N_BLOCKS, 2):
            store.put(i, blocks[i], dims=DIMS)
        reclaimed = store.compact()
        print(f"  compaction reclaimed {reclaimed} bytes")
        if reclaimed <= 0:
            failures.append("compaction reclaimed nothing despite dead frames")
        for i, b in enumerate(blocks):
            if np.max(np.abs(store.get(i) - b)) > EB:
                failures.append(f"block {i} out of bound after compaction")
                break
    fresh = CompressedERIStore(
        PaSTRICompressor(dims=DIMS),
        EB,
        backend=ContainerBackend(path, memory_budget_bytes=16 << 10),
    )
    with fresh:
        if fresh.stats.recovered != N_BLOCKS:
            failures.append(
                f"recovery after compaction found {fresh.stats.recovered} "
                f"frames, expected {N_BLOCKS}"
            )
        for i, b in enumerate(blocks):
            if np.max(np.abs(fresh.get(i) - b)) > EB:
                failures.append(f"block {i} corrupt in recovered store")
                break

    if failures:
        print("store-bench-smoke: FAIL")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("store-bench-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
