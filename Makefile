# Convenience entry points.  Everything assumes an in-tree run
# (PYTHONPATH=src) so no install step is required.

PY ?= python
export PYTHONPATH := src

.PHONY: test ci bench overhead-check serve-smoke fsck-smoke \
	store-bench-smoke scaling-smoke cluster-smoke reshard-smoke harness \
	perfbench-selftest

test:
	$(PY) -m pytest tests/ -q

## The first steps of .github/workflows/ci.yml: the tier-1 suite, the
## benchmark self-test that CI runs right after it, and the linter
## (skipped with a note when ruff isn't installed locally).
ci:
	$(PY) -m pytest -x -q
	$(MAKE) perfbench-selftest
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/; \
	else \
		echo "ruff not installed; lint runs in CI"; \
	fi

## The repository benchmark at a tiny size, twice per workload: no failed
## operation, input-determined counts repeat exactly, traced layers account
## for the wall time (see perfbench/README.md).  Also catches a change to
## the codec parse tuple that the archive traced path reads.
perfbench-selftest:
	python3 perfbench/selftest.py

## Timed paper benchmarks (pytest-benchmark, shape assertions included).
bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -q

## The CI telemetry gate: fails when telemetry-enabled compress/decompress
## is >10% slower than disabled (see benchmarks/overhead_check.py).
overhead-check:
	$(PY) -m benchmarks.overhead_check --reps 21 --threshold 0.10

## End-to-end service check: boot `pastri serve` as a subprocess, round-trip
## through the client with the error bound asserted client-side, verify live
## service.* metrics, then SIGTERM and require a clean drain.  The outer
## timeout turns a wedged server into a failure, never a hung build.
serve-smoke:
	timeout 120 $(PY) scripts/serve_smoke.py

## Crash-recovery check: build a real container, truncate a copy at a
## random byte (seed printed for reproduction), run `pastri fsck` as a
## subprocess, and verify the salvaged frames round-trip within the
## error bound.  Hard timeout so a wedged salvage fails, never hangs.
fsck-smoke:
	timeout 120 $(PY) scripts/fsck_smoke.py

## Spill-store perf gate: a fixed-seed reuse workload run under the
## pre-overhaul LRU config and the 2Q/mmap/readahead path.  Fails unless
## the overhauled path is >=3x faster with >=4x fewer disk reads, the
## ratio is untouched, and a compacted container recovers every frame.
store-bench-smoke:
	timeout 120 $(PY) scripts/store_bench_smoke.py

## Zero-copy data-plane gate: a 2-worker compress/decompress round-trip
## over the shared-memory segment pool, byte-identical to the in-process
## codec, with telemetry proving bytes_borrowed >= bytes_copied and a
## leak check (no in-process segments, no orphaned /dev/shm entries)
## after shutdown.  Degrades to a pickle-fallback correctness check on
## hosts without POSIX shared memory.
scaling-smoke:
	timeout 120 $(PY) scripts/scaling_smoke.py

## Cluster failover gate: a 3-shard `pastri serve` fleet (replication 2)
## behind the gateway; client round-trip, SIGKILL one shard with zero
## failed reads, hints drained on rejoin, hints recorded over a torn
## hint-journal tail all replayed by the next gateway and drained, and
## no leaked shm segments after teardown.
cluster-smoke:
	timeout 180 $(PY) scripts/cluster_smoke.py

## Live-reshard gate: 2-shard fleet (replication 1) under a background
## read hammer; `cluster.reshard.add` a third shard with zero failed
## reads, ~1/3 of keys moved byte-identically, then `remove` it again
## under the same traffic, and no leaked shm segments after teardown.
reshard-smoke:
	timeout 240 $(PY) scripts/reshard_smoke.py

harness:
	$(PY) -m repro.harness all
