"""Live-reshard smoke test (``make reshard-smoke``).

Boots a 2-shard ``SubprocessFleet`` (real ``pastri serve`` processes)
behind an in-process :class:`ClusterGateway` with replication 1 — so
the minimal-remap arithmetic is clean — and gates on the PR 10
acceptance criteria end to end:

* ``cluster.reshard.add`` boots a third shard into the live ring while
  a background client hammers reads: **zero** failed reads during the
  migration, and afterwards every block still honors the error bound;
* the remapped-key fraction is within 2× of the ideal 1/3;
* every moved blob is byte-identical on its new owner (raw-transfer
  path, no decode/re-encode);
* ``cluster.reshard.remove`` retires the shard again under the same
  traffic, still with zero failed reads and nothing lost;
* after teardown no shm segment survives.

Hard deadlines everywhere — a wedged fleet fails the build, never hangs
it (the Makefile adds an outer ``timeout`` as a backstop).
"""

import glob
import os
import sys
import tempfile
import threading
import time

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.cluster import GatewayConfig, SubprocessFleet, gateway_in_thread  # noqa: E402
from repro.parallel import shm  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

EB = 1e-10
SHAPE = (4, 4, 4, 4)
N_BLOCKS = 60


def _dev_shm_segments() -> set[str]:
    return set(glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}*"))


class _Hammer:
    """Background reader that counts failed/corrupt gets."""

    def __init__(self, host: str, port: int, blocks: dict) -> None:
        self._blocks = blocks
        self._host, self._port = host, port
        self._stop = threading.Event()
        self.reads = 0
        self.failures: list[str] = []
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        keys = list(self._blocks)
        with ServiceClient(self._host, self._port) as c:
            i = 0
            while not self._stop.is_set():
                key = keys[i % len(keys)]
                try:
                    out = c.get(key).reshape(SHAPE)
                except Exception as exc:  # noqa: BLE001
                    self.failures.append(f"get {key} failed: {exc}")
                else:
                    if np.max(np.abs(out - self._blocks[key])) > EB:
                        self.failures.append(f"bound violated for {key}")
                self.reads += 1
                i += 1

    def __enter__(self) -> "_Hammer":
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop.set()
        self._thread.join(30)


def _smoke(tmp: str) -> int:
    shm_baseline = _dev_shm_segments()
    rng = np.random.default_rng(11)
    blocks = {("blk", i): rng.normal(size=SHAPE) for i in range(N_BLOCKS)}

    fleet = SubprocessFleet(2, tmp, error_bound=EB)
    with fleet:
        handle = gateway_in_thread(GatewayConfig(
            shards=[(s.name, s.host, s.port) for s in fleet.specs],
            replication=1,
            hint_path=os.path.join(tmp, "hints.jsonl"),
            health_interval_s=0.2,
            fail_after=1,
        ))
        try:
            with ServiceClient(handle.host, handle.port, timeout=120.0) as c:
                for key, data in blocks.items():
                    c.put(key, data)

                # pre-migration blobs, straight off the owning shards
                before: dict = {}
                for spec in fleet.specs:
                    with ServiceClient(spec.host, spec.port) as sc:
                        held, _ = sc.call("store.keys")
                        for key in held["keys"]:
                            _, blob = sc.call("store.get_raw", {"key": key})
                            before[tuple(key)] = blob

                # -- add a third shard under live read traffic ----------------
                with _Hammer(handle.host, handle.port, blocks) as hammer:
                    spec = fleet.add_shard()  # boots the process
                    t0 = time.monotonic()
                    summary = c.reshard_add(spec.name, spec.host, spec.port)
                    add_s = time.monotonic() - t0
                if hammer.failures:
                    print("FAIL: reads failed during add-shard migration:\n  "
                          + "\n  ".join(hammer.failures[:10]), file=sys.stderr)
                    return 1
                if hammer.reads == 0:
                    print("FAIL: hammer issued no reads", file=sys.stderr)
                    return 1

                moved = summary["keys_moved"]
                ideal = N_BLOCKS / 3
                if not (ideal / 2 <= moved <= 2 * ideal):
                    print(f"FAIL: moved {moved} keys; ideal ~{ideal:.0f} "
                          f"(accepted range [{ideal / 2:.0f}, {2 * ideal:.0f}])",
                          file=sys.stderr)
                    return 1
                if summary["copy_failures"]:
                    print(f"FAIL: {summary['copy_failures']} copy failures",
                          file=sys.stderr)
                    return 1

                # moved blobs byte-identical on the new owner
                with ServiceClient(spec.host, spec.port) as sc:
                    for key in summary["moved"]:
                        _, blob = sc.call("store.get_raw", {"key": key})
                        if blob != before[tuple(key)]:
                            print(f"FAIL: blob for {key} differs on "
                                  f"{spec.name}", file=sys.stderr)
                            return 1

                # -- and remove it again, same contract -----------------------
                with _Hammer(handle.host, handle.port, blocks) as hammer:
                    t0 = time.monotonic()
                    rm = c.reshard_remove(spec.name)
                    remove_s = time.monotonic() - t0
                fleet.remove_shard(spec.name)
                if hammer.failures:
                    print("FAIL: reads failed during remove-shard migration:\n"
                          "  " + "\n  ".join(hammer.failures[:10]),
                          file=sys.stderr)
                    return 1
                if rm["copy_failures"]:
                    print(f"FAIL: {rm['copy_failures']} copy failures on "
                          "remove", file=sys.stderr)
                    return 1
                if sorted(rm["members"]) != ["shard-00", "shard-01"]:
                    print(f"FAIL: unexpected members {rm['members']}",
                          file=sys.stderr)
                    return 1
                for key, data in blocks.items():
                    out = c.get(key).reshape(SHAPE)
                    if np.max(np.abs(out - data)) > EB:
                        print(f"FAIL: bound violated for {key} after remove",
                              file=sys.stderr)
                        return 1
        finally:
            handle.stop()

    if shm.active_segments():
        print(f"FAIL: leaked shm segments: {shm.active_segments()}",
              file=sys.stderr)
        return 1
    orphans = sorted(_dev_shm_segments() - shm_baseline)
    if orphans:
        print(f"FAIL: orphaned /dev/shm entries: {orphans}", file=sys.stderr)
        return 1

    print(
        f"OK: live reshard 2→3→2 shards over {N_BLOCKS} blocks: "
        f"{moved} keys moved ({summary['bytes_moved']} bytes, ideal "
        f"~{ideal:.0f}) in {add_s:.2f}s, {rm['keys_moved']} moved back in "
        f"{remove_s:.2f}s, zero failed reads under load, moved blobs "
        f"byte-identical, zero leaked shm segments"
    )
    return 0


def main() -> int:
    # Opened outside ``with fleet:`` so the shards stop before their
    # directory goes; it goes on a failure too.
    with tempfile.TemporaryDirectory(prefix="pastri-reshard-smoke-") as tmp:
        return _smoke(tmp)


if __name__ == "__main__":
    sys.exit(main())
