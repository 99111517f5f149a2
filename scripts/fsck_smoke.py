"""End-to-end smoke test for container salvage (``make fsck-smoke``).

Builds a real multi-frame PSTF-v2 container from synthetic ERI-like data,
truncates a copy at a *random* byte (printed with the seed so a failure
reproduces), runs ``pastri fsck`` as a real subprocess, and verifies the
salvaged container opens, passes every CRC, and round-trips each
recovered frame within the error bound.  Also asserts the two fixed
points of the contract: fsck on the untouched container is a
byte-identical no-op, and a cut placed in the trailer recovers every
frame with every key.  Last, a spill-backed store is aborted (the disk
state of a killed process), fsck'd as a subprocess and reopened: fsck
keys the spilled frames from the store's journal, so every spilled key
must read back within the error bound.
"""

import os
import random
import subprocess
import sys
import tempfile

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.core import PaSTRICompressor  # noqa: E402
from repro.pipeline import CompressedERIStore, ContainerBackend  # noqa: E402
from repro.streamio import ContainerWriter, open_container  # noqa: E402

EB = 1e-10
DIMS = (6, 6, 6, 6)
N_FRAMES = 8


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def run_fsck(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "fsck", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=60,
    )


def check_roundtrip(path: str, chunks, n_expected: int) -> None:
    with open_container(path) as r:
        assert len(r) == n_expected, (len(r), n_expected)
        for i in range(n_expected):
            r.read_blob(i)  # CRC-verified read
            err = float(np.max(np.abs(r.read_frame(i) - chunks[i])))
            assert err <= EB, f"frame {i} violates the bound: {err}"


def main() -> int:
    seed = random.SystemRandom().randrange(2**32)
    rng = np.random.default_rng(seed)
    print(f"fsck-smoke seed: {seed}", flush=True)

    with tempfile.TemporaryDirectory(prefix="fsck-smoke-") as tmp:
        ref = os.path.join(tmp, "ref.pstf")
        chunks = [rng.standard_normal(6**4 * 2) * 1e-7 for _ in range(N_FRAMES)]
        with ContainerWriter.create(ref, PaSTRICompressor(dims=DIMS), EB) as w:
            for i, c in enumerate(chunks):
                w.append(c, key=f"q{i}", dims=DIMS)
        with open_container(ref) as r:
            boundaries = [f.offset + f.length for f in r.frames]
            data_start = r.data_start
        size = os.path.getsize(ref)
        ref_bytes = _read(ref)

        # 1. fsck on a valid container: exit 0, byte-identical no-op
        p = run_fsck(ref)
        assert p.returncode == 0, p.stderr
        assert "no-op" in p.stdout, p.stdout
        assert _read(ref) == ref_bytes
        print("clean no-op: OK", flush=True)

        # 2. random cut anywhere in frames/footer: salvage + verify
        cut = int(rng.integers(data_start + 1, size))
        torn = os.path.join(tmp, "torn.pstf")
        with open(torn, "wb") as fh:
            fh.write(ref_bytes[:cut])
        n_intact = sum(1 for b in boundaries if b <= cut)
        p = run_fsck("--dry-run", torn)
        assert p.returncode == 1, (p.returncode, p.stdout, p.stderr)
        p = run_fsck(torn)
        assert p.returncode == 0, p.stderr
        print(p.stdout.strip(), flush=True)
        check_roundtrip(torn, chunks, n_intact)
        print(f"random cut at byte {cut}: {n_intact} frames salvaged, "
              "round-trip within bound", flush=True)

        # 3. cut in the trailer: everything (frames *and* keys) survives
        tail = os.path.join(tmp, "tail.pstf")
        with open(tail, "wb") as fh:
            fh.write(ref_bytes[: size - 10])
        p = run_fsck(tail)
        assert p.returncode == 0, p.stderr
        check_roundtrip(tail, chunks, N_FRAMES)
        with open_container(tail) as r:
            keys = [f.key for f in r.frames]
        assert keys == [f"q{i}" for i in range(N_FRAMES)], keys
        print("trailer cut: all frames and keys recovered", flush=True)

        # 4. killed spill store: fsck, then a restarted store serves every
        #    spilled key
        spill = os.path.join(tmp, "spill.pstf")

        def spill_store():
            return CompressedERIStore(
                PaSTRICompressor(dims=DIMS), EB,
                backend=ContainerBackend(spill, memory_budget_bytes=4096),
            )

        store = spill_store()
        for i, c in enumerate(chunks):
            store.put((0, i), c, dims=DIMS)
        spilled = list(store.backend._ondisk)
        assert spilled, "the store spilled nothing"
        store.abort()
        p = run_fsck(spill)
        assert p.returncode == 0, p.stderr
        print(p.stdout.strip(), flush=True)
        assert f"{len(spilled)} with keys" in p.stdout, p.stdout
        with spill_store() as revived:
            assert revived.stats.recovered == len(spilled), revived.stats
            for key in spilled:
                err = float(np.max(np.abs(revived.get(key) - chunks[key[1]])))
                assert err <= EB, f"spilled key {key} violates the bound: {err}"
        print(f"killed spill store: {len(spilled)} spilled keys fsck'd and "
              "served within bound", flush=True)

    print("fsck-smoke OK", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
