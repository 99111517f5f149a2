"""End-to-end smoke test for the low-rank codec (``make lowrank-smoke``).

Two independent serving paths, both reached purely through the codec-spec
registry (no lowrank-specific wiring anywhere):

1. **Container**: ``pastri pack --codec lowrank`` as a real subprocess
   writes a PSTF-v2 container; ``open_container`` revives the codec from
   the embedded spec with no arguments and decodes every frame.
2. **Service**: a ``pastri serve --codec lowrank`` subprocess on an
   ephemeral port; a client compress/decompress round-trip plus a
   store put/get, with live ``lowrank.*`` telemetry checked via the
   metrics op.

Both paths assert the point-wise error bound and a minimum compression
ratio on a batch with real cross-block low-rank structure.  Hard
deadlines everywhere: a wedged step fails the build, never hangs it.
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.service import ServiceClient  # noqa: E402
from repro.streamio import open_container  # noqa: E402

EB = 1e-10
MIN_RATIO = 20.0  # the batch below is rank-4 + noise: far above any 1-D codec
BOOT_DEADLINE_S = 30.0
DRAIN_DEADLINE_S = 20.0
DIMS = (6, 6, 6, 6)
BLOCK = 6 ** 4


def _batch() -> np.ndarray:
    """400 (dd|dd) blocks drawn from a 4-dim subspace + in-bound noise."""
    rng = np.random.default_rng(99)
    basis = rng.standard_normal((4, BLOCK))
    coef = rng.standard_normal((400, 4)) * np.array([1.0, 0.3, 0.1, 0.03])
    return ((coef @ basis) * 1e-6).ravel()


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def container_roundtrip(data: np.ndarray) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        npy = os.path.join(tmp, "batch.npy")
        pstf = os.path.join(tmp, "batch.pstf")
        np.save(npy, data)
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "pack", npy, pstf,
             "--codec", "lowrank", "--config", "(dd|dd)", "--eb", str(EB)],
            check=True, timeout=120, env=_subprocess_env(), cwd=REPO,
        )
        ratio = data.nbytes / os.path.getsize(pstf)
        with open_container(pstf) as r:
            assert r.codec_name == "lowrank", r.codec_name
            out = np.concatenate([r.read_frame(i) for i in range(len(r))])
        max_err = float(np.max(np.abs(out - data)))
        assert out.size == data.size, (out.size, data.size)
        assert max_err <= EB, f"container bound violated: {max_err} > {EB}"
        assert ratio >= MIN_RATIO, f"container ratio {ratio:.1f} < {MIN_RATIO}"
        print(f"container ok: ratio {ratio:.1f}x, max err {max_err:.2e} <= {EB:g}")


def service_roundtrip(data: np.ndarray) -> int:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--codec", "lowrank", "--config", "(dd|dd)", "--eb", str(EB)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_subprocess_env(), cwd=REPO,
    )
    try:
        deadline = time.monotonic() + BOOT_DEADLINE_S
        port, lines = None, []
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            m = re.search(r"listening on [\d.]+:(\d+)", line)
            if m:
                port = int(m.group(1))
                break
        if port is None:
            print("".join(lines), file=sys.stderr)
            print("FAIL: lowrank server never came up", file=sys.stderr)
            return 1
        print(f"server up on port {port}")

        with ServiceClient("127.0.0.1", port, timeout=60.0) as client:
            blob, _ = client.compress(data, EB, dims=DIMS)
            back = client.decompress(blob)
            max_err = float(np.max(np.abs(back - data)))
            ratio = data.nbytes / len(blob)
            assert back.size == data.size
            assert max_err <= EB, f"service bound violated: {max_err} > {EB}"
            assert ratio >= MIN_RATIO, f"service ratio {ratio:.1f} < {MIN_RATIO}"

            client.put("smoke", data[:BLOCK], dims=DIMS)
            got = client.get("smoke")
            assert float(np.max(np.abs(got - data[:BLOCK]))) <= EB

            metrics = client.metrics()
            assert metrics.get("lowrank.compress.streams", {}).get("value", 0) >= 1, \
                "no lowrank.* telemetry on the serve path"
            rank = metrics.get("lowrank.rank", {}).get("value")
        print(f"service ok: ratio {ratio:.1f}x, max err {max_err:.2e} <= {EB:g}, "
              f"chosen rank {rank}")

        proc.send_signal(signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=DRAIN_DEADLINE_S)
        except subprocess.TimeoutExpired:
            print("FAIL: server did not drain", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(out, file=sys.stderr)
            print(f"FAIL: drain exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("graceful drain ok")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def main() -> int:
    data = _batch()
    container_roundtrip(data)
    rc = service_roundtrip(data)
    if rc == 0:
        print("lowrank-smoke PASSED")
    return rc


if __name__ == "__main__":
    sys.exit(main())
