"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload archive --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's
telemetry off; ``--trace 1`` is a separate run that also records spans
around the calls into each layer and reports the per-layer metrics, the
layer table and the tracing overhead.  Metric names and units come from
``BENCHMARK.json`` at the repository root.  The last line of standard
output is the JSON result; the human-readable table precedes it.

The workload runs in a child process in a session of its own.  Once it
has exited, any process left in that session, any new ``/dev/shm``
segment and any file left in its scratch directory fail the run, so
every run starts from the same clean machine.  Exit codes: 0 success,
1 failure (nothing is reported), 3 an invalid run (the load generator
fell behind; nothing is reported).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True

from common import (  # noqa: E402
    BENCH_DIR, OUT_DIR, REAL_DD_FILES, ROOT, SRC, WORKLOADS, session_members,
)
#: the child gets this long before it is killed (a run must end in 180 s)
CHILD_TIMEOUT_S = 170.0
#: the end-to-end metric each workload reports under its own name in the
#: table under the name of the path it measures
NAMED = {
    "archive": {"write_mb_s": ("pack_mb_s", "MB/s"), "read_mb_s": ("unpack_mb_s", "MB/s")},
    "scf_reuse": {"write_mb_s": ("fill_mb_s", "MB/s"), "read_mb_s": ("sweep_mb_s", "MB/s")},
    "serve_mix": {},
}


def _fail(msg: str, code: int = 1) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def _shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def preflight() -> str | None:
    """Why the program cannot run from this checkout, or ``None``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"program sources not found under {SRC}"
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"{ROOT / 'BENCHMARK.json'} not found"
    for rel in REAL_DD_FILES:
        if not (ROOT / rel).is_file():
            return f"committed dataset missing: {ROOT / rel}"
    return None


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              size: str = "full") -> tuple[dict | None, str | None]:
    """Run one workload in its own session; ``(result, error)``."""
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    result_path = os.path.join(OUT_DIR, f".result-{os.getpid()}-{workload}.json")
    shm_before = _shm_names()
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), workload, str(seed),
           repr(float(seconds)), "1" if trace else "0", size, tmp, result_path]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.Popen(cmd, stdout=sys.stderr, env=env, start_new_session=True)
    errors = []
    try:
        child.wait(CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        errors.append(f"workload did not finish within {CHILD_TIMEOUT_S:.0f} s")
        os.killpg(child.pid, signal.SIGKILL)
        child.wait(10)
    if child.returncode not in (0, None) and not errors:
        errors.append(f"workload process exited with code {child.returncode}")
    left = session_members(child.pid)
    deadline = time.monotonic() + 5
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = session_members(child.pid)
    if left:
        os.killpg(child.pid, signal.SIGKILL)
        errors.append(f"processes outlived the workload: {left}")
    leaked = sorted(_shm_names() - shm_before)
    if leaked:
        errors.append(f"/dev/shm segments outlived the workload: {leaked}")
        for name in leaked:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
    leftovers = os.listdir(tmp) if os.path.isdir(tmp) else []
    if leftovers:
        errors.append(f"files outlived the workload: {sorted(leftovers)}")
    shutil.rmtree(tmp, ignore_errors=True)
    result = None
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
    elif not errors:
        errors.append("workload wrote no result")
    return result, "; ".join(errors) or None


def layer_table(result: dict) -> str:
    """The per-layer table: share of traced time and each layer's metrics."""
    shares = result["shares"]
    lines = ["layer      share  metrics"]
    for layer in sorted(shares, key=shares.get, reverse=True):
        mets = {k: v for k, v in result["layers"].items() if k.split(".")[0] == layer}
        text = "  ".join(f"{k.split('.', 1)[1]}={v:.4g}" for k, v in sorted(mets.items()))
        lines.append(f"{layer:<9} {shares[layer]:6.1%}  {text}")
    rest = {k: v for k, v in result["layers"].items()
            if k.split(".")[0] not in shares}
    for k, v in sorted(rest.items()):
        lines.append(f"{k:<26} {v:.4g}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    why = preflight()
    if why:
        return _fail(why)
    spec = _spec()
    result, error = run_child(args.workload, args.seed, args.seconds, bool(args.trace))
    if error:
        return _fail(error)
    if "invalid" in result:
        return _fail(f"invalid run: {result['invalid']}", 3)
    attempted, failed = int(result["attempted"]), int(result["failed"])
    for err in result.get("errors", [])[:5]:
        print(f"perfbench: failed operation: {err}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"  {'error_frac':<16} {failed / max(attempted, 1):.6g} frac "
          f"({failed} of {attempted} operations)")
    if args.trace:
        groups = spec["per_layer"]
        values = dict(result["layers"])
        values.update({f"{k}.share": v for k, v in result["shares"].items()})
        table = layer_table(result)
        print(table)
        (OUT_DIR / f"{args.workload}-seed{args.seed}.layers.txt").write_text(table + "\n")
    else:
        groups = spec["end_to_end"]
        values = result["e2e"]
        for key, (name, unit) in NAMED[args.workload].items():
            print(f"  {name:<16} {values[key]:.6g} {unit}")
        for name, ms in result.get("named", {}).items():
            print(f"  {name:<16} {ms:.6g} ms")
        if "samples" in result:
            print("  samples          " + "  ".join(
                f"{op} {n}" for op, n in result["samples"].items()))
        if "lag_ms" in result:
            print("  gen.lag_ms       " + "  ".join(
                f"{q} {v:.3g}" for q, v in result["lag_ms"].items()))
    # a per-layer metric a workload does not exercise reads 0; every
    # end-to-end metric must be measured
    metrics = {m["name"]: {"value": float(values[m["name"]] if not args.trace
                                          else values.get(m["name"], 0.0)),
                           "unit": m["unit"]}
               for m in groups}
    if not args.trace:
        for name, m in metrics.items():
            print(f"  {name:<16} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
