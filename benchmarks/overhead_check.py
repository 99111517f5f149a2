"""Telemetry overhead gate: enabled vs disabled PaSTRI round-trips.

CI runs this in smoke mode and fails the build when telemetry-*enabled*
compress+decompress is more than ``--threshold`` (default 10 %) slower
than the telemetry-*disabled* path on the PR 1 benchmark kernel.  The
disabled path is the production default, so the gate bounds the cost of
carrying the instrumentation branches (<5 % measured; see
``docs/OBSERVABILITY.md``), while the enabled comparison bounds what a
``--telemetry`` run costs.

Uses a synthetic block-patterned stream rather than the chem engine so
the check stays seconds-fast and dependency-light::

    PYTHONPATH=src python -m benchmarks.overhead_check --reps 7 --threshold 0.10

Minimum-over-reps on both sides: on timeshared CI hosts the floor is the
only stable estimator.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro import telemetry
from repro.core import PaSTRICompressor

EB = 1e-10
DIMS = (6, 6, 6, 6)
N_BLOCKS = 96


def _patterned_stream(n_blocks: int = N_BLOCKS) -> np.ndarray:
    """Block-structured doubles with ERI-like magnitude spread."""
    block = np.prod(DIMS)
    rng = np.random.default_rng(7)
    base = np.exp(rng.uniform(-18.0, 1.5, size=block))
    out = np.empty(n_blocks * block)
    for b in range(n_blocks):
        out[b * block : (b + 1) * block] = base * rng.uniform(0.5, 2.0)
    return out


def _roundtrip_floor(codec: PaSTRICompressor, data: np.ndarray, reps: int) -> float:
    """Min wall seconds of one compress+decompress over ``reps`` tries."""
    blob = codec.compress(data, EB)  # warmup + parse-cache prime
    codec.decompress(blob)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        blob = codec.compress(data, EB)
        codec.decompress(blob)
        best = min(best, time.perf_counter() - t0)
    return best


def run(reps: int = 7) -> tuple[float, float]:
    """(disabled_s, enabled_s) round-trip floors on the same codec/data."""
    data = _patterned_stream()
    codec = PaSTRICompressor(dims=DIMS)

    telemetry.disable()
    telemetry.reset()
    disabled = _roundtrip_floor(codec, data, reps)

    telemetry.enable()
    try:
        enabled = _roundtrip_floor(codec, data, reps)
    finally:
        telemetry.disable()
        telemetry.reset()
    return disabled, enabled


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument(
        "--threshold", type=float, default=0.10,
        help="max allowed fractional slowdown of enabled vs disabled",
    )
    args = ap.parse_args(argv)

    disabled, enabled = run(reps=args.reps)
    overhead = enabled / disabled - 1.0
    print(
        f"telemetry overhead: disabled {disabled * 1e3:.2f} ms, "
        f"enabled {enabled * 1e3:.2f} ms -> {overhead * 100:+.1f}% "
        f"(threshold {args.threshold * 100:.0f}%)"
    )
    if overhead > args.threshold:
        print(
            f"FAIL: telemetry-enabled round-trip is {overhead * 100:.1f}% slower "
            f"than disabled (allowed {args.threshold * 100:.0f}%)",
            file=sys.stderr,
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
