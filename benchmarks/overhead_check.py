"""Telemetry overhead gate: enabled vs disabled PaSTRI round-trips.

CI runs this in smoke mode and fails the build when telemetry-*enabled*
round-trips are more than ``--threshold`` (default 10 %) slower than the
telemetry-*disabled* ones.  Two round-trips over (dd|dd) blocks are
gated: ``compress`` + ``decompress`` of one 96-block stream, and
``compress_many`` + ``decompress_many`` of the same blocks as 96 one-block
streams (the batch calls the service and the store make).  The disabled
path is the production default, so the gate bounds the cost of carrying
the instrumentation branches (<5 % measured; see
``docs/OBSERVABILITY.md``), while the enabled comparison bounds what a
``--telemetry`` run costs.

Uses a synthetic block-patterned stream rather than the chem engine so
the check stays seconds-fast and dependency-light::

    PYTHONPATH=src python -m benchmarks.overhead_check --reps 21 --threshold 0.10

The gate reads the median of per-pair ratios.  A pair is one disabled and
one enabled round-trip run back to back, the side that goes first
alternating from pair to pair, so a slow phase of the host lands on both
halves of the pairs it covers and the median discards the pairs it
splits.  (The minimum of each side over 7 reps read -13.5 % to +16.1 %
over 17 runs on a shared host, failing 2 of them.)
"""

from __future__ import annotations

import argparse
import statistics
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


def _pair_ratios(roundtrip, reps: int) -> tuple[list[float], list[float]]:
    """Wall seconds of ``roundtrip()`` with telemetry disabled and enabled,
    ``reps`` pairs of them, the side that runs first alternating."""
    times: dict[bool, list[float]] = {False: [], True: []}
    for rep in range(reps + 1):  # rep 0 warms up + primes the parse cache
        for enabled in (rep % 2 == 1, rep % 2 == 0):
            if enabled:
                telemetry.enable()
            else:
                telemetry.disable()
            t0 = time.perf_counter()
            roundtrip()
            if rep:
                times[enabled].append(time.perf_counter() - t0)
    return times[False], times[True]


def run(reps: int = 21) -> dict[str, tuple[float, float, float]]:
    """Per path: median disabled seconds, median enabled seconds, and the
    median of the per-pair enabled/disabled ratios (same codec and data)."""
    data = _patterned_stream()
    streams = np.split(data, N_BLOCKS)
    codec = PaSTRICompressor(dims=DIMS)
    paths = {
        "compress+decompress": lambda: codec.decompress(codec.compress(data, EB)),
        "compress_many+decompress_many": lambda: codec.decompress_many(
            codec.compress_many(streams, EB)
        ),
    }
    out = {}
    for name, roundtrip in paths.items():
        telemetry.reset()
        try:
            disabled, enabled = _pair_ratios(roundtrip, reps)
        finally:
            telemetry.disable()
            telemetry.reset()
        ratios = [e / d for d, e in zip(disabled, enabled)]
        out[name] = (
            statistics.median(disabled), statistics.median(enabled),
            statistics.median(ratios),
        )
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=21, help="disabled/enabled pairs per path")
    ap.add_argument(
        "--threshold", type=float, default=0.10,
        help="max allowed fractional slowdown of enabled vs disabled",
    )
    args = ap.parse_args(argv)

    failed = False
    for name, (disabled, enabled, ratio) in run(reps=args.reps).items():
        overhead = ratio - 1.0
        print(
            f"telemetry overhead, {name}: disabled {disabled * 1e3:.2f} ms, "
            f"enabled {enabled * 1e3:.2f} ms (medians) -> median pair "
            f"{overhead * 100:+.1f}% (threshold {args.threshold * 100:.0f}%)"
        )
        if overhead > args.threshold:
            print(
                f"FAIL: telemetry-enabled {name} is {overhead * 100:.1f}% slower "
                f"than disabled (allowed {args.threshold * 100:.0f}%)",
                file=sys.stderr,
            )
            failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
