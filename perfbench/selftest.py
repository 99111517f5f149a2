"""Self-test: each workload at a tiny size, twice with one seed.

    python3 perfbench/selftest.py

Every run must fail no operation, and the counts that depend only on the
inputs must repeat exactly: for ``archive`` the container bytes and the
block kinds, for ``scf_reuse`` the spills, disk reads, tier hits and
misses and readahead issued and useful.  The traced runs must also
account for the wall time of archive's workers=1 pass and of
``scf_reuse`` to within ``ACCOUNTED_MIN``.  Exit code 0 means all held.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

from common import ACCOUNTED_MIN  # noqa: E402
from run import preflight, run_child  # noqa: E402

SEED = 7
#: seconds per tiny run
SECONDS = {"archive": 1.0, "scf_reuse": 1.0, "serve_mix": 2.0}


def check(workload: str) -> list[str]:
    problems = []
    results = []
    for attempt in (1, 2):
        result, error = run_child(workload, SEED, SECONDS[workload], True, size="tiny")
        if error:
            return [f"{workload} run {attempt}: {error}"]
        if "invalid" in result:
            return [f"{workload} run {attempt}: invalid: {result['invalid']}"]
        if result["failed"] or not result["attempted"]:
            problems.append(f"{workload} run {attempt}: {result['failed']} of "
                            f"{result['attempted']} operations failed: "
                            f"{result.get('errors', [])[:3]}")
        accounted = result["layers"].get("trace.accounted_frac", 1.0)
        if accounted < ACCOUNTED_MIN:
            problems.append(f"{workload} run {attempt}: spans cover only "
                            f"{accounted:.1%} of the traced wall time")
        results.append(result)
    first, second = (r["counts"] for r in results)
    if first != second:
        problems.append(f"{workload}: counts differ between runs: {first} vs {second}")
    print(f"{workload}: counts {first}", flush=True)
    return problems


def main() -> int:
    why = preflight()
    if why:
        print(f"selftest: {why}", file=sys.stderr)
        return 1
    problems = []
    for workload in SECONDS:
        problems += check(workload)
    for p in problems:
        print(f"selftest: FAIL {p}", file=sys.stderr)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
