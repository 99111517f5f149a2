"""Run one workload in this process and write its result as JSON.

Started by ``run.py`` in a session of its own, so that everything the
workload starts can be found and checked once it has exited.

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE SIZE TMPDIR RESULT
"""

from __future__ import annotations

import importlib
import json
import sys

from common import LAYERS, OUT_DIR, WORKLOADS, import_program, layer_self_seconds


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, size, tmp, result_path = argv
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    import_program()
    module = importlib.import_module(workload)
    trace_on = trace == "1"
    try:
        result = module.run(int(seed), float(seconds), trace_on, size, tmp)
    except getattr(module, "InvalidRun", ()) as exc:
        result = {"invalid": str(exc)}
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{workload}-seed{seed}.spans.jsonl")
    self_times = result.pop("self_times", None)
    if trace_on and "shares" not in result and self_times is not None:
        per_layer = layer_self_seconds(self_times)
        wall = result["wall_s"]
        result["shares"] = {k: v / wall for k, v in per_layer.items()}
        result["self_s"] = per_layer
    if trace_on and "shares" in result:
        for layer in LAYERS + ("bench",):
            result["shares"].setdefault(layer, 0.0)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
