"""Shared pieces of the benchmark: paths, inputs, spans, statistics.

Nothing here starts a process or touches the program on import; the
workload modules call in.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: The workloads, each a module of this directory with a ``run`` function.
WORKLOADS = ("archive", "scf_reuse", "serve_mix")

#: The point-wise error bound every workload compresses at.
EB = 1e-10

#: The committed real (dd|dd) datasets.  The benzene file next to them is
#: not a valid zip archive at the commit that introduced this benchmark,
#: so it is not used.
REAL_DD_FILES = (
    ".repro_cache/trialanine_dd_dd_120_0_1.npz",
    ".repro_cache/trialanine_dd_dd_400_0_1.npz",
)

DIMS = {"(dd|dd)": (6, 6, 6, 6), "(ff|ff)": (10, 10, 10, 10)}

#: On archive's workers=1 pass and on scf_reuse, the self times of the
#: spans must cover at least this share of the wall time they trace.
ACCOUNTED_MIN = 0.95

#: Layers the per-layer table attributes time to, named by module.
LAYERS = ("core", "streamio", "parallel", "pipeline", "service", "cluster")


def import_program() -> None:
    """Put the program's sources on ``sys.path``; fail fast without them."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found under {SRC}")
    sys.dont_write_bytecode = True
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict:
    """Environment for program subprocesses (sources on the path, no .pyc)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONUNBUFFERED"] = "1"
    return env


# -- inputs -------------------------------------------------------------------


def real_dd_blocks() -> np.ndarray:
    """Every block of the committed real (dd|dd) datasets, as (n, 1296).

    Loaded by path from the repository root, never through the dataset
    cache (which resolves against the working directory and would run the
    integral engine for minutes when a file is not found).
    """
    n = int(np.prod(DIMS["(dd|dd)"]))
    parts = []
    for rel in REAL_DD_FILES:
        path = ROOT / rel
        if not path.is_file():
            raise SystemExit(f"perfbench: committed dataset missing: {path}")
        with np.load(path) as z:
            parts.append(np.asarray(z["data"], dtype=np.float64).reshape(-1, n))
    return np.concatenate(parts)


#: synthetic candidates drawn per block kept (see :func:`synthetic_blocks`)
OVERSAMPLE = 8


def synthetic_blocks(config: str, n_blocks: int, seed: int) -> np.ndarray:
    """``n_blocks`` synthetic blocks of one class, as (n, block_size).

    The compressed size of a block grows steeply with its amplitude, and
    the model draws amplitudes log-uniformly, so a plain sample of a few
    hundred blocks swings the compression ratio by tens of percent from
    seed to seed.  The blocks are therefore a stratified sample: of
    ``OVERSAMPLE`` times as many candidates, ordered by amplitude, every
    ``OVERSAMPLE``-th is kept.
    """
    from repro.chem.synthetic import SyntheticERIModel

    model = SyntheticERIModel.from_config(config, seed=seed)
    cands = model.generate_blocks(n_blocks * OVERSAMPLE).reshape(n_blocks * OVERSAMPLE, -1)
    order = np.argsort(np.abs(cands).max(axis=1), kind="stable")
    return cands[order[OVERSAMPLE // 2 :: OVERSAMPLE]]


def class_blocks(config: str, n_blocks: int, rng: np.random.Generator,
                 seed: int) -> np.ndarray:
    """Blocks of one class drawn for ``seed``: for (dd|dd), the real blocks
    topped up with synthetic ones; for (ff|ff), synthetic only.

    When fewer real blocks are wanted than there are, they are a stratified
    sample too: evenly spaced in amplitude order from a seed-drawn start.
    Most real blocks lie far below the bound and compress to almost
    nothing, so a plain sample swings the ratio with how many large ones
    it happens to take."""
    blocks = np.zeros((0, int(np.prod(DIMS[config]))))
    if config == "(dd|dd)":
        real = real_dd_blocks()
        take = min(n_blocks, len(real))
        order = np.argsort(np.abs(real).max(axis=1), kind="stable")
        step = len(real) / take
        blocks = real[order[(step * (rng.random() + np.arange(take))).astype(int)]]
    extra = n_blocks - len(blocks)
    if extra:
        blocks = np.concatenate([blocks, synthetic_blocks(config, extra, seed)])
    return blocks[rng.permutation(n_blocks)]


def max_err(out: np.ndarray, ref: np.ndarray) -> float:
    """Point-wise error, or infinity when the shapes disagree."""
    out = np.asarray(out).ravel()
    ref = np.asarray(ref).ravel()
    if out.shape != ref.shape:
        return float("inf")
    return float(np.max(np.abs(out - ref))) if out.size else 0.0


# -- statistics ----------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


#: Throughputs and set-up times are taken at this percentile of repeated
#: timings.  On a shared host, other tenants only ever add time, and they
#: come and go in phases from seconds to minutes long: the median of a 25 s
#: run follows those phases (cycle medians of one process moved by 30 %
#: between 25-cycle windows), its fastest fifth far less (16 %).
FAST_PCT = 20


def fast_time(times) -> float:
    """A time when the host leaves the program alone: the ``FAST_PCT``
    percentile of the samples."""
    return percentile(times, FAST_PCT)


def python_run_s(code: str, *args: str) -> float:
    """Wall seconds of a fresh interpreter that runs ``code`` (``args`` in
    ``sys.argv[1:]``) with the program's sources on its path.

    No timeout: with one, ``wait`` polls in sleeps of up to 50 ms, which
    would round the time up to the next poll.  A hung child is killed with
    the workload's session."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, *args], env=program_env(), check=True)
    return time.perf_counter() - t0


def beyond(values, q: float) -> int:
    """How many samples lie above the ``q`` percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


# -- processes and memory -------------------------------------------------------


def _proc_stat(pid: int) -> tuple[int, int, int] | None:
    """``(ppid, pgrp, session)`` of a live process, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode(errors="replace")
    except OSError:
        return None
    fields = raw[raw.rfind(")") + 2 :].split()
    if fields[0] == "Z":
        return None
    return int(fields[1]), int(fields[2]), int(fields[3])


def all_pids() -> list[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def descendants(pid: int) -> list[int]:
    """Live descendants of ``pid`` (children, grandchildren, ...)."""
    children: dict[int, list[int]] = {}
    for p in all_pids():
        st = _proc_stat(p)
        if st is not None:
            children.setdefault(st[0], []).append(p)
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def session_members(sid: int) -> list[int]:
    """Live processes of session ``sid``."""
    out = []
    for p in all_pids():
        st = _proc_stat(p)
        if st is not None and st[2] == sid:
            out.append(p)
    return out


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current resident set, so that
    the transient memory of input generation is not charged to the
    program."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


def vmhwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process in MB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# -- spans ---------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent and request id.

    Spans nest through a stack, so it serves one thread; concurrent
    asyncio requests record root spans only.  A span opened directly under
    the benchmark's own loop (a ``bench.*`` span, or none) starts a new
    request id; deeper spans inherit their parent's.  ``enabled=False``
    makes every call a no-op, which is how the end-to-end runs use it.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_rid = 0

    @contextmanager
    def span(self, name: str, rid=None):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if rid is None:
            if parent is None or self.spans[parent]["name"].startswith("bench."):
                rid = self._next_rid
                self._next_rid += 1
            else:
                rid = self.spans[parent]["rid"]
        rec = {"id": idx, "name": name, "parent": parent, "rid": rid,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float, rid=None) -> None:
        """A root span timed by the caller (concurrent requests)."""
        if self.enabled:
            self.spans.append({"id": len(self.spans), "name": name,
                               "parent": None, "rid": rid,
                               "start": start, "end": end})

    def self_times(self, spans=None) -> dict[str, float]:
        """Seconds of self time per span name: duration minus the part of
        it that child spans cover (children never overlap here)."""
        spans = self.spans if spans is None else spans
        child = {s["id"]: 0.0 for s in spans}
        for s in spans:
            if s["parent"] is not None and s["parent"] in child:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in spans:
            own = (s["end"] - s["start"]) - child[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_self_seconds(self_times: dict[str, float]) -> dict[str, float]:
    """Fold per-span self times into per-layer totals (prefix of the name)."""
    out = {layer: 0.0 for layer in LAYERS}
    out["bench"] = 0.0
    for name, secs in self_times.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + secs
    return out
