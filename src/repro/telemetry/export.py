"""Telemetry exporters: JSON-lines traces, JSON snapshots, text reports.

JSON-lines schema (one object per line, ``docs/OBSERVABILITY.md``):

* ``{"type": "meta", "version": 1, "created_unix": ..., "argv": [...]}``
* ``{"type": "span", "span": {name, wall_s, cpu_s, attrs?, children?}}``
  — one line per *root* span; children nest inside the object.
* ``{"type": "metrics", "metrics": {name: summary, ...}}`` — final line.

The text report has two parts: a span tree (siblings with the same name
aggregated flame-style, with call counts and percent of the root's wall
time) and a metrics table (timers with count/total/p50/p95/throughput,
then counters/gauges).
"""

from __future__ import annotations

import json
import sys
import time
from typing import Iterable, TextIO

from repro.errors import FormatError
from repro.telemetry.registry import REGISTRY
from repro.telemetry.spans import Span, peek_spans

__all__ = [
    "metrics_snapshot",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "format_span_tree",
    "format_metrics_table",
    "format_counter_tree",
    "format_report",
]


def metrics_snapshot() -> dict:
    """JSON-pure summary of every registered metric."""
    return REGISTRY.snapshot()


def write_trace_jsonl(
    path_or_fh: str | TextIO,
    roots: Iterable[Span] | None = None,
    snapshot: dict | None = None,
) -> None:
    """Dump root spans + a metrics snapshot as JSON-lines.

    Defaults to the live process state (buffered spans are *not* drained,
    so a report can still be printed afterwards).
    """
    roots = peek_spans() if roots is None else list(roots)
    snapshot = metrics_snapshot() if snapshot is None else snapshot
    own = isinstance(path_or_fh, str)
    fh = open(path_or_fh, "w", encoding="utf-8") if own else path_or_fh
    try:
        fh.write(json.dumps(
            {"type": "meta", "version": 1, "created_unix": int(time.time()),
             "argv": list(sys.argv)},
            separators=(",", ":"),
        ) + "\n")
        for sp in roots:
            fh.write(json.dumps({"type": "span", "span": sp.to_dict()},
                                separators=(",", ":")) + "\n")
        fh.write(json.dumps({"type": "metrics", "metrics": snapshot},
                            separators=(",", ":")) + "\n")
    finally:
        if own:
            fh.close()


def read_trace_jsonl(path: str) -> tuple[list[Span], dict]:
    """Parse a :func:`write_trace_jsonl` file back into (roots, snapshot)."""
    roots: list[Span] = []
    snapshot: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad trace line: {exc}") from exc
            kind = obj.get("type")
            if kind == "span":
                roots.append(Span.from_dict(obj["span"]))
            elif kind == "metrics":
                snapshot = obj.get("metrics", {})
            elif kind != "meta":
                raise FormatError(f"{path}:{lineno}: unknown record type {kind!r}")
    return roots, snapshot


# ---------------------------------------------------------------------------
# text rendering


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


def _aggregate(children: list[Span]) -> list[tuple[str, int, float, float, list[Span]]]:
    """Group sibling spans by name: (name, count, wall, cpu, all grandchildren)."""
    order: list[str] = []
    groups: dict[str, list[Span]] = {}
    for c in children:
        if c.name not in groups:
            order.append(c.name)
            groups[c.name] = []
        groups[c.name].append(c)
    out = []
    for name in order:
        g = groups[name]
        grand: list[Span] = []
        for sp in g:
            grand.extend(sp.children)
        out.append((name, len(g), sum(s.wall_s for s in g),
                    sum(s.cpu_s for s in g), grand))
    return out


def format_span_tree(roots: list[Span], max_depth: int = 8) -> str:
    """Flame-style text rendering of root spans (same-name siblings merged)."""
    if not roots:
        return "(no spans recorded)"
    lines = [f"{'span':<46} {'calls':>6} {'wall ms':>10} {'cpu ms':>10} {'%':>6}"]

    def emit(name, count, wall, cpu, grand, depth, total):
        label = "  " * depth + name
        if len(label) > 46:
            label = label[:43] + "..."
        pct = 100.0 * wall / total if total > 0 else 0.0
        lines.append(
            f"{label:<46} {count:>6} {_fmt_ms(wall):>10} {_fmt_ms(cpu):>10} {pct:>5.1f}%"
        )
        if depth + 1 < max_depth:
            for entry in _aggregate(grand):
                emit(*entry, depth + 1, total)

    for root in roots:
        total = root.wall_s or sum(c.wall_s for c in root.children)
        emit(root.name, 1, root.wall_s, root.cpu_s, root.children, 0, total)
    return "\n".join(lines)


def format_metrics_table(snapshot: dict | None = None) -> str:
    """Two-section table: timers first, then counters and gauges."""
    snapshot = metrics_snapshot() if snapshot is None else snapshot
    timers = {k: v for k, v in snapshot.items() if v.get("type") == "timer"}
    scalars = {k: v for k, v in snapshot.items() if v.get("type") != "timer"}
    lines = []
    if timers:
        lines.append(
            f"{'timer':<40} {'count':>7} {'total ms':>10} {'min ms':>9} "
            f"{'p50 ms':>9} {'p95 ms':>9} {'max ms':>9} {'MB/s':>8}"
        )
        for name in sorted(timers):
            t = timers[name]
            mbs = f"{t['mb_per_s']:.1f}" if "mb_per_s" in t else "-"
            lines.append(
                f"{name:<40} {t['count']:>7} {_fmt_ms(t['total_s']):>10} "
                f"{_fmt_ms(t['min_s']):>9} {_fmt_ms(t['p50_s']):>9} "
                f"{_fmt_ms(t['p95_s']):>9} {_fmt_ms(t['max_s']):>9} {mbs:>8}"
            )
    if scalars:
        if timers:
            lines.append("")
        lines.append(f"{'metric':<58} {'value':>16}")
        for name in sorted(scalars):
            v = scalars[name]["value"]
            val = f"{v:g}" if isinstance(v, float) else str(v)
            lines.append(f"{name:<58} {val:>16}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def format_counter_tree(values: dict, indent: int = 0, width: int = 44) -> str:
    """Render dotted/namespaced scalar names as an indented tree.

    ``values`` maps names to scalars — or to nested dicts, which recurse
    (so per-shard aggregations like ``{"shard-00": {...}}`` render
    cleanly).  Dotted names group under their shared prefixes::

        service
          buffers
            bytes_borrowed                     1048576
          requests                                  42

    The flat-dict formatting this replaces printed every dotted name in
    full, which made fleet-level (per-shard, per-namespace) counters
    unreadable; see ``pastri remote stats`` / ``pastri cluster status``.
    """
    tree: dict = {}
    for name, value in values.items():
        if isinstance(value, dict):
            value = dict(value)
        node = tree
        parts = str(name).split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):  # scalar and group share a name
                node = tree.setdefault(str(name), {})
                parts = [str(name)]
                break
        leaf = parts[-1]
        if isinstance(value, dict):
            sub = node.setdefault(leaf, {})
            if isinstance(sub, dict):
                sub.update(value)
            else:
                node[leaf] = value
        else:
            node[leaf] = value

    lines: list[str] = []

    def emit(node: dict, depth: int) -> None:
        pad = "  " * depth
        for key in sorted(node, key=str):
            value = node[key]
            if isinstance(value, dict):
                lines.append(f"{pad}{key}")
                emit(value, depth + 1)
            else:
                val = f"{value:g}" if isinstance(value, float) else str(value)
                label = f"{pad}{key}"
                lines.append(f"{label:<{width}} {val:>12}")

    emit(tree, indent)
    return "\n".join(lines) if lines else "(none)"


def format_report(roots: list[Span] | None = None, snapshot: dict | None = None) -> str:
    """Span tree + metrics table, the ``--telemetry`` console output."""
    roots = peek_spans() if roots is None else roots
    parts = ["-- telemetry: spans " + "-" * 42, format_span_tree(roots),
             "", "-- telemetry: metrics " + "-" * 40,
             format_metrics_table(snapshot)]
    return "\n".join(parts)
