"""Instrumentation helpers: codec wrapping and worker delta transport.

:func:`instrument_codec` is a class decorator the codec modules apply to
their compressor classes.  With telemetry disabled the wrapper is one
attribute read and a branch before calling straight through — the
zero-overhead mode CI guards.  Enabled, every call records:

* a span named ``codec.<name>.<op>`` (feeding the same-named timer; the
  batch forms ``<op>_many`` record under the same name),
* ``codec.<name>.<op>.bytes_in`` / ``.bytes_out`` counters, and
* payload bytes on the timer, so the summary table shows MB/s
  (uncompressed bytes for both directions — the paper's rate convention).

:func:`capture_state` / :func:`merge_state` are the multiprocessing
transport: a worker drains its spans and serializes its metric state into
one picklable dict; the parent folds it into the live registry and grafts
the spans under its open span (see :mod:`repro.parallel.pool`).
"""

from __future__ import annotations

import functools
import os

from repro.telemetry import state
from repro.telemetry.registry import REGISTRY
from repro.telemetry.spans import adopt_spans, drain_spans, trace

__all__ = ["instrument_codec", "capture_state", "merge_state"]


def _nbytes(obj) -> int:
    """Payload size of a codec argument (array ``nbytes`` or blob length)."""
    n = getattr(obj, "nbytes", None)
    if n is not None:
        return int(n)
    try:
        return len(obj)
    except TypeError:
        return 0


def instrument_codec(cls):
    """Class decorator wrapping a codec's calls with telemetry.

    ``compress`` and ``decompress`` are wrapped, and so are the batch
    forms ``compress_many`` and ``decompress_many`` when the class has
    them: a batch call records one span and adds its summed bytes to the
    same ``codec.<name>.compress`` / ``.decompress`` metrics.  A codec
    whose one-item and batch methods share code must route both through
    a private method, or each call would be counted twice.  The metric
    namespace comes from each *instance*'s ``name`` attribute, so one
    wrapper serves every registered codec.
    """
    for op in ("compress", "decompress"):
        setattr(cls, op, _instrumented(getattr(cls, op), op, batch=False))
        many = getattr(cls, op + "_many", None)
        if many is not None:
            setattr(cls, op + "_many", _instrumented(many, op, batch=True))
    return cls


def _instrumented(fn, op: str, batch: bool):
    """``fn`` timed under ``codec.<name>.<op>``; its first argument is one
    payload, or a sequence of them when ``batch``."""

    @functools.wraps(fn)
    def wrapper(self, payload, *args, **kwargs):
        if not state.enabled:
            return fn(self, payload, *args, **kwargs)
        if batch:
            payload = list(payload)
        base = f"codec.{self.name}.{op}"
        bytes_in = sum(map(_nbytes, payload)) if batch else _nbytes(payload)
        with trace(base, nbytes=bytes_in):
            result = fn(self, payload, *args, **kwargs)
        bytes_out = sum(map(_nbytes, result)) if batch else _nbytes(result)
        REGISTRY.counter(base + ".bytes_in").add(bytes_in)
        REGISTRY.counter(base + ".bytes_out").add(bytes_out)
        # payload bytes are the uncompressed side in both directions
        REGISTRY.timer(base).add_bytes(bytes_in if op == "compress" else bytes_out)
        return result

    return wrapper


def capture_state() -> dict | None:
    """Drain this process's telemetry into one picklable delta dict.

    Returns ``None`` when telemetry is disabled, so the pool's wire format
    costs nothing in the common case.  Metrics are reset after capture —
    the dict *is* the delta; call sites own exactly-once merging.
    """
    if not state.enabled:
        return None
    out = {
        "pid": os.getpid(),
        "metrics": REGISTRY.state(),
        "spans": [sp.to_dict() for sp in drain_spans()],
    }
    REGISTRY.reset()
    return out


def merge_state(delta: dict | None) -> None:
    """Fold a worker's :func:`capture_state` delta into this process.

    Spans are grafted under the currently open span (tagged with the
    worker's pid); metrics merge additively.  ``None`` is a no-op.
    """
    if not delta:
        return
    REGISTRY.merge(delta.get("metrics"))
    adopt_spans(delta.get("spans"), proc=delta.get("pid"))
