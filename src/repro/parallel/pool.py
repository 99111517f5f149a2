"""Block-parallel compression with ``multiprocessing``.

PaSTRI's block-local design means the stream can be split at any block
boundary and each piece compressed independently (paper §IV-C); the same
holds for our SZ/ZFP reimplementations at chunk granularity.  This module
is the real-parallelism counterpart of the analytic model in
:mod:`repro.parallel.pfs`: it demonstrates near-linear scaling on however
many cores the host actually has.

Two tiers of API:

* :func:`parallel_compress` / :func:`parallel_decompress` — in-memory blob
  lists, the original building blocks.
* :func:`parallel_compress_to_container` /
  :func:`parallel_decompress_container` — the storage-stack path (paper
  Fig. 10's dump/load): compression fans chunks out to workers and streams
  the blobs into one PSTF-v2 container; decompression ships each worker
  only a *frame-index entry* — every worker maps the file itself
  (:class:`repro.streamio.FrameMap`), so no blob bytes cross the process
  boundary in either direction on the load side.

Since PR 7 the data plane is **zero-copy and pooled**:

* All four module functions run on one *persistent* process-wide
  :func:`shared_pool` per (codec, worker-count) instead of minting a
  throwaway ``Pool`` per call — warm workers keep their shaped-codec
  caches, shared-memory attachments, and mmapped containers across calls.
* Task payloads travel through :mod:`repro.parallel.shm` segments: the
  parent writes arrays/blobs into a pooled segment once and submits only
  ``(segment, offset, dtype, shape)`` descriptors; workers map the same
  pages.  Container loads scatter straight into a
  :class:`repro.parallel.shm.SharedOutput` the parent hands back
  zero-copy.  When shared memory is unavailable (or exhausted), every
  path degrades to the original pickling transport automatically —
  ``store.shm.bytes_borrowed`` vs ``bytes_copied`` records which road the
  bytes took.

Telemetry rides the same wire as before: workers return
``(payload, capture_state())`` deltas that the parent merges, so a
parallel run still yields one coherent trace with worker spans grafted
(tagged ``proc=<pid>``) under the parent's stage span.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing as mp
from typing import Sequence

import numpy as np

from repro import api, telemetry
from repro.errors import CompressionError, ParameterError, ReproError
from repro.parallel import shm
from repro.streamio import ContainerWriter, FrameMap, StreamSummary, open_container
from repro.telemetry import state as _tstate

_WORKER_CODEC = None


def pool_context() -> mp.context.BaseContext:
    """The multiprocessing context used for worker pools.

    Prefers ``fork`` — workers inherit the codec registry and the parent's
    page cache, so startup is near-free — but falls back to ``spawn`` on
    platforms where fork is unavailable or unsafe (Windows, and macOS
    since Python 3.8 defaults away from fork).
    """
    try:
        return mp.get_context("fork")
    except ValueError:
        return mp.get_context("spawn")


def _init_worker(
    codec_name: str, codec_kwargs: dict, telemetry_on: bool = False
) -> None:
    global _WORKER_CODEC
    _WORKER_CODEC = api.get_codec(codec_name, **codec_kwargs)
    _init_worker_telemetry(telemetry_on)


def _init_worker_telemetry(telemetry_on: bool) -> None:
    """Start every worker with a clean telemetry slate.

    Fork workers inherit the parent's live metrics and span buffer; those
    must be zeroed or the deltas shipped back would double-count the
    parent's own history.  Spawn workers start clean but still need the
    enable flag, which does not survive re-import.
    """
    if telemetry_on:
        telemetry.enable()
        telemetry.reset()
    else:
        telemetry.disable()


_WORKER_SHAPED: dict = {}


def _shaped_worker_codec(dims):
    """Per-worker codec for a block geometry.

    Shape-aware codecs (PaSTRI, lowrank) advertise a ``reshaped`` method;
    anything else is shape-independent and shared across geometries.
    """
    reshaped = getattr(_WORKER_CODEC, "reshaped", None)
    if dims is None or reshaped is None:
        return _WORKER_CODEC
    dims = tuple(int(d) for d in dims)
    codec = _WORKER_SHAPED.get(dims)
    if codec is None:
        codec = reshaped(dims)
        _WORKER_SHAPED[dims] = codec
    return codec


def _compress_chunk_shaped(
    args: tuple[np.ndarray, float, tuple | None],
) -> tuple[bytes, dict | None]:
    """Compress one chunk with the worker codec for its ``dims``."""
    chunk, eb, dims = args
    if isinstance(chunk, shm.ArrayRef):
        chunk = shm.attach_array(chunk)
    blob = _shaped_worker_codec(dims).compress(chunk, eb)
    return blob, telemetry.capture_state()


def _compress_group(
    args: tuple[list, float, tuple | None],
) -> tuple[list[bytes], dict | None]:
    """Compress one fused micro-batch group: several same-shape streams in
    a single batched kernel pass (``compress_many``)."""
    chunks, eb, dims = args
    views = [shm.attach_array(c) if isinstance(c, shm.ArrayRef) else c for c in chunks]
    blobs = api.compress_many(_shaped_worker_codec(dims), views, eb)
    return blobs, telemetry.capture_state()


def _decompress_share(blobs: list) -> tuple[list[tuple], dict | None]:
    """Decompress one worker's share of a batch in one ``decompress_many``
    call; each big result ships back through shared memory, in blob order."""
    blobs = [bytes(shm.attach_bytes(b)) if isinstance(b, shm.BytesRef) else b for b in blobs]
    outs = api.decompress_many(_WORKER_CODEC, blobs)
    return [_ship(out) for out in outs], telemetry.capture_state()


def _ship(out: np.ndarray) -> tuple:
    """``("shm", ref)`` for a result worth shared memory, else ``("raw", out)``."""
    if shm.shm_available() and out.nbytes >= shm.SHIP_MIN_BYTES:
        try:
            return ("shm", shm.ship_array(out))
        except OSError:  # pragma: no cover - /dev/shm exhausted mid-flight
            pass
    shm.count_copied(out.nbytes)
    return ("raw", out)


def _shares(sizes: list[int], n: int) -> list[tuple[int, int]]:
    """Cut items of ``sizes`` into at most ``n`` contiguous, non-empty runs
    of about equal total size; returns ``[(start, stop), ...]``."""
    total = sum(sizes)
    bounds = [0]
    acc = 0
    for i, size in enumerate(sizes[:-1]):
        acc += size
        if len(bounds) < n and acc * n >= total * len(bounds):
            bounds.append(i + 1)
    bounds.append(len(sizes))
    return list(zip(bounds, bounds[1:]))


# -- container-load worker state: codecs by spec, mmaps by path -------------

_WORKER_SPEC_CODECS: dict = {}
_WORKER_MAPS: dict = {}


def _codec_for_spec(spec: dict):
    key = json.dumps(spec, sort_keys=True, default=str)
    codec = _WORKER_SPEC_CODECS.get(key)
    if codec is None:
        codec = api.codec_from_spec(spec)
        _WORKER_SPEC_CODECS[key] = codec
    return codec


def _worker_framemap(path: str, sig: tuple) -> FrameMap:
    """Per-worker mmap cache keyed by path; ``sig`` (mtime, size) detects a
    replaced file so a stale mapping is never read."""
    cur = _WORKER_MAPS.get(path)
    if cur is not None and cur[0] == sig:
        return cur[1]
    if cur is not None:
        cur[1].close()
    fm = FrameMap(path)
    _WORKER_MAPS[path] = (sig, fm)
    return fm


def _decompress_frame(args) -> tuple[tuple, dict | None]:
    """Decompress one container frame addressed by its index entry.

    The frame bytes come straight off the worker's own :class:`FrameMap`
    mmap (CRC-checked on the view); the result lands in the parent's
    :class:`SharedOutput` slice when one was provided, else returns by
    pickle (the fallback transport).
    """
    path, sig, spec, offset, length, crc, out_ref = args
    codec = _codec_for_spec(spec)
    fm = _worker_framemap(path, sig)
    view = fm.check(offset, length, crc) if crc is not None else fm.view(offset, length)
    out = codec.decompress(bytes(view))
    if out_ref is not None:
        dst = shm.attach_array(out_ref)
        if out.size != dst.size:
            raise CompressionError(
                f"frame at offset {offset} decoded {out.size} elements, "
                f"index promised {dst.size}"
            )
        np.copyto(dst, out)
        return ("done", int(out.size)), telemetry.capture_state()
    shm.count_copied(out.nbytes)
    return ("raw", out), telemetry.capture_state()


class CodecWorkerPool:
    """A persistent worker pool for batch compress/decompress.

    The compression *service* (and, since PR 7, every module-level
    parallel function) sees a steady trickle of batches, so the pool stays
    alive for its whole lifetime.  Jobs carry per-request error bounds and
    an optional block geometry (``dims``), which workers resolve against a
    local shaped-codec cache — the same dispatch rule as
    :meth:`repro.pipeline.store.CompressedERIStore.codec_for`.

    Transport is zero-copy by default: arrays and blobs are written once
    into a pooled :class:`repro.parallel.shm.ShmSegmentPool` segment and
    submitted as descriptors.  ``use_shm=False`` (or an unavailable
    platform) selects the original pickling transport; both produce
    byte-identical blobs.
    """

    def __init__(
        self,
        codec_name: str,
        codec_kwargs: dict | None = None,
        n_workers: int = 2,
        use_shm: bool | None = None,
    ) -> None:
        if n_workers < 1:
            raise ParameterError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.codec_name = codec_name
        self.codec_kwargs = dict(codec_kwargs or {})
        if use_shm is None:
            use_shm = shm.shm_available()
        self._shm: shm.ShmSegmentPool | None = None
        if use_shm and shm.shm_available():
            try:
                self._shm = shm.ShmSegmentPool()
            except Exception:  # pragma: no cover - no /dev/shm
                self._shm = None
        self._closed = False
        # One resource tracker for the whole family — must start before the
        # workers exist (see shm.ensure_family_tracker).
        shm.ensure_family_tracker()
        self._pool = pool_context().Pool(
            n_workers,
            initializer=_init_worker,
            initargs=(codec_name, self.codec_kwargs, _tstate.enabled),
        )

    @property
    def uses_shm(self) -> bool:
        """Whether the shared-memory transport is active."""
        return self._shm is not None

    def _lease(self, nbytes: int):
        """A segment lease for ``nbytes``, or ``None`` to fall back to pickle."""
        if self._shm is None or nbytes <= 0:
            return None
        try:
            return self._shm.acquire(nbytes)
        except (OSError, ValueError, ParameterError):
            return None

    def _map(self, fn, tasks: list) -> list:
        return _merge_results(self._pool.map(fn, tasks))

    def compress_batch(
        self, jobs: Sequence[tuple[np.ndarray, float, tuple | None]]
    ) -> list[bytes]:
        """Compress ``(data, error_bound, dims)`` jobs; blobs in job order."""
        jobs = [(np.ascontiguousarray(d), eb, dims) for d, eb, dims in jobs]
        lease = self._lease(sum(d.nbytes for d, _, _ in jobs))
        if lease is None:
            for d, _, _ in jobs:
                shm.count_copied(d.nbytes)
            tasks = jobs
        else:
            tasks = [(lease.put_array(d), eb, dims) for d, eb, dims in jobs]
        try:
            return self._map(_compress_chunk_shaped, tasks)
        finally:
            if lease is not None:
                lease.release()

    def compress_groups(
        self, groups: Sequence[tuple[list, float, tuple | None]]
    ) -> list[list[bytes]]:
        """Compress fused groups ``(arrays, error_bound, dims)``.

        Each group is one worker task: its member streams run through a
        single ``compress_many`` batched kernel pass, so a micro-batch of
        same-class requests costs one numeric front instead of N.  Returns
        per-group blob lists in submission order.
        """
        groups = [(list(arrays), eb, dims) for arrays, eb, dims in groups]
        total = sum(a.nbytes for arrays, _, _ in groups for a in arrays)
        lease = self._lease(total)
        if lease is None:
            for arrays, _, _ in groups:
                for a in arrays:
                    shm.count_copied(a.nbytes)
            tasks = groups
        else:
            tasks = [
                ([lease.put_array(np.ascontiguousarray(a)) for a in arrays], eb, dims)
                for arrays, eb, dims in groups
            ]
        try:
            return self._map(_compress_group, tasks)
        finally:
            if lease is not None:
                lease.release()

    def decompress_batch(self, blobs: Sequence[bytes]) -> list[np.ndarray]:
        """Decompress blobs in parallel; arrays in blob order.

        Each worker decodes one contiguous share of the blobs, balanced by
        bytes, in one ``decompress_many`` call, so the codec's per-call
        cost is paid once per worker.  A corrupt blob raises the error it
        raises alone.
        """
        blobs = list(blobs)
        if not blobs:
            return []
        lease = self._lease(sum(len(b) for b in blobs))
        if lease is None:
            for b in blobs:
                shm.count_copied(len(b))
            refs = blobs
        else:
            refs = [lease.put_bytes(b) for b in blobs]
        tasks = [refs[lo:hi] for lo, hi in _shares([len(b) for b in blobs], self.n_workers)]
        try:
            shares = self._map(_decompress_share, tasks)
        finally:
            if lease is not None:
                lease.release()
        return [
            shm.adopt_array(val) if kind == "shm" else val
            for share in shares
            for kind, val in share
        ]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.close()
        self._pool.join()
        if self._shm is not None:
            self._shm.close()

    def terminate(self) -> None:
        """Hard stop (crash-path cleanup); still releases every segment."""
        if self._closed:
            return
        self._closed = True
        self._pool.terminate()
        self._pool.join()
        if self._shm is not None:
            self._shm.close()

    def __enter__(self) -> "CodecWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _merge_results(results: list) -> list:
    """Unzip ``(payload, delta)`` pairs, folding deltas into this process."""
    payloads = []
    for payload, delta in results:
        telemetry.merge_state(delta)
        payloads.append(payload)
    return payloads


# ---------------------------------------------------------------------------
# the process-wide persistent pool registry

_SHARED_POOLS: dict[tuple, CodecWorkerPool] = {}


def _context_tag() -> str:
    ctx = pool_context()
    method = getattr(ctx, "get_start_method", None)
    return method() if callable(method) else type(ctx).__name__


def shared_pool(
    codec_name: str, codec_kwargs: dict | None = None, n_workers: int = 2
) -> CodecWorkerPool:
    """The persistent process-wide pool for a (codec, worker-count) pair.

    Repeated parallel calls — a benchmark loop, an SCF iteration dumping
    containers, the CLI — reuse warm workers, their shaped-codec caches,
    their shared-memory attachments, and their container mmaps instead of
    paying pool startup per call.  Pools live until
    :func:`shutdown_shared_pools` (registered ``atexit``).  The cache key
    includes the start method and the telemetry flag, so a monkeypatched
    context or a telemetry toggle gets a fresh, correctly-configured pool.
    """
    if n_workers < 1:
        raise ParameterError("n_workers must be >= 1")
    key = (
        _context_tag(),
        codec_name,
        json.dumps(codec_kwargs or {}, sort_keys=True, default=str),
        n_workers,
        bool(_tstate.enabled),
    )
    pool = _SHARED_POOLS.get(key)
    if pool is None or pool._closed:
        pool = CodecWorkerPool(codec_name, codec_kwargs, n_workers)
        _SHARED_POOLS[key] = pool
    return pool


def shutdown_shared_pools() -> None:
    """Close every persistent pool (and leak-check its segments)."""
    while _SHARED_POOLS:
        _, pool = _SHARED_POOLS.popitem()
        try:
            pool.close()
        except Exception:  # pragma: no cover - interpreter teardown races
            pool.terminate()


atexit.register(shutdown_shared_pools)


def split_stream(data: np.ndarray, n_chunks: int, block_size: int) -> list[np.ndarray]:
    """Split a stream into ~equal chunks aligned to block boundaries."""
    n_blocks = data.size // block_size
    if n_blocks == 0:
        return [data]
    per = -(-n_blocks // n_chunks)
    chunks = []
    for c in range(0, n_blocks, per):
        lo = c * block_size
        hi = min((c + per) * block_size, data.size)
        if c + per >= n_blocks:
            hi = data.size  # tail rides with the last chunk
        chunks.append(data[lo:hi])
    return chunks


def parallel_compress(
    codec_name: str,
    data: np.ndarray,
    error_bound: float,
    n_workers: int,
    block_size: int,
    codec_kwargs: dict | None = None,
) -> list[bytes]:
    """Compress a stream with ``n_workers`` processes; returns per-chunk blobs.

    Chunk boundaries respect ``block_size`` so each worker sees whole
    blocks (file-per-process mode writes one blob per worker, as in the
    paper's POSIX I/O setup).  Runs on the persistent :func:`shared_pool`
    with shared-memory transport when available.
    """
    if n_workers < 1:
        raise ParameterError("n_workers must be >= 1")
    chunks = split_stream(data, n_workers, block_size)
    return _compress_chunks(codec_name, chunks, error_bound, n_workers, codec_kwargs)


def _compress_chunks(
    codec_name: str,
    chunks: list[np.ndarray],
    error_bound: float,
    n_workers: int,
    codec_kwargs: dict | None,
) -> list[bytes]:
    """Compress ``chunks`` in process (one worker or one chunk) or as one
    :func:`shared_pool` batch; blobs in chunk order.

    ``Pool.map`` re-raises the first worker exception in the parent.  A
    library error (:class:`ReproError`, e.g. a NaN input's
    :class:`ParameterError`) surfaces as the in-process path raises it;
    anything else is wrapped in :class:`CompressionError`.
    """
    if n_workers == 1 or len(chunks) == 1:
        codec = api.get_codec(codec_name, **(codec_kwargs or {}))
        return [codec.compress(c, error_bound) for c in chunks]
    with telemetry.trace("parallel.compress", workers=n_workers, chunks=len(chunks)):
        pool = shared_pool(codec_name, codec_kwargs, n_workers)
        try:
            return pool.compress_batch([(c, error_bound, None) for c in chunks])
        except ReproError:
            raise
        except Exception as exc:
            raise CompressionError(
                f"worker failed while compressing a chunk: {exc}"
            ) from exc


def parallel_decompress(
    codec_name: str,
    blobs: Sequence[bytes],
    n_workers: int,
    codec_kwargs: dict | None = None,
) -> np.ndarray:
    """Decompress per-chunk blobs in parallel and concatenate."""
    if n_workers == 1 or len(blobs) == 1:
        codec = api.get_codec(codec_name, **(codec_kwargs or {}))
        parts = [codec.decompress(b) for b in blobs]
    else:
        with telemetry.trace("parallel.decompress", workers=n_workers, chunks=len(blobs)):
            pool = shared_pool(codec_name, codec_kwargs, n_workers)
            parts = pool.decompress_batch(blobs)
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# container-backed parallel I/O (the PSTF-v2 storage path)


def parallel_compress_to_container(
    codec_name: str,
    data: np.ndarray,
    error_bound: float,
    n_workers: int,
    block_size: int,
    path: str,
    codec_kwargs: dict | None = None,
    meta: dict | None = None,
    n_frames: int | None = None,
) -> StreamSummary:
    """Compress a stream with ``n_workers`` processes into one v2 container.

    Chunking follows :func:`split_stream` (block-aligned), workers return
    blobs, and the parent streams them into ``path`` with the footer frame
    index — so the result is self-describing (:func:`open_container` needs
    no codec arguments) and every frame is independently random-accessible.
    ``n_frames`` decouples frame granularity from worker count (default:
    one frame per worker); more frames mean finer random access on load.
    """
    if n_workers < 1:
        raise ParameterError("n_workers must be >= 1")
    kwargs = codec_kwargs or {}
    chunks = split_stream(data, n_frames or n_workers, block_size)
    with telemetry.trace(
        "parallel.compress_to_container", workers=n_workers, frames=len(chunks)
    ):
        blobs = _compress_chunks(codec_name, chunks, error_bound, n_workers, kwargs)
        codec = api.get_codec(codec_name, **kwargs)
        full_meta = {"error_bound": error_bound, "block_size": int(block_size)}
        full_meta.update(meta or {})
        with telemetry.trace("container.write", frames=len(chunks)):
            # Atomic commit: the container lands at ``path`` only on a clean
            # close, so a crash mid-write never shadows an existing file.
            with ContainerWriter.create(path, codec, error_bound, meta=full_meta) as w:
                for chunk, blob in zip(chunks, blobs):
                    w.append_blob(blob, chunk.size)
    return w.summary


def parallel_decompress_container(path: str, n_workers: int) -> np.ndarray:
    """Decompress a container with ``n_workers`` processes via its frame index.

    Workers receive only frame-index entries — the paper's PFS load
    pattern, where each rank reads its own byte range — map the file with
    their own CRC-checked :class:`FrameMap`, and scatter results straight
    into one :class:`repro.parallel.shm.SharedOutput` buffer the parent
    returns zero-copy (frame bytes never round-trip through pickle).
    Works on v1 streams too (compat index built by
    :func:`repro.streamio.open_container`); falls back to pickled results
    when shared memory is unavailable.
    """
    if n_workers < 1:
        raise ParameterError("n_workers must be >= 1")
    with telemetry.trace("parallel.decompress_container", workers=n_workers):
        with open_container(path) as reader:
            if n_workers == 1 or len(reader) <= 1:
                return reader.read_all()
            path, sig, spec, frames = reader.frame_table()
        pool = shared_pool(spec["name"], spec.get("kwargs"), n_workers)
        counts = [f.n_elements for f in frames]
        total = int(sum(counts))
        output = None
        # v1 compat indexes carry no element counts (all zeros) — the
        # scatter buffer cannot be pre-sized, so those fall back to pickle.
        if pool.uses_shm and total > 0 and all(c > 0 for c in counts):
            try:
                output = shm.SharedOutput(total, "<f8")
            except OSError:  # pragma: no cover - /dev/shm exhausted
                output = None
        offsets = np.concatenate([[0], np.cumsum(counts)])
        tasks = []
        for f, lo in zip(frames, offsets):
            out_ref = output.ref(int(lo), f.n_elements) if output is not None else None
            tasks.append((path, sig, spec, f.offset, f.length, f.crc32, out_ref))
        try:
            results = pool._map(_decompress_frame, tasks)
        except BaseException:
            if output is not None:
                output.abort()
            raise
        if output is not None:
            return output.finish()
    parts = [val for _, val in results]
    if not parts:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(parts)
