"""Seekable PSTF container for compressed ERI streams (v2, with v1 compat).

Production ERI dumps are far larger than memory (the paper's datasets are
sampled *down* to 2 GB).  This module frames per-chunk codec blobs into a
single file so arbitrarily long streams can be compressed and decompressed
chunk-by-chunk with bounded memory — and, since v2, re-read in *any* order:
a footer-based frame index gives O(1) random access to any frame without
touching the others, which is what the SCF reuse workload (paper Fig. 11)
and parallel loaders (Fig. 10) actually need.

v2 layout (see ``docs/FORMAT.md``)::

    magic 'PSTF' | version u8=2 | codec-name len u8 | codec name utf-8
    header-json len u32-le | header JSON  {"codec": codec_spec, "meta": {...}}
    repeat:  frame length u64-le | codec blob
    end:     frame length 0
    index payload (n_frames u32-le, then per frame:
        offset u64 | length u64 | n_elements u64 | crc32 u32 |
        key len u16 + key utf-8 | n_dims u8 + n_dims x u16)
    index crc32 u32-le | index length u64-le | magic 'PSTFIDX2'

Properties of this layout:

* **Streamable writes** — the index is appended, never back-patched, so
  writers work on pipes and append-only stores.
* **Streamable reads** — the per-frame length prefix and 0-sentinel are
  kept from v1, so :func:`decompress_stream` still reads sequentially with
  bounded memory from non-seekable handles.
* **Self-describing** — the header embeds :func:`repro.api.codec_spec`, so
  :func:`open_container` rebuilds the right codec with no caller knowledge.
* **Verified** — every frame carries a CRC32, the index carries its own,
  and every offset/length is validated against the file size, so
  truncation, bit flips, and index/payload mismatches raise precise
  :class:`FormatError` / :class:`ChecksumError` instead of yielding garbage.

v1 streams (``magic 'PSTF' | version 1 | codec name``, frames, 0-sentinel,
no index / no checksums / no codec kwargs) still read through every entry
point, including :func:`open_container` (the index is rebuilt by one
sequential scan).

No other module reads or writes PSTF bytes, and each structure has one
implementation here: the header parser, the index parser (strict on open,
tolerant of a torn tail on salvage), the index writer, the frame walk
(which also builds the v1 index), the CRC-checked frame read, the spill
journal's line format and parser, and :func:`salvage_frames` — the one
salvage scan ``pastri fsck`` and a restarting spill store both run.
"""

from __future__ import annotations

import contextlib
import io
import json
import mmap
import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from repro import api
from repro.api import Codec
from repro.errors import ChecksumError, FormatError, ParameterError, ReproError
from repro.telemetry import REGISTRY as _METRICS
from repro.telemetry import state as _tstate

_MAGIC = b"PSTF"
_INDEX_MAGIC = b"PSTFIDX2"
_V1 = 1
_V2 = 2
#: index crc32 u32 + index length u64 + magic
_TRAILER_LEN = 4 + 8 + len(_INDEX_MAGIC)
#: Largest frame a non-seekable read will allocate for.  Seekable handles
#: validate the length against the real remaining byte count instead.
FRAME_SANITY_CAP = 1 << 32

__all__ = [
    "StreamSummary",
    "FrameInfo",
    "FrameMap",
    "FrameWalk",
    "FrameSalvage",
    "SalvageReport",
    "check_frame_entry",
    "ContainerWriter",
    "ContainerReader",
    "open_container",
    "compress_stream",
    "decompress_stream",
    "read_stream_header",
    "compress_dataset_to_file",
    "decompress_file",
    "write_v1_stream",
    "read_checked_frame",
    "walk_frames",
    "journal_line",
    "read_journal",
    "salvage_frames",
    "salvage_container",
]


@dataclass(frozen=True)
class StreamSummary:
    """Totals reported by :func:`compress_stream` / :meth:`ContainerWriter.close`."""

    n_chunks: int
    original_bytes: int
    compressed_bytes: int

    @property
    def ratio(self) -> float:
        return self.original_bytes / max(self.compressed_bytes, 1)


@dataclass(frozen=True)
class FrameInfo:
    """One frame-index entry: where a blob lives and what it holds.

    ``crc32`` is ``None`` for v1 streams (no checksums existed); ``key``
    and ``dims`` are optional annotations used by keyed stores.
    """

    offset: int
    length: int
    n_elements: int
    crc32: int | None = None
    key: str | None = None
    dims: tuple[int, ...] | None = None


# ---------------------------------------------------------------------------
# writing


def check_frame_entry(n_elements: int, key: str | None, dims) -> bytes:
    """Refuse an entry the frame index cannot encode; return its key bytes.

    The index holds ``n_elements`` as an unsigned 64-bit field, at most
    255 ``dims`` of 0-65535 each, and a key of at most 65535 UTF-8 bytes.
    Stores call this at put time, so a bad entry raises
    :class:`ParameterError` then rather than when the container closes.
    """
    if not 0 <= n_elements < 1 << 64:
        raise ParameterError(f"frame element count {n_elements} is out of range")
    raw = (key or "").encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ParameterError(f"frame key too long ({len(raw)} bytes)")
    if dims is not None:
        if len(dims) > 0xFF:
            raise ParameterError(f"too many frame dims ({len(dims)})")
        if not all(0 <= d <= 0xFFFF for d in dims):
            raise ParameterError(f"frame dims {tuple(dims)} are not all in 0-65535")
    return raw


def _write_index(fh: BinaryIO, frames: list[FrameInfo]) -> int:
    """Append the index payload and its trailer; returns the bytes written.

    The one writer of the footer index, for :meth:`ContainerWriter.close`
    and the salvage rewrite.  The caller writes the 0-sentinel before it.
    """
    payload = bytearray(struct.pack("<I", len(frames)))
    for f in frames:
        key = check_frame_entry(f.n_elements, f.key, f.dims)
        payload += struct.pack("<QQQI", f.offset, f.length, f.n_elements, f.crc32 or 0)
        payload += struct.pack("<H", len(key)) + key
        dims = f.dims or ()
        payload += struct.pack(f"<B{len(dims)}H", len(dims), *(int(d) for d in dims))
    fh.write(payload)
    fh.write(struct.pack("<IQ", zlib.crc32(payload) & 0xFFFFFFFF, len(payload)))
    fh.write(_INDEX_MAGIC)
    return len(payload) + _TRAILER_LEN


def _parse_index(payload: bytes, *, torn_ok: bool = False) -> list[FrameInfo]:
    """Parse an index payload into its entries.

    Strict by default (:func:`open_container`): a short field, a key that
    is not UTF-8 or a trailing byte raises :class:`FormatError`.  With
    ``torn_ok`` (salvage) the entries before the first damaged one are
    returned and whatever follows them is ignored.
    """
    view = io.BytesIO(payload)

    def take(n: int, what: str) -> bytes:
        raw = view.read(n)
        if len(raw) != n:
            raise FormatError(
                f"truncated frame index: short {what} at index byte "
                f"{view.tell() - len(raw)} (wanted {n}, got {len(raw)})"
            )
        return raw

    frames: list[FrameInfo] = []
    try:
        (n_frames,) = struct.unpack("<I", take(4, "frame count"))
        for _ in range(n_frames):
            offset, length, n_elements, crc = struct.unpack("<QQQI", take(28, "entry"))
            (key_len,) = struct.unpack("<H", take(2, "key length"))
            try:
                key = take(key_len, "key").decode("utf-8") if key_len else None
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"corrupt frame key at index byte {view.tell() - key_len}: "
                    f"not valid UTF-8 ({exc})"
                ) from exc
            (n_dims,) = struct.unpack("<B", take(1, "dims count"))
            dims = (
                struct.unpack(f"<{n_dims}H", take(2 * n_dims, "dims")) if n_dims else None
            )
            frames.append(FrameInfo(offset, length, n_elements, crc, key, dims))
    except FormatError:
        if not torn_ok:
            raise
        return frames
    if not torn_ok and view.read(1):
        raise FormatError("frame index has trailing bytes")
    return frames


def _fsync_fh(fh: BinaryIO) -> None:
    """fsync a file object's descriptor when it has one (no-op for BytesIO)."""
    try:
        fd = fh.fileno()
    except (OSError, ValueError):  # io.UnsupportedOperation subclasses both
        return
    os.fsync(fd)


def _fsync_dir(path: str) -> None:
    """Best-effort fsync of a directory, so a rename itself is durable."""
    try:
        fd = os.open(path or ".", os.O_RDONLY)
    except OSError:  # platform or filesystem without directory opens
        return
    try:
        with contextlib.suppress(OSError):
            os.fsync(fd)
    finally:
        os.close(fd)


class ContainerWriter:
    """Incremental PSTF-v2 writer: append frames, then :meth:`close`.

    Frames may be appended either as arrays (compressed through ``codec``)
    or as ready-made blobs (:meth:`append_blob` — the parallel-pool path).
    The footer index is emitted on close; the target handle only needs to
    support sequential writes.

    Durability contract:

    * :meth:`close` flushes the handle after the footer (and fsyncs it when
      ``fsync=True``), so a clean close survives a process crash.
    * :meth:`create` opens a *path*-owned writer with **atomic commit**: the
      stream lands in ``path + ".tmp"`` and is :func:`os.replace`-d into
      place only on a successful close — a writer that dies mid-stream can
      never shadow an existing good file.
    * On an in-flight exception, the context manager calls :meth:`abort`:
      the partial stream is flushed (never footered) and the exception is
      re-raised, leaving a file that ``pastri fsck`` /
      :func:`salvage_container` can recover frame-by-frame.

    Use as a context manager or call :meth:`close` explicitly — a container
    without its footer is readable only via the sequential compat path or
    after salvage.
    """

    def __init__(
        self,
        fh: BinaryIO,
        codec: Codec,
        error_bound: float,
        meta: dict | None = None,
        *,
        fsync: bool = False,
    ) -> None:
        self.fh = fh
        self.codec = codec
        self.error_bound = error_bound
        self.frames: list[FrameInfo] = []
        self._original_bytes = 0
        self._closed = False
        self._fsync = bool(fsync)
        self._owns_fh = False
        self._work_path: str | None = None   # where bytes land before commit
        self._final_path: str | None = None  # atomic-commit target, or None
        name = codec.name.encode("utf-8")
        header = json.dumps(
            {"codec": api.codec_spec(codec), "meta": dict(meta or {})},
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8")
        fh.write(_MAGIC + struct.pack("<BB", _V2, len(name)) + name)
        fh.write(struct.pack("<I", len(header)) + header)
        self._pos = 4 + 2 + len(name) + 4 + len(header)

    @classmethod
    def create(
        cls,
        path: str,
        codec: Codec,
        error_bound: float,
        meta: dict | None = None,
        *,
        atomic: bool = True,
        fsync: bool = True,
    ) -> "ContainerWriter":
        """Open a writer that owns its file handle at ``path``.

        With ``atomic=True`` (default) bytes are written to ``path + ".tmp"``
        and moved into place by :func:`os.replace` on a successful
        :meth:`close`; an aborted or crashed write leaves the ``.tmp``
        partial (salvageable) and never touches an existing file at
        ``path``.  ``fsync=True`` additionally fsyncs the data before the
        rename and the directory after it.
        """
        path = os.fspath(path)
        work = path + ".tmp" if atomic else path
        fh = open(work, "wb")
        try:
            w = cls(fh, codec, error_bound, meta, fsync=fsync)
        except BaseException:
            fh.close()
            with contextlib.suppress(OSError):
                os.remove(work)
            raise
        w._owns_fh = True
        w._work_path = work
        w._final_path = path if atomic else None
        return w

    @classmethod
    def resume(
        cls,
        fh: BinaryIO,
        codec: Codec,
        error_bound: float,
        *,
        frames: Iterable[FrameInfo],
        pos: int,
        fsync: bool = False,
    ) -> "ContainerWriter":
        """Adopt an already-written container prefix (the recovery path).

        ``fh`` must hold a valid header plus the frames in ``frames`` and be
        positioned (and truncated) at ``pos``, the byte just past the last
        frame — exactly what a salvage scan yields.  Appends continue from
        there and :meth:`close` writes a footer covering old and new frames
        alike.  The caller keeps ownership of the handle.
        """
        w = cls.__new__(cls)
        w.fh = fh
        w.codec = codec
        w.error_bound = error_bound
        w.frames = list(frames)
        w._original_bytes = sum(f.n_elements for f in w.frames) * 8
        w._closed = False
        w._fsync = bool(fsync)
        w._owns_fh = False
        w._work_path = None
        w._final_path = None
        w._pos = int(pos)
        return w

    def append(self, chunk: np.ndarray, key=None, dims=None) -> FrameInfo:
        """Compress one chunk into a frame; returns its index entry."""
        chunk = np.ascontiguousarray(chunk, dtype=np.float64)
        blob = self.codec.compress(chunk, self.error_bound)
        return self.append_blob(blob, chunk.size, key=key, dims=dims)

    def append_blob(self, blob: bytes, n_elements: int, key=None, dims=None) -> FrameInfo:
        """Write one pre-compressed blob as a frame; returns its index entry."""
        if self._closed:
            raise FormatError("container already closed")
        self._original_bytes += int(n_elements) * 8  # float64 elements
        if _tstate.enabled:
            t0 = time.perf_counter()
            self.fh.write(struct.pack("<Q", len(blob)))
            self.fh.write(blob)
            _METRICS.timer("container.write.frame").observe(
                time.perf_counter() - t0, nbytes=len(blob)
            )
            _METRICS.counter("container.write.payload_bytes").add(len(blob))
            _METRICS.counter("container.write.frames").add(1)
        else:
            self.fh.write(struct.pack("<Q", len(blob)))
            self.fh.write(blob)
        info = FrameInfo(
            offset=self._pos + 8,
            length=len(blob),
            n_elements=int(n_elements),
            crc32=zlib.crc32(blob) & 0xFFFFFFFF,
            key=None if key is None else str(key),
            dims=None if dims is None else tuple(int(d) for d in dims),
        )
        self._pos += 8 + len(blob)
        self.frames.append(info)
        return info

    def close(self) -> StreamSummary:
        """Write the 0-sentinel and footer index durably; returns the totals.

        The handle is flushed before the summary is computed (and fsynced
        when the writer was built with ``fsync=True``), so a clean close
        means the footer — not just the frames — has left the process.  A
        path-owned writer (:meth:`create`) also closes its handle and, in
        atomic mode, renames the finished ``.tmp`` over the target path.
        """
        if self._closed:
            raise FormatError("container already closed")
        self._closed = True
        self.fh.write(struct.pack("<Q", 0))
        index_bytes = _write_index(self.fh, self.frames)
        self.fh.flush()
        if self._fsync:
            _fsync_fh(self.fh)
        total = self._pos + 8 + index_bytes
        self.summary = StreamSummary(len(self.frames), self._original_bytes, total)
        if self._owns_fh:
            self.fh.close()
            if self._final_path is not None:
                os.replace(self._work_path, self._final_path)
                if self._fsync:
                    _fsync_dir(os.path.dirname(os.path.abspath(self._final_path)))
        return self.summary

    def abort(self) -> None:
        """Error-path teardown: flush what was written, never write a footer.

        The partial stream stays on disk exactly where it was being written
        (the ``.tmp`` work file for an atomic :meth:`create` writer — the
        final path is never shadowed) so every fully-appended frame remains
        recoverable with ``pastri fsck`` / :func:`salvage_container`.
        Idempotent; safe to call on a dead handle.
        """
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(OSError, ValueError):
            self.fh.flush()
            if self._fsync:
                _fsync_fh(self.fh)
        if self._owns_fh:
            with contextlib.suppress(OSError):
                self.fh.close()

    def __enter__(self) -> "ContainerWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if not self._closed:
                self.close()
        else:
            # Flush the partial stream and re-raise: the on-disk prefix
            # stays salvageable instead of silently losing frames.
            self.abort()


# ---------------------------------------------------------------------------
# reading


class FrameMap:
    """mmap-backed zero-copy access to frame payloads of a container file.

    Seek+read per frame costs two syscalls and a userspace copy; a memory
    map costs neither — :meth:`view` returns a :class:`memoryview` slice
    straight over the page cache, and the kernel's readahead works in our
    favor for the class-adjacent access runs SCF produces.  CRC
    verification (:meth:`check`) runs directly on the view.

    The mapped file may be *growing* (the spillable store appends to its
    container while serving reads): when a requested range falls past the
    current mapping, the map is refreshed to the file's new size.  Old
    mappings are released by reference counting, never closed eagerly, so
    views handed out earlier stay valid.

    Not a reader — it knows offsets, not frames.  The spillable store's
    backend and the pool's container decode sit on top.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._fh = open(self.path, "rb")
        self._mm: mmap.mmap | None = None
        self._size = 0

    def _refresh(self) -> None:
        size = os.fstat(self._fh.fileno()).st_size
        if size <= 0:
            raise FormatError(f"cannot map empty file {self.path!r}")
        # dropping the old mmap object is safe even with exported views:
        # the mapping is only unmapped once the last view is collected
        self._mm = mmap.mmap(self._fh.fileno(), size, access=mmap.ACCESS_READ)
        self._size = size

    def view(self, offset: int, length: int) -> memoryview:
        """A zero-copy view of ``length`` bytes at ``offset`` (remaps if grown)."""
        end = offset + length
        if self._mm is None or end > self._size:
            self._refresh()
        if end > self._size or offset < 0:
            raise FormatError(
                f"frame range [{offset}, {end}) outside {self.path!r} "
                f"({self._size} bytes)"
            )
        return memoryview(self._mm)[offset:end]

    def check(
        self, offset: int, length: int, crc32: int, what: str = "frame"
    ) -> memoryview:
        """CRC-verified :meth:`view` (the verification never copies).

        ``what`` names the frame in the :class:`ChecksumError` text.
        """
        return _check_crc(
            self.view(offset, length), crc32,
            f"{what} at byte {offset} of {self.path!r}",
        )

    def invalidate(self) -> None:
        """Drop the current mapping (e.g. the file was atomically replaced).

        The next :meth:`view` reopens the path, so a compaction that
        ``os.replace``-d a new file under us is picked up transparently.
        """
        self._mm = None
        self._size = 0
        with contextlib.suppress(OSError):
            self._fh.close()
        self._fh = open(self.path, "rb")

    def close(self) -> None:
        self._mm = None
        with contextlib.suppress(OSError):
            self._fh.close()

    def __enter__(self) -> "FrameMap":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        try:
            pos = fh.tell() - len(raw)
        except (OSError, ValueError):  # non-seekable or closed handle
            pos = None
        where = f" at byte {pos}" if pos is not None else ""
        raise FormatError(
            f"truncated container: short {what}{where} "
            f"(wanted {n} bytes, got {len(raw)})"
        )
    return raw


def _check_crc(data, stored: int | None, what: str):
    """Return ``data`` when its CRC32 is ``stored`` (``None``: v1, unchecked)."""
    if stored is not None:
        actual = zlib.crc32(data) & 0xFFFFFFFF
        if actual != stored:
            raise ChecksumError(
                f"{what} payload CRC mismatch (stored {stored:#010x}, "
                f"computed {actual:#010x}): flipped bits or index/payload skew"
            )
    return data


def read_checked_frame(fh: BinaryIO, frame: FrameInfo, what: str = "frame") -> bytes:
    """Read the payload ``frame`` describes and verify its CRC (v2 entries).

    The one seek-and-read frame access: a short read raises
    :class:`FormatError`, a CRC mismatch :class:`ChecksumError`, and
    ``what`` names the frame in either message.
    """
    fh.seek(frame.offset)
    return _check_crc(_read_exact(fh, frame.length, what), frame.crc32, what)


def _read_header_info(fh: BinaryIO) -> tuple[int, str, dict]:
    """Parse a v1 or v2 header; returns (version, codec name, header dict)."""
    head = _read_exact(fh, 6, "magic")
    if head[:4] != _MAGIC:
        raise FormatError("not a PaSTRI stream container")
    version, name_len = head[4], head[5]
    if version not in (_V1, _V2):
        raise FormatError(f"unsupported container version {version}")
    try:
        name = _read_exact(fh, name_len, "codec name").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"corrupt codec name at byte 6: not valid UTF-8 ({exc})"
        ) from exc
    if version == _V1:
        return version, name, {}
    (spec_len,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
    if spec_len > FRAME_SANITY_CAP:
        raise FormatError(f"implausible header length {spec_len}")
    try:
        header = json.loads(_read_exact(fh, spec_len, "header JSON"))
    except ValueError as exc:
        raise FormatError(f"corrupt container header JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("container header JSON must be an object")
    return version, name, header


def read_stream_header(fh: BinaryIO) -> str:
    """Validate a v1/v2 container header; returns the codec name.

    Consumes exactly the header bytes, leaving ``fh`` at the first frame —
    ready for :func:`decompress_stream`.
    """
    return _read_header_info(fh)[1]


def _validate_frame_length(fh: BinaryIO, length: int) -> None:
    """Reject corrupt frame lengths *before* allocating for the read.

    On seekable handles the length is checked against the bytes actually
    remaining in the file; otherwise against :data:`FRAME_SANITY_CAP`.
    """
    if length <= 0:
        return
    seekable = getattr(fh, "seekable", lambda: False)()
    if seekable:
        pos = fh.tell()
        end = fh.seek(0, io.SEEK_END)
        fh.seek(pos)
        if length > end - pos:
            raise FormatError(
                f"corrupt frame length {length}: only {end - pos} bytes remain"
            )
    elif length > FRAME_SANITY_CAP:
        raise FormatError(
            f"corrupt frame length {length}: exceeds sanity cap {FRAME_SANITY_CAP}"
        )


def decompress_stream(fh: BinaryIO, codec: Codec) -> Iterator[np.ndarray]:
    """Yield decompressed chunks sequentially, one frame at a time.

    Works on both v1 and v2 containers (call :func:`read_stream_header`
    first); needs no index and no seekability, so it is the bounded-memory
    path for pipes and tape-style reads.  The caller supplies the codec
    instance (its class must match the name in the header).
    """
    while True:
        raw = fh.read(8)
        if len(raw) != 8:
            raise FormatError("truncated container: missing frame length")
        (length,) = struct.unpack("<Q", raw)
        if length == 0:
            return
        _validate_frame_length(fh, length)
        blob = fh.read(length)
        if len(blob) != length:
            raise FormatError("truncated container: short frame")
        yield codec.decompress(blob)


def _codec_for_v1(name: str, fh: BinaryIO, frames: list[FrameInfo]) -> Codec:
    """Best-effort codec reconstruction for a v1 header (name only).

    PaSTRI needs block geometry at construction time, but its blobs are
    self-describing — peek the first frame's stream header for ``dims``.
    The peek reads stream versions 1 and 2 (``hdr.version``); each frame's
    own version byte later picks its dense-ECQ read path.
    """
    if name != "pastri":
        return api.get_codec(name)
    if not frames:
        return api.get_codec(name, dims=(1, 1, 1, 1))
    from repro.core import header as fmt

    fh.seek(frames[0].offset)
    head_bytes = fmt.StreamHeader.NBITS // 8
    blob = _read_exact(fh, min(frames[0].length, head_bytes), "first frame")
    hdr = fmt.unpack_header(blob)
    return api.get_codec(name, dims=hdr.spec.dims)


class ContainerReader:
    """Random-access reader over an open PSTF container.

    Exposes the frame index (:attr:`frames`), the codec rebuilt from the
    header spec (:attr:`codec`), and O(1) per-frame reads that touch only
    that frame's bytes.  v1 streams are served through the same interface
    with a scan-built index and no checksum verification.
    """

    def __init__(
        self,
        fh: BinaryIO,
        *,
        codec: Codec | None = None,
        path: str | None = None,
        _owns_fh: bool = False,
    ) -> None:
        self.fh = fh
        self._owns_fh = _owns_fh
        self._path = path
        self.version, self.codec_name, header = _read_header_info(fh)
        #: first byte after the container header (start of the frame region)
        self.data_start = fh.tell()
        self.meta: dict = header.get("meta", {}) if self.version == _V2 else {}
        if self.version == _V2:
            self.frames = self._load_index()
            spec = header.get("codec")
            if codec is None and spec is None:
                raise FormatError("v2 container header is missing its codec spec")
            # The codec itself is built lazily (see the `codec` property):
            # metadata consumers (`pastri info` / `ls`) can then describe a
            # container written by a codec this build does not know.
            self._codec = codec
            self._raw_codec_spec = spec
        else:
            walk = walk_frames(fh, self.data_start, fh.seek(0, io.SEEK_END))
            if walk.damage is not None or not walk.saw_sentinel:
                raise FormatError(
                    f"truncated container: {walk.damage or 'missing frame length'}"
                )
            # v1 carried no element counts or checksums; counts are filled
            # in lazily on first decode (see read_frame).
            self.frames = [FrameInfo(o, n, 0) for o, n in walk.frames]
            self._raw_codec_spec = None
            self._codec = codec if codec is not None else _codec_for_v1(
                self.codec_name, fh, self.frames
            )
        if codec is not None and codec.name != self.codec_name:
            raise FormatError(
                f"container was written by codec {self.codec_name!r}, "
                f"got {codec.name!r}"
            )
        self._by_key = {f.key: i for i, f in enumerate(self.frames) if f.key is not None}

    # -- index ---------------------------------------------------------------

    def _load_index(self) -> list[FrameInfo]:
        fh = self.fh
        if not getattr(fh, "seekable", lambda: False)():
            raise FormatError(
                "random access needs a seekable handle; "
                "use decompress_stream for sequential reads"
            )
        file_size = fh.seek(0, io.SEEK_END)
        if file_size < _TRAILER_LEN:
            raise FormatError(
                f"truncated container: {file_size}-byte file cannot hold the "
                f"{_TRAILER_LEN}-byte index trailer"
            )
        fh.seek(file_size - _TRAILER_LEN)
        stored_crc, payload_len = struct.unpack("<IQ", _read_exact(fh, 12, "trailer"))
        if _read_exact(fh, len(_INDEX_MAGIC), "index magic") != _INDEX_MAGIC:
            raise FormatError(
                f"container is missing its frame index at byte "
                f"{file_size - len(_INDEX_MAGIC)}: "
                + self._describe_unfooted(file_size)
            )
        index_start = file_size - _TRAILER_LEN - payload_len
        if payload_len > file_size or index_start < 0:
            raise FormatError(
                f"corrupt index length {payload_len} in trailer at byte "
                f"{file_size - _TRAILER_LEN}"
            )
        fh.seek(index_start)
        payload = _read_exact(fh, payload_len, "index payload")
        actual = zlib.crc32(payload) & 0xFFFFFFFF
        if actual != stored_crc:
            raise ChecksumError(
                f"frame index CRC mismatch (stored {stored_crc:#010x}, "
                f"computed {actual:#010x})"
            )
        frames = _parse_index(payload)
        for i, f in enumerate(frames):
            if f.offset + f.length > index_start:
                raise FormatError(
                    f"frame {i} extends past the payload region "
                    f"(offset {f.offset} + length {f.length} > {index_start}): "
                    "index/payload mismatch"
                )
        return frames

    def _describe_unfooted(self, file_size: int) -> str:
        """Tell an in-progress stream from real corruption for the error text.

        A footerless file whose frame region still parses cleanly (every
        length prefix consistent up to EOF or the 0-sentinel) is just an
        unclosed/killed writer and fully salvageable; a walk that desyncs
        mid-frame means genuine damage, of which only the leading frames
        survive.  Either way the operator is pointed at ``pastri fsck``.
        """
        where = f" {self._path}" if self._path else ""
        try:
            walk = walk_frames(self.fh, self.data_start, file_size)
        except FormatError:
            return (
                "the frame region cannot be scanned either; "
                f"run `pastri fsck{where}` to salvage what remains"
            )
        n = len(walk.frames)
        if walk.damage is None:
            return (
                f"unfooted but frame-consistent ({n} complete frame(s), "
                "unclosed or killed writer); "
                f"run `pastri fsck{where}` to rebuild the footer index"
            )
        return (
            f"genuine corruption — {walk.damage}; {n} leading frame(s) are "
            f"intact; run `pastri fsck{where}` to salvage them"
        )

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.frames)

    def keys(self) -> list[str]:
        """Keys of all keyed frames, in frame order."""
        return [f.key for f in self.frames if f.key is not None]

    def read_blob(self, i: int) -> bytes:
        """Read frame ``i``'s raw blob (CRC-verified on v2), nothing else."""
        f = self.frames[i]
        if not _tstate.enabled:
            return read_checked_frame(self.fh, f, f"frame {i}")
        t0 = time.perf_counter()
        blob = read_checked_frame(self.fh, f, f"frame {i}")
        _METRICS.timer("container.read.frame").observe(
            time.perf_counter() - t0, nbytes=f.length
        )
        _METRICS.counter("container.read.payload_bytes").add(f.length)
        _METRICS.counter("container.read.frames").add(1)
        return blob

    def read_frame(self, i: int) -> np.ndarray:
        """Decompress frame ``i``; reads only that frame's bytes."""
        out = self.codec.decompress(self.read_blob(i))
        f = self.frames[i]
        if f.n_elements and out.size != f.n_elements:
            raise FormatError(
                f"frame {i} decoded to {out.size} elements, index says "
                f"{f.n_elements}: index/payload mismatch"
            )
        if not f.n_elements:  # v1 index entries carry no counts; backfill
            self.frames[i] = FrameInfo(
                f.offset, f.length, out.size, f.crc32, f.key, f.dims
            )
        return out

    def get(self, key) -> np.ndarray:
        """Decompress the frame stored under ``key`` (KeyError if absent)."""
        return self.read_frame(self._by_key[str(key)])

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(len(self.frames)):
            yield self.read_frame(i)

    def read_all(self) -> np.ndarray:
        """Decompress every frame and concatenate (for moderate sizes)."""
        parts = list(self)
        if not parts:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(parts)

    @property
    def n_elements(self) -> int:
        """Total element count across frames (0s for undecoded v1 frames)."""
        return sum(f.n_elements for f in self.frames)

    @property
    def codec(self) -> Codec:
        """The codec rebuilt from the header spec, built on first use.

        Raises :class:`~repro.errors.ParameterError` for a codec name this
        build has no factory for — but only when something actually tries
        to *decode*; pure metadata access (:attr:`codec_spec`, the frame
        index) works on any well-formed container.
        """
        if self._codec is None:
            self._codec = api.codec_from_spec(self._raw_codec_spec)
        return self._codec

    @property
    def codec_spec(self) -> dict:
        """The codec spec this reader would embed on re-write.

        Served from the raw header while the codec is uninstantiated, so
        listing tools can render containers from unknown codecs.
        """
        if self._codec is None and self._raw_codec_spec is not None:
            return self._raw_codec_spec
        return api.codec_spec(self.codec)

    def frame_table(self) -> tuple[str, tuple[int, int], dict, list[FrameInfo]]:
        """Everything an out-of-process consumer needs to fetch frames itself.

        Returns ``(path, signature, codec_spec, frames)`` where the
        signature is ``(mtime_ns, size)`` — a worker holding a cached
        :class:`FrameMap` for ``path`` compares it to detect a replaced
        file.  This is the hand-off :func:`repro.parallel.pool.
        parallel_decompress_container` ships to its workers: index
        entries, never frame bytes.
        """
        if self._path is None:
            raise ParameterError("frame_table needs a path-opened container")
        st = os.stat(self._path)
        return self._path, (st.st_mtime_ns, st.st_size), self.codec_spec, list(self.frames)

    def close(self) -> None:
        if self._owns_fh:
            self.fh.close()

    def __enter__(self) -> "ContainerReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def open_container(
    path_or_fh: str | BinaryIO,
    codec: Codec | None = None,
) -> ContainerReader:
    """Open a PSTF container for random access.

    v2 containers need no arguments — the codec is rebuilt from the header
    spec and the footer index is verified and loaded.  v1 streams are
    opened through a compatibility path (sequential index scan, codec
    reconstructed best-effort from the header name, or pass ``codec=``).
    """
    if isinstance(path_or_fh, (str, bytes, os.PathLike)):
        path = os.fsdecode(path_or_fh)
        fh = open(path, "rb")
        try:
            return ContainerReader(fh, codec=codec, path=path, _owns_fh=True)
        except Exception:
            fh.close()
            raise
    return ContainerReader(path_or_fh, codec=codec)


# ---------------------------------------------------------------------------
# salvage (`pastri fsck`): recover frames from torn / footerless containers


@dataclass(frozen=True)
class FrameWalk:
    """Structural scan of a container's frame region (no decoding).

    ``frames`` holds the ``(offset, length)`` of every frame whose length
    prefix and payload bytes are fully present; ``end_of_frames`` is the
    byte just past the last such frame.  ``damage`` is ``None`` when the
    region is frame-consistent — the 0-sentinel was reached
    (``saw_sentinel``) or the file ends exactly on a frame boundary — and
    otherwise describes the first structural inconsistency (torn tail).
    """

    frames: tuple[tuple[int, int], ...]
    end_of_frames: int
    saw_sentinel: bool
    tail_start: int | None  # first byte after the sentinel, when one was seen
    damage: str | None


def walk_frames(fh: BinaryIO, data_start: int, file_size: int) -> FrameWalk:
    """Walk frame length prefixes from ``data_start``; never reads payloads."""
    fh.seek(data_start)
    frames: list[tuple[int, int]] = []
    pos = data_start
    saw_sentinel = False
    tail_start = None
    damage = None
    while True:
        raw = fh.read(8)
        if len(raw) != 8:
            if raw:
                damage = f"torn frame length prefix at byte {pos}"
            break
        (length,) = struct.unpack("<Q", raw)
        if length == 0:
            saw_sentinel = True
            tail_start = pos + 8
            break
        if length > file_size - (pos + 8):
            damage = (
                f"torn frame at byte {pos}: declares {length} payload bytes, "
                f"{file_size - pos - 8} remain"
            )
            break
        pos = fh.seek(length, io.SEEK_CUR)
        frames.append((pos - length, length))
    return FrameWalk(tuple(frames), pos if not saw_sentinel else tail_start - 8,
                     saw_sentinel, tail_start, damage)


# -- the spill journal: a footerless container's sidecar frame records


def journal_line(key, frame: FrameInfo) -> str:
    """One journal record of an appended frame.

    ``key`` is the JSON value whose ``json.dumps`` is ``frame.key`` (the
    form the frame index holds); the record carries where the frame lives
    and what it holds, one compact JSON object per line.
    """
    return json.dumps({
        "key": key,
        "offset": frame.offset,
        "length": frame.length,
        "crc": frame.crc32,
        "dims": None if frame.dims is None else list(frame.dims),
        "nbytes": frame.n_elements * 8,
    }, separators=(",", ":")) + "\n"


def read_journal(path: str) -> list[FrameInfo]:
    """Parse a journal into index entries, in record order.

    A missing file reads as empty, a torn final line ends the journal and
    a malformed record is skipped.  Each entry's key is the JSON dump of
    the record's key, as the frame index holds it.
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError:
        return []
    out: list[FrameInfo] = []
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                break  # torn tail write; everything before it is good
            try:
                dims = rec.get("dims")
                out.append(FrameInfo(
                    int(rec["offset"]), int(rec["length"]),
                    int(rec["nbytes"]) // 8, int(rec["crc"]),
                    json.dumps(rec["key"]),
                    None if dims is None else tuple(int(d) for d in dims),
                ))
            except (AttributeError, KeyError, TypeError, ValueError):
                continue  # malformed record; skip it
    return out


@dataclass(frozen=True)
class FrameSalvage:
    """What :func:`salvage_frames` found in a footerless container.

    ``entries`` maps the ``(offset, length)`` of each intact frame that an
    index entry describes — one with the frame's CRC — to that entry, in
    the order the index tail and then the journal list them; frames that
    nothing describes are absent.
    """

    version: int
    codec_name: str
    header: dict
    data_start: int
    file_size: int
    walk: FrameWalk
    entries: dict[tuple[int, int], FrameInfo]


def salvage_frames(fh: BinaryIO, journal_path: str | None = None) -> FrameSalvage:
    """Walk a footerless container's intact frames and describe each one.

    A frame's entry comes from the surviving, possibly torn, index tail
    first, otherwise from the journal at ``journal_path``; either must
    match the frame's ``(offset, length)`` and CRC.  ``pastri fsck``
    (:func:`salvage_container`) and a restarting spill store
    (:class:`repro.pipeline.store.ContainerBackend`) both recover through
    this scan.  Raises :class:`FormatError` when the header is torn.
    """
    fh.seek(0)
    version, codec_name, header = _read_header_info(fh)
    data_start = fh.tell()
    file_size = fh.seek(0, io.SEEK_END)
    walk = walk_frames(fh, data_start, file_size)
    tail: list[FrameInfo] = []
    if walk.tail_start is not None:
        fh.seek(walk.tail_start)
        tail = _parse_index(fh.read(), torn_ok=True)
    journal = read_journal(journal_path) if journal_path is not None else []
    intact = set(walk.frames)
    entries: dict[tuple[int, int], FrameInfo] = {}
    for entry in (*tail, *journal):
        where = (entry.offset, entry.length)
        if where not in intact or where in entries:
            continue
        try:
            read_checked_frame(fh, entry, "salvage frame")
        except ChecksumError:
            continue
        entries[where] = entry
    return FrameSalvage(version, codec_name, header, data_start, file_size, walk, entries)


@dataclass(frozen=True)
class SalvageReport:
    """What a salvage pass found (and, unless dry-run, wrote).

    ``clean`` means the input was already a fully valid container — every
    structure check and frame CRC passed — and the file was left
    byte-identical.  Otherwise ``frames_recovered`` frames were carried
    into a rewritten container (at ``output_path``, unless dry-run),
    ``frames_dropped`` frames failed payload validation, and
    ``bytes_dropped`` input bytes (torn tail, stale footer, bad frames)
    were not carried over.
    """

    path: str
    clean: bool
    version: int
    frames_recovered: int
    frames_dropped: int
    bytes_dropped: int
    keys_recovered: int
    n_elements: int
    damage: str | None
    output_path: str | None

    def describe(self) -> str:
        """One-paragraph human rendering (the ``pastri fsck`` output)."""
        if self.clean:
            return (
                f"{self.path}: clean v{self.version} container "
                f"({self.frames_recovered} frames, all CRCs verified); no-op"
            )
        head = (
            f"{self.path}: {self.damage or 'missing/invalid footer index'}\n"
            f"  frames recovered : {self.frames_recovered} "
            f"({self.n_elements} elements, {self.keys_recovered} with keys)\n"
            f"  frames dropped   : {self.frames_dropped}\n"
            f"  bytes dropped    : {self.bytes_dropped}"
        )
        if self.output_path is None:
            return head + "\n  (dry run: nothing written)"
        return head + f"\n  salvaged container written to {self.output_path}"


def _verify_open_container(path: str) -> tuple[int, int] | None:
    """Return ``(version, n_frames)`` when ``path`` is fully valid, else None.

    Full validity = the footer index loads *and* every frame payload passes
    its CRC (v2).  Never raises for damage — the caller salvages instead.
    """
    try:
        with open_container(path) as r:
            for i in range(len(r.frames)):
                r.read_blob(i)
            return r.version, len(r.frames)
    except ReproError:
        return None


def salvage_container(
    path: str,
    output: str | None = None,
    *,
    dry_run: bool = False,
) -> SalvageReport:
    """Salvage a torn or footerless PSTF container (the ``fsck`` core).

    Scans the frame region with :func:`salvage_frames`, keeps every frame
    whose payload verifies — against the entry of a surviving (possibly
    torn) footer index or of the spill journal ``path + ".journal"`` when
    one matches, otherwise by actually decoding the blob — drops the torn
    tail, and rewrites a valid footer index.  Keys and dims are preserved
    for frames so described; a file killed before its index was written
    and with no journal keeps its payloads but loses its keys (see
    ``docs/FORMAT.md``, *Durability & recovery*).

    An already-valid container is a byte-identical no-op (``clean=True``).
    In-place repair (``output=None``) is itself atomic: the salvaged
    stream is committed with :func:`os.replace`.  ``dry_run=True`` only
    reports.  Raises :class:`FormatError` when not even the header is
    intact — nothing is recoverable without it.
    """
    path = os.fspath(path)
    valid = _verify_open_container(path)
    if valid is not None:
        version, n_frames = valid
        return SalvageReport(
            path, True, version, n_frames, 0, 0, 0, 0, None, None
        )

    with open(path, "rb") as fh:
        try:
            found = salvage_frames(fh, path + ".journal")
        except FormatError as exc:
            raise FormatError(
                f"{path}: unrecoverable — the container header itself is "
                f"damaged ({exc}); no frame can be located without it"
            ) from exc
        walk = found.walk
        if found.version == _V2:
            spec = found.header.get("codec")
            if spec is None:
                raise FormatError(
                    f"{path}: unrecoverable — v2 header carries no codec spec"
                )
            codec = api.codec_from_spec(spec)
        else:
            codec = _codec_for_v1(
                found.codec_name, fh,
                [FrameInfo(o, n, 0) for o, n in walk.frames[:1]],
            )

        kept: list[FrameInfo] = []
        dropped = 0
        for offset, length in walk.frames:
            entry = found.entries.get((offset, length))
            if entry is None:  # nothing describes the frame: validate by decoding
                fh.seek(offset)
                blob = _read_exact(fh, length, "salvage frame")
                try:
                    n_elements = int(codec.decompress(blob).size)
                except ReproError:
                    dropped += 1
                    continue
                entry = FrameInfo(offset, length, n_elements, zlib.crc32(blob) & 0xFFFFFFFF)
            kept.append(entry)

        out_path = None
        if not dry_run:
            out_path = output if output is not None else path
            _write_salvaged(fh, found.data_start, found.version, kept, out_path)

    # everything not carried over: torn tail, stale footer, dropped frames
    bytes_kept = found.data_start + sum(8 + f.length for f in kept)
    report = SalvageReport(
        path=path,
        clean=False,
        version=found.version,
        frames_recovered=len(kept),
        frames_dropped=dropped,
        bytes_dropped=found.file_size - bytes_kept,
        keys_recovered=sum(1 for f in kept if f.key is not None),
        n_elements=sum(f.n_elements for f in kept),
        damage=walk.damage or "footer index missing or invalid",
        output_path=out_path,
    )
    if _tstate.enabled:
        _METRICS.counter("fsck.frames_recovered").add(report.frames_recovered)
        _METRICS.counter("fsck.frames_dropped").add(report.frames_dropped)
        _METRICS.counter("fsck.bytes_dropped").add(report.bytes_dropped)
    return report


def _write_salvaged(
    src: BinaryIO,
    data_start: int,
    version: int,
    kept: list[FrameInfo],
    out_path: str,
) -> None:
    """Write header + surviving frames + fresh footer, committed atomically.

    The original header bytes are copied verbatim; frames are re-packed
    contiguously (offsets shift when a bad frame was dropped) and a new
    index/trailer is appended — except for v1 inputs, which have no index
    format and get their sentinel restored instead.
    """
    tmp = out_path + ".fsck-tmp"
    with open(tmp, "wb") as dst:
        src.seek(0)
        dst.write(_read_exact(src, data_start, "salvage header"))
        pos = data_start
        rebuilt: list[FrameInfo] = []
        for f in kept:
            src.seek(f.offset)
            blob = _read_exact(src, f.length, "salvage frame")
            dst.write(struct.pack("<Q", f.length))
            dst.write(blob)
            rebuilt.append(FrameInfo(
                pos + 8, f.length, f.n_elements, f.crc32, f.key, f.dims
            ))
            pos += 8 + f.length
        dst.write(struct.pack("<Q", 0))
        if version == _V2:
            _write_index(dst, rebuilt)
        dst.flush()
        _fsync_fh(dst)
    os.replace(tmp, out_path)
    _fsync_dir(os.path.dirname(os.path.abspath(out_path)))


# ---------------------------------------------------------------------------
# whole-stream conveniences (now writing v2)


def compress_stream(
    chunks: Iterable[np.ndarray],
    codec: Codec,
    error_bound: float,
    fh: BinaryIO,
    meta: dict | None = None,
) -> StreamSummary:
    """Compress an iterable of 1-D chunks into a v2 container.

    Memory use is bounded by one chunk; chunks may have different lengths
    (each frame's blob is self-describing, and the index records counts).
    """
    with ContainerWriter(fh, codec, error_bound, meta=meta) as w:
        for chunk in chunks:
            w.append(chunk)
    return w.summary


def write_v1_stream(
    chunks: Iterable[np.ndarray],
    codec: Codec,
    error_bound: float,
    fh: BinaryIO,
) -> StreamSummary:
    """Write a *legacy v1* stream (no index, no checksums, no codec spec).

    Kept for compatibility testing and for interop with pre-v2 readers; new
    code should use :func:`compress_stream` / :class:`ContainerWriter`.
    """
    name = codec.name.encode("utf-8")
    fh.write(_MAGIC + struct.pack("<BB", _V1, len(name)) + name)
    n = orig = comp = 0
    header_bytes = 4 + 2 + len(name)
    for chunk in chunks:
        chunk = np.ascontiguousarray(chunk, dtype=np.float64)
        blob = codec.compress(chunk, error_bound)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        n += 1
        orig += chunk.nbytes
        comp += len(blob) + 8
    fh.write(struct.pack("<Q", 0))
    return StreamSummary(n, orig, comp + header_bytes + 8)


def compress_dataset_to_file(
    data_iter: Iterable[np.ndarray], codec: Codec, error_bound: float, path: str
) -> StreamSummary:
    """Convenience wrapper: stream-compress to a file path (v2 container).

    Commits atomically (``path + ".tmp"`` + rename): a crash mid-write
    leaves a salvageable partial and never clobbers an existing good file.
    """
    with ContainerWriter.create(path, codec, error_bound) as w:
        for chunk in data_iter:
            w.append(chunk)
    return w.summary


def decompress_file(path: str, codec: Codec) -> np.ndarray:
    """Read a whole container back into one array (for moderate sizes).

    Accepts v1 and v2 files; the supplied codec must match the header name.
    """
    with open(path, "rb") as fh:
        name = read_stream_header(fh)
        if name != codec.name:
            raise FormatError(
                f"container was written by codec {name!r}, got {codec.name!r}"
            )
        parts = list(decompress_stream(fh, codec))
    if not parts:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(parts)
