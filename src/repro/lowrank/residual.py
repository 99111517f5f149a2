"""The mandatory error-bounded residual pass.

Factorization alone promises nothing point-wise.  This pass reconstructs
exactly what the decompressor will reconstruct (the deterministic
rank-loop over the *stored-precision* factors), quantizes the deviation
on PaSTRI's ECQ grid — ``q = round(dev / (2·EB·deflation))``, the same
:func:`repro.core.quantize.working_binsize` bin every PaSTRI stream uses
— and stores the non-zero codes.  Decompression adds ``q · bin`` back,
so the output error is at most half a working bin, strictly below EB,
**for every element and every input**.  Where the factorization is good
(the designed case) almost all codes are zero and the stream is a short
sparse run; where it is terrible the codes simply get wide and the codec
layer's payoff test walks away to raw storage instead.

Wire form (inside the LRK1 blob, see :mod:`repro.lowrank.format`)::

    mode u8   — 0 none, 1 sparse, 2 dense
    sparse: idx dtype u8, val dtype u8, nnz u64, deflate(indices ++ values)
    dense:  val dtype u8,            n u64, deflate(values)

Integer codes are narrowed to the smallest dtype that holds them before
deflate — the two-stage scheme (narrow, then DEFLATE) is what the
lossless tier already does for verbatim doubles.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.quantize import working_binsize
from repro.errors import FormatError

MODE_NONE = 0
MODE_SPARSE = 1
MODE_DENSE = 2

#: DEFLATE level for residual payloads: the narrowed integer streams are
#: highly repetitive, so the fast setting captures nearly all the gain.
_ZLEVEL = 6

#: Quantized codes at or beyond this magnitude cannot be trusted through
#: the float64 -> int cast; the codec falls back to raw storage.
_Q_OVERFLOW = float(1 << 62)

_INT_DTYPES = (np.int8, np.int16, np.int32, np.int64)
_UINT_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


def _narrow_int(vals: np.ndarray) -> np.ndarray:
    """Smallest signed dtype holding ``vals`` (already integral)."""
    ext = int(np.abs(vals).max(initial=0))
    for dt in _INT_DTYPES:
        if ext <= np.iinfo(dt).max:
            return vals.astype(dt)
    return vals.astype(np.int64)


def _narrow_uint(vals: np.ndarray) -> np.ndarray:
    """Smallest unsigned dtype holding ``vals``."""
    ext = int(vals.max(initial=0))
    for dt in _UINT_DTYPES:
        if ext <= np.iinfo(dt).max:
            return vals.astype(dt)
    return vals.astype(np.uint64)


_DTYPE_CODES = {np.dtype(dt).str: i for i, dt in enumerate(_INT_DTYPES + _UINT_DTYPES)}
_CODE_DTYPES = {i: np.dtype(dt) for i, dt in enumerate(_INT_DTYPES + _UINT_DTYPES)}


@dataclass(frozen=True)
class ResidualStream:
    """One encoded residual section (still to be framed by the format layer)."""

    mode: int
    nnz: int
    idx_code: int  # dtype code for sparse indices (0 when unused)
    val_code: int  # dtype code for the quantized values (0 when unused)
    payload: bytes  # deflate-compressed body ('' for MODE_NONE)


def quantize_residual(
    data: np.ndarray, approx: np.ndarray, error_bound: float
) -> np.ndarray | None:
    """ECQ codes of ``data - approx`` on the working ``2·EB`` grid.

    Returns ``None`` when any code would overflow the int64 cast — the
    signal for the codec's raw fallback.  (The ECQ step of
    :func:`repro.core.quantize.quantize_blocks`, applied to the whole
    stream at once.)
    """
    q_f = np.rint((data - approx) / working_binsize(error_bound))
    if not np.isfinite(q_f).all() or float(np.abs(q_f).max(initial=0.0)) >= _Q_OVERFLOW:
        return None
    return q_f.astype(np.int64)


def encode_residual(q: np.ndarray) -> ResidualStream:
    """Pack quantized codes ``q`` (1-D int64) into a residual stream."""
    flat = q.ravel()
    nz = np.flatnonzero(flat)
    if nz.size == 0:
        return ResidualStream(MODE_NONE, 0, 0, 0, b"")
    sp_idx = _narrow_uint(nz)
    sp_val = _narrow_int(flat[nz])
    dn_val = _narrow_int(flat)
    sparse_bytes = sp_idx.nbytes + sp_val.nbytes
    if sparse_bytes <= dn_val.nbytes:
        payload = zlib.compress(sp_idx.tobytes() + sp_val.tobytes(), _ZLEVEL)
        return ResidualStream(
            MODE_SPARSE,
            int(nz.size),
            _DTYPE_CODES[sp_idx.dtype.str],
            _DTYPE_CODES[sp_val.dtype.str],
            payload,
        )
    payload = zlib.compress(dn_val.tobytes(), _ZLEVEL)
    return ResidualStream(
        MODE_DENSE, int(nz.size), 0, _DTYPE_CODES[dn_val.dtype.str], payload
    )


def decode_residual(
    stream: ResidualStream, n: int, error_bound: float, out: np.ndarray
) -> None:
    """Add the residual correction ``q · bin`` into ``out`` (1-D, length n)."""
    if stream.mode == MODE_NONE:
        return
    try:
        body = zlib.decompress(stream.payload)
    except zlib.error as exc:
        raise FormatError(f"corrupt residual payload: {exc}") from exc
    binsize = working_binsize(error_bound)
    if stream.mode == MODE_DENSE:
        dt = _lookup_dtype(stream.val_code)
        if len(body) != n * dt.itemsize:
            raise FormatError(
                f"dense residual holds {len(body)} bytes, expected {n * dt.itemsize}"
            )
        out += np.frombuffer(body, dtype=dt).astype(np.float64) * binsize
        return
    if stream.mode != MODE_SPARSE:
        raise FormatError(f"unknown residual mode {stream.mode}")
    idx_dt = _lookup_dtype(stream.idx_code)
    val_dt = _lookup_dtype(stream.val_code)
    want = stream.nnz * (idx_dt.itemsize + val_dt.itemsize)
    if len(body) != want:
        raise FormatError(
            f"sparse residual holds {len(body)} bytes, expected {want}"
        )
    split = stream.nnz * idx_dt.itemsize
    idx = np.frombuffer(body[:split], dtype=idx_dt).astype(np.int64)
    vals = np.frombuffer(body[split:], dtype=val_dt).astype(np.float64)
    if idx.size and (int(idx.max()) >= n or int(idx.min()) < 0):
        raise FormatError("sparse residual index out of range")
    out[idx] += vals * binsize


def _lookup_dtype(code: int) -> np.dtype:
    try:
        return _CODE_DTYPES[code]
    except KeyError:
        raise FormatError(f"unknown residual dtype code {code}") from None
