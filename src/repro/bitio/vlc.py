"""Vectorised prefix-code (variable-length-code) decoding.

Decoding a prefix code is inherently a sequential chain — the start of
token *k+1* is only known after token *k* is measured.  A naive Python loop
costs microseconds per symbol, which would dominate decompression time.

We instead use **pointer jumping** (parallel list ranking): the token length
at *every* bit offset is computed in one vectorised pass from a bounded
lookahead window, giving a functional graph ``next[i] = i + len_at[i]``.
Token start positions are the orbit of offset 0 under ``next``; the orbit is
materialised with a binary-doubling jump table in ``O(B log n)`` vectorised
work instead of ``O(n)`` interpreted iterations.  This is the same
technique used for parallel prefix decoding on GPUs, expressed in numpy.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import FormatError

#: A vectorised callback mapping (bits, offsets) -> token length at each
#: offset, where ``bits`` is the full uint8 0/1 stream.  It must return a
#: positive length for every offset where a token could legally start; the
#: value at non-start offsets is irrelevant.
LengthFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def token_start_positions(
    len_at: np.ndarray, n_tokens: int, start: int = 0
) -> np.ndarray:
    """Return the bit offsets of the first ``n_tokens`` tokens.

    ``len_at[i]`` is the length a token would have if it started at offset
    ``i``.  Uses a binary-doubling jump table so the whole orbit of
    ``start`` is computed without a per-token Python loop.
    """
    if n_tokens == 0:
        return np.zeros(0, dtype=np.int64)
    nbits = len_at.size
    # next[i] = offset of the following token (clamped to a sink at nbits).
    idx = np.arange(nbits, dtype=np.int64)
    nxt = np.minimum(idx + len_at.astype(np.int64), nbits)
    nxt = np.append(nxt, nbits)  # sink: nbits maps to itself

    if n_tokens <= 256:
        # A scalar walk beats building jump tables for short token runs.
        positions = np.empty(n_tokens, dtype=np.int64)
        p = start
        for k in range(n_tokens):
            positions[k] = p
            p = int(nxt[p])
        return positions

    # Blocked binary lifting: full-table doubling costs O(nbits) random
    # gathers per level, so instead of log2(n_tokens) levels we build only
    # L small-stride tables (stride 2^L chosen so the anchor walk below
    # stays ~256 scalar steps), walk coarse anchors sequentially with the
    # largest stride, then fan each anchor out over its 2^L tokens with the
    # small tables.  Same orbit, ~3x fewer full-table doublings.
    level_count = max(1, min(16, (n_tokens // 256).bit_length()))
    tables = [nxt]
    for _ in range(level_count - 1):
        tables.append(tables[-1][tables[-1]])
    big = tables[-1][tables[-1]]  # stride 2^level_count
    stride = 1 << level_count
    n_anchor = (n_tokens + stride - 1) >> level_count
    anchors = np.empty(n_anchor, dtype=np.int64)
    p = start
    for a in range(n_anchor):
        anchors[a] = p
        p = int(big[p])

    ks = np.arange(n_tokens, dtype=np.int64)
    positions = anchors[ks >> level_count]
    for level in range(level_count):
        mask = (ks >> level) & 1 == 1
        positions[mask] = tables[level][positions[mask]]
    if positions.max(initial=0) >= nbits + 1:
        raise FormatError("prefix stream ran past end of buffer")
    return positions


def decode_prefix_stream(
    bits: np.ndarray,
    start: int,
    n_tokens: int,
    length_fn: LengthFn,
    lookahead: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Locate ``n_tokens`` prefix-code tokens in ``bits`` beginning at ``start``.

    Returns ``(positions, lengths)`` where ``positions[k]`` is the bit offset
    of token *k* and ``lengths[k]`` its length.  The caller extracts symbol
    payloads from these offsets with vectorised gathers.

    ``length_fn`` computes the token length from a bounded lookahead; the
    stream is zero-padded by ``lookahead`` bits so the callback never has to
    bounds-check.
    """
    if n_tokens == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    padded = np.concatenate([bits[start:], np.zeros(lookahead, dtype=np.uint8)])
    offsets = np.arange(padded.size - lookahead, dtype=np.int64)
    if offsets.size == 0:
        raise FormatError("prefix stream is empty")
    len_at = length_fn(padded, offsets)
    positions = token_start_positions(len_at, n_tokens, start=0)
    if positions[-1] >= offsets.size:
        raise FormatError("prefix stream truncated")
    lengths = len_at[positions]
    return positions + start, lengths.astype(np.int64)


def sliding_windows_u16(bits: np.ndarray, width: int) -> np.ndarray:
    """``width``-bit MSB-first windows at *every* bit offset, vectorised.

    Packs the bits into bytes once and assembles each window from three
    consecutive bytes — ~4 vector ops total instead of a ``width``-column
    matmul.  ``width`` must be ≤ 16.  Returns an int64 array of length
    ``len(bits)`` (windows starting near the end are zero-padded).
    """
    if width > 16:
        raise FormatError("sliding window wider than 16 bits")
    n = bits.size
    packed = np.packbits(bits)  # zero-pads the tail
    by = np.zeros(packed.size + 3, dtype=np.int64)
    by[: packed.size] = packed
    offs = np.arange(n, dtype=np.int64)
    byte = offs >> 3
    sh = offs & 7
    w24 = (by[byte] << 16) | (by[byte + 1] << 8) | (by[byte + 2])
    win16 = (w24 >> (8 - sh)) & 0xFFFF
    return win16 >> (16 - width)


def gather_bit_windows_var(
    by: np.ndarray, offsets: np.ndarray, widths: np.ndarray
) -> np.ndarray:
    """Extract big-endian bit windows from a *packed* byte stream.

    ``by`` is the contiguous ``np.packbits`` form of the bit stream
    (MSB-first), padded with at least 7 trailing guard bytes.
    ``widths[k]`` (0..64) is the width of the window at bit offset
    ``offsets[k]``; a zero width yields 0.  Each window is cut from the
    big-endian 64-bit word at its first byte — one gather and two shifts
    whatever the widths, far cheaper than the per-bit matrix gather of
    :func:`gather_bit_windows`.  A window starts at most 7 bits into its
    first byte, so one word holds any window of up to 57 bits; calls with
    wider windows read each one as a high and a low part of at most 32
    bits.
    """
    if offsets.size == 0:
        return np.zeros(0, dtype=np.uint64)
    wmax = int(widths.max())
    if wmax > 57:
        if wmax > 64:
            raise FormatError("packed window wider than 64 bits")
        lo_w = np.minimum(widths, 32)
        hi_w = widths - lo_w
        hi = gather_bit_windows_var(by, offsets, hi_w)
        lo = gather_bit_windows_var(by, offsets + hi_w, lo_w)
        return (hi << lo_w.astype(np.uint64)) | lo
    offsets = np.asarray(offsets, dtype=np.int64)
    # every byte offset of ``by`` viewed as the start of a big-endian word
    words = np.ndarray((by.size - 7,), dtype=">u8", buffer=by, strides=(1,))
    acc = words[offsets >> 3].astype(np.uint64)
    acc <<= (offsets & 7).view(np.uint64)
    acc >>= (64 - np.asarray(widths, dtype=np.int64)).view(np.uint64)  # >> 64 gives 0
    return acc


def gather_bit_windows(bits: np.ndarray, offsets: np.ndarray, width: int) -> np.ndarray:
    """Extract ``width``-bit big-endian windows at each offset (vectorised).

    Returns a uint64 array: ``out[k]`` holds ``bits[offsets[k] : offsets[k]+width]``
    interpreted MSB-first.  ``bits`` must already be padded so every window
    is in range.
    """
    if width > 64:
        raise FormatError("window wider than 64 bits")
    if offsets.size == 0:
        return np.zeros(0, dtype=np.uint64)
    cols = np.arange(width, dtype=np.int64)
    win = bits[offsets[:, None] + cols[None, :]].astype(np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return (win << shifts[None, :]).sum(axis=1, dtype=np.uint64)
