"""The five ECQ coding trees (paper Fig. 7): sizing, emission and decoding.

Each tree maps quantized error-correction values (ECQ) to bit strings.  The
trees are *fixed* — they are part of the format, not of the stream — which
is PaSTRI's answer to Huffman coding: no dictionary to store, no two-pass
frequency counting, and fully block-local (paper §IV-C).

* **Tree 1** — ``0 → 0``; every other value ``→ 1`` + value in ``EC_b`` bits.
* **Tree 2** — ``0 → 0``, ``+1 → 10``, ``-1 → 110``, others ``→ 111`` + value.
* **Tree 3** — ``0 → 0``, others ``→ 10`` + value, ``+1 → 110``, ``-1 → 111``.
* **Tree 4** — Fig. 6 bin ``i`` gets a unary prefix and ``i-1`` payload bits
  (an Elias-gamma-like code).
* **Tree 5** — adaptive: the optimal 3-leaf tree when ``EC_b,max = 2``
  (``0 → 0``, ``+1 → 10``, ``-1 → 11``), Tree 3 otherwise.  The paper's
  winner and PaSTRI's default.

Non-zero "other" payloads use offset-binary in ``EC_b`` bits (value +
``2^(EC_b - 1)``).

Stream version 2 lays each dense segment out *planar* — the same
codewords, prefix bits plane by plane, then tails — so segment lengths
follow from popcounts, every segment of a call is written in one batched
pass (:func:`add_ecq_planar`) and every segment of a stream decodes in one
(:func:`decode_ecq_planar`).  Version-1 segments hold the codewords back
to back; :class:`ECQDecoder` reads them one at a time with
:func:`decode_ecq`'s prefix scan under adaptive bounds.
"""

from __future__ import annotations

import numpy as np

from repro.bitio.reader import FieldScanner
from repro.bitio.vlc import decode_prefix_stream, gather_bit_windows, gather_bit_windows_var
from repro.bitio.writer import add_fields
from repro.core.quantize import ecq_bin_numbers
from repro.errors import FormatError, ParameterError

TREE_IDS = (1, 2, 3, 4, 5)


def _offset_decode(payload: np.ndarray, nbits: int) -> np.ndarray:
    """Offset-binary payloads → signed int64."""
    return payload.astype(np.int64) - (1 << (nbits - 1))


def _check_ecb(ecb: int) -> None:
    if not 2 <= ecb <= 40:
        raise ParameterError(f"EC_b must be in [2, 40], got {ecb}")


# ---------------------------------------------------------------------------
# Encoded-size accounting (used for dense-vs-sparse decisions and Fig. 7
# without materialising bitstreams).
# ---------------------------------------------------------------------------


def encoded_size_bits_batch(
    ecq2d: np.ndarray, ecb: np.ndarray, tree_id: int, nnz: np.ndarray | None = None
) -> np.ndarray:
    """Exact dense-encoded size in bits per row of ``ecq2d``.

    ``ecq2d`` is ``(n_blocks, block_size)`` int64; ``ecb`` holds each row's
    ``EC_b,max``.  One vectorised pass sizes every block for the
    compressor's dense-vs-sparse decision; a row's size equals the summed
    lengths of its codewords, planar or not.
    Rows whose ``ecb`` lies outside the legal ``[2, 40]`` range produce
    unspecified values — callers must mask them out (the compressor only
    consults rows with ``EC_b,max >= 2``).  ``nnz`` optionally passes the
    per-row nonzero count if the caller already has it, saving one pass.
    """
    if tree_id not in TREE_IDS:
        raise ParameterError(f"unknown tree id {tree_id}")
    ecq2d = np.ascontiguousarray(ecq2d, dtype=np.int64)
    ecb = np.asarray(ecb, dtype=np.int64)
    n = ecq2d.shape[1]
    if tree_id in (1, 3, 5):
        a = np.abs(ecq2d)
        if nnz is None:
            nnz = np.count_nonzero(a, axis=1)
        np.minimum(a, 2, out=a)
        return encoded_size_bits_from_moments(n, nnz, a.sum(axis=1), ecb, tree_id)
    n0 = np.count_nonzero(ecq2d == 0, axis=1)
    npos1 = np.count_nonzero(ecq2d == 1, axis=1)
    nneg1 = np.count_nonzero(ecq2d == -1, axis=1)
    n1 = npos1 + nneg1
    nother = n - n0 - n1
    if tree_id == 2:
        return n0 + 2 * npos1 + 3 * nneg1 + (3 + ecb) * nother
    # tree 4
    bins = ecq_bin_numbers(ecq2d)
    lengths = np.where(bins == ecb[:, None], 2 * (ecb[:, None] - 1), 2 * bins - 1)
    lengths = np.where(bins == 1, 1, lengths)
    return lengths.sum(axis=1)


def encoded_size_bits_from_moments(
    n: int, nnz: np.ndarray, s: np.ndarray, ecb: np.ndarray, tree_id: int
) -> np.ndarray:
    """Dense-encoded size per block from clipped-magnitude moments.

    Trees 1/3/5 only distinguish |v| in {0, 1, 2+}, so with the per-row
    nonzero count ``nnz`` and ``s = sum(min(|v|, 2))`` the exact size
    follows arithmetically: ``n1 = 2*nnz - s`` and ``nother = s - nnz``.
    Lets callers that already hold the moments (the compressor computes
    them from its float residual buffer) skip the integer passes.
    """
    if tree_id not in (1, 3, 5):
        raise ParameterError(f"moment-based sizing not supported for tree {tree_id}")
    n0 = n - nnz
    if tree_id == 1:
        return n0 + nnz * (1 + ecb)
    n1 = 2 * nnz - s
    nother = s - nnz
    tree3_bits = n0 + 3 * n1 + (2 + ecb) * nother
    if tree_id == 3:
        return tree3_bits
    return np.where(ecb == 2, n0 + 2 * nnz, tree3_bits)


# ---------------------------------------------------------------------------
# Planar dense layout (stream version 2).  Every tree codeword is a prefix
# of c leading 1-bits — closed by a 0 unless c is the tree's longest prefix
# L — followed by a tail (a sign bit or an offset-binary payload).  A planar
# segment stores the same bits reordered: plane j holds bit j of every
# token whose prefix is longer than j, in token order, then every tail in
# token order.  Plane j+1 therefore has popcount(plane j) bits, so a
# segment's length follows from popcounts, and all tokens of all segments
# decode in one batched pass.
# ---------------------------------------------------------------------------

#: Tokens per step of the batched encoder and of the planar decoder:
#: bounds each pass's temporaries.
PLANAR_CHUNK = 1 << 17


def _planar_levels(ecb: np.ndarray, tree_id: int) -> np.ndarray:
    """Prefix planes ``L`` per ``EC_b,max``: the tree's longest prefix."""
    ecb = np.asarray(ecb, dtype=np.int64)
    if tree_id == 4:
        return ecb - 1
    if tree_id == 5:
        return np.where(ecb == 2, 1, 2)
    return np.full(ecb.shape, {1: 1, 2: 3, 3: 2}[tree_id], dtype=np.int64)


def _planar_codes(
    v: np.ndarray, ecb: np.ndarray, levels: np.ndarray, tree_id: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prefix class c, tail, tail width) of nonzero tokens.

    ``v`` holds nonzero ECQ values; ``ecb`` and ``levels`` are per token,
    in ``v``'s dtype, which holds every tail (int32 ECQ means EC_b,max <=
    31).  Only a tail's low ``width`` bits count: the writer drops the
    rest (:func:`repro.bitio.writer.add_fields`).  The zero token is always
    class 0 with no tail, so callers pass only nonzero values.  Tree 5 is
    tree 3 with ``L = 1`` at ``EC_b,max = 2``, where the ±1 class is the
    only nonzero one.  Selections are arithmetic: ``np.where`` costs
    several times more per token.
    """
    escape = v + np.left_shift(1, ecb - 1, dtype=v.dtype)  # offset binary
    if tree_id == 1:
        return np.ones_like(v), escape, ecb
    if tree_id == 2:
        c = 3 - 2 * (v == 1) - (v == -1)
        return c, escape, (c == 3) * ecb
    if tree_id in (3, 5):
        # ±1 is class L with a sign bit for a tail: the low bit of its
        # escape (odd, as 2^(EC_b,max - 1) is even), less 1 for +1
        one = np.abs(v) == 1
        return 1 + one * (levels - 1), escape - (v == 1), ecb - one * (ecb - 1)
    c = (ecq_bin_numbers(v) - 1).astype(v.dtype)  # tree 4: c ones, c payload bits
    if (c > levels).any():
        raise ParameterError("ECQ value outside the EC_b range for tree 4")
    tail_half = np.left_shift(1, c - 1, dtype=v.dtype)
    return c, (v < 0) * tail_half + np.abs(v) - tail_half, c


def _planar_tail_widths(
    c: np.ndarray, ecb: np.ndarray, levels: np.ndarray, tree_id: int
) -> np.ndarray:
    """Tail bits of tokens of class ``c >= 1``: a sign bit or a payload."""
    if tree_id == 1:
        return ecb
    if tree_id == 2:
        return np.where(c == 3, ecb, 0)
    if tree_id in (3, 5):
        return np.where(c == levels, 1, ecb)
    return c


def _planar_values(
    c: np.ndarray, tail: np.ndarray, ecb: np.ndarray, levels: np.ndarray, tree_id: int
) -> np.ndarray:
    """Inverse of :func:`_planar_codes` for tokens of class ``c >= 1``.

    ``tail`` holds the tails as int64.
    """
    escape = tail - np.left_shift(np.int64(1), ecb - 1)
    if tree_id == 1:
        return escape
    if tree_id == 2:
        return np.where(c == 1, 1, np.where(c == 2, -1, escape))
    if tree_id in (3, 5):
        return np.where(c == levels, 1 - 2 * tail, escape)
    half = np.left_shift(np.int64(1), c - 1)
    neg = tail >= half
    return np.where(neg, -tail, tail + half)


def add_ecq_planar(
    words: np.ndarray,
    ecq2d: np.ndarray,
    ecb_rows: np.ndarray,
    starts: np.ndarray,
    tree_id: int,
) -> None:
    """Add the planar dense segment of each row of ``ecq2d`` into ``words``.

    ``ecq2d`` is a C-contiguous ``(n_rows, n)`` matrix; ``ecb_rows[i]`` is
    row *i*'s EC_b,max and ``starts[i]`` the stream bit where its segment
    starts, in the word layout of :func:`repro.bitio.writer.add_fields`.
    A segment holds the bits of the row's tree codewords, prefix planes
    first, then tails, so its length is the row's
    :func:`encoded_size_bits_batch`.  Plane 0 goes in as packed words.  Of
    the later planes only the 1-bits are written, and every tail is one
    field, placed by one prefix sum over the tail widths.  No loop runs
    over rows; the caller bounds the temporaries by passing at most
    :data:`PLANAR_CHUNK` tokens.
    """
    n_rows, n = ecq2d.shape
    nzm = ecq2d != 0
    # Plane 0, each row padded with zeros to whole 64-bit words.
    plane0 = np.zeros((n_rows, -(-n // 64) * 8), dtype=np.uint8)
    plane0[:, : -(-n // 8)] = np.packbits(nzm, axis=1)
    add_fields(words, starts[:, None] + np.arange(0, n, 64), plane0.view(">u8"), 64)
    tok = np.flatnonzero(nzm)
    v = ecq2d.reshape(-1).take(tok)  # nonzero tokens, row-major
    bounds = tok.searchsorted(np.arange(0, (n_rows + 1) * n, n))
    first, cnt = bounds[:-1], np.diff(bounds)  # each row's nonzero tokens
    levels = _planar_levels(ecb_rows, tree_id)
    lv = np.repeat(levels.astype(v.dtype), cnt)
    c, tail, w = _planar_codes(v, np.repeat(ecb_rows.astype(v.dtype), cnt), lv, tree_id)
    at = starts + n  # where each row's next section starts
    for j in range(1, int(levels.max(initial=1))):
        # Plane j holds a bit for each token with c >= j of a row with
        # more than j planes; the bit is 1 where c > j.
        ones = np.flatnonzero(c > j)
        if j == 1:  # every nonzero token of a row that has a plane 1
            add_fields(words, np.repeat(at - first, cnt).take(ones) + ones, 1, 1)
            at = at + (levels > 1) * cnt
            continue
        on = np.zeros(v.size + 1, dtype=np.int64)
        np.cumsum((c >= j) & (lv > j), out=on[1:])
        add_fields(words, np.repeat(at - on[first], cnt).take(ones) + on.take(ones), 1, 1)
        at = at + on[first + cnt] - on[first]
    cs = np.zeros(v.size + 1, dtype=np.int64)
    np.cumsum(w, out=cs[1:])  # tails follow the last plane, in token order
    add_fields(words, np.repeat(at - cs[first], cnt) + cs[:-1], tail, w)


def skip_planar_segment(sc: FieldScanner, n: int, ecb: int, tree_id: int) -> None:
    """Advance ``sc`` past one ``n``-token planar segment, decoding nothing.

    Plane lengths are popcounts of the plane before; each is checked
    against the remaining bits before it is read, and so is the tail run.
    ``g_c`` below counts the tokens whose prefix has at least c ones.
    """
    g1 = sc.count_ones(n)
    if tree_id == 1:
        tail = g1 * ecb
    elif tree_id == 2:
        tail = sc.count_ones(sc.count_ones(g1)) * ecb
    elif tree_id == 4:
        # class c carries c tail bits, and sum_c c*(g_c - g_c+1) = sum_c g_c
        tail = g = g1
        for _ in range(ecb - 2):
            if not g:
                break
            g = sc.count_ones(g)
            tail += g
    elif tree_id == 5 and ecb == 2:
        tail = g1
    else:  # tree 3, and tree 5 above EC_b,max = 2: g1 - g2 escapes, g2 signs
        g2 = sc.count_ones(g1)
        tail = (g1 - g2) * ecb + g2
    sc.skip(tail)


def decode_ecq_planar(
    bits: np.ndarray,
    packed: np.ndarray,
    starts: np.ndarray,
    ecb_rows: np.ndarray,
    tree_id: int,
    out: np.ndarray,
) -> np.ndarray:
    """Decode planar segments at bit offsets ``starts`` into rows of ``out``.

    ``out`` is a zeroed ``(len(starts), n)`` int64 matrix; ``bits`` is the
    unpacked stream and ``packed`` its bytes plus at least 7 zero guard
    bytes.  Each chunk of rows reads plane 0 of every row and finds the
    tokens that go on with ``nonzero``.  Plane j of a row is one
    contiguous run holding a bit for each of the row's tokens that reach
    it, in token order, so every plane is read as row slices, like plane
    0.  One prefix sum then places every tail, and one window gather
    reads them all.  Per-row values (EC_b,max, prefix planes, tail start)
    enter the token arithmetic as scalars when the chunk's rows share
    them, and are repeated per token only when they differ.  The caller
    must have bounds-checked each segment (:func:`skip_planar_segment`).
    Returns each segment's end offset.
    """
    n_rows, n = out.shape
    ecb_rows = np.asarray(ecb_rows, dtype=np.int64)
    levels = _planar_levels(ecb_rows, tree_id)
    ends = np.empty(n_rows, dtype=np.int64)
    step = max(1, PLANAR_CHUNK // max(n, 1))
    for r0 in range(0, n_rows, step):
        r1 = min(r0 + step, n_rows)
        off = starts[r0:r1].tolist()
        if r1 - r0 == 1:
            plane0 = bits[off[0] : off[0] + n]
        else:
            plane0 = np.concatenate([bits[s : s + n] for s in off])
        tok = plane0.view(np.bool_).nonzero()[0]  # tokens that go on
        bounds = tok.searchsorted(np.arange(0, (r1 - r0 + 1) * n, n))  # row runs
        cnt = bounds[1:] - bounds[:-1]
        off = [s + n for s in off]
        lv_rows, ecb_r = levels[r0:r1], ecb_rows[r0:r1]
        if (ecb_r == ecb_r[0]).all():  # one EC_b,max: scalars broadcast
            lv, ecb = lv_rows[0], ecb_r[0]
        else:
            lv, ecb = lv_rows.repeat(cnt), ecb_r.repeat(cnt)
        c = np.ones(tok.size, dtype=np.int64)  # leading ones of each prefix
        # Plane 1 is read by every token of a row that has one; act lists
        # the tokens reading the current plane (None: all of them).
        top = int(lv_rows.max())
        if top > 1:
            has1 = lv_rows > 1
            run = np.where(has1, cnt, 0).tolist()
            act = None if has1.all() else np.flatnonzero(lv > 1)
        j = 1
        while j < top:
            b = np.concatenate([bits[o : o + k] for o, k in zip(off, run)])
            off = [o + k for o, k in zip(off, run)]
            if act is None:
                c += b
            else:
                c[act] += b
            j += 1
            if j == top:
                break
            act = np.flatnonzero(b.view(np.bool_)) if act is None else act[b.view(np.bool_)]
            act = act[np.broadcast_to(lv, c.shape)[act] > j]
            run = np.diff(act.searchsorted(bounds)).tolist()
        w = np.broadcast_to(_planar_tail_widths(c, ecb, lv, tree_id), c.shape)
        # Tails follow the last plane, row by row, in token order.
        cs = np.empty(tok.size + 1, dtype=np.int64)
        cs[0] = 0
        np.cumsum(w, out=cs[1:])
        row0 = cs[bounds[:-1]]
        off = np.asarray(off, dtype=np.int64)
        shift = off - row0
        pos = cs[:-1] + (shift[0] if r1 - r0 == 1 else shift.repeat(cnt))
        tail = gather_bit_windows_var(packed, pos, w).view(np.int64)
        out[r0:r1].reshape(-1)[tok] = _planar_values(c, tail, ecb, lv, tree_id)
        ends[r0:r1] = off + cs[bounds[1:]] - row0
    return ends


# ---------------------------------------------------------------------------
# Version-1 decoding (interleaved codewords): a prefix scan — token lengths
# at every offset of a bounded window, then pointer jumping.
# ---------------------------------------------------------------------------


def _max_token_len(ecb: int, tree_id: int) -> int:
    return {1: 1 + ecb, 2: 3 + ecb, 3: 3 + ecb, 4: 2 * (ecb - 1), 5: 3 + ecb}[tree_id]


def decode_ecq(
    bits: np.ndarray,
    start: int,
    n: int,
    ecb: int,
    tree_id: int,
    scan_limit: int | None = None,
) -> tuple[np.ndarray, int]:
    """Decode ``n`` ECQ values from ``bits`` starting at bit ``start``.

    Returns ``(values, end_bit_offset)``.  The scan is bounded by
    ``n × max_token_length`` so per-block decode cost is independent of the
    total stream length.  ``scan_limit`` optionally tightens that bound
    further: the scan then costs O(scan_limit) instead of O(n × max_len),
    and raises :class:`FormatError` if the segment does not fit — a
    *successful* bounded scan is always exact, because every token length is
    decided by bits inside the token itself (prefix property), so a scan
    that ends within the bound never consulted padding.
    :class:`ECQDecoder` exploits this with an adaptive guess-and-retry.
    """
    _check_ecb(ecb)
    if tree_id not in TREE_IDS:
        raise ParameterError(f"unknown tree id {tree_id}")
    if n == 0:
        return np.zeros(0, dtype=np.int64), start
    bound = min(bits.size - start, n * _max_token_len(ecb, tree_id))
    if scan_limit is not None:
        bound = min(bound, scan_limit)

    if tree_id == 5:
        # Tree 5's small-range branch is identical to tree 4 at EC_b = 2.
        tree_id = 4 if ecb == 2 else 3
    view = bits[start : start + bound]

    # The length callbacks receive offsets 0..W-1 (decode_prefix_stream's
    # contract), so b[off + k] is just the contiguous slice b[k : k + W] —
    # plain views instead of fancy-index gathers.
    if tree_id == 1:
        def length_fn(b, off):
            return np.where(b[: off.size] == 0, 1, 1 + ecb)
        lookahead = 1
    elif tree_id == 2:
        def length_fn(b, off):
            w = off.size
            b0, b1, b2 = b[:w], b[1 : 1 + w], b[2 : 2 + w]
            return np.where(b0 == 0, 1, np.where(b1 == 0, 2, np.where(b2 == 0, 3, 3 + ecb)))
        lookahead = 3
    elif tree_id == 3:
        def length_fn(b, off):
            w = off.size
            b0, b1 = b[:w], b[1 : 1 + w]
            return np.where(b0 == 0, 1, np.where(b1 == 0, 2 + ecb, 3))
        lookahead = 2
    else:  # tree 4
        def length_fn(b, off):
            w = off.size
            ones = np.zeros(w, dtype=np.int64)
            alive = np.ones(w, dtype=bool)
            for k in range(ecb - 1):
                alive &= b[k : k + w] == 1
                ones += alive
            top = ones == ecb - 1
            return np.where(top, 2 * (ecb - 1), 2 * ones + 1)
        lookahead = ecb - 1

    positions, lengths = decode_prefix_stream(view, 0, n, length_fn, lookahead)
    end = int(positions[-1] + lengths[-1])
    if end > bound:
        raise FormatError("ECQ segment overruns its bound")

    values = np.zeros(n, dtype=np.int64)
    padded = np.concatenate([view, np.zeros(_max_token_len(ecb, tree_id), dtype=np.uint8)])

    if tree_id == 1:
        others = lengths == 1 + ecb
        if others.any():
            payload = gather_bit_windows(padded, positions[others] + 1, ecb)
            values[others] = _offset_decode(payload, ecb)
    elif tree_id == 2:
        values[lengths == 2] = 1
        values[lengths == 3] = -1
        others = lengths == 3 + ecb
        if others.any():
            payload = gather_bit_windows(padded, positions[others] + 3, ecb)
            values[others] = _offset_decode(payload, ecb)
    elif tree_id == 3:
        three = lengths == 3
        if three.any():
            sign_bit = padded[positions[three] + 2]
            values[three] = 1 - 2 * sign_bit.astype(np.int64)
        others = lengths == 2 + ecb
        if others.any():
            payload = gather_bit_windows(padded, positions[others] + 2, ecb)
            values[others] = _offset_decode(payload, ecb)
    else:  # tree 4
        top = lengths == 2 * (ecb - 1)
        bins = np.where(top, ecb, (lengths + 1) // 2)
        nz = bins > 1
        if nz.any():
            w = (bins[nz] - 1).astype(np.int64)
            pay_start = positions[nz] + np.where(top[nz], ecb - 1, bins[nz])
            # Gather at the widest payload width, then shift down per value.
            wmax = int(w.max())
            raw = gather_bit_windows(padded, pay_start, wmax)
            payload = (raw >> (wmax - w).astype(np.uint64)).astype(np.uint64)
            half = np.uint64(1) << (w - 1).astype(np.uint64)
            neg = payload >= half
            # s=0: payload = m - half;  s=1: payload = m  (m = |value|)
            mag = (payload + half * (~neg).astype(np.uint64)).astype(np.int64)
            values[nz] = np.where(neg, -mag, mag)
    return values, start + end


class ECQDecoder:
    """Stateful ECQ segment decoder with adaptive scan bounds.

    :func:`decode_ecq` must scan up to ``n × max_token_length`` bits per
    segment because the segment length is not stored; on real ERI data the
    average token is ~3-5 bits, so the worst-case window over-scans by
    5-10x.  This decoder tracks a running bits-per-symbol estimate across
    segments of one stream and first tries a scan bounded by ~1.5x that
    estimate, falling back to the full window only when the optimistic
    bound fails (the bounded scan is exact whenever it succeeds — see
    :func:`decode_ecq`).  The decompressor's index pass holds one instance
    per version-1 stream.
    """

    #: Initial fill-ratio guess (avg token bits / max token bits) and the
    #: headroom factor applied on top of the running estimate.
    _INITIAL_FILL = 0.6
    _HEADROOM = 1.25

    def __init__(
        self, bits: np.ndarray, tree_id: int, hints: dict[int, float] | None = None
    ) -> None:
        if tree_id not in TREE_IDS:
            raise ParameterError(f"unknown tree id {tree_id}")
        self._bits = bits
        self._tree_id = tree_id
        # Bits/symbol varies strongly with EC_b,max, so track one average
        # per ecb value, seeded from a tree-wide fill-ratio estimate.  A
        # caller decoding many streams of similar data can pass a shared
        # ``hints`` dict so estimates persist across streams; stale hints
        # only cost a bounded-scan retry, never correctness.
        self._avg_by_ecb: dict[int, float] = {} if hints is None else hints
        self._fill = self._INITIAL_FILL

    def decode(self, start: int, n: int, ecb: int) -> tuple[np.ndarray, int]:
        """Decode one ``n``-symbol segment at ``start``; returns ``(values, end)``."""
        _check_ecb(ecb)
        if n == 0:
            return np.zeros(0, dtype=np.int64), start
        max_len = _max_token_len(ecb, self._tree_id)
        full = n * max_len
        avg = self._avg_by_ecb.get(ecb)
        if avg is None and self._avg_by_ecb:
            # First sighting of this ecb: extrapolate from the nearest seen
            # value — bits/symbol grows roughly linearly with the payload
            # width, so scale by the escape-token lengths.
            near = min(self._avg_by_ecb, key=lambda seen: abs(seen - ecb))
            avg = self._avg_by_ecb[near] * (2.0 + ecb) / (2.0 + near)
        if avg is None:
            avg = self._fill * max_len
        guess = int(avg * self._HEADROOM * n) + 256
        while True:
            limit = guess if guess < full else None
            try:
                values, end = decode_ecq(
                    self._bits, start, n, ecb, self._tree_id, scan_limit=limit
                )
                break
            except FormatError:
                if limit is None:
                    raise  # full-window scan failed: genuinely corrupt
                guess *= 4  # bound too tight; grow geometrically, not to full
        seen = (end - start) / n
        prev = self._avg_by_ecb.get(ecb)
        self._avg_by_ecb[ecb] = seen if prev is None else prev + 0.3 * (seen - prev)
        self._fill += 0.2 * (seen / max_len - self._fill)
        return values, end
