"""Canonical, length-limited Huffman coding for the SZ baseline.

Codes are canonical (assigned from sorted (length, symbol) order), so the
stream only needs the per-symbol code lengths.  Decoding is vectorised: a
``2^maxlen`` lookup table maps every ``maxlen``-bit window to (symbol,
length), and token boundaries are resolved with the pointer-jumping prefix
decoder — no per-symbol Python loop.

The code-length limit (default 16) keeps the lookup table small; when the
optimal tree is deeper, frequencies are iteratively flattened (a standard
approximation to package-merge with negligible ratio cost on SZ's skewed
quantization-code histograms).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.bitio import BitReader, BitWriter
from repro.bitio.vlc import decode_prefix_stream, sliding_windows_u16
from repro.errors import FormatError, ParameterError

MAX_CODE_LEN = 16


def _tree_lengths(freqs: np.ndarray) -> np.ndarray:
    """Optimal prefix code lengths for positive frequencies (Huffman)."""
    n = freqs.size
    if n == 1:
        return np.array([1], dtype=np.int64)
    heap = [(int(f), i, None) for i, f in enumerate(freqs)]
    heapq.heapify(heap)
    tick = n
    parent: dict[int, tuple] = {}
    while len(heap) > 1:
        f1, k1, _ = heapq.heappop(heap)
        f2, k2, _ = heapq.heappop(heap)
        node = tick
        tick += 1
        parent[k1] = node
        parent[k2] = node
        heapq.heappush(heap, (f1 + f2, node, None))
    root = heap[0][1]
    depth: dict[int, int] = {root: 0}
    # Nodes were created in increasing id order; walk down by decreasing id.
    lengths = np.zeros(n, dtype=np.int64)
    for k in sorted(parent, reverse=True):
        depth[k] = depth[parent[k]] + 1
        if k < n:
            lengths[k] = depth[k]
    return lengths


def code_lengths(freqs: np.ndarray, max_len: int = MAX_CODE_LEN) -> np.ndarray:
    """Length-limited code lengths for the present symbols (freq > 0)."""
    freqs = np.asarray(freqs, dtype=np.int64)
    if (freqs < 0).any():
        raise ParameterError("negative frequency")
    present = np.flatnonzero(freqs)
    if present.size == 0:
        raise ParameterError("no symbols to code")
    sub = freqs[present].astype(np.float64)
    # A limit below the balanced-tree depth is unsatisfiable; widen it.
    max_len = max(max_len, int(np.ceil(np.log2(max(present.size, 2)))))
    lengths_sub = _tree_lengths(sub)
    # Flatten the distribution until the depth limit is met: raising every
    # frequency to total/2^(L-1) bounds the optimal depth near L directly.
    while int(lengths_sub.max()) > max_len:
        sub = np.maximum(sub, sub.sum() / 2.0 ** (max_len - 1)) + 1.0
        lengths_sub = _tree_lengths(sub)
    out = np.zeros(freqs.size, dtype=np.int64)
    out[present] = lengths_sub
    return out


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codewords (right-aligned uint64) from lengths."""
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.uint64)
    present = np.flatnonzero(lengths)
    order = present[np.lexsort((present, lengths[present]))]
    code = 0
    prev_len = 0
    for sym in order:
        ln = int(lengths[sym])
        code <<= ln - prev_len
        codes[sym] = code
        code += 1
        prev_len = ln
    return codes


@dataclass
class HuffmanCode:
    """A canonical Huffman code over the alphabet ``0 .. n_symbols-1``."""

    lengths: np.ndarray
    codes: np.ndarray

    @classmethod
    def from_frequencies(cls, freqs: np.ndarray, max_len: int = MAX_CODE_LEN) -> "HuffmanCode":
        lengths = code_lengths(freqs, max_len)
        return cls(lengths=lengths, codes=canonical_codes(lengths))

    @property
    def n_symbols(self) -> int:
        return self.lengths.size

    @property
    def max_len(self) -> int:
        return int(self.lengths.max())

    def encode(self, w: BitWriter, symbols: np.ndarray) -> int:
        """Append the coded symbol stream (fully vectorised); returns bits written."""
        symbols = np.asarray(symbols, dtype=np.int64)
        lens = self.lengths[symbols]
        if (lens == 0).any():
            raise ParameterError("symbol with no codeword in stream")
        w.write_varlen_array(self.codes[symbols], lens)
        return int(lens.sum())

    def decode(
        self, bits: np.ndarray, start: int, n: int, payload_bits: int | None = None
    ) -> tuple[np.ndarray, int]:
        """Decode ``n`` symbols from offset ``start``; returns (symbols, end).

        ``payload_bits`` (written by the encoder) bounds the scan exactly;
        without it the worst-case bound ``n · max_len`` is used.
        """
        if n == 0:
            return np.zeros(0, dtype=np.int64), start
        W = self.max_len
        table_sym = np.zeros(1 << W, dtype=np.int64)
        table_len = np.zeros(1 << W, dtype=np.int64)
        for sym in np.flatnonzero(self.lengths):
            ln = int(self.lengths[sym])
            base = int(self.codes[sym]) << (W - ln)
            span = 1 << (W - ln)
            table_sym[base : base + span] = sym
            table_len[base : base + span] = ln

        bound = n * W if payload_bits is None else payload_bits
        bound = min(bits.size - start, bound)
        view = bits[start : start + bound]
        windows = sliding_windows_u16(view, W)

        def length_fn(b: np.ndarray, off: np.ndarray) -> np.ndarray:
            ln = table_len[windows]
            # Offsets the jump chain never lands on may hold invalid windows;
            # give them unit length to keep the functional graph total.
            np.maximum(ln, 1, out=ln)
            return ln

        positions, lengths = decode_prefix_stream(view, 0, n, length_fn, W)
        symbols = table_sym[windows[positions]]
        end = int(positions[-1] + lengths[-1])
        if end > bound:
            raise FormatError("Huffman stream overruns its bound")
        return symbols, start + end

    # -- table serialisation -------------------------------------------------

    def write_table(self, w: BitWriter) -> None:
        """Serialise the code: alphabet size plus per-symbol lengths.

        Uses whichever of two layouts is smaller: *dense* (5 bits per
        alphabet symbol) or *sparse* ((symbol, length) pairs for present
        symbols only) — SZ streams usually populate a tiny fraction of the
        quantization alphabet.
        """
        w.write_uint(self.n_symbols, 24)
        present = np.flatnonzero(self.lengths)
        dense_bits = 5 * self.n_symbols
        sparse_bits = 24 + present.size * (24 + 5)
        if sparse_bits < dense_bits:
            w.write_bit(1)
            w.write_uint(present.size, 24)
            packed = (present.astype(np.uint64) << np.uint64(5)) | self.lengths[present].astype(np.uint64)
            w.write_uint_array(packed, 29)
        else:
            w.write_bit(0)
            w.write_uint_array(self.lengths.astype(np.uint64), 5)

    @classmethod
    def read_table(cls, r: BitReader) -> "HuffmanCode":
        n = r.read_uint(24)
        if n == 0:
            raise FormatError("empty Huffman table")
        if r.read_bit():
            n_present = r.read_uint(24)
            packed = r.read_uint_array(n_present, 29)
            lengths = np.zeros(n, dtype=np.int64)
            syms = (packed >> np.uint64(5)).astype(np.int64)
            if n_present and int(syms.max()) >= n:
                raise FormatError("corrupt sparse Huffman table")
            lengths[syms] = (packed & np.uint64(31)).astype(np.int64)
        else:
            lengths = r.read_uint_array(n, 5).astype(np.int64)
        # No length may exceed what code_lengths emits for this many present
        # symbols: a corrupt one would size decode()'s 2^max_len tables.
        present = int(np.count_nonzero(lengths))
        limit = max(MAX_CODE_LEN, int(np.ceil(np.log2(max(present, 2)))))
        if present == 0 or int(lengths.max()) > limit:
            raise FormatError("corrupt Huffman table")
        return cls(lengths=lengths, codes=canonical_codes(lengths))
