"""Reference coders the tests hold the batched PaSTRI encoder against.

* :func:`encode_ecq` codes a flat ECQ array symbol by symbol with the five
  trees of paper Fig. 7, as ``(codewords, bit_lengths)``.
* :func:`planar_bits` reorders a row's codewords into its stream-version-2
  dense segment: prefix planes, then tails.
* :func:`oracle_blob` writes a whole PaSTRI stream one block at a time:
  each block's coding decisions come from the codec's numeric front run on
  that block alone, fixed-width fields are Python ints, and dense segments
  are :func:`planar_bits`.  It shares no emission code with the codec.
"""

from __future__ import annotations

import numpy as np

from repro.core import header as fmt
from repro.core.quantize import ecq_bin_numbers
from repro.core.trees import TREE_IDS
from repro.errors import ParameterError


def _offset_encode(values: np.ndarray, nbits: int) -> np.ndarray:
    """Signed → offset-binary payloads (value + 2^(nbits-1)) as uint64."""
    return (values + (1 << (nbits - 1))).astype(np.uint64)


def _encode_tree1(ecq: np.ndarray, ecb: int) -> tuple[np.ndarray, np.ndarray]:
    zero = ecq == 0
    codes = (np.uint64(1) << np.uint64(ecb)) | _offset_encode(ecq, ecb)
    codes[zero] = 0
    lengths = np.where(zero, 1, 1 + ecb).astype(np.int64)
    return codes, lengths


def _encode_tree2(ecq: np.ndarray, ecb: int) -> tuple[np.ndarray, np.ndarray]:
    codes = (np.uint64(0b111) << np.uint64(ecb)) | _offset_encode(ecq, ecb)
    lengths = np.full(ecq.shape, 3 + ecb, dtype=np.int64)
    for value, code, ln in ((0, 0b0, 1), (1, 0b10, 2), (-1, 0b110, 3)):
        m = ecq == value
        codes[m] = code
        lengths[m] = ln
    return codes, lengths


def _encode_tree3(ecq: np.ndarray, ecb: int) -> tuple[np.ndarray, np.ndarray]:
    codes = (np.uint64(0b10) << np.uint64(ecb)) | _offset_encode(ecq, ecb)
    lengths = np.full(ecq.shape, 2 + ecb, dtype=np.int64)
    for value, code, ln in ((0, 0b0, 1), (1, 0b110, 3), (-1, 0b111, 3)):
        m = ecq == value
        codes[m] = code
        lengths[m] = ln
    return codes, lengths


def _encode_tree4(ecq: np.ndarray, ecb: int) -> tuple[np.ndarray, np.ndarray]:
    bins = ecq_bin_numbers(ecq)
    if int(bins.max(initial=1)) > ecb:
        raise ParameterError("ECQ value outside the EC_b range for tree 4")
    a = np.abs(ecq).astype(np.uint64)
    neg = (ecq < 0).astype(np.uint64)
    w = (bins - 1).astype(np.uint64)  # payload width per value (0 for the 0 bin)
    # payload = sign * 2^(w-1) + (|v| - 2^(w-1)); for w = 0 it is empty.
    half = np.where(w > 0, np.uint64(1) << (w - np.uint64(1) * (w > 0)), np.uint64(0))
    payload = np.where(w > 0, neg * half + (a - half), np.uint64(0))
    top = bins == ecb
    # prefix: (bin-1) ones then a 0 terminator, except the top bin which is
    # exhaustive and drops the terminator.
    prefix_len = np.where(top, ecb - 1, bins).astype(np.int64)
    prefix = np.where(
        top,
        (np.uint64(1) << np.uint64(ecb - 1)) - np.uint64(1),
        ((np.uint64(1) << bins.astype(np.uint64)) - np.uint64(1)) - np.uint64(1),
    )
    # `prefix` for non-top bin i: i-1 ones + trailing 0 == (2^i - 1) - 1.
    codes = (prefix << w) | payload
    lengths = prefix_len + w.astype(np.int64)
    zero = bins == 1
    codes[zero] = 0
    lengths[zero] = 1
    return codes, lengths


def _encode_tree5(ecq: np.ndarray, ecb: int) -> tuple[np.ndarray, np.ndarray]:
    if ecb == 2:
        return _encode_tree4(ecq, 2)  # '0', '10', '11' — the optimal 3-leaf tree
    return _encode_tree3(ecq, ecb)


_ENCODERS = {1: _encode_tree1, 2: _encode_tree2, 3: _encode_tree3, 4: _encode_tree4, 5: _encode_tree5}


def encode_ecq(ecq: np.ndarray, ecb: int, tree_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Encode a flat ECQ array; returns ``(codewords, bit_lengths)``."""
    if not 2 <= ecb <= 40:
        raise ParameterError(f"EC_b must be in [2, 40], got {ecb}")
    if tree_id not in TREE_IDS:
        raise ParameterError(f"unknown tree id {tree_id}")
    return _ENCODERS[tree_id](np.ascontiguousarray(ecq, dtype=np.int64), ecb)


def levels(tree_id: int, ecb: int) -> int:
    """Longest codeword prefix (the tree shape, paper Fig. 7)."""
    return {1: 1, 2: 3, 3: 2, 4: ecb - 1, 5: 1 if ecb == 2 else 2}[tree_id]


def planar_bits(row: np.ndarray, ecb: int, tree_id: int) -> str:
    """The row's planar dense segment as a '0'/'1' string.

    Its :func:`encode_ecq` codewords reordered: a prefix is the codeword's
    leading 1-bits plus the 0 that ends them, or ``L`` 1-bits when it has
    the tree's full length ``L``; plane j holds bit j of every prefix
    longer than j, in token order, then every tail follows in token order.
    """
    codes, lengths = encode_ecq(row, ecb, tree_id)
    words = [format(int(c), f"0{int(n)}b") for c, n in zip(codes, lengths)]
    top = levels(tree_id, ecb)
    cut = [min(len(wd) - len(wd.lstrip("1")) + 1, top) for wd in words]
    planes = "".join(wd[j] for j in range(top) for wd, k in zip(words, cut) if k > j)
    return planes + "".join(wd[k:] for wd, k in zip(words, cut))


def _uint(value: int, width: int) -> str:
    return format(int(value), f"0{width}b") if width else ""


def oracle_blob(codec, data: np.ndarray, eb: float) -> bytes:
    """One PaSTRI stream written block by block (see the module docstring)."""
    data = np.asarray(data, dtype=np.float64).ravel()
    spec = codec.spec
    N = spec.block_size
    idx_bits = max(1, (N - 1).bit_length())
    n_blocks, n_tail = divmod(data.size, N)
    parts = []
    for b in range(n_blocks):
        block = data[b * N : (b + 1) * N]
        f = codec._front(block, eb)
        kind = int(f.kinds[0])
        parts.append(_uint(kind, 2))
        if kind == fmt.KIND_RAW:
            parts.extend(_uint(u, 64) for u in block.view(np.uint64))
        if kind != fmt.KIND_PATTERNED:
            continue
        pb, ecb = int(f.p_b[0]), int(f.ecb[0])
        half = 1 << (pb - 1)
        parts.append(_uint(pb, 6))
        parts.extend(_uint(v + half, pb) for v in f.pq[0].tolist() + f.sq[0].tolist())
        parts.append(_uint(ecb, 6))
        if ecb < 2:
            continue
        row = f.ecq[0].astype(np.int64)
        if f.sparse[0]:
            parts.append("1")
            nz = np.flatnonzero(row)
            parts.append(_uint(nz.size, N.bit_length()))
            parts.extend(
                _uint(i, idx_bits) + _uint(row[i] + (1 << (ecb - 1)), ecb) for i in nz
            )
        else:
            parts.append("0")
            parts.append(planar_bits(row, ecb, codec.tree_id))
    parts.extend(_uint(u, 64) for u in data[n_blocks * N :].view(np.uint64))
    bits = "".join(parts)
    bits += "0" * (-len(bits) % 8)
    body = int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""
    head = fmt.pack_header(fmt.StreamHeader(
        error_bound=eb, spec=spec, n_blocks=n_blocks, n_tail=n_tail,
        tree_id=codec.tree_id, metric=codec.metric,
    ))
    return head + body
