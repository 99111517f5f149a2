"""PaSTRI stream format: global header and per-block field layout.

Layout (all fields MSB-first in one contiguous bitstream)::

    global header (256 bits = 32 bytes):
        magic        32 bits   'PSTR'
        version       8 bits   2 (written); 1 and 2 are read
        tree_id       4 bits
        metric        4 bits   (ScalingMetric index)
        error bound  64 bits   (IEEE-754 double)
        N1..N4      4 × 16 bits
        n_blocks     48 bits
        n_tail       32 bits   (trailing elements stored raw at the end)

    per block:
        kind          2 bits   0 = all-zero, 1 = patterned, 2 = raw
        patterned blocks:
            P_b             6 bits
            PQ       sb_size × P_b bits   (offset binary)
            SQ       num_sb × P_b bits    (offset binary; S_b = P_b)
            EC_b,max        6 bits
            if EC_b,max >= 2:
                sparse flag 1 bit
                dense:  block_size tree-coded ECQ tokens
                sparse: NOL in ceil(log2(block_size+1)) bits, then NOL ×
                        (index in ceil(log2(block_size)) bits +
                         value in EC_b,max offset-binary bits)
        raw blocks:
            block_size × 64 bits (IEEE doubles)

    tail: n_tail × 64 bits (IEEE doubles)

The two versions differ only in the order of a dense segment's bits.
Version 1 writes each token's codeword whole, token after token, so a
segment's end is known only by decoding it.  Version 2 writes the same
codewords *planar*: plane j holds bit j of every token whose prefix is
longer than j, in token order, then every tail (sign bit or payload)
follows in token order.  Each plane's length is the popcount of the plane
before it, so the index pass walks scalar fields only and the decoder
reads all dense segments in one batched pass (see
:mod:`repro.core.trees`).  Both versions spend exactly the same bits.

Every global-header field ends on a byte boundary, so the header is one
big-endian ``struct`` (``>IBBd4HHII``: tree_id and metric share a byte,
n_blocks is split into its high 16 and low 32 bits) and the block fields
start at byte 32.

The per-block metadata is the paper's "tiny portion of the output data,
typically less than 0.5%, [of] bookkeeping bits".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.blocking import BlockSpec
from repro.core.scaling import ScalingMetric
from repro.core.trees import TREE_IDS
from repro.errors import FormatError, ParameterError

MAGIC = 0x50535452  # 'PSTR'
#: Version written by this build: 2 = planar dense ECQ segments.
VERSION = 2
#: Each readable version's dense ECQ layout, as named in listings.
LAYOUT_NAMES = {1: "interleaved ECQ", 2: "planar ECQ"}
#: Versions this build reads.
READ_VERSIONS = tuple(LAYOUT_NAMES)

#: Per-block kind codes.
KIND_ZERO = 0
KIND_PATTERNED = 1
KIND_RAW = 2

_METRIC_ORDER = [m for m in ScalingMetric]

#: Bits of per-block metadata, by kind (kind tag + widths above).
BLOCK_HEADER_BITS_PATTERNED = 2 + 6 + 6 + 1  # kind + P_b + EC_b,max + sparse flag
BLOCK_HEADER_BITS_SIMPLE = 2

_LAYOUT = struct.Struct(">IBBd4HHII")


@dataclass(frozen=True)
class StreamHeader:
    """Parsed global header of a PaSTRI stream.

    ``version`` is what :func:`unpack_header` found; :func:`pack_header`
    writes only :data:`VERSION`, the one layout this build emits.
    """

    error_bound: float
    spec: BlockSpec
    n_blocks: int
    n_tail: int
    tree_id: int
    metric: ScalingMetric
    version: int = VERSION

    #: Size of the global header in bits.
    NBITS = 8 * _LAYOUT.size


def pack_header(hdr: StreamHeader) -> bytes:
    """Serialise the global header to its 32 bytes."""
    if hdr.version != VERSION:
        raise ParameterError(
            f"this build writes PaSTRI stream version {VERSION}, not {hdr.version}"
        )
    try:
        return _LAYOUT.pack(
            MAGIC, VERSION, (hdr.tree_id << 4) | _METRIC_ORDER.index(hdr.metric),
            hdr.error_bound, *hdr.spec.dims,
            hdr.n_blocks >> 32, hdr.n_blocks & 0xFFFFFFFF, hdr.n_tail,
        )
    except struct.error as exc:
        raise ParameterError(
            "stream header field out of range (block dims < 2^16, "
            f"n_blocks < 2^48, n_tail < 2^32): {exc}"
        ) from None


def unpack_header(buf) -> StreamHeader:
    """Parse and validate the global header at the start of ``buf``."""
    if len(buf) < _LAYOUT.size:
        raise FormatError(
            f"truncated PaSTRI header: need {_LAYOUT.size} bytes, have {len(buf)}"
        )
    (magic, version, tree_metric, eb, n1, n2, n3, n4,
     nb_hi, nb_lo, n_tail) = _LAYOUT.unpack_from(buf)
    if magic != MAGIC:
        raise FormatError("not a PaSTRI stream (bad magic)")
    if version not in READ_VERSIONS:
        raise FormatError(f"unsupported PaSTRI stream version {version}")
    tree_id, metric_idx = tree_metric >> 4, tree_metric & 0xF
    if tree_id not in TREE_IDS:
        raise FormatError(f"bad tree id {tree_id}")
    if metric_idx >= len(_METRIC_ORDER):
        raise FormatError(f"bad metric index {metric_idx}")
    if not (eb > 0):
        raise FormatError(f"bad error bound {eb}")
    dims = (n1, n2, n3, n4)
    if 0 in dims:
        raise FormatError(f"bad block dims {dims}")
    return StreamHeader(
        error_bound=eb,
        spec=BlockSpec(dims),
        n_blocks=(nb_hi << 32) | nb_lo,
        n_tail=n_tail,
        tree_id=tree_id,
        metric=_METRIC_ORDER[metric_idx],
        version=version,
    )
