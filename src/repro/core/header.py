"""PaSTRI stream format: global header and per-block field layout.

Layout (all fields MSB-first in one contiguous bitstream)::

    global header:
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

The per-block metadata is the paper's "tiny portion of the output data,
typically less than 0.5%, [of] bookkeeping bits".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bitio import BitReader, BitWriter
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


@dataclass(frozen=True)
class StreamHeader:
    """Parsed global header of a PaSTRI stream.

    ``version`` is what :func:`read_header` found; :func:`write_header`
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
    NBITS = 32 + 8 + 4 + 4 + 64 + 4 * 16 + 48 + 32


def write_header(w: BitWriter, hdr: StreamHeader) -> None:
    """Serialise the global header."""
    if any(d >= (1 << 16) for d in hdr.spec.dims):
        raise ParameterError("block dims exceed the 16-bit header fields")
    if hdr.version != VERSION:
        raise ParameterError(
            f"this build writes PaSTRI stream version {VERSION}, not {hdr.version}"
        )
    w.write_uint(MAGIC, 32)
    w.write_uint(VERSION, 8)
    w.write_uint(hdr.tree_id, 4)
    w.write_uint(_METRIC_ORDER.index(hdr.metric), 4)
    w.write_double(hdr.error_bound)
    for d in hdr.spec.dims:
        w.write_uint(d, 16)
    w.write_uint(hdr.n_blocks, 48)
    w.write_uint(hdr.n_tail, 32)


def read_header(r: BitReader) -> StreamHeader:
    """Parse and validate the global header."""
    if r.read_uint(32) != MAGIC:
        raise FormatError("not a PaSTRI stream (bad magic)")
    version = r.read_uint(8)
    if version not in READ_VERSIONS:
        raise FormatError(f"unsupported PaSTRI stream version {version}")
    tree_id = r.read_uint(4)
    if tree_id not in TREE_IDS:
        raise FormatError(f"bad tree id {tree_id}")
    metric_idx = r.read_uint(4)
    if metric_idx >= len(_METRIC_ORDER):
        raise FormatError(f"bad metric index {metric_idx}")
    eb = r.read_double()
    if not (eb > 0):
        raise FormatError(f"bad error bound {eb}")
    dims = tuple(r.read_uint(16) for _ in range(4))
    if 0 in dims:
        raise FormatError(f"bad block dims {dims}")
    n_blocks = r.read_uint(48)
    n_tail = r.read_uint(32)
    return StreamHeader(
        error_bound=eb,
        spec=BlockSpec(dims),  # type: ignore[arg-type]
        n_blocks=n_blocks,
        n_tail=n_tail,
        tree_id=tree_id,
        metric=_METRIC_ORDER[metric_idx],
        version=version,
    )
