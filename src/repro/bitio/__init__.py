"""Bit-level I/O substrate.

All compressed streams in this package are MSB-first bitstreams produced by
:class:`BitWriter` and consumed by :class:`BitReader`.  Both classes operate
on whole numpy arrays wherever possible (``write_uint_array`` /
``read_uint_array``), following the vectorisation idioms of the hpc-parallel
guides: per-symbol Python loops are reserved for genuinely sequential
variable-length decodes, and even those are replaced by the pointer-jumping
decoder in :mod:`repro.bitio.vlc`.
"""

from repro.bitio.writer import BitWriter, pack_uint_rows, uint_to_bits, varlen_bits
from repro.bitio.reader import BitReader, FieldScanner
from repro.bitio.vlc import decode_prefix_stream

__all__ = [
    "BitWriter",
    "BitReader",
    "FieldScanner",
    "decode_prefix_stream",
    "pack_uint_rows",
    "uint_to_bits",
    "varlen_bits",
]
