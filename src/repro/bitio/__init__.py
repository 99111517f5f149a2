"""Bit-level I/O substrate.

Every stream in this package is MSB first.  :func:`add_fields` is the one
bit packer: it adds fields at absolute bit offsets into a buffer of 64-bit
words.  PaSTRI writes each call's streams with it directly; SZ and ZFP
write through :class:`BitWriter`, whose array writes use the same packer.
:class:`BitReader` and :class:`FieldScanner` read the streams back.  All
of them work on whole numpy arrays wherever possible, following the
vectorisation idioms of the hpc-parallel guides: per-symbol Python loops
are reserved for genuinely sequential variable-length decodes, and even
those are replaced by the pointer-jumping decoder in
:mod:`repro.bitio.vlc`.
"""

from repro.bitio.writer import BitWriter, add_fields
from repro.bitio.reader import BitReader, FieldScanner
from repro.bitio.vlc import decode_prefix_stream

__all__ = [
    "BitWriter",
    "BitReader",
    "FieldScanner",
    "add_fields",
    "decode_prefix_stream",
]
