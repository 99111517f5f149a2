"""ZFP's embedded bit-plane coder with group testing (block size 4).

Each plane is coded as (1) verbatim bits for the values already known
significant, then (2) a unary-style run: a group-test bit saying "any new
significant value in the rest?", followed by value bits up to and including
the first 1 (the last value's 1 is implied).  This is ZFP's
``encode_ints`` / ``decode_ints``; :mod:`repro.zfp.vectorized` runs it
table-driven over all blocks at once, and the tests hold it against a
block-at-a-time transcription (``tests/zfp/bitplane_oracle.py``).
"""

from __future__ import annotations

BLOCK = 4


def max_payload_bits(maxprec: int) -> int:
    """Upper bound on a block's payload: 4 value bits + 4 group bits/plane."""
    return maxprec * (BLOCK + 4)
