"""ZFP's bit-plane coder transcribed one block at a time: the reference
the vectorised coder (:mod:`repro.zfp.vectorized`) is tested against.

The per-block payload is built on Python big-ints (a few hundred bits), so
the loop is integer shifts rather than per-bit numpy calls.
"""

from __future__ import annotations

from repro.zfp.bitplane import BLOCK


def encode_block(u: tuple[int, int, int, int], top_plane: int, maxprec: int) -> tuple[int, int]:
    """Encode one block's negabinary values; returns ``(payload, nbits)``.

    ``payload`` holds the bitstream MSB-first (first-emitted bit highest).
    Planes run from ``top_plane`` down, ``maxprec`` of them.
    """
    acc = 0
    nbits = 0
    n = 0
    u0, u1, u2, u3 = u
    for k in range(top_plane, top_plane - maxprec, -1):
        x = ((u0 >> k) & 1) | (((u1 >> k) & 1) << 1) | (((u2 >> k) & 1) << 2) | (((u3 >> k) & 1) << 3)
        # verbatim part: bits of the n known-significant values, value order
        for j in range(n):
            acc = (acc << 1) | ((x >> j) & 1)
        nbits += n
        x >>= n
        m = n
        # group-tested remainder
        while m < BLOCK:
            test = 1 if x else 0
            acc = (acc << 1) | test
            nbits += 1
            if not test:
                break
            while m < BLOCK - 1:
                b = x & 1
                acc = (acc << 1) | b
                nbits += 1
                if b:
                    break
                x >>= 1
                m += 1
            x >>= 1
            m += 1
        n = max(n, m)
    return acc, nbits


def decode_block(payload: int, payload_bits: int, top_plane: int, maxprec: int) -> tuple[tuple[int, int, int, int], int]:
    """Decode one block; returns ``(values, bits_consumed)``.

    ``payload`` holds at least the block's bits, MSB-first, with the first
    bit at position ``payload_bits - 1``.
    """
    pos = payload_bits  # next unread bit is at pos-1
    vals = [0, 0, 0, 0]
    n = 0

    def read_bit() -> int:
        nonlocal pos
        pos -= 1
        return (payload >> pos) & 1

    for k in range(top_plane, top_plane - maxprec, -1):
        x = 0
        for j in range(n):
            x |= read_bit() << j
        m = n
        while m < BLOCK:
            if not read_bit():
                break
            while m < BLOCK - 1:
                if read_bit():
                    break
                m += 1
            x |= 1 << m
            m += 1
        n = max(n, m)
        if x:
            for j in range(BLOCK):
                if (x >> j) & 1:
                    vals[j] |= 1 << k
    return (vals[0], vals[1], vals[2], vals[3]), payload_bits - pos
