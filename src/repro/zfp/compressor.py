"""The ZFP baseline compressor (fixed-accuracy mode, 1-D).

Stream layout::

    magic 32 | version 8 | error bound 64 | n 48
    per 4-sample block:
        zero flag (1 bit)
        if non-zero: biased block exponent (12 bits), then the embedded
        bit-plane payload (maxprec planes, derived from the exponent and
        the tolerance on both sides)

The final partial block is padded by repeating the last value, as in ZFP.
"""

from __future__ import annotations

import numpy as np

from repro import api, telemetry
from repro.bitio import BitReader, BitWriter
from repro.errors import FormatError
from repro.zfp import transform as tf
from repro.zfp.bitplane import max_payload_bits
from repro.zfp.vectorized import decode_block_fast, encode_blocks

_MAGIC = 0x5A465052  # 'ZFPR'
_VERSION = 1
_E_BIAS = 1200  # covers the full double exponent range in 12 bits

#: Blocks needing more planes than this are stored as raw doubles: beyond
#: it, fixed-point rounding plus the lifting's dropped low bits approach
#: the tolerance.  Both sides derive the choice from (e, tolerance), so no
#: per-block flag is required.
_RAW_PREC = 58


@telemetry.instrument_codec
class ZFPCompressor:
    """ZFP-style fixed-accuracy codec (paper baseline).

    The error bound plays the role of ZFP's accuracy *tolerance*: the plane
    cutoff guarantees ``max|x - x'| <= tolerance`` (property-tested).
    Encoding runs the batched plane coder of :mod:`repro.zfp.vectorized`,
    whose tokens tests check against the scalar
    :func:`repro.zfp.bitplane.encode_block`.
    """

    name = "zfp"

    def compress(self, data: np.ndarray, error_bound: float) -> bytes:
        data = api.validate_input(data)
        eb = api.validate_error_bound(error_bound)
        n = data.size
        pad = (-n) % 4
        if pad:
            data = np.concatenate([data, np.repeat(data[-1], pad)])
        blocks = data.reshape(-1, 4)

        e = tf.block_exponents(blocks)
        zero = np.abs(blocks).max(axis=1) == 0.0
        q = tf.to_fixed_point(blocks, e)
        u = tf.to_negabinary(tf.fwd_lift(q))
        maxprec = tf.max_precision(e, eb)

        w = BitWriter()
        w.write_uint(_MAGIC, 32)
        w.write_uint(_VERSION, 8)
        w.write_double(eb)
        w.write_uint(n, 48)
        self._emit(w, blocks, u, e, maxprec, zero)
        return w.getvalue()

    def _emit(self, w, blocks, u, e, maxprec, zero) -> None:
        """Batched emitter: every field becomes one (code, length) token and
        a single ``write_varlen_array`` builds the stream."""
        B = blocks.shape[0]
        nonzero = ~zero
        raw = nonzero & (maxprec > _RAW_PREC)
        coded_mp = np.where(nonzero & ~raw, maxprec, 0)
        # tokens per block: flag + (e + payload tokens) for nonzero blocks
        counts = 1 + nonzero * 1 + raw * 4 + coded_mp
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        total = int(counts.sum())
        codes = np.zeros(total, dtype=np.uint64)
        lens = np.zeros(total, dtype=np.int64)

        codes[offsets] = nonzero.astype(np.uint64)
        lens[offsets] = 1
        nz_idx = np.flatnonzero(nonzero)
        codes[offsets[nz_idx] + 1] = (e[nz_idx] + _E_BIAS).astype(np.uint64)
        lens[offsets[nz_idx] + 1] = 12

        raw_idx = np.flatnonzero(raw)
        if raw_idx.size:
            target = offsets[raw_idx][:, None] + 2 + np.arange(4)[None, :]
            codes[target.ravel()] = blocks[raw_idx].view(np.uint64).ravel()
            lens[target.ravel()] = 64

        top = tf.TOP_PLANE
        for mp in np.unique(coded_mp):
            if mp == 0:
                continue
            idx = np.flatnonzero(coded_mp == mp)
            tok_codes, tok_lens = encode_blocks(u[idx], top, int(mp))
            target = (offsets[idx][:, None] + 2 + np.arange(mp)[None, :]).ravel()
            codes[target] = tok_codes.ravel()
            lens[target] = tok_lens.ravel()

        w.write_varlen_array(codes, lens)

    def decompress(self, blob: bytes) -> np.ndarray:
        r = BitReader(blob)
        if r.read_uint(32) != _MAGIC:
            raise FormatError("not a ZFP stream (bad magic)")
        if r.read_uint(8) != _VERSION:
            raise FormatError("unsupported ZFP stream version")
        eb = r.read_double()
        if not (eb > 0 and np.isfinite(eb)):
            raise FormatError(f"bad tolerance {eb}")
        n = r.read_uint(48)
        n_blocks = (n + 3) // 4
        if n_blocks > r.remaining:  # each block costs at least its flag bit
            raise FormatError("block count exceeds the stream length")
        minexp = int(np.floor(np.log2(eb)))
        top = tf.TOP_PLANE

        bits = r.bits
        pos = r.pos
        nbits_total = bits.size
        # Hot-loop accessors: one byte per bit for flag reads, and the raw
        # packed bytes for bulk field extraction — no per-block numpy calls.
        bitbytes = bits.tobytes()
        packed = np.packbits(bits).tobytes()

        def read_field(bit_pos: int, width: int) -> int:
            """MSB-first unsigned field from the packed byte stream."""
            lo = bit_pos >> 3
            skew = bit_pos & 7
            nbytes = (skew + width + 7) >> 3
            big = int.from_bytes(packed[lo : lo + nbytes], "big")
            return (big >> (nbytes * 8 - skew - width)) & ((1 << width) - 1)

        u = np.zeros((n_blocks, 4), dtype=np.uint64)
        e = np.zeros(n_blocks, dtype=np.int64)
        live = np.zeros(n_blocks, dtype=bool)
        raw_blocks: dict[int, tuple] = {}
        try:
            for b in range(n_blocks):
                if pos >= nbits_total:
                    raise FormatError("ZFP stream truncated")
                flag = bitbytes[pos]
                pos += 1
                if not flag:
                    continue
                if pos + 12 > nbits_total:
                    raise FormatError("ZFP stream truncated in exponent")
                e_b = read_field(pos, 12) - _E_BIAS
                pos += 12
                mp = min(max(e_b - minexp + 5, 0), top + 1)
                live[b] = True
                e[b] = e_b
                if mp == 0:
                    continue
                if mp > _RAW_PREC:
                    if pos + 256 > nbits_total:
                        raise FormatError("ZFP stream truncated in raw block")
                    raw_blocks[b] = tuple(
                        read_field(pos + 64 * j, 64) for j in range(4)
                    )
                    pos += 256
                    continue
                bound = min(max_payload_bits(mp), nbits_total - pos)
                lo = pos >> 3
                skew = pos & 7
                nbytes = (skew + bound + 7) >> 3
                payload = int.from_bytes(packed[lo : lo + nbytes], "big")
                payload_bits = nbytes * 8 - skew
                if skew:
                    payload &= (1 << payload_bits) - 1
                vals, used = decode_block_fast(payload, payload_bits, top, mp)
                if used > bound:
                    raise FormatError("ZFP block payload overruns the stream")
                u[b] = vals
                pos += used
        except ValueError as exc:  # negative big-int shift on corrupt input
            raise FormatError("corrupt ZFP stream") from exc

        q = tf.inv_lift(tf.from_negabinary(u))
        out = tf.from_fixed_point(q, e)
        out[~live] = 0.0
        for b, vals in raw_blocks.items():
            out[b] = np.array(vals, dtype=np.uint64).view(np.float64)
        return out.reshape(-1)[:n]


def _factory(vectorized: bool = True) -> ZFPCompressor:
    # Containers from before the scalar emitter was removed carry a
    # ``vectorized`` key; both of its settings wrote the same bytes.
    return ZFPCompressor()


api.register_codec("zfp", _factory)
