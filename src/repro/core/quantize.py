"""Quantization calculus for PaSTRI (paper §IV-B, Eq. 5–23).

The compressed block stores three quantized streams:

* ``PQ`` — the pattern, quantized on a ``2·EB`` grid (``P_binsize = 2·EB``),
  so its quantization error never exceeds ``EB`` (Eq. 6).
* ``SQ`` — the scaling coefficients.  ``|S| <= 1`` always, so
  ``S_binsize = 2^-(S_b - 1)``; the paper's key optimisation (Eq. 21–23) is
  to reuse ``S_b = P_b`` instead of quantizing S on a ``2·EB`` grid, which
  would cost ~33 bits per coefficient at EB = 1e-10.
* ``ECQ`` — error-correction codes, ``round(dev / (2·EB))`` (Eq. 5 with
  ``ECQ_binsize = 2·EB``).

:func:`quantize_blocks` is the one implementation of this calculus: the
compressor runs it over every block of a stream at once.  ECQ is computed
against :func:`pattern_products` — Eq. 10 as the decompressor evaluates
it, float op for float op — so ``|x - x'| <= EB`` holds whatever the
bit-width analysis (Eq. 23) predicts; the analysis only governs how
*large* the ECQ values, and hence the output, get.  float64 rounding in
the reconstruction stays inside the bin deflation below ``2^40·EB``;
from there on each block is rebuilt as the decompressor will and stored
raw if it misses the bound.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import ParameterError

#: Fractional deflation of the nominal 2·EB quantization bin.  A value
#: landing exactly on a bin boundary reconstructs with error exactly EB;
#: float64 rounding noise on top would then exceed the bound by an ulp.
#: Shrinking the working bin by 2^-10 absorbs both (≤0.1 % ratio cost).
BIN_DEFLATION = 1.0 - 2.0**-10


def working_binsize(eb: float) -> float:
    """The deflated quantization bin used by every 2·EB grid in PaSTRI."""
    return 2.0 * eb * BIN_DEFLATION


#: Hard cap on P_b, which the decoder enforces; blocks needing more fall
#: back to raw 64-bit storage.  Near 2^46 grid steps ulp(x) approaches EB,
#: so no patterned block could keep the bound there anyway.
MAX_FIELD_BITS = 46

#: EC_b,max above which a block is stored raw (never hit by ERI data; the
#: paper reports EC_b,max <= 22 at EB = 1e-10).
MAX_ECB = 40

#: max|x| / EB from which :func:`quantize_blocks` rebuilds a block to
#: check the bound.  float64 rounding in the reconstruction adds at most
#: about 7·max|x|·2^-53 to the error, which stays under the 2^-10·EB the
#: bin deflation leaves while max|x| < 2^40·EB; ERI blocks sit far below.
CHECKED_MAGNITUDE = 2.0**40


def bits_for_symmetric_range(ext: int) -> int:
    """Minimal two's-complement width holding all integers in ``[-ext, ext]``.

    A ``b``-bit signed field covers ``[-2^(b-1), 2^(b-1) - 1]``; we require
    ``ext <= 2^(b-1) - 1`` so both signs of the extremum fit.
    """
    if ext < 0:
        raise ParameterError("range extremum must be non-negative")
    if ext == 0:
        return 1
    return 1 + int(ext).bit_length()


def ecq_bin_numbers(ecq: np.ndarray) -> np.ndarray:
    """Fig. 6 binning: bits needed per value — 0→1, ±1→2, ±[2,3]→3, ...

    ``i`` bits represent the range ±[2^(i-2), 2^(i-1) - 1]; i.e.
    ``bin(v) = floor(log2 |v|) + 2`` for v ≠ 0.  Integer-valued floats
    work too, which gives ``P_b`` and ``EC_b,max`` from their extremum.
    """
    a = np.abs(ecq)
    bins = np.ones(a.shape, dtype=np.int64)
    nz = a > 0
    if nz.any():
        # floor(log2) via the exponent of the float representation: exact for
        # |v| < 2^53, far beyond any realistic ECQ.
        bins[nz] = np.frexp(a[nz].astype(np.float64))[1] + 1
    return bins


def pattern_products(
    pq: np.ndarray, sq: np.ndarray, half: np.ndarray | int, binsize: float
) -> np.ndarray:
    """Eq. 10: each block's scaled pattern ``SQ·2^-(P_b-1) ⊗ PQ·bin``.

    ``pq`` is ``(n, L)`` and ``sq`` ``(n, M)``; ``half`` is ``2^(P_b-1)``,
    a ``(n, 1)`` column of one per block or one for all.  Returns
    ``(n, M, L)`` float64.  Dividing by a power of two is exact.  The
    compressor quantizes ECQ against this and the decompressor
    reconstructs with it, so the two agree to the bit.  A broadcast
    multiply, not ``einsum``, which does not preserve IEEE signed zeros
    (0.0 * -x -> +0.0).
    """
    return (sq / half)[:, :, None] * (pq * binsize)[:, None, :]


class QuantizedBlocks(NamedTuple):
    """:func:`quantize_blocks` output, one row per block."""

    pq: np.ndarray  # (n, L) int64
    sq: np.ndarray  # (n, M) int64
    p_b: np.ndarray  # (n,) int64; S_b = P_b
    ecq: np.ndarray  # (n, M·L) int32, or int64 if a kept row needs it
    ec_b_max: np.ndarray  # (n,) int64
    raw: np.ndarray  # (n,) bool: the block must be stored verbatim
    ecq_abs: np.ndarray  # (n, M·L) float64 |ECQ|


def quantize_blocks(
    blocks3d: np.ndarray,
    patterns: np.ndarray,
    scales: np.ndarray,
    eb: float,
    amax: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> QuantizedBlocks:
    """Run the §IV-B pipeline over a batch of blocks.

    ``blocks3d`` is ``(n, M, L)``; ``patterns`` ``(n, L)`` and ``scales``
    ``(n, M)`` hold each block's fit (a shared pattern is just a repeated
    row).  The pattern binsize is pinned at ``2·EB`` and ``P_b`` follows
    Eq. 8; the scales go on the ``2^-(S_b-1)`` grid with ``S_b = P_b``,
    where ``S = +1`` is clamped one bin down and the slack is absorbed by
    ECQ (paper: "EC should accommodate for only 2 more bins", Eq. 23).

    ``raw`` flags the blocks patterned coding cannot store: ``P_b`` above
    :data:`MAX_FIELD_BITS` (their ``pq`` rows are zeroed), ``EC_b,max``
    above :data:`MAX_ECB` (``ecq`` and ``ecq_abs`` rows zeroed), and —
    checked only where ``max|x| >= CHECKED_MAGNITUDE·EB`` — a rebuilt
    block more than EB off.  ``amax`` passes each block's ``max|x|`` when
    the caller has it; ``scratch``, a float64 buffer shaped like
    ``blocks3d``, is overwritten to hold ``ecq_abs``.
    """
    n, M, L = blocks3d.shape
    N = M * L
    binsize = working_binsize(eb)
    pq_f = np.rint(patterns / binsize)
    p_b = ecq_bin_numbers(np.abs(pq_f).max(axis=1))
    # Zero the rows that overflow the field width before the int64 cast.
    raw = p_b > MAX_FIELD_BITS
    if raw.any():
        pq_f[raw] = 0.0
        p_b[raw] = 1
    pq = pq_f.astype(np.int64)

    half = np.left_shift(np.int64(1), p_b - 1)[:, None]
    sq = np.rint(scales * half).astype(np.int64)
    np.clip(sq, -half, half - 1, out=sq)
    approx = pattern_products(pq, sq, half, binsize)
    # The residual quantisation reuses `approx` as scratch: each step
    # applies the exact same FP op sequence as the naive expression.
    ecq_f = np.subtract(blocks3d, approx, out=approx)
    np.divide(ecq_f, binsize, out=ecq_f)
    np.rint(ecq_f, out=ecq_f)
    ecq_abs = np.abs(ecq_f, out=scratch).reshape(n, N)
    ecb = ecq_bin_numbers(ecq_abs.max(axis=1))

    if amax is None:
        amax = np.abs(blocks3d).reshape(n, N).max(axis=1)
    big = np.flatnonzero(amax >= CHECKED_MAGNITUDE * eb)
    if big.size:  # rebuild as the decompressor will; NaN counts as a miss
        recon = pattern_products(pq[big], sq[big], half[big], binsize)
        recon += ecq_f[big] * binsize
        within = np.abs(blocks3d[big] - recon) <= eb
        raw[big[~within.reshape(big.size, N).all(axis=1)]] = True

    raw_e = ecb > MAX_ECB
    if raw_e.any():
        ecq_f[raw_e] = 0.0
        ecq_abs[raw_e] = 0.0
        raw |= raw_e
    # int32 halves the cast and every downstream gather whenever the
    # residuals fit (always, on ERI data: the paper sees EC_b,max <= 22).
    # Rows zeroed above do not bound the width.
    ecq_dt = np.int32 if int(ecb[~raw_e].max(initial=1)) <= 31 else np.int64
    ecq = ecq_f.astype(ecq_dt).reshape(n, N)
    return QuantizedBlocks(pq, sq, p_b, ecq, ecb, raw, ecq_abs)


def theoretical_lower_bound_ecb(dev_ext: float, eb: float) -> int:
    """Eq. 19: ``lower_bound(EC_b) = ceil(log2(|Dev_ext| / EB - 1))`` (≥1)."""
    c1 = dev_ext / eb - 1.0
    if c1 <= 1.0:
        return 1
    return int(np.ceil(np.log2(c1)))


def naive_s_bits(eb: float) -> int:
    """Bit width of S when naively quantized on a ``2·EB`` grid (§IV-B example).

    With ``S_binsize = 2·EB`` and ``S_ext = 1`` the signed range is
    ``[-1/(2·EB), 1/(2·EB)]``; at EB = 1e-10 this gives 33 bits, the cost the
    paper's ``S_b = P_b`` trick avoids.  Used by the S_b ablation benchmark.
    """
    ext = int(np.rint(1.0 / (2.0 * eb)))
    return bits_for_symmetric_range(ext)
