"""Unit tests for the §IV-B quantization calculus (repro.core.quantize)."""

import numpy as np
import pytest

from repro.core import quantize as qz
from repro.errors import ParameterError


@pytest.mark.parametrize(
    "ext,bits",
    [(0, 1), (1, 2), (2, 3), (3, 3), (4, 4), (7, 4), (8, 5), (511, 10), (512, 11)],
)
def test_bits_for_symmetric_range(ext, bits):
    b = qz.bits_for_symmetric_range(ext)
    assert b == bits
    # The claimed property: [-ext, ext] fits a b-bit two's-complement field.
    assert -(1 << (b - 1)) <= -ext and ext <= (1 << (b - 1)) - 1


def test_bits_for_symmetric_range_rejects_negative():
    with pytest.raises(ParameterError):
        qz.bits_for_symmetric_range(-1)


def _quantize(block2d, pattern, scales, eb):
    """``quantize_blocks`` over a batch of one block."""
    return qz.quantize_blocks(block2d[None], pattern[None], scales[None], eb)


def _decoded(q, eb):
    """What the decompressor rebuilds: Eq. 10 plus ``ECQ·bin``."""
    binsize = qz.working_binsize(eb)
    approx = qz.pattern_products(q.pq, q.sq, 2 ** (q.p_b[:, None] - 1), binsize)
    return approx + q.ecq.reshape(approx.shape) * binsize


def test_pattern_quantization_error_at_most_eb(rng):
    eb = 1e-10
    pattern = rng.standard_normal(64) * 1e-7
    q = _quantize(pattern[None], pattern, np.ones(1), eb)
    back = q.pq[0] * qz.working_binsize(eb)
    assert np.max(np.abs(back - pattern)) <= eb
    assert int(np.abs(q.pq).max()) <= (1 << (int(q.p_b[0]) - 1)) - 1


def test_pattern_bits_match_paper_example():
    # §IV-B: P in [-1e-7, 1e-7] at EB=1e-10 needs ~10 bits.
    pattern = np.array([1e-7, -1e-7, 3e-8])
    q = _quantize(pattern[None], pattern, np.ones(1), 1e-10)
    assert q.p_b[0] == 10  # PQ_ext = 500 -> 9 magnitude bits + sign (paper: ~10)


def test_scale_quantization_covers_unit_interval():
    # S_b = P_b: the paper's pattern at EB=1e-10 puts the scales on 10 bits
    pattern = np.array([1e-7, -1e-7, 3e-8])
    scales = np.linspace(-1, 1, 101)
    q = _quantize(np.outer(scales, pattern), pattern, scales, 1e-10)
    s_b = int(q.p_b[0])
    assert s_b == 10
    back = q.sq[0] * 2.0 ** -(s_b - 1)
    # binsize = 2^-(s_b-1); +1 is clamped by one extra bin
    binsize = 2.0 ** -(s_b - 1)
    assert np.max(np.abs(back - scales)) <= binsize
    assert q.sq.max() <= (1 << (s_b - 1)) - 1
    assert q.sq.min() >= -(1 << (s_b - 1))


def test_quantize_block_guarantees_error_bound(rng):
    eb = 1e-10
    pattern = rng.standard_normal(16) * 1e-7
    scales = rng.uniform(-1, 1, 8)
    block = np.outer(scales, pattern) + rng.standard_normal((8, 16)) * 1e-9
    q = _quantize(block, pattern, scales, eb)
    assert not q.raw[0]
    assert np.max(np.abs(_decoded(q, eb)[0] - block)) <= eb
    # the paper's practical coupling S_b = P_b: SQ is scales on the P_b grid
    half = 1 << (int(q.p_b[0]) - 1)
    assert np.array_equal(q.sq[0], np.clip(np.rint(scales * half), -half, half - 1))


def test_ecq_bin_numbers_match_fig6_binning():
    vals = np.array([0, 1, -1, 2, 3, -3, 4, 7, 8, -8, 1 << 20])
    bins = qz.ecq_bin_numbers(vals)
    assert bins.tolist() == [1, 2, 2, 3, 3, 3, 4, 4, 5, 5, 22]


def test_ec_b_max_from_extremum():
    # A zero pattern leaves ECQ = x / bin, so each block's ECQ is given.
    eb = 1e-10
    ecq = np.array([[0, 0], [0, -1], [5, 0]])
    blocks = (ecq * qz.working_binsize(eb))[:, None, :]
    q = qz.quantize_blocks(blocks, np.zeros((3, 2)), np.zeros((3, 1)), eb)
    assert np.array_equal(q.ecq, ecq)
    assert q.ec_b_max.tolist() == [1, 2, 4]
    empty = qz.quantize_blocks(np.zeros((0, 1, 2)), np.zeros((0, 2)), np.zeros((0, 1)), eb)
    assert empty.ec_b_max.size == 0


def test_theoretical_lower_bound_ecb():
    # Eq. 19 with Dev_ext = 1e-8, EB = 1e-10: log2(99) -> 7 bits.
    assert qz.theoretical_lower_bound_ecb(1e-8, 1e-10) == 7
    assert qz.theoretical_lower_bound_ecb(1e-11, 1e-10) == 1


def test_naive_s_bits_reproduces_paper_33():
    # §IV-B worked example: EB=1e-10 -> S_b = 33 with the naive method.
    assert qz.naive_s_bits(1e-10) == 34  # 33 magnitude bits + sign

def test_small_eb_relative_to_pattern_gives_wide_pq(rng):
    pattern = np.array([1.0, -0.5])
    q = _quantize(pattern[None], pattern, np.ones(1), 1e-12)
    assert q.p_b[0] >= 40
    assert q.pq[0] * qz.working_binsize(1e-12) == pytest.approx(pattern, abs=1e-12)
