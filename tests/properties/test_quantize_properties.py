"""Property-based tests for the PaSTRI quantization calculus."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import quantize as qz
from repro.core.scaling import ScalingMetric, fit_pattern_batch

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def block_batches(draw):
    """``(blocks3d, eb)``: 1-3 smooth or arbitrary blocks, max|x| up to 2^46·EB.

    Smooth blocks are a scaled pattern plus a deviation of a few EB (ERI
    shape); arbitrary ones are independent values.
    """
    n = draw(st.integers(1, 3))
    m, ell = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    eb = draw(st.sampled_from([1e-13, 1e-10, 1e-9, 1e-6, 1e-3]))
    mag = eb * 2.0 ** draw(st.floats(-4.0, 46.0))
    if draw(st.booleans()):
        pattern = draw(hnp.arrays(np.float64, (n, 1, ell), elements=unit))
        scales = draw(hnp.arrays(np.float64, (n, m, 1), elements=unit))
        dev = draw(hnp.arrays(np.float64, (n, m, ell), elements=unit))
        blocks = mag * scales * pattern + dev * eb * draw(st.sampled_from([0.5, 20.0, 1e3]))
    else:
        blocks = mag * draw(hnp.arrays(np.float64, (n, m, ell), elements=unit))
    return blocks, eb


def _reproducer():
    """A smooth (2,2,2,2) block at 2^45·EB that decoded 1.0004·EB off
    before blocks from 2^40·EB were rebuilt and checked."""
    rng = np.random.default_rng(60)
    pat = rng.uniform(0.5, 1, 4) * 2**45 * 1e-10
    x = np.outer(np.r_[1.0, rng.uniform(-1, 1, 3)], pat) + rng.standard_normal((4, 4)) * 20e-10
    return x[None], 1e-10


@given(case=block_batches(), metric=st.sampled_from(list(ScalingMetric)))
@example(case=_reproducer(), metric=ScalingMetric.ER)
@settings(max_examples=150, deadline=None)
def test_full_quantization_respects_bound(case, metric):
    """The codec's contract: every block is within EB or flagged raw.

    Patterns come from the codec's own fit; the reconstruction is the
    decompressor's, Eq. 10 plus ``ECQ·bin``.
    """
    blocks, eb = case
    n, m, ell = blocks.shape
    p_idx, scales, _ = fit_pattern_batch(blocks, metric)
    q = qz.quantize_blocks(blocks, blocks[np.arange(n), p_idx], scales, eb)
    binsize = qz.working_binsize(eb)
    recon = qz.pattern_products(q.pq, q.sq, 2 ** (q.p_b[:, None] - 1), binsize)
    recon += q.ecq.reshape(n, m, ell) * binsize
    err = np.abs(recon - blocks).reshape(n, -1).max(axis=1)
    assert np.all(q.raw | (err <= eb))
    assert np.all(q.p_b <= qz.MAX_FIELD_BITS)
    assert np.all(q.raw | (q.ec_b_max <= qz.MAX_ECB))


@given(values=hnp.arrays(np.int64, st.integers(1, 100), elements=st.integers(-(2**40), 2**40)))
@settings(max_examples=100, deadline=None)
def test_bin_numbers_define_minimal_widths(values):
    bins = qz.ecq_bin_numbers(values)
    # every value fits its bin's signed range and not the next smaller one
    for v, b in zip(values, bins):
        hi = (1 << (b - 1)) - 1
        assert -hi <= v <= hi or (b == 1 and v == 0)
        if b > 1:
            smaller_hi = (1 << (b - 2)) - 1
            assert abs(v) > smaller_hi


@given(ext=st.integers(0, 2**50))
@settings(max_examples=100, deadline=None)
def test_symmetric_range_width_minimal(ext):
    b = qz.bits_for_symmetric_range(ext)
    assert ext <= (1 << (b - 1)) - 1
    if b > 1:
        assert ext > (1 << (b - 2)) - 1
