"""Unit + integration tests for the PaSTRI compressor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlockType, PaSTRICompressor, ScalingMetric
from repro.errors import FormatError, ParameterError
from tests.conftest import make_class_block, make_patterned_stream

DIMS = (6, 6, 6, 6)
EB = 1e-10


def codec(**kw) -> PaSTRICompressor:
    kw.setdefault("dims", DIMS)
    return PaSTRICompressor(**kw)


def test_roundtrip_respects_error_bound(patterned_stream):
    c = codec()
    out = c.decompress(c.compress(patterned_stream, EB))
    assert np.max(np.abs(out - patterned_stream)) <= EB


def test_patterned_data_compresses_well(patterned_stream):
    blob = codec().compress(patterned_stream, EB)
    assert patterned_stream.nbytes / len(blob) > 10


def test_constructor_requires_exactly_one_geometry_source():
    with pytest.raises(ParameterError):
        PaSTRICompressor()
    with pytest.raises(ParameterError):
        PaSTRICompressor(dims=DIMS, config="(dd|dd)")
    assert PaSTRICompressor(config="(dd|dd)").spec.dims == DIMS


def test_config_and_dims_agree(patterned_stream):
    b1 = PaSTRICompressor(dims=DIMS).compress(patterned_stream, EB)
    b2 = PaSTRICompressor(config="(dd|dd)").compress(patterned_stream, EB)
    assert b1 == b2


@pytest.mark.parametrize("metric", list(ScalingMetric))
@pytest.mark.parametrize("tree", [1, 2, 3, 4, 5])
def test_all_metric_tree_combinations_roundtrip(metric, tree, rng):
    data = make_patterned_stream(rng, n_blocks=6)
    c = codec(metric=metric, tree_id=tree)
    out = c.decompress(c.compress(data, EB))
    assert np.max(np.abs(out - data)) <= EB


def test_zero_stream_collapses_to_header_bits():
    data = np.zeros(DIMS[0] ** 4 // 6 * 6 * 4)
    blob = codec().compress(data, EB)
    # each zero block costs 2 bits; the stream is essentially the header
    assert len(blob) < 64
    assert np.array_equal(codec().decompress(blob), data)


def test_tail_elements_stored_exactly(rng):
    data = np.concatenate([make_patterned_stream(rng, n_blocks=2), rng.standard_normal(17)])
    c = codec()
    out = c.decompress(c.compress(data, EB))
    # tail is verbatim: exact equality
    assert np.array_equal(out[-17:], data[-17:])


def test_stream_shorter_than_one_block_is_all_tail(rng):
    data = rng.standard_normal(100)
    out = codec().decompress(codec().compress(data, EB))
    assert np.array_equal(out, data)


def test_incompressible_data_falls_back_to_raw(rng):
    data = rng.standard_normal(DIMS[0] ** 4 // 6 * 6 * 3) * 1e6
    c = codec(collect_stats=True)
    blob = c.compress(data, 1e-12)
    assert np.max(np.abs(c.decompress(blob) - data)) <= 1e-12
    # raw fallback: about 1.0x, never significantly worse
    assert len(blob) <= data.nbytes * 1.01
    assert c.last_stats.kind_counts[2] > 0  # KIND_RAW


def test_extreme_magnitudes_with_tiny_bound(rng):
    data = rng.standard_normal(1296 * 2) * 1e25
    c = codec()
    out = c.decompress(c.compress(data, 1e-12))
    assert np.max(np.abs(out - data)) <= 1e-12


def test_huge_error_bound_gives_type0_blocks(patterned_stream):
    c = codec(collect_stats=True)
    blob = c.compress(patterned_stream, 1.0)
    st = c.last_stats
    assert st.type_counts.get(BlockType.TYPE0, 0) + st.kind_counts.get(0, 0) > 0
    assert np.max(np.abs(c.decompress(blob) - patterned_stream)) <= 1.0


@given(
    tree=st.sampled_from([1, 2, 3, 4, 5]),
    mode=st.sampled_from(["adaptive", "dense", "sparse"]),
    kinds=st.lists(
        st.sampled_from(["zero", "dense", "sparse", "raw"]), min_size=1, max_size=8
    ),
    n_tail=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_stats_bit_accounting_matches_blob_size(tree, mode, kinds, n_tail, seed):
    """Every tree x ECQ mode x block mix: stats account for every bit."""
    rng = np.random.default_rng(seed)
    dims = (2, 2, 3, 3)
    blocks = [make_class_block(k, rng, dims).reshape(-1) for k in kinds]
    data = np.concatenate(blocks + [rng.standard_normal(n_tail)])
    c = codec(dims=dims, tree_id=tree, ecq_mode=mode, collect_stats=True)
    blob = c.compress(data, EB)
    st_ = c.last_stats
    assert st_.bits_total <= 8 * len(blob) < st_.bits_total + 8  # byte padding only
    assert np.max(np.abs(c.decompress(blob) - data)) <= EB


def test_stats_none_when_not_collected(patterned_stream):
    c = codec()
    c.compress(patterned_stream, EB)
    assert c.last_stats is None


def test_decompress_rejects_garbage():
    with pytest.raises(FormatError):
        codec().decompress(b"not a pastri stream at all")


def test_decompress_rejects_truncated_stream(patterned_stream):
    blob = codec().compress(patterned_stream, EB)
    with pytest.raises(FormatError):
        codec().decompress(blob[: len(blob) // 2])


def test_compress_rejects_nan():
    data = np.full(100, np.nan)
    with pytest.raises(ParameterError):
        codec().compress(data, EB)


def test_compress_rejects_bad_error_bound(patterned_stream):
    for bad in (0.0, -1e-10, np.inf):
        with pytest.raises(ParameterError):
            codec().compress(patterned_stream, bad)


def test_bad_tree_id_rejected():
    with pytest.raises(ParameterError):
        codec(tree_id=9)


def test_decompression_is_deterministic(patterned_stream):
    c = codec()
    blob = c.compress(patterned_stream, EB)
    assert np.array_equal(c.decompress(blob), c.decompress(blob))


def test_sparse_representation_used_for_rare_outliers(rng):
    # near-perfect pattern + a couple of huge outliers -> sparse ECQ wins
    data = make_patterned_stream(rng, n_blocks=4, rel_dev=0.0, zero_blocks=0)
    data = data.copy()
    data[5] += 1e-6
    data[700] -= 2e-6
    c = codec(collect_stats=True)
    blob = c.compress(data, EB)
    assert np.max(np.abs(c.decompress(blob) - data)) <= EB


def test_decompressed_dtype_and_length(patterned_stream):
    out = codec().decompress(codec().compress(patterned_stream, EB))
    assert out.dtype == np.float64
    assert out.size == patterned_stream.size


def test_real_eri_dataset_roundtrip(tiny_eri_dataset):
    ds = tiny_eri_dataset
    c = PaSTRICompressor(dims=ds.spec.dims)
    for eb in (1e-9, 1e-10, 1e-11):
        out = c.decompress(c.compress(ds.data, eb))
        assert np.max(np.abs(out - ds.data)) <= eb


# -- corrupt sparse-ECQ streams ---------------------------------------------
#
# The compressor emits sparse outlier entries in flatnonzero order, so a
# valid stream's indices are strictly increasing within a block.  The
# decompressor scatter-adds them; without validation a corrupt stream with a
# duplicated index would be folded silently instead of rejected.


def _sparse_stream(entries):
    """A 1-block stream whose ECQ is sparse with the given (index, value) list."""
    from repro.bitio import BitWriter
    from repro.core import header as fmt
    from repro.core.blocking import BlockSpec

    spec = BlockSpec(DIMS)
    head = fmt.pack_header(
        fmt.StreamHeader(
            error_bound=EB, spec=spec, n_blocks=1, n_tail=0,
            tree_id=5, metric=ScalingMetric.ER,
        ),
    )
    w = BitWriter()
    w.write_uint(fmt.KIND_PATTERNED, 2)
    w.write_uint(1, 6)  # P_b = 1
    for _ in range(spec.sb_size + spec.num_sb):
        w.write_uint(1, 1)  # PQ/SQ values 0, offset-binary
    w.write_uint(2, 6)  # EC_b,max
    w.write_uint(1, 1)  # sparse flag
    w.write_uint(len(entries), spec.block_size.bit_length())
    idx_bits = (spec.block_size - 1).bit_length()
    for idx, val in entries:
        w.write_uint((idx << 2) | (val + 2), idx_bits + 2)
    return head + w.getvalue()


def test_sparse_increasing_indices_accepted():
    out = codec().decompress(_sparse_stream([(3, 1), (7, -1)]))
    assert out.size == DIMS[0] ** 4
    assert out[3] > 0 and out[7] < 0


def test_sparse_duplicate_index_rejected():
    with pytest.raises(FormatError, match="strictly increasing"):
        codec().decompress(_sparse_stream([(5, 1), (5, 1)]))


def test_sparse_decreasing_index_rejected():
    with pytest.raises(FormatError, match="strictly increasing"):
        codec().decompress(_sparse_stream([(7, 1), (3, -1)]))


def test_sparse_out_of_range_index_rejected():
    with pytest.raises(FormatError, match="out of range"):
        codec().decompress(_sparse_stream([(1500, 1)]))
