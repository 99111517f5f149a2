"""Property tests for the batched codec kernels.

Two invariant families:

* **Stream level** — random mixes of every block class (zero / raw / sparse
  / dense / tail) must round-trip within the bound, with exact tails, a
  consistent ``StreamStats`` bit accounting, and identical output on warm
  (memoised index pass) re-decodes.
* **Batching** — a block decodes to the same bits alone in a one-block
  stream as in the middle of a stream whose other blocks share its
  batched passes, for every block class, tree and geometry.
* **Kernel level** — the planar emitter must write exactly the bits of the
  reference coder's codewords (:func:`tests.core.ecq_oracle.encode_ecq`),
  reordered prefix plane by prefix plane and then tails; the batched
  planar decoder must invert it; and the moments-based dense sizing must
  equal the exact per-row count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitio import FieldScanner
from repro.core import PaSTRICompressor
from repro.core import header as fmt
from repro.core.blocking import BlockSpec
from repro.core.trees import (
    add_ecq_planar,
    decode_ecq_planar,
    encoded_size_bits_batch,
    encoded_size_bits_from_moments,
    skip_planar_segment,
)
from tests.conftest import make_class_block
from tests.core.ecq_oracle import encode_ecq, planar_bits

DIMS = (2, 2, 3, 3)
SPEC = BlockSpec(DIMS)
N = SPEC.block_size

#: Block classes a stream can mix.
_CLASSES = ("zero", "dense", "sparse", "raw")


def _make_block(kind: str, rng: np.random.Generator) -> np.ndarray:
    return make_class_block(kind, rng, DIMS)


@given(
    kinds=st.lists(st.sampled_from(_CLASSES), min_size=1, max_size=12),
    n_tail=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
    eb=st.sampled_from([1e-12, 1e-10, 1e-8]),
)
@settings(max_examples=40, deadline=None)
def test_random_class_mix_roundtrips(kinds, n_tail, seed, eb):
    rng = np.random.default_rng(seed)
    blocks = [_make_block(k, rng) for k in kinds]
    data = np.concatenate(
        [np.stack(blocks).reshape(-1), rng.standard_normal(n_tail)]
    )
    codec = PaSTRICompressor(dims=DIMS, collect_stats=True)
    blob = codec.compress(data, eb)
    st_ = codec.last_stats
    assert st_.bits_total <= 8 * len(blob) < st_.bits_total + 8
    assert st_.n_blocks == len(kinds)
    out = codec.decompress(blob)
    assert out.size == data.size
    assert np.max(np.abs(out - data)) <= eb
    if n_tail:
        assert np.array_equal(out[-n_tail:], data[-n_tail:])
    # warm re-decode (memoised index pass) must be indistinguishable
    assert np.array_equal(codec.decompress(blob), out)


#: Every block class, a patterned block without ECQ included.
_ALL_CLASSES = ("zero", "raw", "no_ecq", "sparse", "dense")


def _decoded_class(codec: PaSTRICompressor, blob: bytes, b: int) -> str:
    """The class the index pass of ``blob`` gave block ``b``."""
    kinds, ecb, sparse, dense = (codec._parse_cache[blob][i] for i in (0, 2, 6, 7))
    if kinds[b] != fmt.KIND_PATTERNED:
        return "zero" if kinds[b] == fmt.KIND_ZERO else "raw"
    if sparse[b]:
        return "sparse"
    return "dense" if b in dense else "no_ecq"


@pytest.mark.parametrize("dims", [(6, 6, 6, 6), (10, 10, 10, 10)])
@pytest.mark.parametrize("tree_id", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", _ALL_CLASSES)
@given(
    before=st.lists(st.sampled_from(_ALL_CLASSES), min_size=1, max_size=3),
    after=st.lists(st.sampled_from(_ALL_CLASSES), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=4, deadline=None, derandomize=True)
def test_one_block_stream_decodes_like_a_middle_block(
    kind, tree_id, dims, before, after, seed
):
    rng = np.random.default_rng(seed)
    blocks = [make_class_block(k, rng, dims) for k in before + [kind] + after]
    codec = PaSTRICompressor(dims=dims, tree_id=tree_id)
    one_blob = codec.compress(blocks[len(before)].reshape(-1), 1e-10)
    one = codec.decompress(one_blob)
    assert _decoded_class(codec, one_blob, 0) == kind
    many_blob = codec.compress(np.stack(blocks).reshape(-1), 1e-10)
    many = codec.decompress(many_blob)
    assert _decoded_class(codec, many_blob, len(before)) == kind
    mid = many[len(before) * one.size : (len(before) + 1) * one.size]
    assert np.array_equal(one.view(np.uint64), mid.view(np.uint64))


ecq_rows = st.lists(
    st.tuples(
        st.integers(2, 13),  # EC_b,max of the moment-sizing rows
        st.integers(0, 2**32 - 1),
    ),
    min_size=1,
    max_size=8,
)

#: Planar rows span the whole legal EC_b,max range, so codewords wider than
#: 16 and 32 bits are covered.
planar_rows = st.lists(
    st.tuples(st.integers(2, 40), st.integers(0, 2**32 - 1)),
    min_size=1,
    max_size=8,
)


def _rows_from(spec_rows):
    """Random ECQ rows with per-row EC_b,max-bounded magnitudes."""
    ecqs, ecbs = [], []
    for ecb, seed in spec_rows:
        rng = np.random.default_rng(seed)
        hi = 1 << (ecb - 1)
        row = rng.integers(-hi + 1, hi, size=N)
        row[rng.random(N) < 0.6] = 0  # realistic zero-heavy residuals
        ecqs.append(row)
        ecbs.append(ecb)
    return np.asarray(ecqs, dtype=np.int64), np.asarray(ecbs, dtype=np.int64)


def _planar_rows_from(spec_rows):
    """Like :func:`_rows_from`, plus a fat ±1 share and an attained EC_b,max."""
    ecq2d, ecbs = _rows_from(spec_rows)
    for row, ecb, (_, seed) in zip(ecq2d, ecbs, spec_rows):
        rng = np.random.default_rng(seed + 1)
        pm = (rng.random(N) < 0.3) & (row != 0)
        row[pm] = rng.choice([-1, 1], size=int(pm.sum()))
        row[0] = (1 << (int(ecb) - 1)) - 1
    return ecq2d, ecbs


def _emit_rows(ecq2d, ecbs, tree_id, lead=0):
    """Every row's planar segment through :func:`add_ecq_planar`, back to
    back after ``lead`` zero bits: (stream bits, segment starts, end)."""
    sizes = encoded_size_bits_batch(ecq2d, ecbs, tree_id)
    starts = lead + np.cumsum(sizes) - sizes
    end = lead + int(sizes.sum())
    words = np.zeros(end // 64 + 3, dtype=np.uint64)
    add_ecq_planar(words, np.ascontiguousarray(ecq2d), ecbs, starts, tree_id)
    bits = np.unpackbits(words.byteswap().view(np.uint8))
    assert not bits[end:].any()  # nothing past the last segment
    return bits[:end], starts, end


def _bit_string(bits: np.ndarray) -> str:
    return "".join(map(str, bits.tolist()))


@given(spec_rows=planar_rows, tree_id=st.sampled_from([1, 2, 3, 4, 5]))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_batched_row_encoders_match_per_block(spec_rows, tree_id):
    """Emitting many rows at once gives each row its one-block segment:
    the row's reference codewords reordered into planes, then tails."""
    if tree_id == 4:
        # the oracle packs each codeword in a uint64, and tree 4's longest
        # is 2 * (EC_b,max - 1) bits
        spec_rows = [(min(ecb, 33), seed) for ecb, seed in spec_rows]
    ecq2d, ecbs = _planar_rows_from(spec_rows)
    bits, starts, end = _emit_rows(ecq2d, ecbs, tree_id)
    ends = list(starts[1:]) + [end]
    for k, (row, ecb) in enumerate(zip(ecq2d, ecbs)):
        got = bits[starts[k] : ends[k]]
        alone, _, _ = _emit_rows(row[None, :], ecb[None], tree_id, lead=k % 64)
        assert np.array_equal(got, alone[k % 64 :])
        assert _bit_string(got) == planar_bits(row, int(ecb), tree_id)
        assert got.size == int(encode_ecq(row, int(ecb), tree_id)[1].sum())
    # int32 residuals (the compressor's usual dtype) emit the same bits
    if int(ecbs.max()) <= 31:
        bits32, _, _ = _emit_rows(ecq2d.astype(np.int32), ecbs, tree_id)
        assert np.array_equal(bits, bits32)


@given(
    spec_rows=planar_rows,
    tree_id=st.sampled_from([1, 2, 3, 4, 5]),
    lead=st.integers(0, 13),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_planar_decode_inverts_emitter_and_walk(spec_rows, tree_id, lead):
    """One batched decode recovers every row; the popcount walk agrees."""
    ecq2d, ecbs = _planar_rows_from(spec_rows)
    bits, starts, pos = _emit_rows(ecq2d, ecbs, tree_id, lead)
    packed = np.concatenate([np.packbits(bits), np.zeros(8, dtype=np.uint8)])
    out = np.zeros(ecq2d.shape, dtype=np.int64)
    ends = decode_ecq_planar(bits, packed, starts, ecbs, tree_id, out)
    assert np.array_equal(out, ecq2d)
    sc = FieldScanner(np.packbits(bits), pos=lead)
    for k, ecb in enumerate(ecbs):
        skip_planar_segment(sc, N, int(ecb), tree_id)
        assert sc.pos == ends[k] == (starts[k + 1] if k + 1 < len(starts) else pos)


@given(spec_rows=ecq_rows, tree_id=st.sampled_from([1, 3, 5]))
@settings(max_examples=60, deadline=None)
def test_moment_sizing_matches_exact_count(spec_rows, tree_id):
    ecq2d, ecbs = _rows_from(spec_rows)
    a = np.abs(ecq2d)
    nnz = np.count_nonzero(a, axis=1)
    s = np.minimum(a, 2).sum(axis=1)
    sizes = encoded_size_bits_from_moments(N, nnz, s, ecbs, tree_id)
    for k, (row, ecb) in enumerate(zip(ecq2d, ecbs)):
        assert sizes[k] == int(encode_ecq(row, int(ecb), tree_id)[1].sum())


@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_three_leaf_fused_encoder_matches_tree5(seed, n_rows):
    """Tree 5 at EC_b,max 2 ('0', '10', '11'): one plane, then sign bits."""
    rng = np.random.default_rng(seed)
    ecq2d = rng.integers(-1, 2, size=(n_rows, N))
    ecbs = np.full(n_rows, 2, dtype=np.int64)
    bits, starts, end = _emit_rows(ecq2d, ecbs, 5)
    for k, row in enumerate(ecq2d):
        got = bits[starts[k] : starts[k + 1] if k + 1 < n_rows else end]
        nz = row != 0
        assert np.array_equal(got, np.concatenate([nz, row[nz] < 0]).astype(np.uint8))
        assert _bit_string(got) == planar_bits(row, 2, 5)
        assert got.size == int(encode_ecq(row, 2, 5)[1].sum())
