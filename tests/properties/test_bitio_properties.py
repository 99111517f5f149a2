"""Property-based tests for the bitstream substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitio import BitReader, BitWriter, FieldScanner, add_fields
from repro.bitio.vlc import gather_bit_windows_var

fields = st.lists(
    st.integers(1, 64).flatmap(
        lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))
    ),
    min_size=1,
    max_size=80,
)


@given(fields=fields)
@settings(max_examples=150, deadline=None)
def test_heterogeneous_field_roundtrip(fields):
    w = BitWriter()
    for value, width in fields:
        w.write_uint(value, width)
    r = BitReader(w.getvalue())
    for value, width in fields:
        assert r.read_uint(width) == value


@given(
    values=st.lists(st.integers(0, 2**20 - 1), min_size=1, max_size=200),
    width=st.integers(20, 64),
)
@settings(max_examples=80, deadline=None)
def test_uint_array_roundtrip(values, width):
    arr = np.array(values, dtype=np.uint64)
    w = BitWriter()
    w.write_uint_array(arr, width)
    assert np.array_equal(BitReader(w.getvalue()).read_uint_array(len(values), width), arr)


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_doubles_roundtrip_bit_exact(values):
    w = BitWriter()
    for v in values:
        w.write_double(v)
    r = BitReader(w.getvalue())
    for v in values:
        assert r.read_double() == v


@given(st.binary(min_size=0, max_size=64), st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_bytes_roundtrip_at_any_alignment(payload, skew):
    w = BitWriter()
    w.write_uint(0, skew)
    w.write_bytes(payload)
    r = BitReader(w.getvalue())
    r.skip(skew)
    assert r.read_bytes(len(payload)) == payload


@given(st.integers(0, 2**200 - 1))
@settings(max_examples=60, deadline=None)
def test_bigint_roundtrip(value):
    nbits = max(value.bit_length(), 1)
    w = BitWriter()
    w.write_bigint(value, nbits)
    assert w.nbits == nbits
    r = BitReader(w.getvalue())
    got = 0
    for _ in range(nbits):
        got = (got << 1) | r.read_bit()
    assert got == value


@given(
    symbols=st.lists(
        st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 64)), min_size=1, max_size=300
    )
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_varlen_codes_match_string_reference(symbols):
    """Each codeword's low ``length`` bits, MSB first, back to back; any
    bits above ``length`` are ignored."""
    codes = np.array([c for c, _ in symbols], dtype=np.uint64)
    lengths = np.array([n for _, n in symbols], dtype=np.int64)
    ref = "".join(format(c, "064b")[64 - n :] if n else "" for c, n in symbols)
    w = BitWriter()
    w.write_varlen_array(codes, lengths)
    assert w.nbits == len(ref)
    got = np.unpackbits(np.frombuffer(w.getvalue(), dtype=np.uint8))[: len(ref)]
    assert "".join(map(str, got.tolist())) == ref


@given(
    fields=st.lists(
        st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 64), st.integers(0, 70)),
        min_size=1,
        max_size=120,
    ),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_add_fields_at_any_offset_in_any_order(fields, order):
    """Fields added at absolute offsets, gaps between them and in any call
    order, read back as their low ``width`` bits at those offsets."""
    pos, ref = [], ""
    for value, width, gap in fields:
        ref += "0" * gap
        pos.append(len(ref))
        ref += format(value, "064b")[64 - width :] if width else ""
    words = np.zeros(len(ref) // 64 + 2, dtype=np.uint64)
    perm = list(range(len(fields)))
    order.shuffle(perm)
    vals = np.array([fields[i][0] for i in perm], dtype=np.uint64)
    widths = np.array([fields[i][1] for i in perm])
    add_fields(words, np.array(pos)[perm], vals, widths)
    got = np.unpackbits(words.byteswap().view(np.uint8))
    assert "".join(map(str, got[: len(ref)].tolist())) == ref
    assert not got[len(ref) :].any()


@given(
    chunks=st.lists(st.binary(min_size=0, max_size=40), min_size=1, max_size=12),
    skew=st.integers(0, 7),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_count_ones_and_windows_match_bits(chunks, skew):
    """FieldScanner.count_ones and the packed window gather read the same
    bits as the unpacked stream."""
    data = b"".join(chunks)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    sc = FieldScanner(data, pos=min(skew, bits.size))
    for ch in chunks:
        n = min(8 * len(ch), bits.size - sc.pos)
        start = sc.pos
        assert sc.count_ones(n) == int(bits[start : start + n].sum())
    by = np.concatenate([np.frombuffer(data, dtype=np.uint8), np.zeros(8, dtype=np.uint8)])
    rng = np.random.default_rng(len(data) * 8 + skew)
    offsets = rng.integers(0, bits.size + 1, size=32)
    widths = np.minimum(rng.integers(0, 65, size=32), bits.size - offsets)
    padded = np.concatenate([bits, np.zeros(64, dtype=np.uint8)])
    ref = np.array(
        [int("".join(map(str, padded[o : o + w])) or "0", 2) for o, w in zip(offsets, widths)],
        dtype=np.uint64,
    )
    assert np.array_equal(gather_bit_windows_var(by, offsets, widths), ref)
