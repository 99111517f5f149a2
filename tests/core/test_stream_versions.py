"""PaSTRI stream versions: v1 blobs keep decoding, v2 moves no bit count.

``tests/data/pastri_v1_streams.npz`` holds blobs written by the version-1
writer (interleaved dense ECQ codewords), before the planar layout existed:

* ``det_t{tree}_{mode}_blob`` — ``deterministic_stream()`` at EB 1e-10,
  dims (6,6,6,6), for trees 1-5 and ECQ modes adaptive / dense / sparse;
* ``mixed_t{tree}_adaptive_blob`` — ``mixed_input`` (dims (3,3,3,3)):
  zero, raw, sparse and dense blocks at EC_b,max 2 to 22, then a 5-value
  tail, for trees 1-5.

``{name}_out`` indexes the ``output_{k}`` array that blob decoded to.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import PaSTRICompressor
from repro.core import header as fmt
from repro.errors import FormatError
from tests.core.test_format_stability import deterministic_stream

FIXTURES = np.load(Path(__file__).resolve().parent.parent / "data" / "pastri_v1_streams.npz")
CASES = sorted(k[: -len("_blob")] for k in FIXTURES.files if k.endswith("_blob"))
EB = 1e-10


def _case(name):
    """(codec, input, v1 blob, v1 output) of one fixture case."""
    tree = int(name.split("_t")[1][0])
    mode = name.rsplit("_", 1)[1]
    if name.startswith("mixed"):
        dims, data = (3, 3, 3, 3), FIXTURES["mixed_input"]
    else:
        dims, data = (6, 6, 6, 6), deterministic_stream()
    codec = PaSTRICompressor(dims=dims, tree_id=tree, ecq_mode=mode)
    out = FIXTURES[f"output_{int(FIXTURES[name + '_out'])}"]
    return codec, data, FIXTURES[name + "_blob"].tobytes(), out


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("name", CASES)
def test_v1_fixture_decodes_bit_identically(name):
    codec, _, blob, expected = _case(name)
    assert fmt.unpack_header(blob).version == 1
    assert _same_bits(codec.decompress(blob), expected)
    assert _same_bits(codec.decompress(blob), expected)  # memoised parse


@pytest.mark.parametrize("name", CASES)
def test_v2_roundtrip_matches_v1_output(name):
    """Same codewords reordered: same length, same reconstruction."""
    codec, data, v1_blob, expected = _case(name)
    blob = codec.compress(data, EB)
    assert fmt.unpack_header(blob).version == 2
    assert len(blob) == len(v1_blob)
    assert _same_bits(PaSTRICompressor(dims=(1, 1, 1, 1)).decompress(blob), expected)


def test_mixed_fixture_covers_every_block_class():
    codec, _, blob, _ = _case("mixed_t5_adaptive")
    codec.decompress(blob)
    kinds, ecb, sparse, dense = (codec._parse_cache[blob][i] for i in (0, 2, 6, 7))
    assert set(kinds.tolist()) == {fmt.KIND_ZERO, fmt.KIND_PATTERNED, fmt.KIND_RAW}
    assert sparse.any() and dense.size
    assert {2, 3}.issubset(set(ecb[dense].tolist()))  # both tree-5 branches
    assert int(ecb[dense].max()) > 16  # a codeword wider than 16 bits


def test_header_version_roundtrip_and_rejects():
    blob = PaSTRICompressor(dims=(3, 3, 3, 3)).compress(FIXTURES["mixed_input"], EB)
    hdr = fmt.unpack_header(blob)
    assert hdr.version == fmt.VERSION == 2
    for bad in (0, 3, 255):
        raw = bytearray(blob)
        raw[4] = bad
        with pytest.raises(FormatError, match="version"):
            fmt.unpack_header(bytes(raw))


# ---------------------------------------------------------------------------
# Corruption containment of the planar walk


def _outcome(codec, blob):
    """'array' or 'format'; anything else escapes and fails the test."""
    codec._parse_cache.clear()
    try:
        out = codec.decompress(blob)
    except FormatError:
        return "format"
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    return "array"


@pytest.mark.parametrize("tree", [4, 5])
def test_v2_byte_flips_and_truncations_are_contained(tree):
    codec = PaSTRICompressor(dims=(3, 3, 3, 3), tree_id=tree)
    blob = codec.compress(FIXTURES["mixed_input"], EB)
    seen = set()
    for i in range(len(blob)):
        for mask in (0xFF, 1 << (i % 8)):
            raw = bytearray(blob)
            raw[i] ^= mask
            seen.add(_outcome(codec, bytes(raw)))
    for cut in range(len(blob)):
        assert _outcome(codec, blob[:cut]) == "format"
    assert seen == {"array", "format"}
