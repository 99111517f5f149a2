"""Unit tests for the PaSTRI stream header (repro.core.header)."""

import struct

import pytest

from repro.core import header as fmt
from repro.core.blocking import BlockSpec
from repro.core.scaling import ScalingMetric
from repro.errors import FormatError, ParameterError


def make_header(**overrides):
    kw = dict(
        error_bound=1e-10,
        spec=BlockSpec((6, 6, 6, 6)),
        n_blocks=123,
        n_tail=7,
        tree_id=5,
        metric=ScalingMetric.ER,
    )
    kw.update(overrides)
    return fmt.StreamHeader(**kw)


def test_header_roundtrip():
    hdr = make_header()
    blob = fmt.pack_header(hdr)
    assert 8 * len(blob) == fmt.StreamHeader.NBITS
    got = fmt.unpack_header(blob)
    assert got == hdr


def test_header_roundtrip_all_metrics_and_trees():
    for metric in ScalingMetric:
        for tree in (1, 2, 3, 4, 5):
            hdr = make_header(metric=metric, tree_id=tree)
            got = fmt.unpack_header(fmt.pack_header(hdr))
            assert got.metric is metric and got.tree_id == tree


def test_bad_magic_rejected():
    blob = bytearray(fmt.pack_header(make_header()))
    blob[0] ^= 0xFF
    with pytest.raises(FormatError):
        fmt.unpack_header(bytes(blob))


def test_bad_version_rejected():
    blob = bytearray(fmt.pack_header(make_header()))
    blob[4] ^= 0x01  # version byte
    with pytest.raises(FormatError):
        fmt.unpack_header(bytes(blob))


def test_truncated_header_rejected():
    blob = fmt.pack_header(make_header())
    with pytest.raises(FormatError):
        fmt.unpack_header(blob[:10])


def test_oversized_dims_rejected():
    hdr = make_header(spec=BlockSpec((1 << 16, 1, 1, 1)))
    with pytest.raises(ParameterError):
        fmt.pack_header(hdr)


def test_only_the_current_version_is_written():
    """Version 1 is read-only: its dense layout has no writer here."""
    assert fmt.READ_VERSIONS == tuple(fmt.LAYOUT_NAMES) == (1, 2)
    for version in (1, 3):
        with pytest.raises(ParameterError, match="version"):
            fmt.pack_header(make_header(version=version))


def test_header_bytes_follow_the_documented_bit_layout():
    """Field by field, MSB first: magic, version, tree|metric, EB, dims,
    48-bit n_blocks, 32-bit n_tail (docs/FORMAT.md)."""
    hdr = make_header(
        spec=BlockSpec((6, 6, 10, 3)), n_blocks=(1 << 40) + 123, tree_id=4,
        metric=ScalingMetric.IS,
    )
    assert fmt.pack_header(hdr).hex() == (
        "50535452" "02" "44" "3ddb7cdfd9d7bdbb" "0006" "0006" "000a" "0003"
        "01000000007b" "00000007"
    )


@pytest.mark.parametrize(
    "offset, raw, what",
    [
        (5, b"\x05", "tree id"),  # tree 0
        (5, b"\x65", "tree id"),  # tree 6
        (5, b"\x5f", "metric"),
        (6, struct.pack(">d", float("nan")), "error bound"),
        (6, struct.pack(">d", 0.0), "error bound"),
        (6, struct.pack(">d", -1e-10), "error bound"),
        (14, b"\x00\x00", "dims"),
        (20, b"\x00\x00", "dims"),
    ],
)
def test_corrupt_fields_rejected(offset, raw, what):
    blob = bytearray(fmt.pack_header(make_header()))
    blob[offset : offset + len(raw)] = raw
    with pytest.raises(FormatError, match=what):
        fmt.unpack_header(bytes(blob))
