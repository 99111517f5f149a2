"""Golden-stream tests: the on-disk formats must not drift accidentally.

A deterministic input compressed with fixed settings must produce a
byte-identical stream across code changes; any intentional format change
must bump the version constants and update these digests.
"""

import hashlib

import numpy as np

from repro.core import PaSTRICompressor, ScalingMetric
from repro.sz import SZCompressor
from repro.zfp import ZFPCompressor


def deterministic_stream() -> np.ndarray:
    rng = np.random.default_rng(20180924)  # CLUSTER'18 vintage
    pat = rng.standard_normal((4, 1, 36))
    s = rng.uniform(-1, 1, (4, 36, 1))
    blocks = 1e-7 * pat * s * (1 + 1e-3 * rng.standard_normal((4, 36, 36)))
    blocks[0] = 0.0
    return blocks.reshape(-1)


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def test_pastri_stream_digest():
    data = deterministic_stream()
    blob = PaSTRICompressor(dims=(6, 6, 6, 6)).compress(data, 1e-10)
    assert digest(blob) == "55c9775bd247726c"  # stream v2 (planar ECQ)


def test_pastri_stream_digest_tree1_aar():
    data = deterministic_stream()
    blob = PaSTRICompressor(
        dims=(6, 6, 6, 6), metric=ScalingMetric.AAR, tree_id=1
    ).compress(data, 1e-9)
    assert digest(blob) == "aebf2736b7214f71"  # stream v2 (planar ECQ)


def test_sz_stream_digest():
    blob = SZCompressor().compress(deterministic_stream(), 1e-10)
    assert digest(blob) == "91f7948284be6703"


def test_zfp_stream_digest():
    blob = ZFPCompressor().compress(deterministic_stream(), 1e-10)
    assert digest(blob) == "e488759fd694ddda"


def test_decompression_of_golden_streams_unchanged():
    """Numeric output digests, not just stream bytes."""
    data = deterministic_stream()
    out = PaSTRICompressor(dims=(6, 6, 6, 6)).decompress(
        PaSTRICompressor(dims=(6, 6, 6, 6)).compress(data, 1e-10)
    )
    assert digest(out.tobytes()) == "4293f9897a4c59f6"
