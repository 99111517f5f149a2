"""Property tests: arbitrary chunk streams round-trip through a container.

For every registered codec, any sequence of finite chunks written through
:class:`ContainerWriter` must come back within the error bound — through
both the sequential path (``decompress_stream``) and the indexed path
(``open_container`` with *no codec arguments*, exercising the embedded
codec spec and the per-frame CRCs on every example).
"""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import api
from repro.streamio import compress_stream, decompress_stream, open_container, read_stream_header

EB = 1e-9
LOSSLESS = {"deflate", "fpc"}
#: Constructor kwargs that keep the property examples small and fast.
CODEC_KWARGS = {
    "pastri": {"dims": (2, 2, 3, 3)},
    "sz": {"capacity": 256},
}

finite_doubles = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
chunk = hnp.arrays(np.float64, st.integers(1, 120), elements=finite_doubles)
chunk_streams = st.lists(chunk, min_size=0, max_size=4)


def check_roundtrip(name: str, chunks: list[np.ndarray]) -> None:
    codec = api.get_codec(name, **CODEC_KWARGS.get(name, {}))
    buf = io.BytesIO()
    compress_stream(chunks, codec, EB, buf)

    tol = 0.0 if name in LOSSLESS else EB

    buf.seek(0)
    assert read_stream_header(buf) == name
    seq = list(decompress_stream(buf, api.get_codec(name, **CODEC_KWARGS.get(name, {}))))
    assert len(seq) == len(chunks)
    for got, want in zip(seq, chunks):
        assert got.size == want.size
        assert np.all(np.abs(got - want) <= tol)

    buf.seek(0)
    r = open_container(buf)  # codec rebuilt from the embedded spec
    assert len(r) == len(chunks)
    for i, want in enumerate(chunks):
        got = r.read_frame(i)
        assert got.size == want.size
        assert np.all(np.abs(got - want) <= tol)


@given(chunks=chunk_streams)
@settings(max_examples=25, deadline=None)
def test_pastri_container_roundtrip(chunks):
    check_roundtrip("pastri", chunks)


@given(chunks=chunk_streams)
@settings(max_examples=25, deadline=None)
def test_sz_container_roundtrip(chunks):
    check_roundtrip("sz", chunks)


@given(chunks=chunk_streams)
@settings(max_examples=15, deadline=None)
def test_zfp_container_roundtrip(chunks):
    check_roundtrip("zfp", chunks)


@given(chunks=chunk_streams)
@settings(max_examples=15, deadline=None)
def test_deflate_container_roundtrip(chunks):
    check_roundtrip("deflate", chunks)


@given(chunks=chunk_streams)
@settings(max_examples=10, deadline=None)
def test_fpc_container_roundtrip(chunks):
    check_roundtrip("fpc", chunks)


def test_every_registered_codec_is_covered():
    """Fail loudly if a codec is registered without a round-trip property."""
    covered = {"pastri", "sz", "zfp", "deflate", "fpc"}
    # other test modules register throwaway codecs under *-test names
    registered = {n for n in api.available_codecs() if not n.endswith("-test")}
    assert registered == covered
