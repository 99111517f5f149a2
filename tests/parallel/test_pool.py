"""Tests for block-parallel compression (repro.parallel.pool)."""

import multiprocessing as mp

import numpy as np
import pytest

import repro.parallel.pool as pool_mod
from repro import api, telemetry
from repro.errors import CompressionError, FormatError, ParameterError
from repro.parallel.pool import (
    parallel_compress,
    parallel_decompress,
    pool_context,
    split_stream,
)
from tests.conftest import make_patterned_stream

BLOCK = 6**4


class _BoomCodec:
    """A codec whose compress always fails — worker-crash fixture."""

    name = "boom"

    def compress(self, data, error_bound):
        raise RuntimeError("synthetic worker failure")

    def decompress(self, blob):  # pragma: no cover - never reached
        raise RuntimeError("synthetic worker failure")


@pytest.fixture
def boom_codec():
    """Register the failing codec for one test only.

    Fork workers inherit the registry as of pool creation, so test-scope
    registration reaches them; the name is removed afterwards so codec
    enumeration elsewhere in the suite never sees it.
    """
    api.register_codec("boom", _BoomCodec)
    yield
    api._REGISTRY.pop("boom", None)


def test_split_stream_respects_block_boundaries(rng):
    data = rng.standard_normal(BLOCK * 7 + 13)
    chunks = split_stream(data, 3, BLOCK)
    assert sum(c.size for c in chunks) == data.size
    for c in chunks[:-1]:
        assert c.size % BLOCK == 0
    assert np.array_equal(np.concatenate(chunks), data)


def test_split_stream_tiny_input(rng):
    data = rng.standard_normal(10)
    chunks = split_stream(data, 4, BLOCK)
    assert len(chunks) == 1 and chunks[0].size == 10


def test_serial_path_roundtrip(rng):
    data = make_patterned_stream(rng, n_blocks=8)
    blobs = parallel_compress("pastri", data, 1e-10, 1, BLOCK, {"dims": (6, 6, 6, 6)})
    out = parallel_decompress("pastri", blobs, 1, {"dims": (6, 6, 6, 6)})
    assert np.max(np.abs(out - data)) <= 1e-10


def test_parallel_path_roundtrip(rng):
    data = make_patterned_stream(rng, n_blocks=16)
    blobs = parallel_compress("pastri", data, 1e-10, 4, BLOCK, {"dims": (6, 6, 6, 6)})
    assert len(blobs) == 4
    out = parallel_decompress("pastri", blobs, 4, {"dims": (6, 6, 6, 6)})
    assert np.max(np.abs(out - data)) <= 1e-10


def test_parallel_equals_serial_result(rng):
    data = make_patterned_stream(rng, n_blocks=12)
    serial = parallel_compress("pastri", data, 1e-10, 1, BLOCK, {"dims": (6, 6, 6, 6)})
    par = parallel_compress("pastri", data, 1e-10, 3, BLOCK, {"dims": (6, 6, 6, 6)})
    assert b"".join(serial) != b""  # sanity
    out_s = parallel_decompress("pastri", serial, 1, {"dims": (6, 6, 6, 6)})
    out_p = parallel_decompress("pastri", par, 3, {"dims": (6, 6, 6, 6)})
    assert np.array_equal(out_s, out_p)


def test_other_codecs_work_in_pool(rng):
    data = rng.standard_normal(5000) * 1e-7
    for codec in ("sz", "zfp"):
        blobs = parallel_compress(codec, data, 1e-10, 2, 1000)
        out = parallel_decompress(codec, blobs, 2)
        assert np.max(np.abs(out - data)) <= 1e-10


def _mixed_blobs(rng):
    """Eight PaSTRI blobs of 1 to 40 blocks over two geometries; with six
    blocks the (dd|dd) results stay below the shared-memory threshold."""
    blobs = []
    for i, n_blocks in enumerate((1, 40, 3, 6, 2, 17, 1, 9)):
        dims = (6, 6, 6, 6) if i % 2 else (3, 3, 6, 6)
        data = make_patterned_stream(rng, n_blocks=n_blocks, dims=dims)
        blobs.append(api.get_codec("pastri", dims=dims).compress(data, 1e-10))
    return blobs


@pytest.mark.parametrize("n_workers", [2, 3])
def test_decompress_batch_is_bit_identical_to_decompress(rng, n_workers):
    blobs = _mixed_blobs(rng)
    codec = api.get_codec("pastri", dims=(6, 6, 6, 6))
    with pool_mod.CodecWorkerPool("pastri", {"dims": [6, 6, 6, 6]}, n_workers) as p:
        outs = p.decompress_batch(blobs)
    assert len(outs) == len(blobs)
    for blob, out in zip(blobs, outs):
        alone = codec.decompress(blob)
        assert out.dtype == alone.dtype and out.shape == alone.shape
        assert np.array_equal(out.view(np.uint64), alone.view(np.uint64))


def test_decompress_batch_corrupt_blob_raises_its_own_error(rng):
    blobs = _mixed_blobs(rng)
    blobs[5] = blobs[5][: len(blobs[5]) // 2]  # a truncated stream
    codec = api.get_codec("pastri", dims=(6, 6, 6, 6))
    with pytest.raises(FormatError) as alone:
        codec.decompress(blobs[5])
    with pool_mod.CodecWorkerPool("pastri", {"dims": [6, 6, 6, 6]}, 2) as p:
        with pytest.raises(FormatError) as batch:
            p.decompress_batch(blobs)
    assert type(batch.value) is type(alone.value)
    assert str(batch.value) == str(alone.value)


@pytest.mark.parametrize(
    ("sizes", "n", "shares"),
    [
        ([10, 10, 10, 10], 2, [(0, 2), (2, 4)]),
        ([10, 10, 10, 10], 4, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        ([100, 1, 1], 2, [(0, 1), (1, 3)]),
        ([1, 100, 1], 3, [(0, 2), (2, 3)]),
        ([5, 5], 8, [(0, 1), (1, 2)]),
        ([7], 2, [(0, 1)]),
    ],
)
def test_shares_are_contiguous_and_balanced_by_bytes(sizes, n, shares):
    assert pool_mod._shares(sizes, n) == shares


def test_rejects_zero_workers(rng):
    with pytest.raises(ParameterError):
        parallel_compress("sz", rng.standard_normal(10), 1e-10, 0, 4)


def test_pool_context_prefers_fork(monkeypatch):
    real_get_context = mp.get_context
    seen = []

    def fake_get_context(method):
        seen.append(method)
        return real_get_context(method)

    monkeypatch.setattr(pool_mod.mp, "get_context", fake_get_context)
    ctx = pool_context()
    assert seen == ["fork"]
    assert ctx.get_start_method() == "fork"


def test_pool_context_falls_back_to_spawn(monkeypatch):
    """Spawn-only platforms (Windows/macOS defaults) must not crash."""
    real_get_context = mp.get_context
    seen = []

    def fork_unavailable(method):
        seen.append(method)
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return real_get_context(method)

    monkeypatch.setattr(pool_mod.mp, "get_context", fork_unavailable)
    ctx = pool_context()
    assert seen == ["fork", "spawn"]
    assert ctx.get_start_method() == "spawn"


def test_parallel_compress_uses_selected_context(rng, monkeypatch):
    """The pool is built from pool_context(), not a hardcoded fork."""

    class RecordingContext:
        def __init__(self):
            self.calls = []
            self._ctx = mp.get_context("fork")

        def Pool(self, *args, **kwargs):
            self.calls.append((args, kwargs))
            return self._ctx.Pool(*args, **kwargs)

    recorder = RecordingContext()
    monkeypatch.setattr(pool_mod, "pool_context", lambda: recorder)
    data = make_patterned_stream(rng, n_blocks=4)
    blobs = parallel_compress("pastri", data, 1e-10, 2, BLOCK, {"dims": (6, 6, 6, 6)})
    assert len(recorder.calls) == 1
    out = parallel_decompress("pastri", blobs, 1, {"dims": (6, 6, 6, 6)})
    assert np.max(np.abs(out - data)) <= 1e-10


def test_spawn_fallback_roundtrips_telemetry(rng, monkeypatch):
    """Telemetry deltas survive the fork -> spawn fallback path.

    Spawn workers re-import the codec registry and receive the enable flag
    through the initializer, so worker metrics and spans must still merge
    into the parent exactly as with fork.
    """
    real_get_context = mp.get_context

    def fork_unavailable(method):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return real_get_context(method)

    monkeypatch.setattr(pool_mod.mp, "get_context", fork_unavailable)

    data = make_patterned_stream(rng, n_blocks=8)
    telemetry.enable()
    telemetry.reset()
    try:
        blobs = parallel_compress(
            "pastri", data, 1e-10, 2, BLOCK, {"dims": (6, 6, 6, 6)}
        )
        out = parallel_decompress("pastri", blobs, 1, {"dims": (6, 6, 6, 6)})
        assert np.max(np.abs(out - data)) <= 1e-10
        bytes_in = telemetry.REGISTRY.counter("codec.pastri.compress.bytes_in")
        assert bytes_in.value == data.nbytes
        (pc,) = [r for r in telemetry.drain_spans() if r.name == "parallel.compress"]
        workers = [c for c in pc.children if c.name == "codec.pastri.compress"]
        assert len(workers) == 2
        assert all("proc" in w.attrs for w in workers)
    finally:
        telemetry.disable()
        telemetry.reset()


def test_worker_exception_surfaces_as_compression_error(rng, tmp_path, boom_codec):
    """A worker dying mid-chunk raises cleanly in the parent — no hang."""
    from repro.parallel.pool import parallel_compress_to_container

    data = make_patterned_stream(rng, n_blocks=8)
    path = str(tmp_path / "x.pstf")
    with pytest.raises(CompressionError, match="worker failed"):
        parallel_compress_to_container("boom", data, 1e-10, 2, BLOCK, path)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_nan_input_raises_parameter_error_at_any_worker_count(rng, tmp_path, n_workers):
    """A library error raised in a worker surfaces as the in-process path
    raises it, from both parallel compress entry points."""
    from repro.parallel.pool import parallel_compress_to_container

    data = make_patterned_stream(rng, n_blocks=8)
    data[BLOCK + 5] = np.nan
    kwargs = {"dims": (6, 6, 6, 6)}
    with pytest.raises(ParameterError):
        parallel_compress("pastri", data, 1e-10, n_workers, BLOCK, kwargs)
    path = str(tmp_path / "nan.pstf")
    with pytest.raises(ParameterError):
        parallel_compress_to_container(
            "pastri", data, 1e-10, n_workers, BLOCK, path, codec_kwargs=kwargs
        )


# ---------------------------------------------------------------------------
# container-backed parallel I/O


def test_container_dump_load_roundtrip(rng, tmp_path):
    from repro.parallel.pool import (
        parallel_compress_to_container,
        parallel_decompress_container,
    )

    data = make_patterned_stream(rng, n_blocks=16)
    path = str(tmp_path / "dump.pstf")
    summary = parallel_compress_to_container(
        "pastri", data, 1e-10, 2, BLOCK, path, codec_kwargs={"dims": (6, 6, 6, 6)}
    )
    assert summary.n_chunks == 2
    assert summary.ratio > 5
    out = parallel_decompress_container(path, 2)
    assert np.max(np.abs(out - data)) <= 1e-10


def test_container_load_matches_across_worker_counts(rng, tmp_path):
    from repro.parallel.pool import (
        parallel_compress_to_container,
        parallel_decompress_container,
    )

    data = make_patterned_stream(rng, n_blocks=12)
    path = str(tmp_path / "dump.pstf")
    parallel_compress_to_container(
        "pastri", data, 1e-10, 3, BLOCK, path,
        codec_kwargs={"dims": (6, 6, 6, 6)}, n_frames=6,
    )
    outs = [parallel_decompress_container(path, w) for w in (1, 2, 4)]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[1], outs[2])


def test_container_dump_is_self_describing(rng, tmp_path):
    """The dumped file opens with no codec arguments — the acceptance path."""
    from repro.parallel.pool import parallel_compress_to_container
    from repro.streamio import open_container

    data = make_patterned_stream(rng, n_blocks=8)
    path = str(tmp_path / "dump.pstf")
    parallel_compress_to_container(
        "pastri", data, 1e-10, 2, BLOCK, path,
        codec_kwargs={"dims": (6, 6, 6, 6)}, n_frames=4, meta={"source": "test"},
    )
    with open_container(path) as r:
        assert len(r) == 4
        assert r.codec.spec.dims == (6, 6, 6, 6)
        assert r.meta["error_bound"] == 1e-10
        assert r.meta["block_size"] == BLOCK
        assert r.meta["source"] == "test"
        assert np.max(np.abs(r.read_all() - data)) <= 1e-10


def test_container_frames_decouple_from_workers(rng, tmp_path):
    from repro.parallel.pool import parallel_compress_to_container
    from repro.streamio import open_container

    data = make_patterned_stream(rng, n_blocks=8)
    path = str(tmp_path / "dump.pstf")
    parallel_compress_to_container(
        "pastri", data, 1e-10, 2, BLOCK, path,
        codec_kwargs={"dims": (6, 6, 6, 6)}, n_frames=8,
    )
    with open_container(path) as r:
        assert len(r) == 8


def test_container_rejects_zero_workers(rng, tmp_path):
    from repro.parallel.pool import (
        parallel_compress_to_container,
        parallel_decompress_container,
    )

    path = str(tmp_path / "dump.pstf")
    with pytest.raises(ParameterError):
        parallel_compress_to_container(
            "sz", rng.standard_normal(10), 1e-10, 0, 4, path
        )
    parallel_compress_to_container("sz", rng.standard_normal(10), 1e-10, 1, 4, path)
    with pytest.raises(ParameterError):
        parallel_decompress_container(path, 0)
