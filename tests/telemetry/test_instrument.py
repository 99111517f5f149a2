"""Instrumentation tests: codec wrapping, container I/O, store counters.

Covers the PR's acceptance criterion directly: byte totals reported by
telemetry must equal the actual payload sizes moved through the codec and
container layers.
"""

import numpy as np

from repro import telemetry
from repro.core import PaSTRICompressor
from repro.telemetry import REGISTRY, drain_spans, trace
from tests.conftest import make_patterned_stream

DIMS = (6, 6, 6, 6)
BLOCK = 6**4
EB = 1e-10


def test_codec_counters_match_actual_bytes(telemetry_on, rng):
    data = make_patterned_stream(rng, n_blocks=4)
    codec = PaSTRICompressor(dims=DIMS)
    blob = codec.compress(data, EB)
    out = codec.decompress(blob)

    assert REGISTRY.counter("codec.pastri.compress.bytes_in").value == data.nbytes
    assert REGISTRY.counter("codec.pastri.compress.bytes_out").value == len(blob)
    assert REGISTRY.counter("codec.pastri.decompress.bytes_in").value == len(blob)
    assert REGISTRY.counter("codec.pastri.decompress.bytes_out").value == out.nbytes
    # throughput convention: uncompressed bytes on both timers
    assert REGISTRY.timer("codec.pastri.compress").bytes == data.nbytes
    assert REGISTRY.timer("codec.pastri.decompress").bytes == out.nbytes


def test_codec_spans_nest_under_caller(telemetry_on, rng):
    data = make_patterned_stream(rng, n_blocks=2)
    codec = PaSTRICompressor(dims=DIMS)
    with trace("caller"):
        codec.compress(data, EB)
    (root,) = drain_spans()
    assert [c.name for c in root.children] == ["codec.pastri.compress"]


def test_disabled_codec_records_nothing(telemetry_off, rng):
    data = make_patterned_stream(rng, n_blocks=2)
    codec = PaSTRICompressor(dims=DIMS)
    blob = codec.compress(data, EB)
    codec.decompress(blob)
    # registry names may persist from earlier tests, but nothing is recorded
    t = REGISTRY.get("codec.pastri.compress")
    assert t is None or t.count == 0
    c = REGISTRY.get("codec.pastri.compress.bytes_in")
    assert c is None or c.value == 0
    assert drain_spans() == []


def test_container_write_bytes_match_frame_index(telemetry_on, rng, tmp_path):
    """container.write.payload_bytes == sum of actual frame lengths on disk."""
    from repro.streamio import open_container
    from repro.parallel.pool import parallel_compress_to_container

    data = make_patterned_stream(rng, n_blocks=8)
    path = str(tmp_path / "t.pstf")
    parallel_compress_to_container(
        "pastri", data, EB, 1, BLOCK, path,
        codec_kwargs={"dims": DIMS}, n_frames=4,
    )
    with open_container(path) as r:
        on_disk = sum(f.length for f in r.frames)
    assert REGISTRY.counter("container.write.payload_bytes").value == on_disk
    assert REGISTRY.counter("container.write.frames").value == 4
    assert REGISTRY.counter("codec.pastri.compress.bytes_in").value == data.nbytes
    assert REGISTRY.counter("codec.pastri.compress.bytes_out").value == on_disk


def test_container_read_bytes_match(telemetry_on, rng, tmp_path):
    from repro.streamio import open_container
    from repro.parallel.pool import parallel_compress_to_container

    data = make_patterned_stream(rng, n_blocks=8)
    path = str(tmp_path / "t.pstf")
    parallel_compress_to_container(
        "pastri", data, EB, 1, BLOCK, path,
        codec_kwargs={"dims": DIMS}, n_frames=4,
    )
    telemetry.reset()
    with open_container(path) as r:
        on_disk = sum(f.length for f in r.frames)
        out = r.read_all()
    assert np.max(np.abs(out - data)) <= EB
    assert REGISTRY.counter("container.read.payload_bytes").value == on_disk
    assert REGISTRY.counter("container.read.frames").value == 4


def test_parallel_pool_merges_worker_deltas(telemetry_on, rng, tmp_path):
    """A 2-worker pack yields one trace with worker spans and exact bytes."""
    from repro.parallel.pool import parallel_compress_to_container

    data = make_patterned_stream(rng, n_blocks=8)
    path = str(tmp_path / "p.pstf")
    parallel_compress_to_container(
        "pastri", data, EB, 2, BLOCK, path, codec_kwargs={"dims": DIMS},
    )
    (root,) = drain_spans()
    assert root.name == "parallel.compress_to_container"
    names = [c.name for c in root.children]
    assert "parallel.compress" in names and "container.write" in names
    pc = root.children[names.index("parallel.compress")]
    worker_spans = [c for c in pc.children if c.name == "codec.pastri.compress"]
    assert len(worker_spans) == 2
    assert all("proc" in w.attrs for w in worker_spans)
    # worker byte counters merged back into the parent registry
    assert REGISTRY.counter("codec.pastri.compress.bytes_in").value == data.nbytes


def test_store_counters_mirror_stats(telemetry_on, rng):
    from repro.pipeline.store import CompressedERIStore

    store = CompressedERIStore(PaSTRICompressor(dims=DIMS), EB)
    block = make_patterned_stream(rng, n_blocks=1)
    store.put((0, 0, 0, 0), block, dims=DIMS)
    store.get((0, 0, 0, 0))
    store.get((0, 0, 0, 0))

    assert REGISTRY.counter("store.puts").value == store.stats.puts == 1
    assert REGISTRY.counter("store.gets").value == store.stats.gets == 2
    assert (
        REGISTRY.counter("store.original_bytes").value
        == store.stats.original_bytes
        == block.nbytes
    )
    assert (
        REGISTRY.counter("store.compressed_bytes").value
        == store.stats.compressed_bytes
    )


def test_instrumentation_survives_enable_disable_cycles(rng):
    data = make_patterned_stream(rng, n_blocks=2)
    codec = PaSTRICompressor(dims=DIMS)
    blob = codec.compress(data, EB)
    try:
        telemetry.enable()
        telemetry.reset()
        codec.compress(data, EB)
        telemetry.disable()
        codec.compress(data, EB)  # not counted
        assert REGISTRY.counter("codec.pastri.compress.bytes_in").value == data.nbytes
        out = codec.decompress(blob)
        assert np.max(np.abs(out - data)) <= EB
    finally:
        telemetry.disable()
        telemetry.reset()


def test_batch_calls_count_their_bytes_once(telemetry_on, rng):
    """compress_many / decompress_many record under the one-item metric
    names, one span per call, and each byte exactly once."""
    codec = PaSTRICompressor(dims=DIMS)
    streams = [make_patterned_stream(rng, n_blocks=k) for k in (1, 2, 3)]
    blobs = codec.compress_many(streams, EB)
    outs = codec.decompress_many(blobs)
    codec.decompress(blobs[0])  # the one-blob case of the same code
    raw = sum(s.nbytes for s in streams)
    packed = sum(map(len, blobs))
    assert REGISTRY.counter("codec.pastri.compress.bytes_in").value == raw
    assert REGISTRY.counter("codec.pastri.compress.bytes_out").value == packed
    assert REGISTRY.counter("codec.pastri.decompress.bytes_in").value == packed + len(blobs[0])
    assert REGISTRY.counter("codec.pastri.decompress.bytes_out").value == (
        sum(o.nbytes for o in outs) + outs[0].nbytes
    )
    assert REGISTRY.timer("codec.pastri.compress").count == 1
    assert REGISTRY.timer("codec.pastri.decompress").count == 2


def test_lowrank_compress_many_is_one_call_with_each_byte_once(telemetry_on, rng):
    from repro.lowrank import LowRankCompressor

    codec = LowRankCompressor(dims=DIMS)
    streams = [make_patterned_stream(rng, n_blocks=2) for _ in range(3)]
    blobs = codec.compress_many(streams, EB)
    assert REGISTRY.counter("codec.lowrank.compress.bytes_in").value == sum(
        s.nbytes for s in streams
    )
    assert REGISTRY.counter("codec.lowrank.compress.bytes_out").value == sum(map(len, blobs))
    assert REGISTRY.timer("codec.lowrank.compress").count == 1  # one span per call
