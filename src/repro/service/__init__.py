"""Compression service layer: the PaSTRI codec behind a network boundary.

Everything else in :mod:`repro` is an in-process library; this package puts
the codec, the PSTF container, and the spillable
:class:`repro.pipeline.store.CompressedERIStore` behind a TCP server so
integrals can be compressed centrally and fetched on demand — the
producer/consumer split the paper's GAMESS deployment and the FPGA /
hierarchical-matrix ERI backends in PAPERS.md all assume.

Four modules:

* :mod:`repro.service.protocol` — the length-prefixed framed wire format
  (JSON header + raw binary payload) shared by both ends, with
  writev-style ``encode_*_parts`` buffer chains for the zero-copy data
  plane and one set of frame checks behind the blocking and the asyncio
  reader;
* :mod:`repro.service.endpoint` — the frame-serving loop, error mapping,
  bounded stop and thread host that the server and the cluster gateway
  share;
* :mod:`repro.service.server` — an asyncio TCP server with micro-batched
  compression fused into the batched kernels (``compress_many``),
  bounded-queue backpressure (BUSY replies, never unbounded buffering),
  per-request deadlines, and graceful drain on SIGTERM;
* :mod:`repro.service.client` — sync and async clients with connection
  reuse (each sync reply payload is read once, into what the call
  returns), a multiplexed async connection, timeouts, and
  retry-with-exponential-backoff-and-jitter on BUSY and connection
  errors.

``pastri serve`` and ``pastri remote ...`` expose the two ends on the
command line; ``docs/SERVICE.md`` documents the protocol and the
batching/backpressure knobs.  One server is also one *shard* of the
replicated fleet in :mod:`repro.cluster` (consistent-hash routing,
replication, hinted handoff — ``docs/CLUSTER.md``).
"""

from __future__ import annotations

from repro.service.client import AsyncServiceClient, RetryPolicy, ServiceClient
from repro.service.protocol import (
    MAGIC,
    encode_error,
    encode_frame,
    encode_frame_parts,
    encode_response,
    encode_response_parts,
    read_frame,
    read_frame_async,
)
from repro.service.server import CompressionServer, ServerConfig, serve_in_thread

__all__ = [
    "MAGIC",
    "encode_frame",
    "encode_frame_parts",
    "encode_response",
    "encode_response_parts",
    "encode_error",
    "read_frame",
    "read_frame_async",
    "CompressionServer",
    "ServerConfig",
    "serve_in_thread",
    "ServiceClient",
    "AsyncServiceClient",
    "RetryPolicy",
]
