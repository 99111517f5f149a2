"""The ``lowrank`` codec: batched factorization + ECQ residual pass.

Where PaSTRI compresses each shell-block stream by exploiting the outer-
product pattern *inside* a block, this codec exploits the low-rank
structure *across* blocks: the whole-block body of a stream is stacked
into a matrix (or a 3-way tensor) and replaced by a truncated
factorization, with rank chosen adaptively from the error budget
(:mod:`repro.lowrank.policy`).  A mandatory residual pass
(:mod:`repro.lowrank.residual`) then quantizes the deviation between the
input and the decompressor's exact reconstruction on PaSTRI's ECQ grid,
so the point-wise contract ``max |x - x̂| <= EB`` holds for **every**
input — factorization quality only moves bytes, never correctness.

Degenerate inputs keep hard guarantees: an all-zero body round-trips
exactly (rank-0 blob), and a pinned rank at or above ``min(n_blocks,
block_size)`` — full rank, where factoring cannot pay — falls back to
verbatim (DEFLATE) storage, which is also exact.  The same fallback
catches batches whose factorized-plus-residual encoding would exceed raw
storage, so the codec never loses badly.

Registered as ``"lowrank"`` through :func:`repro.api.register_codec`;
its :meth:`spec_kwargs` make PSTF containers, the spill store, the PSRV
service, and the cluster gateway carry it with no changes of their own.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro import api, telemetry
from repro.core.blocking import BlockSpec, split_blocks
from repro.errors import FormatError, ParameterError
from repro.lowrank import factor as lrf
from repro.lowrank import format as fmt
from repro.lowrank.policy import RankPolicy, choose_rank
from repro.lowrank.residual import (
    MODE_NONE,
    ResidualStream,
    decode_residual,
    encode_residual,
    quantize_residual,
)
from repro.telemetry import REGISTRY as _METRICS
from repro.telemetry import state as _tstate

#: Factor magnitudes beyond this use float64 storage; float32 would
#: overflow to inf and poison the reconstruction.
_F32_SAFE_MAX = 1e30

#: DEFLATE level for the raw-fallback body (fast; the fallback exists for
#: exactness, not ratio).
_RAW_ZLEVEL = 1


@telemetry.instrument_codec
class LowRankCompressor:
    """Error-bounded low-rank codec over batches of shell blocks.

    Parameters
    ----------
    dims:
        Block geometry ``(N1, N2, N3, N4)``; mutually exclusive with
        ``config``.
    config:
        BF-configuration string such as ``"(dd|dd)"``.
    method:
        ``"svd"`` (default) factors the ``(n_blocks, block_size)`` matrix
        with a truncated randomized SVD; ``"cp"`` fits a CP decomposition
        of the ``(n_blocks, num_sb, sb_size)`` tensor by ALS — smaller
        factors, costlier fit.
    rank:
        ``0`` (default) chooses the rank adaptively from the error
        budget; ``> 0`` pins it (clamped to the geometry; at or above
        full rank the codec stores verbatim, exactly).
    max_rank:
        Ceiling for the adaptive search.

    Examples
    --------
    >>> codec = LowRankCompressor(config="(dd|dd)")
    >>> blob = codec.compress(data, error_bound=1e-10)
    >>> out = codec.decompress(blob)
    >>> bool(np.max(np.abs(out - data)) <= 1e-10)
    True
    """

    name = "lowrank"

    def __init__(
        self,
        dims: tuple[int, int, int, int] | None = None,
        config: str | None = None,
        method: str = "svd",
        rank: int = 0,
        max_rank: int = 32,
    ) -> None:
        if (dims is None) == (config is None):
            raise ParameterError("provide exactly one of dims= or config=")
        self.spec = BlockSpec(dims) if dims is not None else BlockSpec.from_config(config)
        if method not in ("svd", "cp"):
            raise ParameterError(f"method must be 'svd' or 'cp', got {method!r}")
        self.method = method
        self.policy = RankPolicy(rank=int(rank), max_rank=int(max_rank))

    def spec_kwargs(self) -> dict:
        """Constructor kwargs for :func:`repro.api.codec_spec` (JSON-pure)."""
        return {
            "dims": list(self.spec.dims),
            "method": self.method,
            "rank": self.policy.rank,
            "max_rank": self.policy.max_rank,
        }

    def reshaped(self, dims) -> "LowRankCompressor":
        """A same-config codec for a different block geometry.

        The store's per-geometry dispatch (:meth:`repro.pipeline.store.
        CompressedERIStore.codec_for`) duck-types on this method, so any
        shape-specific codec gets per-``dims`` instances without the
        store naming codec classes.
        """
        return LowRankCompressor(
            dims=tuple(int(d) for d in dims),
            method=self.method,
            rank=self.policy.rank,
            max_rank=self.policy.max_rank,
        )

    # -- compression --------------------------------------------------------

    def compress(self, data: np.ndarray, error_bound: float) -> bytes:
        """Compress a 1-D float64 stream of shell blocks."""
        return self._compress_stream(data, api.validate_error_bound(error_bound))

    def _compress_stream(self, data: np.ndarray, eb: float) -> bytes:
        """:meth:`compress` under neither telemetry wrapper, so
        :meth:`compress_many` counts each stream once."""
        data = api.validate_input(data)
        spec = self.spec
        N = spec.block_size
        n_blocks, n_tail = split_blocks(data.size, N)
        body = data[: n_blocks * N]
        tail = data[n_blocks * N :]
        blob = self._compress_body(body, n_blocks, eb, tail, data.size)
        if _tstate.enabled:
            _METRICS.counter("lowrank.compress.streams").add(1)
            _METRICS.counter("lowrank.compress.bytes_out").add(len(blob))
        return blob

    def compress_many(self, arrays, error_bound: float) -> list[bytes]:
        """Compress several streams; one blob per stream.

        The service's fused micro-batch dispatch and the worker pool's
        ``compress_groups`` call this when present.  Low-rank factors are
        whole-batch state that must live *inside* each self-contained
        blob, so streams cannot share a factorization the way PaSTRI
        blocks share a kernel pass — the fused entry point amortises
        validation and telemetry, keeps one span for the batch, and
        preserves the per-stream blob contract byte-for-byte.
        """
        eb = api.validate_error_bound(error_bound)
        with telemetry.trace("lowrank.compress_many", n_streams=len(arrays)):
            return [self._compress_stream(a, eb) for a in arrays]

    def _compress_body(
        self,
        body: np.ndarray,
        n_blocks: int,
        eb: float,
        tail: np.ndarray,
        n_total: int,
    ) -> bytes:
        spec = self.spec
        N = spec.block_size
        if n_blocks == 0 or not body.any():
            # Pure-tail streams and all-zero bodies: a rank-0 blob
            # reconstructs exact zeros, no factors, no residual.
            return self._pack(
                fmt.METHOD_SVD, fmt.FACTOR_F32, eb, n_total, n_blocks, 0,
                b"", ResidualStream(MODE_NONE, 0, 0, 0, b""), tail,
            )

        a = body.reshape(n_blocks, N)
        full = min(n_blocks, N)
        if self.policy.rank >= full:
            # Full-rank request: factoring cannot pay and float SVD is not
            # exact — verbatim storage is (and round-trips bit-for-bit).
            return self._raw(body, n_blocks, eb, tail, n_total)

        fdt_code = (
            fmt.FACTOR_F32
            if float(np.abs(a).max()) <= _F32_SAFE_MAX
            else fmt.FACTOR_F64
        )
        itemsize = 4 if fdt_code == fmt.FACTOR_F32 else 8
        m_dim, l_dim = spec.num_sb, spec.sb_size
        per_rank = (
            (n_blocks + N) * itemsize
            if self.method == "svd"
            else (n_blocks + m_dim + l_dim) * itemsize
        )
        if self.policy.rank > 0:
            rank = min(self.policy.rank, full)
        else:
            profile = lrf.singular_value_profile(a, min(self.policy.max_rank, full))
            rank = choose_rank(profile, (n_blocks, N), eb, self.policy, per_rank)

        factors, approx = self._factorize(a, rank, fdt_code)
        q = quantize_residual(body, approx, eb)
        if q is None:  # residual codes overflowed: factorization unusable
            return self._raw(body, n_blocks, eb, tail, n_total)
        residual = encode_residual(q)
        # The mandatory verification step: replay the *decoder's* exact
        # residual application onto the reconstruction and measure the
        # point-wise error.  Quantization alone leaves a deflation margin
        # of eb·2^-10, but the decoder's final `approx + q·bin` addition
        # rounds at ulp(result) — for extreme |x|/eb ratios (beyond ~2^43
        # grid steps) that rounding exceeds the margin, and int codes past
        # 2^53 lose bits in the float widening.  Rather than model those
        # edges, decode and check; any miss falls back to raw (exact).
        check = approx.copy()
        decode_residual(residual, body.size, eb, check)
        if float(np.max(np.abs(check - body), initial=0.0)) > eb:
            return self._raw(body, n_blocks, eb, tail, n_total)
        method = fmt.METHOD_SVD if self.method == "svd" else fmt.METHOD_CP
        factor_bytes = b"".join(f.tobytes() for f in factors)
        blob = self._pack(
            method, fdt_code, eb, n_total, n_blocks, rank,
            factor_bytes, residual, tail,
        )
        # Payoff test against verbatim storage (PaSTRI's per-block rule,
        # applied stream-wide): only deflate the raw body if the factored
        # blob already lost to the *uncompressed* bound.
        if len(blob) >= body.nbytes + tail.nbytes:
            raw = self._raw(body, n_blocks, eb, tail, n_total)
            if len(raw) < len(blob):
                return raw
        if _tstate.enabled:
            _METRICS.gauge("lowrank.rank").set(rank)
            _METRICS.counter("lowrank.factor_bytes").add(len(factor_bytes))
            _METRICS.counter("lowrank.residual.nonzeros").add(residual.nnz)
            _METRICS.counter("lowrank.residual.elements").add(body.size)
        return blob

    def _factorize(
        self, a: np.ndarray, rank: int, fdt_code: int
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Stored-precision factors plus the reconstruction they decode to."""
        dt = np.dtype("<f4") if fdt_code == fmt.FACTOR_F32 else np.dtype("<f8")
        n_blocks, N = a.shape
        if self.method == "svd":
            u, s, vt = lrf.truncated_svd(a, rank)
            w = s[:, None] * vt
            uc = np.ascontiguousarray(u, dtype=dt)
            wc = np.ascontiguousarray(w, dtype=dt)
            approx = lrf.reconstruct_svd(uc, wc).reshape(-1)
            return [uc, wc], approx
        m_dim, l_dim = self.spec.num_sb, self.spec.sb_size
        t = a.reshape(n_blocks, m_dim, l_dim)
        fa, fb, fc = lrf.als_cp(t, rank)
        fac = np.ascontiguousarray(fa, dtype=dt)
        fbc = np.ascontiguousarray(fb, dtype=dt)
        fcc = np.ascontiguousarray(fc, dtype=dt)
        approx = lrf.reconstruct_cp(fac, fbc, fcc).reshape(-1)
        return [fac, fbc, fcc], approx

    def _raw(
        self,
        body: np.ndarray,
        n_blocks: int,
        eb: float,
        tail: np.ndarray,
        n_total: int,
    ) -> bytes:
        """Exact verbatim fallback: DEFLATE of the whole-block body."""
        payload = zlib.compress(np.ascontiguousarray(body, "<f8").tobytes(), _RAW_ZLEVEL)
        if _tstate.enabled:
            _METRICS.counter("lowrank.raw_fallbacks").add(1)
        return self._pack(
            fmt.METHOD_RAW, fmt.FACTOR_F32, eb, n_total, n_blocks, 0,
            payload, ResidualStream(MODE_NONE, 0, 0, 0, b""), tail,
        )

    def _pack(self, method, fdt_code, eb, n, n_blocks, rank, factor_bytes,
              residual, tail) -> bytes:
        return fmt.pack_blob(
            method=method,
            factor_dtype_code=fdt_code,
            error_bound=eb,
            n=n,
            n_blocks=n_blocks,
            dims=self.spec.dims,
            rank=rank,
            factor_bytes=factor_bytes,
            residual=residual,
            tail=tail,
        )

    # -- decompression -------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        """Reconstruct the stream; output satisfies the stored error bound.

        The blob is self-describing (geometry, method, rank, factor
        dtype), so any instance — whatever its construction ``dims`` —
        decodes any lowrank blob, like PaSTRI streams.
        """
        hdr = fmt.parse_blob(blob)
        n1, n2, n3, n4 = hdr.dims
        N = n1 * n2 * n3 * n4
        n_body = hdr.n_blocks * N
        if hdr.method == fmt.METHOD_RAW:
            body = self._inflate_raw(hdr, n_body)
        elif hdr.rank == 0:
            if hdr.factor_bytes or hdr.residual.mode != MODE_NONE:
                raise FormatError("rank-0 blob carries factors or residuals")
            body = np.zeros(n_body, dtype=np.float64)
        else:
            body = self._reconstruct(hdr, N, n_body)
            decode_residual(hdr.residual, n_body, hdr.error_bound, body)
        if hdr.tail.size == 0:
            return body
        return np.concatenate([body, hdr.tail])

    def _inflate_raw(self, hdr: fmt.BlobHeader, n_body: int) -> np.ndarray:
        want = n_body * 8
        d = zlib.decompressobj()
        try:
            raw = d.decompress(hdr.factor_bytes, want)
        except zlib.error as exc:
            raise FormatError(f"corrupt raw body: {exc}") from exc
        if len(raw) != want or not d.eof or d.unconsumed_tail:
            raise FormatError(
                f"raw body decodes to {len(raw)} bytes, expected {want}"
            )
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)

    def _reconstruct(self, hdr: fmt.BlobHeader, N: int, n_body: int) -> np.ndarray:
        n1, n2, n3, n4 = hdr.dims
        if hdr.method == fmt.METHOD_SVD:
            u, w = fmt.factor_sections(
                hdr, [(hdr.n_blocks, hdr.rank), (hdr.rank, N)]
            )
            body = lrf.reconstruct_svd(u, w).reshape(-1)
        else:
            m_dim, l_dim = n1 * n2, n3 * n4
            fa, fb, fc = fmt.factor_sections(
                hdr,
                [(hdr.n_blocks, hdr.rank), (m_dim, hdr.rank), (l_dim, hdr.rank)],
            )
            body = lrf.reconstruct_cp(fa, fb, fc).reshape(-1)
        if not np.isfinite(body).all():
            raise FormatError("factor section reconstructs to non-finite values")
        return body


def _factory(**kwargs) -> LowRankCompressor:
    return LowRankCompressor(**kwargs)


api.register_codec("lowrank", _factory)
