"""The PaSTRI compressor (paper Alg. 1) and its inverse.

Compression pipeline per full-sized block:

1. fit the scaled pattern with the configured metric (default ER),
2. quantize pattern (``P_binsize = 2·EB``), scales (``S_b = P_b``) and the
   residual ECQ codes (§IV-B, :func:`repro.core.quantize.quantize_blocks`),
3. choose dense (tree-coded) or sparse (index+value) ECQ representation,
   or fall back to verbatim storage if patterned coding would not pay,
4. emit the bitstream (format in :mod:`repro.core.header`).

Both directions run *batched*.  Compression takes the whole blocks of all
of a call's streams in chunks of at most :data:`PLANAR_CHUNK` tokens: a
fused numpy front decides every block of a chunk, one prefix sum places
them, and every field is added at its bit offset into one buffer of
64-bit words for the whole call (:func:`repro.bitio.add_fields`), with no
loop over classes, blocks or streams.  Decompression batches across blobs
as well as blocks: after a scalar index walk of each blob, one window
gather per field family and one planar decode serve a whole group of
blobs, with no per-class loop (:meth:`decompress_many`; :meth:`decompress`
is its one-blob case).  The remaining Python loops only gather the input
streams (compress) or walk scalar header fields (the decompress index
pass); see ``docs/ALGORITHM.md`` §"Batched execution".  The stream is
version 2, whose planar dense layout holds the same codeword bits as
version 1 in another order: blobs keep their length, and version-1 blobs
still decode bit-identically.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro import api, telemetry
from repro.bitio import FieldScanner, add_fields
from repro.bitio.vlc import gather_bit_windows_var
from repro.core import header as fmt
from repro.core.blocking import BlockSpec
from repro.core.classify import BlockType
from repro.core.quantize import (
    MAX_ECB,
    MAX_FIELD_BITS,
    ecq_bin_numbers,
    pattern_products,
    quantize_blocks,
    working_binsize,
)
from repro.core.scaling import ScalingMetric, fit_pattern_batch
from repro.core.stats import BlockRecord, StreamStats
from repro.core.trees import (
    PLANAR_CHUNK,
    TREE_IDS,
    ECQDecoder,
    add_ecq_planar,
    decode_ecq_planar,
    encoded_size_bits_batch,
    encoded_size_bits_from_moments,
    skip_planar_segment,
)
from repro.errors import FormatError, ParameterError

#: Parse-cache entries kept per codec (each holds its blob plus the index
#: arrays; two covers the common compress→verify→re-read loop).
_PARSE_CACHE_MAX = 2
#: Parsed global headers kept per codec, keyed by their bytes: a store's
#: blobs share a handful of headers (one per geometry and block count).
_HEADER_CACHE_MAX = 64
_HEADER_BYTES = fmt.StreamHeader.NBITS // 8


def _block_types(ecb: np.ndarray) -> np.ndarray:
    """Vectorised :meth:`BlockType.from_ec_b_max` over an EC_b,max array."""
    from repro.core.classify import TYPE2_MAX_ECB

    return np.select(
        [ecb <= 1, ecb == 2, ecb <= TYPE2_MAX_ECB],
        [BlockType.TYPE0, BlockType.TYPE1, BlockType.TYPE2],
        default=BlockType.TYPE3,
    )


class _Front(NamedTuple):
    """One chunk's coding decisions (:meth:`PaSTRICompressor._front`), per block."""

    kinds: np.ndarray  # int8 fmt.KIND_*
    bits: np.ndarray  # the block's size in the stream
    p_b: np.ndarray
    pq: np.ndarray  # (n, L)
    sq: np.ndarray  # (n, M)
    ecb: np.ndarray  # EC_b,max
    sparse: np.ndarray  # bool: sparse ECQ (only where EC_b,max >= 2)
    nol: np.ndarray  # nonzero ECQ count
    ecq: np.ndarray  # (n, N) ECQ
    dense_bits: np.ndarray
    sparse_bits: np.ndarray
    degenerate: np.ndarray


def _grown(words: np.ndarray, size: int) -> np.ndarray:
    """``words``, or a zero-extended copy of at least ``size`` words."""
    if words.size >= size:
        return words
    out = np.zeros(max(size, 2 * words.size), dtype=np.uint64)
    out[: words.size] = words
    return out


@telemetry.instrument_codec
class PaSTRICompressor:
    """Error-bounded lossy compressor for ERI shell blocks.

    Parameters
    ----------
    dims:
        Block geometry ``(N1, N2, N3, N4)``; mutually exclusive with
        ``config``.
    config:
        BF-configuration string such as ``"(dd|dd)"``.
    metric:
        Pattern-scaling metric (paper Fig. 4); default ER.
    tree_id:
        ECQ encoding tree 1–5 (paper Fig. 7); default 5.
    ecq_mode:
        ``"adaptive"`` (default) picks per block whichever of the dense
        tree-coded or sparse index+value ECQ representation is smaller
        (§IV-C); ``"dense"`` / ``"sparse"`` force one — used by the
        ablation benchmarks.
    collect_stats:
        When True, :attr:`last_stats` holds a :class:`StreamStats` with the
        full bit/type breakdown after each :meth:`compress`.

    Examples
    --------
    >>> codec = PaSTRICompressor(config="(dd|dd)")
    >>> blob = codec.compress(data, error_bound=1e-10)
    >>> out = codec.decompress(blob)
    >>> bool(np.max(np.abs(out - data)) <= 1e-10)
    True
    """

    name = "pastri"

    def __init__(
        self,
        dims: tuple[int, int, int, int] | None = None,
        config: str | None = None,
        metric: ScalingMetric | str = ScalingMetric.ER,
        tree_id: int = 5,
        ecq_mode: str = "adaptive",
        collect_stats: bool = False,
    ) -> None:
        if (dims is None) == (config is None):
            raise ParameterError("provide exactly one of dims= or config=")
        self.spec = BlockSpec(dims) if dims is not None else BlockSpec.from_config(config)
        self.metric = ScalingMetric.coerce(metric)
        if tree_id not in TREE_IDS:
            raise ParameterError(f"tree_id must be one of {TREE_IDS}")
        self.tree_id = tree_id
        if ecq_mode not in ("adaptive", "dense", "sparse"):
            raise ParameterError("ecq_mode must be adaptive/dense/sparse")
        self.ecq_mode = ecq_mode
        self.collect_stats = collect_stats
        self.last_stats: StreamStats | None = None
        # Adaptive ECQ scan-bound estimates, shared across decompress calls
        # keyed by tree id (see ECQDecoder: stale hints cost only a retry).
        self._scan_hints: dict[int, dict[int, float]] = {}
        # Sequential index-pass results keyed by blob, so repeat decodes of a
        # held stream (the SCF-store access pattern) only pay the batched
        # reconstruction.  Entries are read-only once stored.
        self._parse_cache: dict[bytes, tuple] = {}
        self._headers: dict[bytes, fmt.StreamHeader] = {}

    def spec_kwargs(self) -> dict:
        """Constructor kwargs for :func:`repro.api.codec_spec` (JSON-pure)."""
        return {
            "dims": list(self.spec.dims),
            "metric": self.metric.value,
            "tree_id": self.tree_id,
            "ecq_mode": self.ecq_mode,
        }

    def reshaped(self, dims) -> "PaSTRICompressor":
        """A same-config codec for a different block geometry.

        Shape-aware codecs expose this so per-``dims`` dispatch (the
        spill store, the worker pool) can stay codec-agnostic: anything
        with a ``reshaped`` method gets a per-geometry instance, anything
        without is shape-independent and shared as-is.
        """
        return PaSTRICompressor(
            dims=tuple(int(d) for d in dims),
            metric=self.metric,
            tree_id=self.tree_id,
            ecq_mode=self.ecq_mode,
        )

    # -- compression --------------------------------------------------------

    def compress(self, data: np.ndarray, error_bound: float) -> bytes:
        """Compress a 1-D float64 stream of shell blocks."""
        stats = (
            StreamStats(bits_global_header=fmt.StreamHeader.NBITS)
            if self.collect_stats else None
        )
        (blob,) = self._compress_streams([data], error_bound, stats)
        self.last_stats = stats
        return blob

    def compress_many(self, arrays, error_bound: float) -> list[bytes]:
        """Compress several streams in one chunked batched pass.

        The service micro-batcher and the store's write stage hand over
        many small streams at once; their whole blocks go through the
        kernel together, in chunks of at most :data:`PLANAR_CHUNK` tokens
        (:meth:`_compress_streams`), so the numeric front's and the
        emitter's fixed costs are paid per chunk, not per stream, and the
        temporaries stay those of one chunk.  Every per-block decision is
        independent of its batch neighbours, so each returned blob is
        **byte-identical** to ``compress(arrays[i], error_bound)`` — tested
        as an invariant.  ``last_stats`` is cleared (per-stream attribution
        is meaningless for a fused pass).
        """
        blobs = self._compress_streams(arrays, error_bound, None)
        self.last_stats = None
        return blobs

    def _compress_streams(
        self, arrays, error_bound: float, stats: StreamStats | None
    ) -> list[bytes]:
        """One blob per input stream, from one chunked pass over their blocks.

        The streams' whole blocks, in order, are cut into chunks of at most
        :data:`PLANAR_CHUNK` tokens (one block at least).  For each chunk
        :meth:`_front` decides every block's coding and size, one prefix
        sum places every block, and :meth:`_emit` adds every field at its
        bit offset into one word buffer for the whole call.  In that buffer
        each stream starts on a word: its 32-byte header, its blocks and
        its raw tail.  ``stats`` (one stream only) receives the point count
        and the block and tail bit accounting.
        """
        eb = api.validate_error_bound(error_bound)
        N = self.spec.block_size
        datas = [api.validate_input(a) for a in arrays]
        if not datas:
            return []
        n_blocks, n_tail = np.divmod(np.array([d.size for d in datas], dtype=np.int64), N)
        nbs = n_blocks.tolist()
        row0 = (np.cumsum(n_blocks) - n_blocks).tolist()
        stream_of = np.repeat(np.arange(len(datas)), n_blocks)
        body_bits = np.zeros(len(datas), dtype=np.int64)  # block bits so far
        # First word of each stream, known up to stream `placed`: a stream
        # takes its header's 4 words and its body's, so it can be placed
        # once every earlier stream's blocks are sized.
        word0 = np.zeros(len(datas) + 1, dtype=np.int64)
        placed = 0

        def place(upto: int) -> None:
            nonlocal placed
            if upto > placed:
                nwords = 4 + ((body_bits[placed:upto] + 64 * n_tail[placed:upto] + 63) >> 6)
                word0[placed + 1 : upto + 1] = word0[placed] + np.cumsum(nwords)
                placed = upto

        words = np.zeros(0, dtype=np.uint64)
        step = max(1, PLANAR_CHUNK // N)
        for g0 in range(0, stream_of.size, step):
            g1 = min(g0 + step, stream_of.size)
            sid = stream_of[g0:g1]
            s0, s1 = int(sid[0]), int(sid[-1])
            pieces = [
                datas[s][max(g0 - row0[s], 0) * N : min(g1 - row0[s], nbs[s]) * N]
                for s in range(s0, s1 + 1)
            ]
            body = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            f = self._front(body, eb)
            if stats is not None:
                self._collect_stats(stats, f)
            # A block starts after its stream's header and earlier blocks.
            before = np.cumsum(f.bits) - f.bits
            start = body_bits[sid] + before - before[np.searchsorted(sid, sid)]
            np.add.at(body_bits, sid, f.bits)
            place(s1)
            start += 64 * (word0[sid] + 4)
            # (+2 guard words: a packed plane-0 word may run 63 zero bits
            # past its segment, and every field may spill into a next word)
            words = _grown(words, int(word0[s1]) + 7 + (int(body_bits[s1]) >> 6))
            self._emit(words, f, start, body.reshape(-1, N))
        place(len(datas))
        words = _grown(words, int(word0[-1]) + 1)

        # Headers, packed once per (n_blocks, n_tail), then raw tails.
        keys = list(zip(nbs, n_tail.tolist()))
        heads = {key: np.frombuffer(fmt.pack_header(fmt.StreamHeader(
            error_bound=eb, spec=self.spec, n_blocks=key[0], n_tail=key[1],
            tree_id=self.tree_id, metric=self.metric,
        )), dtype=">u8") for key in set(keys)}
        words[word0[:-1, None] + np.arange(4)] = [heads[k] for k in keys]
        if n_tail.any():
            tails = np.concatenate(
                [d[nb * N :] for d, nb in zip(datas, nbs)]
            ).view(np.uint64)
            first = np.cumsum(n_tail) - n_tail
            base = 64 * (word0[:-1] + 4) + body_bits - 64 * first
            at = np.repeat(base, n_tail) + 64 * np.arange(tails.size)
            add_fields(words, at, tails, 64)
        if stats is not None:
            stats.n_points = datas[0].size
            stats.bits_tail = 64 * int(n_tail[0])

        stream = words.byteswap().view(np.uint8)
        ends = 8 * word0[:-1] + 32 + ((body_bits + 64 * n_tail + 7) >> 3)
        return [stream[a:b].tobytes() for a, b in zip((8 * word0[:-1]).tolist(), ends.tolist())]

    def _front(self, body: np.ndarray, eb: float) -> _Front:
        """Pattern fit, quantization and coding decisions for whole blocks.

        Alg. 1 lines 5-16, fused across the blocks of ``body``; a block's
        decisions depend only on its own values, which is what lets
        :meth:`compress_many` chunk several streams' blocks together.
        """
        spec = self.spec
        M, L, N = spec.num_sb, spec.sb_size, spec.block_size
        n_blocks = body.size // N
        blocks3d = body.reshape(n_blocks, M, L)

        # One |.| buffer serves the pattern fit, the zero-block test and
        # (overwritten) the ECQ magnitude moments below; it dies with this
        # call, before emission.
        abs3d = np.abs(blocks3d)
        p_idx, scales, degenerate = fit_pattern_batch(blocks3d, self.metric, abs3d=abs3d)
        amax = abs3d.reshape(n_blocks, N).max(axis=1)
        zero_block = amax == 0.0
        q = quantize_blocks(
            blocks3d, blocks3d[np.arange(n_blocks), p_idx], scales, eb,
            amax=amax, scratch=abs3d,
        )
        p_b, ecq2d, ecb = q.p_b, q.ecq, q.ec_b_max

        # Magnitude moments: nnz (the bytes of the codes' nonzero mask,
        # summed: cheaper than count_nonzero on floats) and sum(min(|v|, 2))
        # from the float residuals (integer-exact for quantised values)
        # drive both the outlier count and the dense-size formula for the
        # fixed-shape trees.
        nol = (ecq2d != 0).view(np.uint8).sum(axis=1, dtype=np.int32).astype(np.int64)
        abs_f = q.ecq_abs
        np.minimum(abs_f, 2.0, out=abs_f)
        s_f = abs_f.sum(axis=1)
        idx_bits = max(1, (N - 1).bit_length())
        sparse_bits = N.bit_length() + nol * (idx_bits + ecb)

        # Dense vs sparse per block, then the patterned-vs-raw payoff test.
        has_ecq = ecb >= 2
        if self.tree_id in (1, 3, 5):
            dense_bits = encoded_size_bits_from_moments(
                N, nol, s_f.astype(np.int64), ecb, self.tree_id
            )
        else:
            dense_bits = encoded_size_bits_batch(ecq2d, ecb, self.tree_id, nnz=nol)
        if self.ecq_mode == "adaptive":
            use_sparse = has_ecq & (sparse_bits < dense_bits)
        elif self.ecq_mode == "sparse":
            use_sparse = has_ecq.copy()
        else:
            use_sparse = np.zeros(n_blocks, dtype=bool)
        ecq_cost = np.where(has_ecq, 1 + np.where(use_sparse, sparse_bits, dense_bits), 0)
        bits = 2 + 6 + 6 + (L + M) * p_b + ecq_cost
        raw = q.raw | (bits >= 2 + 64 * N)

        kinds = np.full(n_blocks, fmt.KIND_PATTERNED, dtype=np.int8)
        kinds[raw] = fmt.KIND_RAW
        kinds[zero_block] = fmt.KIND_ZERO
        bits[raw] = 2 + 64 * N
        bits[zero_block] = 2
        return _Front(kinds, bits, p_b, q.pq, q.sq, ecb, use_sparse, nol, ecq2d,
                      dense_bits, sparse_bits, degenerate)

    def _emit(self, words: np.ndarray, f: _Front, start: np.ndarray, blocks: np.ndarray) -> None:
        """Add every field of the blocks of ``f`` into ``words``; block ``b``
        starts at stream bit ``start[b]``, its values are ``blocks[b]``.

        Each field family goes in with one :func:`add_fields` call over all
        blocks, whatever their P_b or EC_b,max.  A zero block is its kind
        tag, 0, so it writes nothing.
        """
        spec = self.spec
        M, L, N = spec.num_sb, spec.sb_size, spec.block_size
        raw = np.flatnonzero(f.kinds == fmt.KIND_RAW)
        if raw.size:  # the kind tag, then the block's doubles
            vals = np.empty((raw.size, N + 1), dtype=np.uint64)
            vals[:, 0] = fmt.KIND_RAW
            vals[:, 1:] = blocks[raw].view(np.uint64)
            at = start[raw, None] + np.r_[0, 2 + 64 * np.arange(N)]
            add_fields(words, at, vals, np.r_[2, np.full(N, 64)])
        pat = np.flatnonzero(f.kinds == fmt.KIND_PATTERNED)
        if not pat.size:
            return
        # One row of fields per patterned block: kind|P_b, PQ, SQ,
        # EC_b,max (with the sparse flag when it is at least 2) and the
        # outlier count of a sparse block (zero bits for the others).
        pb, ecb, sparse = f.p_b[pat], f.ecb[pat], f.sparse[pat]
        has = ecb >= 2
        half = np.left_shift(np.int64(1), pb - 1)[:, None]
        vals = np.empty((pat.size, L + M + 3), dtype=np.int64)
        vals[:, 0] = (fmt.KIND_PATTERNED << 6) | pb
        vals[:, 1 : L + 1] = f.pq[pat] + half
        vals[:, L + 1 : L + M + 1] = f.sq[pat] + half
        vals[:, -2] = np.where(has, (ecb << 1) | sparse, ecb)
        vals[:, -1] = np.where(sparse, f.nol[pat], 0)
        widths = np.empty_like(vals)
        widths[:, 0] = 8
        widths[:, 1:-2] = pb[:, None]
        widths[:, -2] = 6 + has
        widths[:, -1] = np.where(sparse, N.bit_length(), 0)
        ends = np.cumsum(widths, axis=1)
        ends += start[pat, None]
        add_fields(words, ends - widths, vals, widths)
        payload = ends[:, -1]  # where each block's ECQ payload starts

        dense = has & ~sparse
        if dense.any():
            add_ecq_planar(words, f.ecq[pat[dense]], ecb[dense], payload[dense], self.tree_id)
        if sparse.any():  # (index, offset-binary value) of each outlier
            sub = f.ecq[pat[sparse]]
            flat = np.flatnonzero(sub != 0)  # row-major == flatnonzero order
            rows, cols = np.divmod(flat, N)
            e = ecb[sparse]
            er = e[rows]
            entry = (cols << er) | (sub.reshape(-1).take(flat) + (np.int64(1) << (er - 1)))
            width = max(1, (N - 1).bit_length()) + e
            first = np.cumsum(f.nol[pat[sparse]]) - f.nol[pat[sparse]]
            at = (payload[sparse] - first * width)[rows] + np.arange(flat.size) * width[rows]
            add_fields(words, at, entry, width[rows])

    def _collect_stats(self, stats: StreamStats, f: _Front) -> None:
        """Per-block bit accounting of one chunk, identical to the historical loop."""
        spec = self.spec
        M, L, N = spec.num_sb, spec.sb_size, spec.block_size
        kinds, p_b, ecb, nol, use_sparse = f.kinds, f.p_b, f.ecb, f.nol, f.sparse
        stats.degenerate_blocks += int(f.degenerate.sum())
        for b in range(kinds.size):
            kind = int(kinds[b])
            if kind == fmt.KIND_ZERO:
                stats.add_block(BlockRecord(
                    kind=fmt.KIND_ZERO, block_type=BlockType.TYPE0, p_b=0,
                    ec_b_max=1, sparse=False, nol=0,
                    bits_header=2, bits_pattern=0, bits_scales=0, bits_ecq=0,
                ))
                continue
            pb, eb_max = int(p_b[b]), int(ecb[b])
            if kind == fmt.KIND_RAW:
                stats.bits_raw += 64 * N
                stats.add_block(BlockRecord(
                    kind=fmt.KIND_RAW, block_type=BlockType.from_ec_b_max(eb_max),
                    p_b=pb, ec_b_max=eb_max, sparse=False, nol=int(nol[b]),
                    bits_header=2, bits_pattern=0, bits_scales=0, bits_ecq=0,
                ))
                continue
            if eb_max >= 2:
                bits_ecq = int(f.sparse_bits[b] if use_sparse[b] else f.dense_bits[b])
            else:
                bits_ecq = 0
            stats.add_block(BlockRecord(
                kind=fmt.KIND_PATTERNED, block_type=BlockType.from_ec_b_max(eb_max),
                p_b=pb, ec_b_max=eb_max,
                sparse=bool(eb_max >= 2 and use_sparse[b]), nol=int(nol[b]),
                bits_header=2 + 6 + 6 + (1 if eb_max >= 2 else 0),
                bits_pattern=L * pb, bits_scales=M * pb, bits_ecq=bits_ecq,
            ))
        pat_ids = np.flatnonzero(kinds == fmt.KIND_PATTERNED)
        if pat_ids.size:
            stats.add_ecq_histograms(
                _block_types(ecb[pat_ids]), ecq_bin_numbers(f.ecq[pat_ids])
            )

    # -- decompression -------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        """Reconstruct the stream; output satisfies the stored error bound.

        The one-blob case of :meth:`decompress_many`, which describes the
        two passes.
        """
        (out,) = self._decompress_blobs([blob])
        return out

    def decompress_many(self, blobs) -> list[np.ndarray]:
        """Reconstruct several streams; bit for bit ``[decompress(b) for b in blobs]``.

        Two passes (see ``docs/ALGORITHM.md``).  An *index pass* walks each
        blob's scalar block headers and records each block's (kind, P_b,
        EC_b,max, bit offsets); it is memoised per blob (a small LRU), so
        repeat decodes of a held stream — the SCF-store access pattern —
        skip straight to the second pass.  A *reconstruction pass* then
        runs once per group of blobs that share (dims, EB, tree, version),
        over one buffer holding the group's blobs end to end: one window
        gather for every PQ/SQ field, one for every sparse entry, one
        scale×pattern product, and one planar decode of every dense ECQ
        segment.  So the kernels' fixed cost is paid once per group, not
        once per blob.  Groups are cut at about :data:`PLANAR_CHUNK`
        tokens, which bounds the temporaries.

        The stream's version byte picks how dense ECQ segments are read.
        Version 2 (planar) segments are skipped by popcount during the walk
        and decoded together afterwards.  Version 1 (interleaved) segments
        end where their last codeword ends, so the walk decodes each one in
        turn with :class:`ECQDecoder`, and such blobs decode one at a time.

        If any blob is corrupt the call raises the :class:`FormatError`
        that :meth:`decompress` raises on the first such blob alone.
        Every output is an array of its own.
        """
        return self._decompress_blobs(blobs)

    def _decompress_blobs(self, blobs) -> list[np.ndarray]:
        """:meth:`decompress_many` under neither telemetry wrapper, so
        :meth:`decompress` is counted once."""
        # mmap views etc.: the parse memo needs hashable keys
        blobs = [b if type(b) is bytes else bytes(b) for b in blobs]
        try:
            return self._decode_blobs(blobs)
        except FormatError:
            if len(blobs) < 2:
                raise
            # A batch error may come from any blob and names batch-wide
            # rows; the first blob that fails on its own raises its error.
            for blob in blobs:
                self._decode_blobs([blob])
            raise

    def _decode_blobs(self, blobs: list[bytes]) -> list[np.ndarray]:
        """Group the blobs, cut each group into chunks, decode each chunk."""
        hdrs = []
        groups: dict = {}
        for i, blob in enumerate(blobs):
            head = blob[:_HEADER_BYTES]
            hdr = self._headers.get(head)
            if hdr is None:
                hdr = fmt.unpack_header(blob)
                if len(self._headers) >= _HEADER_CACHE_MAX:
                    self._headers.clear()  # safe under concurrent decodes
                self._headers[head] = hdr
            # Corrupt count fields must not drive allocations: every block
            # costs at least its 2-bit kind tag, every tail value 64 bits.
            if hdr.n_blocks * 2 + hdr.n_tail * 64 > 8 * len(blob) - hdr.NBITS:
                raise FormatError("block/tail counts exceed the stream length")
            hdrs.append(hdr)
            key = (hdr.spec.dims, hdr.error_bound, hdr.tree_id, hdr.version)
            groups.setdefault(key if hdr.version >= 2 else i, []).append(i)
        outs: list = [None] * len(blobs)
        for ids in groups.values():
            N = hdrs[ids[0]].spec.block_size
            chunk: list[int] = []
            tokens = 0
            for i in ids:
                chunk.append(i)
                tokens += hdrs[i].n_blocks * N
                if tokens >= PLANAR_CHUNK or i == ids[-1]:
                    decoded = self._decode_group(
                        [blobs[k] for k in chunk], [hdrs[k] for k in chunk]
                    )
                    for k, out in zip(chunk, decoded):
                        outs[k] = out
                    chunk, tokens = [], 0
        return outs

    def _decode_group(self, blobs: list[bytes], hdrs: list) -> list[np.ndarray]:
        """Both passes over blobs of one (dims, EB, tree, version) group."""
        sc = FieldScanner(blobs[0] if len(blobs) == 1 else b"".join(blobs))
        starts = [0]
        for blob in blobs[:-1]:
            starts.append(starts[-1] + len(blob))
        parses = [self._parse_cache.get(blob) for blob in blobs]
        fresh = [i for i, p in enumerate(parses) if p is None]
        if len(fresh) == len(blobs):
            group, _ = self._index_pass(sc, blobs, hdrs, starts)
        else:
            if fresh:
                walked, spans = self._index_pass(
                    sc, [blobs[i] for i in fresh], [hdrs[i] for i in fresh],
                    [starts[i] for i in fresh],
                )
                for i, span in zip(fresh, spans):
                    parses[i] = _blob_parse(walked, span)
            group = _concat_parses(parses, [h.n_blocks for h in hdrs])
        return self._reconstruct(hdrs, group, starts, sc.padded)

    def _index_pass(
        self, sc: FieldScanner, blobs: list[bytes], hdrs: list, at: list[int]
    ) -> tuple[tuple, list[tuple]]:
        """Scalar header walk of each blob plus dense ECQ decode.

        Blob ``k`` lies at byte ``at[k]`` of the scanner's buffer.  Each
        walk is confined to its own blob (:meth:`FieldScanner.confine`), so
        a corrupt count fails there instead of reading into the next blob.
        Version-2 dense segments of all blobs then decode in one
        :func:`decode_ecq_planar` call; version-1 segments end where their
        last codeword ends, so the walk decodes each in turn with
        :class:`ECQDecoder`.

        Returns the parse of all rows — the blobs' blocks in order — and
        each blob's span of it, ``(first row, end row, first dense row, end
        dense row, bit offset where its blocks end)``; offsets count from
        each blob's first bit.  :func:`_blob_parse` cuts a blob's parse
        from its span, and the last blobs' parses are memoised.  The walk
        also checks that the raw tail fits.
        """
        hdr = hdrs[0]
        spec = hdr.spec
        M, L, N = spec.num_sb, spec.sb_size, spec.block_size
        idx_bits = max(1, (N - 1).bit_length())
        nol_bits = N.bit_length()
        pqsq_bits = L + M
        tid = hdr.tree_id
        planar = hdr.version >= 2
        rows = sum(h.n_blocks for h in hdrs)
        kind_arr = np.zeros(rows, dtype=np.int8)
        pb_arr = np.zeros(rows, dtype=np.int64)
        ecb_arr = np.zeros(rows, dtype=np.int64)
        off_arr = np.zeros(rows, dtype=np.int64)  # PQ start / raw-data start
        sp_nol = np.zeros(rows, dtype=np.int64)
        sp_off = np.zeros(rows, dtype=np.int64)
        sparse_mask = np.zeros(rows, dtype=bool)
        dense_rows: list[int] = []
        dense_starts: list[int] = []  # absolute, in the scanner's buffer
        dense_vals: list[np.ndarray] = []
        body_ends: list[int] = []
        if not planar:  # decodes one blob alone, at the buffer's start
            bits = np.unpackbits(sc.padded)
            decoder = ECQDecoder(bits, tid, hints=self._scan_hints.setdefault(tid, {}))

        r = 0
        for blob, byte0, h in zip(blobs, at, hdrs):
            sc.confine(byte0, len(blob), pos=h.NBITS)
            base = 8 * byte0
            for b in range(h.n_blocks):
                kind = sc.read(2)
                if kind == fmt.KIND_ZERO:
                    r += 1
                    continue
                if kind == fmt.KIND_RAW:
                    kind_arr[r] = fmt.KIND_RAW
                    off_arr[r] = sc.pos
                    sc.skip(64 * N)
                    r += 1
                    continue
                if kind != fmt.KIND_PATTERNED:
                    raise FormatError(f"bad block kind {kind} in block {b}")
                kind_arr[r] = fmt.KIND_PATTERNED
                pb = sc.read(6)
                if not 1 <= pb <= MAX_FIELD_BITS:
                    raise FormatError(f"bad P_b {pb} in block {b}")
                pb_arr[r] = pb
                off_arr[r] = sc.pos
                sc.skip(pqsq_bits * pb)
                eb_max = sc.read(6)
                ecb_arr[r] = eb_max
                if eb_max >= 2:
                    if eb_max > MAX_ECB:
                        raise FormatError(f"bad EC_b,max {eb_max} in block {b}")
                    if sc.read(1):  # sparse ECQ: record the entry run, skip it
                        if idx_bits + eb_max > 64:
                            raise FormatError(f"oversized outlier fields in block {b}")
                        sparse_mask[r] = True
                        cnt = sc.read(nol_bits)
                        sp_nol[r] = cnt
                        sp_off[r] = sc.pos
                        sc.skip(cnt * (idx_bits + eb_max))
                    else:
                        dense_rows.append(r)
                        if planar:  # length from plane popcounts; decoded below
                            dense_starts.append(base + sc.pos)
                            skip_planar_segment(sc, N, eb_max, tid)
                        else:  # the end offset is only known by decoding
                            vals, end = decoder.decode(sc.pos, N, eb_max)
                            dense_vals.append(vals)
                            sc.seek(end)
                r += 1
            body_ends.append(sc.pos)
            sc.skip(64 * h.n_tail)

        dense_idx = np.asarray(dense_rows, dtype=np.int64)
        if dense_vals:
            dense_mat = np.concatenate(dense_vals).reshape(dense_idx.size, N)
        else:
            dense_mat = np.zeros((dense_idx.size, N), dtype=np.int64)
            if planar and dense_idx.size:
                decode_ecq_planar(
                    np.unpackbits(sc.padded), sc.padded,
                    np.asarray(dense_starts, dtype=np.int64), ecb_arr[dense_idx],
                    tid, dense_mat,
                )
        group = (kind_arr, pb_arr, ecb_arr, off_arr, sp_nol, sp_off,
                 sparse_mask, dense_idx, dense_mat, body_ends)

        spans = []
        r0 = d0 = 0
        for h, end in zip(hdrs, body_ends):
            r1 = r0 + h.n_blocks
            d1 = int(dense_idx.searchsorted(r1)) if len(blobs) > 1 else dense_idx.size
            spans.append((r0, r1, d0, d1, end))
            r0, d0 = r1, d1
        # only the last blobs' parses would survive the memo's eviction
        for blob, span in list(zip(blobs, spans))[-_PARSE_CACHE_MAX:]:
            self._parse_cache[blob] = _blob_parse(group, span)
        # threads decoding through one codec evict concurrently: take a
        # snapshot and tolerate a key another thread already dropped
        for old in list(self._parse_cache)[:-_PARSE_CACHE_MAX]:
            self._parse_cache.pop(old, None)
        return group, spans

    def _reconstruct(
        self, hdrs: list, group: tuple, starts: list[int], packed: np.ndarray
    ) -> list[np.ndarray]:
        """Class-free batched reconstruction of a group from its parse.

        ``packed`` holds the group's blobs end to end (blob ``i`` at byte
        ``starts[i]``) plus zero guard bytes; ``group`` is the parse of all
        rows, the blobs' blocks in order.  Every field family is read with
        one window gather over all rows, whatever their P_b or EC_b,max.
        """
        (kind, pb, ecb, off, sp_nol, sp_off, sparse, dense_idx, dense_mat,
         body_ends) = group
        hdr = hdrs[0]
        spec = hdr.spec
        M, L, N = spec.num_sb, spec.sb_size, spec.block_size
        binsize = working_binsize(hdr.error_bound)
        idx_bits = max(1, (N - 1).bit_length())
        n_rows = [h.n_blocks for h in hdrs]
        rows = kind.size
        n_tail = [h.n_tail for h in hdrs]
        single = len(hdrs) == 1
        if not single:  # offsets count from each blob's first bit
            row_base = np.repeat(np.asarray(starts, dtype=np.int64) * 8, n_rows)
            off = off + row_base

        pat = (kind == fmt.KIND_PATTERNED).nonzero()[0]
        approx = None
        if pat.size:
            pbp = pb[pat]
            at = np.arange(0, L + M, dtype=np.int64) * pbp[:, None]
            at += off[pat, None]
            fields = gather_bit_windows_var(packed, at.ravel(), pbp.repeat(L + M))
            fields = fields.view(np.int64).reshape(pat.size, L + M)
            half = (np.int64(1) << (pbp - 1))[:, None]  # 2^(P_b-1), Eq. 10
            fields -= half
            approx = pattern_products(fields[:, :L], fields[:, L:], half, binsize)
            approx = approx.reshape(pat.size, N)
        if pat.size == rows and not (single and n_tail[0]):
            body = approx if rows else np.zeros((0, N))
        else:
            out = np.zeros(rows * N + (n_tail[0] if single else 0), dtype=np.float64)
            body = out[: rows * N].reshape(rows, N)
            if pat.size:
                body[pat] = approx
            raw = (kind == fmt.KIND_RAW).nonzero()[0]
            # Chunked: each 64-bit window gather costs a few words per value.
            step = max(1, PLANAR_CHUNK // N)
            for i in range(0, raw.size, step):
                ids = raw[i : i + step]
                at = (off[ids, None] + 64 * np.arange(N, dtype=np.int64)).ravel()
                u = gather_bit_windows_var(packed, at, np.full(at.size, 64))
                body[ids] = u.view(np.float64).reshape(ids.size, N)
        flat = body.reshape(-1)

        if dense_idx.size:
            body[dense_idx] += dense_mat * binsize

        sp = sparse.nonzero()[0]
        if sp.size:
            counts = sp_nol[sp]
            total = int(counts.sum())
            ebs = ecb[sp]
            w_row = idx_bits + ebs
            sp_at = sp_off[sp] if single else sp_off[sp] + row_base[sp]
            # entry k of a block sits k entry widths past the block's run
            first_entry = np.cumsum(counts) - counts
            width = w_row.repeat(counts)
            at = (sp_at - first_entry * w_row).repeat(counts)
            at += np.arange(total, dtype=np.int64) * width
            fields = gather_bit_windows_var(packed, at, width)
            ebs_u = ebs.repeat(counts).view(np.uint64)
            idxs = (fields >> ebs_u).view(np.int64)
            vals = (fields - (idxs.view(np.uint64) << ebs_u)).view(np.int64)
            vals -= (np.int64(1) << (ebs - 1)).repeat(counts)
            bids = sp.repeat(counts)
            if (idxs >= N).any():
                bad = int(bids[int(np.argmax(idxs >= N))])
                raise FormatError(f"outlier index out of range in block {bad}")
            gpos = bids * N + idxs
            # The compressor emits outliers in flatnonzero order, so
            # indices must be strictly increasing within each block; a
            # duplicate would otherwise be silently dropped by the
            # scatter-add below.
            bad_step = gpos[1:] <= gpos[:-1]
            if bad_step.any():
                bad = int(bids[1 + int(np.argmax(bad_step))])
                raise FormatError(
                    f"outlier indices not strictly increasing in block {bad}"
                )
            flat[gpos] += vals * binsize

        if any(n_tail):
            at = np.concatenate([
                8 * s + end + 64 * np.arange(nt, dtype=np.int64)
                for s, end, nt in zip(starts, body_ends, n_tail)
            ])
            tails = gather_bit_windows_var(packed, at, np.full(at.size, 64)).view(np.float64)
            if single:
                out[rows * N :] = tails
                return [out]
        if single:
            return [flat]
        outs = []
        r0 = t0 = 0
        for n, nt in zip(n_rows, n_tail):
            own = flat[r0 * N : (r0 + n) * N]
            outs.append(np.concatenate((own, tails[t0 : t0 + nt])) if nt else own.copy())
            r0 += n
            t0 += nt
        return outs


def _blob_parse(group: tuple, span: tuple) -> tuple:
    """One blob's parse, cut from a group parse by the blob's span: views of
    the per-block arrays (kind, P_b, EC_b,max, field offset, sparse count,
    sparse offset, sparse mask), its dense block ids with their decoded
    tokens, and the bit offset where its blocks end."""
    r0, r1, d0, d1, end = span
    if r0 == 0 and r1 == group[0].size:  # the blob is the whole group
        return group[:9] + (end,)
    return tuple(a[r0:r1] for a in group[:7]) + (
        group[7][d0:d1] - r0, group[8][d0:d1], end,
    )


def _concat_parses(parses: list[tuple], n_rows: list[int]) -> tuple:
    """One parse over all rows from per-blob parses (blocks in blob order)."""
    if len(parses) == 1:
        return parses[0][:9] + ([parses[0][9]],)
    cols = list(zip(*parses))
    first = np.cumsum([0] + n_rows[:-1])
    dense_idx = np.concatenate([d + r for d, r in zip(cols[7], first.tolist())])
    return tuple(np.concatenate(c) for c in cols[:7]) + (
        dense_idx, np.concatenate(cols[8]), list(cols[9]),
    )


def _factory(**kwargs) -> PaSTRICompressor:
    return PaSTRICompressor(**kwargs)


api.register_codec("pastri", _factory)
