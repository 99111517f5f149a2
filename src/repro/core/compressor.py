"""The PaSTRI compressor (paper Alg. 1) and its inverse.

Compression pipeline per full-sized block:

1. fit the scaled pattern with the configured metric (default ER),
2. quantize pattern (``P_binsize = 2·EB``), scales (``S_b = P_b``) and the
   residual ECQ codes (§IV-B, :func:`repro.core.quantize.quantize_blocks`),
3. choose dense (tree-coded) or sparse (index+value) ECQ representation,
   or fall back to verbatim storage if patterned coding would not pay,
4. emit the bitstream (format in :mod:`repro.core.header`).

Both directions run *batched by block class*: the numeric stages are one
fused numpy pass over all blocks, the coding decisions are vectorised,
fixed-width fields move through one bit matrix per ``(kind, P_b,
EC_b,max, sparse)`` class, and every dense ECQ segment is emitted — and,
after a scalar index walk, decoded — in one planar pass.  The remaining
Python loops only stage precomputed arrays (compress) or walk scalar
header fields (the decompress index pass); see ``docs/ALGORITHM.md``
§"Batched execution".  The stream is version 2, whose planar dense layout
holds the same codeword bits as version 1 in another order: blobs keep
their length, and version-1 blobs still decode bit-identically.
"""

from __future__ import annotations

import numpy as np

from repro import api, telemetry
from repro.bitio import (
    BitReader,
    BitWriter,
    FieldScanner,
    gather_uint_fields,
    pack_uint_rows,
    uint_to_bits,
)
from repro.core import header as fmt
from repro.core.blocking import BlockSpec, split_blocks
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
    TREE_IDS,
    ECQDecoder,
    decode_ecq_planar,
    encode_ecq_planar,
    encoded_size_bits_batch,
    encoded_size_bits_from_moments,
    skip_planar_segment,
)
from repro.errors import FormatError, ParameterError

#: Parse-cache entries kept per codec (each holds its blob plus the index
#: arrays; two covers the common compress→verify→re-read loop).
_PARSE_CACHE_MAX = 2


def _block_types(ecb: np.ndarray) -> np.ndarray:
    """Vectorised :meth:`BlockType.from_ec_b_max` over an EC_b,max array."""
    from repro.core.classify import TYPE2_MAX_ECB

    return np.select(
        [ecb <= 1, ecb == 2, ecb <= TYPE2_MAX_ECB],
        [BlockType.TYPE0, BlockType.TYPE1, BlockType.TYPE2],
        default=BlockType.TYPE3,
    )


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
        """Compress several streams in one fused batched kernel pass.

        The service micro-batcher coalesces same-class requests; running
        their whole-block bodies through a single :meth:`_block_parts`
        call amortises the batched numeric front (pattern fit, ECQ
        quantise, class grouping) across requests instead of paying it
        once per stream.  Every per-block decision is independent of its
        batch neighbours, so each returned blob is **byte-identical** to
        ``compress(arrays[i], error_bound)`` — tested as an invariant.
        ``last_stats`` is cleared (per-stream attribution is meaningless
        for a fused pass).
        """
        blobs = self._compress_streams(arrays, error_bound, None)
        self.last_stats = None
        return blobs

    def _compress_streams(
        self, arrays, error_bound: float, stats: StreamStats | None
    ) -> list[bytes]:
        """One blob per input stream, all whole blocks in one kernel pass.

        Each blob is the packed global header followed by the stream's
        block segments and raw tail.  ``stats`` (one stream only) receives
        the point count and the block and tail bit accounting.
        """
        eb = api.validate_error_bound(error_bound)
        N = self.spec.block_size
        prepped = []
        bodies = []
        for a in arrays:
            d = api.validate_input(a)
            n_blocks, n_tail = split_blocks(d.size, N)
            prepped.append((d, n_blocks, n_tail))
            if n_blocks:
                bodies.append(d[: n_blocks * N])
        parts: list[tuple[np.ndarray, ...]] = []
        if bodies:
            body = bodies[0] if len(bodies) == 1 else np.concatenate(bodies)
            parts = self._block_parts(body, body.size // N, eb, stats)
        blobs = []
        lo = 0
        for d, n_blocks, n_tail in prepped:
            head = fmt.pack_header(fmt.StreamHeader(
                error_bound=eb,
                spec=self.spec,
                n_blocks=n_blocks,
                n_tail=n_tail,
                tree_id=self.tree_id,
                metric=self.metric,
            ))
            # The header is whole bytes, so the body packs on its own.
            w = BitWriter()
            if n_blocks:
                w.write_segments(seg for bp in parts[lo : lo + n_blocks] for seg in bp)
                lo += n_blocks
            if n_tail:
                w.write_uint_array(d[n_blocks * N :].view(np.uint64), 64)
            if stats is not None:
                stats.n_points = d.size
                stats.bits_tail = 64 * n_tail
            blobs.append(head + w.getvalue())
        return blobs

    def _block_parts(
        self,
        body: np.ndarray,
        n_blocks: int,
        eb: float,
        stats: StreamStats | None,
    ) -> list[tuple[np.ndarray, ...]]:
        """Per-block bit segments for ``n_blocks`` whole blocks of ``body``.

        This is the batched numeric front plus group-by-class emission;
        block ``b``'s output tuple depends only on block ``b``'s values,
        which is what lets :meth:`compress_many` fuse blocks from several
        streams into one pass.
        """
        spec = self.spec
        M, L, N = spec.num_sb, spec.sb_size, spec.block_size
        blocks3d = body.reshape(n_blocks, M, L)
        rows = np.arange(n_blocks)

        # Batched numeric pipeline (Alg. 1 lines 5-16, fused across blocks).
        # One |.| buffer serves the pattern fit, the zero-block test and
        # (overwritten) the ECQ magnitude moments below.
        abs3d = np.abs(blocks3d)
        p_idx, scales, degenerate = fit_pattern_batch(blocks3d, self.metric, abs3d=abs3d)
        amax = abs3d.reshape(n_blocks, N).max(axis=1)
        zero_block = amax == 0.0
        q = quantize_blocks(
            blocks3d, blocks3d[rows, p_idx], scales, eb, amax=amax, scratch=abs3d
        )
        pq, sq, p_b, ecq2d, ecb = q.pq, q.sq, q.p_b, q.ecq, q.ec_b_max
        force_raw = q.raw

        # Magnitude moments from the float residuals (integer-exact for
        # quantised values): nnz and sum(min(|v|, 2)) drive both the outlier
        # count and the dense-size formula for the fixed-shape trees.
        abs_f = q.ecq_abs
        nol = np.count_nonzero(abs_f, axis=1)
        np.minimum(abs_f, 2.0, out=abs_f)
        s_f = abs_f.sum(axis=1)
        idx_bits = max(1, (N - 1).bit_length())
        nol_bits = N.bit_length()
        sparse_bits = nol_bits + nol * (idx_bits + ecb)

        # Batched coding decisions: dense vs sparse per block, then the
        # patterned-vs-raw payoff test — one vectorised pass instead of the
        # historical per-block arithmetic (bit-identical outcomes).
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
        patterned_total = 2 + 6 + 6 + (L + M) * p_b + ecq_cost
        force_raw |= patterned_total >= 2 + 64 * N

        kinds = np.full(n_blocks, fmt.KIND_PATTERNED, dtype=np.int8)
        kinds[force_raw] = fmt.KIND_RAW
        kinds[zero_block] = fmt.KIND_ZERO

        # Group-by-class batched emission: one bit matrix per class for the
        # fixed-width fields, one planar emitter call for all dense ECQ,
        # then an assembly loop that only interleaves precomputed segments.
        parts: list[tuple[np.ndarray, ...]] = [()] * n_blocks

        zero_ids = np.flatnonzero(kinds == fmt.KIND_ZERO)
        if zero_ids.size:
            zero_tag = uint_to_bits(fmt.KIND_ZERO, 2)
            zero_parts = (zero_tag,)
            for b in zero_ids:
                parts[b] = zero_parts

        raw_ids = np.flatnonzero(kinds == fmt.KIND_RAW)
        if raw_ids.size:
            raw_tag = uint_to_bits(fmt.KIND_RAW, 2)
            raw_rows = pack_uint_rows(
                blocks3d[raw_ids].reshape(raw_ids.size, N).view(np.uint64), 64
            )
            for i, b in enumerate(raw_ids):
                parts[b] = (raw_tag, raw_rows[i])

        pat_ids = np.flatnonzero(kinds == fmt.KIND_PATTERNED)
        if pat_ids.size:
            # Each field family is batched over the widest grouping that
            # preserves its bits: headers over all patterned blocks at once
            # (kind|P_b is one fixed 8-bit field, EC_b,max[|flag] a 6/7-bit
            # one), PQ+SQ rows per P_b class, sparse ECQ payloads per
            # EC_b,max class and dense ones all at once (neither depends
            # on P_b).
            n_pat = pat_ids.size
            pb_p = p_b[pat_ids]
            ecb_p = ecb[pat_ids]
            sp_p = use_sparse[pat_ids]
            has_p = ecb_p >= 2

            hdr1_vals = (np.int64(fmt.KIND_PATTERNED) << 6) | pb_p
            hdr1_rows = pack_uint_rows(hdr1_vals[:, None].astype(np.uint64), 8)

            hdr2_seg: list[np.ndarray] = [None] * n_pat  # type: ignore[list-item]
            loc6 = np.flatnonzero(~has_p)
            if loc6.size:
                rows6 = pack_uint_rows(ecb_p[loc6][:, None].astype(np.uint64), 6)
                for j, i in enumerate(loc6):
                    hdr2_seg[i] = rows6[j]
            loc7 = np.flatnonzero(has_p)
            if loc7.size:
                vals7 = ((ecb_p[loc7] << 1) | sp_p[loc7]).astype(np.uint64)
                rows7 = pack_uint_rows(vals7[:, None], 7)
                for j, i in enumerate(loc7):
                    hdr2_seg[i] = rows7[j]

            pqsq_seg: list[np.ndarray] = [None] * n_pat  # type: ignore[list-item]
            for pbv in np.unique(pb_p):
                loc = np.flatnonzero(pb_p == pbv)
                ids = pat_ids[loc]
                offset = 1 << (int(pbv) - 1)
                vals = np.concatenate(
                    [pq[ids] + offset, sq[ids] + offset], axis=1
                ).astype(np.uint64)
                rows = pack_uint_rows(vals, int(pbv))
                for j, i in enumerate(loc):
                    pqsq_seg[i] = rows[j]

            payload_seg: list[tuple[np.ndarray, ...]] = [()] * n_pat
            dense_loc = np.flatnonzero(has_p & ~sp_p)
            if dense_loc.size:
                # One planar pass over every dense block, whatever its tree
                # branch or codeword width; segment lengths equal dense_bits.
                segs = encode_ecq_planar(
                    ecq2d[pat_ids[dense_loc]], ecb_p[dense_loc], self.tree_id
                )
                for i, seg in zip(dense_loc.tolist(), segs):
                    payload_seg[i] = seg
            sparse_loc = np.flatnonzero(sp_p)
            for ebv in np.unique(ecb_p[sparse_loc]):
                loc = sparse_loc[ecb_p[sparse_loc] == ebv]
                eb_max = int(ebv)
                sub = ecq2d[pat_ids[loc]]
                r_i, cols = np.nonzero(sub)  # row-major == flatnonzero order
                packed = (cols.astype(np.uint64) << np.uint64(eb_max)) | (
                    sub[r_i, cols] + (1 << (eb_max - 1))
                ).astype(np.uint64)
                width = idx_bits + eb_max
                entry_bits = pack_uint_rows(packed[None, :], width).ravel()
                counts = nol[pat_ids[loc]]
                chunks = np.split(entry_bits, np.cumsum(counts[:-1] * width))
                nol_rows = pack_uint_rows(counts[:, None].astype(np.uint64), nol_bits)
                for j, i in enumerate(loc):
                    payload_seg[i] = (nol_rows[j], chunks[j])

            for i, b in enumerate(pat_ids):
                parts[b] = (hdr1_rows[i], pqsq_seg[i], hdr2_seg[i]) + payload_seg[i]

        if stats is not None:
            self._collect_stats(
                stats, kinds, p_b, ecb, nol, use_sparse, dense_bits, sparse_bits,
                ecq2d, degenerate, M, L, N,
            )
        return parts

    def _collect_stats(
        self,
        stats: StreamStats,
        kinds: np.ndarray,
        p_b: np.ndarray,
        ecb: np.ndarray,
        nol: np.ndarray,
        use_sparse: np.ndarray,
        dense_bits: np.ndarray,
        sparse_bits: np.ndarray,
        ecq2d: np.ndarray,
        degenerate: np.ndarray,
        M: int,
        L: int,
        N: int,
    ) -> None:
        """Per-block bit accounting, identical to the historical loop."""
        if degenerate.any():
            stats.degenerate_blocks = int(degenerate.sum())
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
                bits_ecq = int(sparse_bits[b] if use_sparse[b] else dense_bits[b])
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
                _block_types(ecb[pat_ids]), ecq_bin_numbers(ecq2d[pat_ids])
            )

    # -- decompression -------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        """Reconstruct the stream; output satisfies the stored error bound.

        Two passes (see ``docs/ALGORITHM.md``): an *index pass* walks the
        scalar block headers, records each block's (kind, P_b, EC_b,max,
        bit offsets) and files its id under its class, then a *batched
        reconstruction pass* gathers each class's fields at once, forms all
        scale×pattern outer products with one broadcast multiply per class,
        and scatter-adds every correction.

        The stream's version byte picks how dense ECQ segments are read.
        Version 2 (planar) segments are skipped by popcount during the walk
        and then decoded together in one batched pass.  Version 1
        (interleaved) segments end where their last codeword ends, so the
        walk decodes each one in turn with :class:`ECQDecoder`.

        Index-pass results are memoised per blob (a small LRU): repeat
        decodes of a held stream — the SCF-store access pattern — skip
        straight to the batched reconstruction.
        """
        if not isinstance(blob, (bytes, bytearray)):
            blob = bytes(blob)  # mmap views etc.: parse memo needs a hashable key
        hdr = fmt.unpack_header(blob)
        # Corrupt count fields must not drive allocations: every block costs
        # at least its 2-bit kind tag, every tail value 64 bits.
        if hdr.n_blocks * 2 + hdr.n_tail * 64 > 8 * len(blob) - hdr.NBITS:
            raise FormatError("block/tail counts exceed the stream length")
        r = BitReader(blob)
        parse = self._parse_cache.get(blob)
        if parse is None:
            parse = self._index_pass(blob, hdr, r.bits)
            self._parse_cache[blob] = parse
            while len(self._parse_cache) > _PARSE_CACHE_MAX:
                self._parse_cache.pop(next(iter(self._parse_cache)))
        return self._reconstruct(hdr, r, parse)

    def _index_pass(self, blob: bytes, hdr: fmt.StreamHeader, bits: np.ndarray) -> tuple:
        """Scalar header walk plus dense ECQ decode; returns the parse tuple.

        The first ten entries are the per-block arrays (kind, P_b,
        EC_b,max, field offset, sparse count, sparse offset, sparse mask),
        the dense block ids with their decoded tokens, and the bit offset
        where the blocks end.  The last three are the block classes the
        walk saw, which :meth:`_reconstruct` batches over: raw block ids,
        then ``(P_b, ids)`` of patterned blocks and ``(EC_b,max, ids)`` of
        sparse-ECQ blocks, each sorted by its key, ids ascending.
        """
        spec = hdr.spec
        M, L, N = spec.num_sb, spec.sb_size, spec.block_size
        idx_bits = max(1, (N - 1).bit_length())
        nol_bits = N.bit_length()
        n_b = hdr.n_blocks
        tid = hdr.tree_id
        planar = hdr.version >= 2
        kind_arr = np.zeros(n_b, dtype=np.int8)
        pb_arr = np.zeros(n_b, dtype=np.int64)
        ecb_arr = np.zeros(n_b, dtype=np.int64)
        off_arr = np.zeros(n_b, dtype=np.int64)  # PQ start / raw-data start
        sp_nol = np.zeros(n_b, dtype=np.int64)
        sp_off = np.zeros(n_b, dtype=np.int64)
        sparse_mask = np.zeros(n_b, dtype=bool)
        raw_ids: list[int] = []
        pat_ids: dict[int, list[int]] = {}
        sp_ids: dict[int, list[int]] = {}
        dense_ids: list[int] = []
        dense_starts: list[int] = []
        dense_vals: list[np.ndarray] = []
        if not planar:
            decoder = ECQDecoder(bits, tid, hints=self._scan_hints.setdefault(tid, {}))
        sc = FieldScanner(blob, pos=hdr.NBITS)
        pqsq_bits = L + M

        for b in range(n_b):
            kind = sc.read(2)
            if kind == fmt.KIND_ZERO:
                continue
            if kind == fmt.KIND_RAW:
                kind_arr[b] = fmt.KIND_RAW
                raw_ids.append(b)
                off_arr[b] = sc.pos
                sc.skip(64 * N)
                continue
            if kind != fmt.KIND_PATTERNED:
                raise FormatError(f"bad block kind {kind} in block {b}")
            kind_arr[b] = fmt.KIND_PATTERNED
            pb = sc.read(6)
            if not 1 <= pb <= MAX_FIELD_BITS:
                raise FormatError(f"bad P_b {pb} in block {b}")
            pb_arr[b] = pb
            pat_ids.setdefault(pb, []).append(b)
            off_arr[b] = sc.pos
            sc.skip(pqsq_bits * pb)
            eb_max = sc.read(6)
            ecb_arr[b] = eb_max
            if eb_max < 2:
                continue
            if eb_max > MAX_ECB:
                raise FormatError(f"bad EC_b,max {eb_max} in block {b}")
            if sc.read(1):  # sparse ECQ: record the entry run, skip it
                if idx_bits + eb_max > 64:
                    raise FormatError(f"oversized outlier fields in block {b}")
                sparse_mask[b] = True
                sp_ids.setdefault(eb_max, []).append(b)
                cnt = sc.read(nol_bits)
                sp_nol[b] = cnt
                sp_off[b] = sc.pos
                sc.skip(cnt * (idx_bits + eb_max))
                continue
            dense_ids.append(b)
            if planar:  # length from plane popcounts; decoded in bulk below
                dense_starts.append(sc.pos)
                skip_planar_segment(sc, N, eb_max, tid)
            else:  # the end offset is only known by decoding
                vals, end = decoder.decode(sc.pos, N, eb_max)
                dense_vals.append(vals)
                sc.seek(end)

        dense_idx = np.asarray(dense_ids, dtype=np.int64)
        if dense_vals:  # version 1: decoded during the walk
            dense_mat = np.concatenate(dense_vals).reshape(dense_idx.size, N)
        else:
            dense_mat = np.zeros((dense_idx.size, N), dtype=np.int64)
            if dense_idx.size:  # version 2: all segments in one batched pass
                decode_ecq_planar(
                    bits, sc.padded, np.asarray(dense_starts, dtype=np.int64),
                    ecb_arr[dense_idx], tid, dense_mat,
                )

        def classes(by_key):
            return tuple((k, np.asarray(by_key[k], dtype=np.int64)) for k in sorted(by_key))

        return (kind_arr, pb_arr, ecb_arr, off_arr, sp_nol, sp_off,
                sparse_mask, dense_idx, dense_mat, sc.pos,
                np.asarray(raw_ids, dtype=np.int64), classes(pat_ids), classes(sp_ids))

    def _reconstruct(
        self, hdr: fmt.StreamHeader, r: BitReader, parse: tuple
    ) -> np.ndarray:
        """Batched reconstruction from a parse tuple (cold or memoised)."""
        (_, _, _, off_arr, sp_nol, sp_off, _, dense_idx, dense_mat, body_end,
         raw_ids, pat_classes, sp_classes) = parse
        spec = hdr.spec
        binsize = working_binsize(hdr.error_bound)
        M, L, N = spec.num_sb, spec.sb_size, spec.block_size
        idx_bits = max(1, (N - 1).bit_length())
        pqsq_bits = L + M
        n_b = hdr.n_blocks
        bits = r.bits
        out = np.zeros(n_b * N + hdr.n_tail, dtype=np.float64)
        flat = out[: n_b * N]
        body = flat.reshape(n_b, N)

        if raw_ids.size:
            # Chunked: the bit gather costs 8 bytes per stream bit.
            step = max(1, (1 << 23) // (64 * N))
            for i in range(0, raw_ids.size, step):
                ids = raw_ids[i : i + step]
                u = gather_uint_fields(bits, off_arr[ids], N, 64)
                body[ids] = u.view(np.float64)

        for pbi, ids in pat_classes:
            offset = np.int64(1) << (pbi - 1)  # also 2^(P_b-1) of Eq. 10
            fields = gather_uint_fields(bits, off_arr[ids], pqsq_bits, pbi)
            fields = fields.astype(np.int64) - offset
            approx = pattern_products(fields[:, :L], fields[:, L:], offset, binsize)
            body[ids] = approx.reshape(ids.size, N)

        if dense_idx.size:
            body[dense_idx] += dense_mat * binsize

        for ebi, ids in sp_classes:
            width = idx_bits + ebi
            counts = sp_nol[ids]
            total = int(counts.sum())
            if total == 0:
                continue
            first_entry = np.cumsum(counts) - counts
            intra = np.arange(total, dtype=np.int64) - np.repeat(first_entry, counts)
            starts = np.repeat(sp_off[ids], counts) + intra * width
            packed = gather_uint_fields(bits, starts, 1, width).ravel()
            idxs = (packed >> np.uint64(ebi)).astype(np.int64)
            vals = (packed & np.uint64((1 << ebi) - 1)).astype(np.int64)
            vals -= 1 << (ebi - 1)
            bids = np.repeat(ids, counts)
            if (idxs >= N).any():
                bad = int(bids[int(np.argmax(idxs >= N))])
                raise FormatError(f"outlier index out of range in block {bad}")
            gpos = bids * N + idxs
            # The compressor emits outliers in flatnonzero order, so
            # indices must be strictly increasing within each block; a
            # duplicate would otherwise be silently dropped by the
            # scatter-add below.
            bad_step = np.diff(gpos) <= 0
            if bad_step.any():
                bad = int(bids[1 + int(np.argmax(bad_step))])
                raise FormatError(
                    f"outlier indices not strictly increasing in block {bad}"
                )
            flat[gpos] += vals * binsize

        if hdr.n_tail:
            r.seek(body_end)
            out[n_b * N :] = r.read_uint_array(hdr.n_tail, 64).view(np.float64)
        return out


def _factory(**kwargs) -> PaSTRICompressor:
    return PaSTRICompressor(**kwargs)


api.register_codec("pastri", _factory)
