"""``pastri`` command-line interface.

Subcommands::

    pastri gen        <molecule> <config> <out.npz> [--blocks N] [--seed S]
    pastri compress   <in.npy|in.npz> <out.pastri> --eb 1e-10 [--eb-mode abs|rel]
    pastri decompress <in.pastri> <out.npy>
    pastri info       <in.pastri|in.pstf>
    pastri pack       <in.npy|in.npz> <out.pstf> [--codec pastri] [--workers N]
    pastri unpack     <in.pstf> <out.npy> [--workers N]
    pastri ls         <in.pstf>
    pastri fsck       <in.pstf> [--output OUT] [--dry-run]
    pastri assess     <in.npz> [--eb 1e-10] [--eb-mode abs|rel] [--codec pastri]
    pastri bench      [experiment ids ...]
    pastri stats      <store.pstf> [--hot-cache-mb MB] [--readahead N]
    pastri telemetry report <trace.jsonl>
    pastri serve      [--host H] [--port P] [--workers N] [--spill PATH] ...
    pastri remote     compress|decompress|stats ... [--host H] [--port P]
    pastri cluster    launch|status|kill|drain ... [--dir DIR]

``serve`` runs the asyncio compression service (micro-batching,
backpressure, graceful SIGTERM drain — see ``docs/SERVICE.md``); ``remote``
talks to one from the command line through
:class:`repro.service.client.ServiceClient`.  ``cluster`` launches and
manages a local sharded fleet — N ``pastri serve`` subprocess shards
behind a consistent-hashing gateway with replicated writes, health-
checked failover, and hinted handoff (``docs/CLUSTER.md``); ``remote``
commands pointed at the gateway port work unchanged.

``compress`` writes one bare PaSTRI bitstream; ``pack`` writes a seekable
PSTF-v2 *container* (frame index, per-frame CRC32, codec spec in the
header) that ``unpack``/``ls`` and :func:`repro.streamio.open_container`
read back with no codec arguments.  ``fsck`` checks a container and
salvages a torn or footerless one (crashed writer, full disk): every
frame whose payload verifies is kept, the torn tail is dropped, and a
fresh footer index is written — atomically in place by default, or to
``--output``; ``--dry-run`` only reports (exit 1 when damage was found).  ``compress``/``pack`` accept a raw
``.npy`` float64 array (``--config`` required) or an ``.npz`` saved by
:meth:`repro.chem.dataset.ERIDataset.save` (block geometry taken from the
file).  ``--codec`` on ``pack``/``assess``/``serve`` selects any
registered codec by name; the low-rank codec adds ``--rank``,
``--max-rank``, and ``--method svd|cp`` (``docs/LOWRANK.md``).  Error bounds are absolute by default; ``--eb-mode rel`` interprets
``--eb`` as value-range-relative (SZ's REL mode).

``compress``/``decompress``/``pack``/``unpack``/``assess`` take a global
``--telemetry[=PATH]`` flag: with it, the run executes under
:mod:`repro.telemetry`, a per-stage summary table is printed to stderr
afterwards, and — when PATH is given — the full span trace plus a metrics
snapshot is written there as JSON lines for later ``pastri telemetry
report PATH``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.api import resolve_error_bound
from repro.core import PaSTRICompressor
from repro.core import header as fmt
from repro.errors import ReproError

_PSTF_MAGIC = b"PSTF"


def _load_input(path: str, config: str | None):
    if path.endswith(".npz"):
        from repro.chem.dataset import ERIDataset

        ds = ERIDataset.load(path)
        return ds.data, ds.spec.dims
    data = np.ascontiguousarray(np.load(path), dtype=np.float64).ravel()
    if config is None:
        raise SystemExit("--config is required for raw .npy input ('auto' to detect)")
    if config.strip().lower() == "auto":
        from repro.core.autodetect import detect_block_spec

        res = detect_block_spec(data)
        print(
            f"detected block structure {res.spec.dims} "
            f"(period score {res.period_score:.3f}, trial ratio {res.trial_ratio:.1f})"
        )
        return data, res.spec.dims
    from repro.core.blocking import BlockSpec

    return data, BlockSpec.from_config(config).dims


def _is_container(path: str) -> bool:
    """True when ``path`` starts with the PSTF container magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(4) == _PSTF_MAGIC
    except OSError:
        return False


def _resolve_eb(data: np.ndarray, args: argparse.Namespace) -> float:
    """Apply ``--eb-mode`` (abs passthrough / rel = bound x value range)."""
    eb = resolve_error_bound(data, args.eb, getattr(args, "eb_mode", "abs"))
    if getattr(args, "eb_mode", "abs") == "rel":
        print(f"relative bound {args.eb:g} -> absolute {eb:g}")
    return eb


def cmd_compress(args: argparse.Namespace) -> int:
    """Handle ``pastri compress``."""
    data, dims = _load_input(args.input, args.config)
    eb = _resolve_eb(data, args)
    codec = PaSTRICompressor(dims=dims, metric=args.metric, tree_id=args.tree)
    blob = codec.compress(data, eb)
    with open(args.output, "wb") as fh:
        fh.write(blob)
    print(
        f"{args.input}: {data.nbytes} B -> {len(blob)} B "
        f"(ratio {data.nbytes / len(blob):.2f}, EB {eb:g})"
    )
    return 0


def cmd_decompress(args: argparse.Namespace) -> int:
    """Handle ``pastri decompress``."""
    if _is_container(args.input):
        raise ReproError(
            f"{args.input} is a PSTF container, not a bare PaSTRI stream; "
            "use `pastri unpack` (or `pastri ls` to inspect it)"
        )
    with open(args.input, "rb") as fh:
        blob = fh.read()
    hdr = fmt.unpack_header(blob)
    codec = PaSTRICompressor(dims=hdr.spec.dims)
    out = codec.decompress(blob)
    np.save(args.output, out)
    print(
        f"{args.input}: {len(blob)} B -> {out.nbytes} B ({out.size} doubles, "
        f"stream v{hdr.version})"
    )
    return 0


def _cli_codec_kwargs(args: argparse.Namespace, dims) -> dict:
    """Constructor kwargs for the codec named on the command line.

    Shape-aware codecs need the block geometry; lowrank additionally
    takes its rank knobs.  Shape-independent codecs take nothing.
    """
    if args.codec == "pastri":
        return {"dims": dims}
    if args.codec == "lowrank":
        return {
            "dims": dims,
            "method": args.method,
            "rank": args.rank,
            "max_rank": args.max_rank,
        }
    return {}


def _add_lowrank_args(p: argparse.ArgumentParser) -> None:
    """Rank knobs shared by every subcommand that builds a codec."""
    p.add_argument("--rank", type=int, default=0,
                   help="lowrank: pin the factorization rank (0 = adaptive)")
    p.add_argument("--max-rank", type=int, default=32,
                   help="lowrank: ceiling for adaptive rank selection")
    p.add_argument("--method", choices=("svd", "cp"), default="svd",
                   help="lowrank: factorization family")


def _print_container_summary(path: str) -> None:
    from repro.streamio import open_container

    from repro.api import available_codecs

    with open_container(path) as r:
        n_bytes = sum(f.length for f in r.frames)
        known = r.codec_name in available_codecs()
        note = "" if known else "  [no codec of this name registered here]"
        print(f"PSTF container (v{r.version}): {path}")
        print(f"  codec       : {r.codec_name}  {r.codec_spec.get('kwargs', {})}{note}")
        print(f"  frames      : {len(r)}")
        print(f"  payload     : {n_bytes} B compressed, {r.n_elements} elements")
        if r.meta:
            print(f"  meta        : {r.meta}")
        keyed = sum(1 for f in r.frames if f.key is not None)
        if keyed:
            print(f"  keyed frames: {keyed} (an ERI-store snapshot)")
        print("  (use `pastri ls` for the per-frame index, `pastri unpack` to decode)")


def cmd_info(args: argparse.Namespace) -> int:
    """Handle ``pastri info``: print the stream/container header."""
    if _is_container(args.input):
        _print_container_summary(args.input)
        return 0
    with open(args.input, "rb") as fh:
        blob = fh.read()
    hdr = fmt.unpack_header(blob)
    print(f"PaSTRI stream: {args.input}")
    print(f"  stream version: {hdr.version} ({fmt.LAYOUT_NAMES[hdr.version]})")
    print(f"  error bound : {hdr.error_bound:g}")
    print(f"  block dims  : {hdr.spec.dims}  {hdr.spec.config}")
    print(f"  blocks      : {hdr.n_blocks} (+{hdr.n_tail} tail values)")
    print(f"  tree / metric: {hdr.tree_id} / {hdr.metric.name}")
    return 0


def cmd_pack(args: argparse.Namespace) -> int:
    """Handle ``pastri pack``: write a seekable PSTF-v2 container."""
    from repro.parallel.pool import parallel_compress_to_container

    data, dims = _load_input(args.input, args.config)
    eb = _resolve_eb(data, args)
    codec_kwargs = _cli_codec_kwargs(args, dims)
    block = int(np.prod(dims))
    frame_elems = block * max(args.chunk_blocks, 1)
    n_frames = max(-(-data.size // frame_elems), args.workers)
    summary = parallel_compress_to_container(
        args.codec,
        data,
        eb,
        args.workers,
        block,
        args.output,
        codec_kwargs=codec_kwargs,
        meta={"source": args.input},
        n_frames=n_frames,
    )
    print(
        f"{args.input}: {summary.original_bytes} B -> {summary.compressed_bytes} B "
        f"in {summary.n_chunks} frames (ratio {summary.ratio:.2f}, EB {eb:g}, "
        f"{args.workers} workers)"
    )
    return 0


def cmd_unpack(args: argparse.Namespace) -> int:
    """Handle ``pastri unpack``: decode a container to .npy."""
    if not _is_container(args.input):
        raise ReproError(
            f"{args.input} is not a PSTF container; "
            "bare PaSTRI streams decode with `pastri decompress`"
        )
    from repro.parallel.pool import parallel_decompress_container

    out = parallel_decompress_container(args.input, args.workers)
    np.save(args.output, out)
    print(f"{args.input}: {out.size} doubles -> {args.output} ({args.workers} workers)")
    return 0


def cmd_ls(args: argparse.Namespace) -> int:
    """Handle ``pastri ls``: print the container's frame index."""
    if not _is_container(args.input):
        raise ReproError(f"{args.input} is not a PSTF container")
    from repro.streamio import open_container

    with open_container(args.input) as r:
        print(
            f"{args.input}: PSTF v{r.version}, codec {r.codec_name} "
            f"{r.codec_spec.get('kwargs', {})}, {len(r)} frames"
        )
        print(f"{'#':>4} {'offset':>10} {'bytes':>9} {'elements':>9} "
              f"{'crc32':>10}  {'dims':<14} key")
        for i, f in enumerate(r.frames):
            crc = f"{f.crc32:#010x}" if f.crc32 is not None else "-"
            dims = "x".join(map(str, f.dims)) if f.dims else "-"
            print(
                f"{i:>4} {f.offset:>10} {f.length:>9} {f.n_elements or '?':>9} "
                f"{crc:>10}  {dims:<14} {f.key or '-'}"
            )
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Handle ``pastri fsck``: check and salvage a PSTF container.

    A valid container is a no-op (exit 0).  A footerless or torn one is
    scanned frame by frame; every frame whose payload verifies is kept,
    the damaged tail is dropped, and a fresh footer index is written —
    in place by default (atomically, via a temp file), or to
    ``--output``.  With ``--dry-run`` nothing is written and the exit
    code is 1 when damage was found, so scripts can probe health.
    """
    from repro.streamio import salvage_container

    report = salvage_container(args.input, output=args.output, dry_run=args.dry_run)
    print(report.describe())
    if args.dry_run and not report.clean:
        return 1
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    """Handle ``pastri gen``: run the integral engine."""
    from repro.chem.dataset import generate_dataset
    from repro.chem.molecules import molecule_by_name

    mol = molecule_by_name(args.molecule)
    ds = generate_dataset(mol, args.config, n_blocks=args.blocks, seed=args.seed)
    ds.save(args.output)
    print(
        f"{mol.name} {ds.config}: {ds.n_blocks} blocks "
        f"({ds.nbytes / 1e6:.2f} MB) -> {args.output}"
    )
    return 0


def cmd_assess(args: argparse.Namespace) -> int:
    """Handle ``pastri assess``: Z-Checker-style report."""
    from repro.api import get_codec
    from repro.chem.dataset import ERIDataset
    from repro.metrics import assess

    ds = ERIDataset.load(args.input)
    eb = _resolve_eb(ds.data, args)
    kwargs = _cli_codec_kwargs(args, ds.spec.dims)
    codec = get_codec(args.codec, **kwargs)
    a = assess(codec, ds.data, eb)
    print(f"{args.codec} on {args.input} at EB={eb:g} ({args.eb_mode})")
    for name, value in a.rows():
        print(f"  {name:<26} {value:.6g}")
    print(f"  {'bound satisfied':<26} {a.bound_satisfied}")
    return 0 if a.bound_satisfied else 1


def cmd_bench(args: argparse.Namespace) -> int:
    """Handle ``pastri bench``: dispatch to the harness."""
    from repro.harness.__main__ import main as harness_main

    return harness_main(args.experiments or ["fig9"])


def cmd_serve(args: argparse.Namespace) -> int:
    """Handle ``pastri serve``: run the compression service until SIGTERM."""
    import asyncio

    from repro.service.server import CompressionServer, ServerConfig

    from repro.core.blocking import BlockSpec

    dims = (
        list(BlockSpec.from_config(args.config).dims)
        if args.config
        else [1, 1, 1, 1]
    )
    codec_kwargs = _cli_codec_kwargs(args, dims)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        shard_id=args.shard_id,
        codec_name=args.codec,
        codec_kwargs=codec_kwargs,
        error_bound=args.eb,
        n_workers=args.workers,
        batch_max=args.batch_max,
        batch_window_ms=args.batch_window_ms,
        max_queue=args.max_queue,
        max_inflight_bytes=int(args.max_inflight_mb * (1 << 20)),
        request_deadline_ms=args.deadline_ms,
        spill_path=args.spill,
        memory_budget_bytes=int(args.memory_budget_mb * (1 << 20)),
        hot_cache_bytes=int(args.hot_cache_mb * (1 << 20)),
        readahead=args.readahead,
    )

    async def _run() -> None:
        server = CompressionServer(config)
        await server.start()
        recovered = server.store.stats.recovered
        if recovered:
            print(
                f"recovered {recovered} spilled entr"
                f"{'y' if recovered == 1 else 'ies'} from {config.spill_path}",
                flush=True,
            )
        print(f"pastri service listening on {config.host}:{server.port}", flush=True)
        await server.serve_forever()
        print("pastri service drained, bye", flush=True)

    asyncio.run(_run())
    return 0


def _remote_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(args.host, args.port, timeout=args.timeout)


def cmd_remote_compress(args: argparse.Namespace) -> int:
    """Handle ``pastri remote compress``: round-trip through the service."""
    data, dims = _load_input(args.input, args.config)
    eb = _resolve_eb(data, args)
    with _remote_client(args) as client:
        blob, info = client.compress(data, eb, dims=dims)
        if args.verify:
            back = client.decompress(blob)
            err = float(np.max(np.abs(data - back)))
            if err > eb:
                raise ReproError(
                    f"remote round-trip exceeded the bound: {err:g} > {eb:g}"
                )
            print(f"verified: max point-wise error {err:.3g} <= {eb:g}")
    with open(args.output, "wb") as fh:
        fh.write(blob)
    print(
        f"{args.input}: {data.nbytes} B -> {info['compressed_bytes']} B remote "
        f"(ratio {info['ratio']:.2f}, EB {eb:g})"
    )
    return 0


def cmd_remote_decompress(args: argparse.Namespace) -> int:
    """Handle ``pastri remote decompress``: decode a blob via the service."""
    with open(args.input, "rb") as fh:
        blob = fh.read()
    with _remote_client(args) as client:
        out = client.decompress(blob)
    np.save(args.output, out)
    print(f"{args.input}: {len(blob)} B -> {out.nbytes} B ({out.size} doubles)")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Handle ``pastri stats``: store snapshot accounting + cache report.

    Loads a store snapshot (or a cleanly closed spill container) written
    by :meth:`repro.pipeline.CompressedERIStore.save` and prints its
    accounting plus the per-tier cache report — the same report a running
    server exposes through ``pastri remote stats``.
    """
    from repro.pipeline import CompressedERIStore

    store = CompressedERIStore.load(
        args.input,
        hot_cache_bytes=int(args.hot_cache_mb * (1 << 20)),
        readahead_depth=args.readahead,
    )
    try:
        st = store.stats
        print(f"ERI store snapshot: {args.input}")
        print(f"  entries      : {st.n_entries}")
        print(f"  original     : {st.original_bytes} B")
        print(f"  compressed   : {st.compressed_bytes} B (ratio {st.ratio:.2f})")
        print(f"  error bound  : {store.error_bound:g}")
        print(store.format_cache_report())
    finally:
        store.close()
    return 0


def _metric_scalars(metrics: dict, prefixes=("service.", "cluster.", "store.")
                    ) -> dict:
    """Pull scalar values out of a registry snapshot for tree rendering."""
    out = {}
    for name, summary in metrics.items():
        if not str(name).startswith(prefixes):
            continue
        if isinstance(summary, dict):
            val = summary.get("value", summary.get("count"))
        else:
            val = summary
        if isinstance(val, (int, float)):
            out[name] = val
    return out


def cmd_remote_stats(args: argparse.Namespace) -> int:
    """Handle ``pastri remote stats``: health + store stats + metrics.

    Counters render as a namespace tree (``format_counter_tree``) instead
    of the old flat dict dump, so nested fleet metrics — per-shard
    aggregates, ``service.buffers.*``, ``cluster.hints.*`` — stay
    readable.  Pointed at a gateway, the store section is the fleet
    aggregate and a per-shard summary follows.
    """
    from repro.telemetry import format_counter_tree

    with _remote_client(args) as client:
        health = client.health()
        stats = client.stats()
        metrics = client.metrics()
        cluster = (
            client.cluster_stats() if health.get("role") == "gateway" else None
        )
    role = health.get("role", "server")
    print(f"{role} {args.host}:{args.port}")
    if role == "gateway":
        keys = ("status", "gateway_id", "uptime_s", "replication",
                "shards_up", "shards_down", "hints_pending")
    else:
        keys = ("status", "shard_id", "uptime_s", "queued", "inflight_bytes",
                "store_entries")
    for k in keys:
        if health.get(k) is not None:
            print(f"  {k:<16} {health.get(k)}")
    cache_report = stats.pop("cache_report", None)
    print("store:" if role != "gateway" else "store (fleet aggregate):")
    print(format_counter_tree(stats, indent=1))
    if cache_report:
        for line in str(cache_report).splitlines():
            print(f"  {line}")
    if cluster is not None:
        print("shards:")
        for name, shard in sorted(cluster.get("shards", {}).items()):
            store = shard.get("store", {})
            state = "up" if shard.get("up") else "DOWN"
            if "error" in shard.get("health", {}):
                detail = f"unreachable: {shard['health']['error']}"
            else:
                detail = (
                    f"entries {store.get('n_entries', '?'):>5}  "
                    f"puts {store.get('puts', '?'):>6}  "
                    f"gets {store.get('gets', '?'):>6}  "
                    f"ratio {store.get('ratio', 0):.2f}"
                )
            print(f"  {name:<12} {state:<5} {shard.get('addr', ''):<21} {detail}")
        pending = cluster.get("fleet", {}).get("hints_pending") or {}
        if pending:
            print("hints pending:")
            print(format_counter_tree(pending, indent=1))
    scalars = _metric_scalars(metrics)
    if scalars:
        print("metrics:")
        print(format_counter_tree(scalars, indent=1))
    return 0


def cmd_cluster_launch(args: argparse.Namespace) -> int:
    """Handle ``pastri cluster launch``: shard subprocesses + foreground gateway.

    Shards run as real ``pastri serve`` subprocesses, each with its own
    spill container under ``--dir``; the gateway runs in this process
    until SIGTERM/SIGINT, then the whole fleet drains gracefully.  The
    topology lands in ``<dir>/cluster.json`` for ``status``/``kill``/
    ``drain``.
    """
    import asyncio

    from repro.cluster.fleet import SubprocessFleet, write_state
    from repro.cluster.gateway import ClusterGateway, GatewayConfig

    serve_args = []
    if args.workers > 1:
        serve_args += ["--workers", str(args.workers)]
    if args.memory_budget_mb is not None:
        serve_args += ["--memory-budget-mb", str(args.memory_budget_mb)]
    fleet = SubprocessFleet(
        args.shards, args.dir, error_bound=args.eb, serve_args=serve_args
    )
    fleet.start()
    config = GatewayConfig(
        shards=[(s.name, s.host, s.port) for s in fleet.specs],
        host=args.host,
        port=args.gateway_port,
        replication=args.replication,
        vnodes=args.vnodes,
        hint_path=os.path.join(args.dir, "hints.jsonl"),
    )

    async def _run() -> None:
        gateway = ClusterGateway(config)
        await gateway.start()
        write_state(args.dir, args.host, gateway.port, os.getpid(),
                    fleet.specs, args.replication, error_bound=args.eb)
        print(
            f"pastri cluster gateway listening on {args.host}:{gateway.port} "
            f"({len(fleet.specs)} shards, R={args.replication})",
            flush=True,
        )
        for s in fleet.specs:
            print(f"  {s.name} pid {s.pid} @ {s.host}:{s.port}", flush=True)
        await gateway.serve_forever()

    try:
        asyncio.run(_run())
    finally:
        fleet.terminate_all()
        print("pastri cluster drained, bye", flush=True)
    return 0


def _cluster_endpoint(args: argparse.Namespace) -> tuple[str, int]:
    if args.host is not None and args.port is not None:
        return args.host, args.port
    if not args.dir:
        raise ReproError("give --dir (a launched fleet) or --host/--port")
    from repro.cluster.fleet import read_state

    state = read_state(args.dir)
    return state["gateway"]["host"], int(state["gateway"]["port"])


def cmd_cluster_status(args: argparse.Namespace) -> int:
    """Handle ``pastri cluster status``: gateway + per-shard fleet report."""
    args.host, args.port = _cluster_endpoint(args)
    return cmd_remote_stats(args)


def cmd_cluster_kill(args: argparse.Namespace) -> int:
    """Handle ``pastri cluster kill``: SIGKILL one shard (failover demo)."""
    import signal as _signal

    from repro.cluster.fleet import read_state

    state = read_state(args.dir)
    for shard in state["shards"]:
        if shard["name"] == args.shard:
            pid = shard.get("pid")
            if not pid:
                raise ReproError(f"no recorded pid for shard {args.shard!r}")
            os.kill(pid, _signal.SIGKILL)
            print(f"killed {args.shard} (pid {pid}) — reads should fail over")
            return 0
    raise ReproError(
        f"unknown shard {args.shard!r}; fleet has "
        + ", ".join(s["name"] for s in state["shards"])
    )


def _state_specs(state: dict) -> list:
    """cluster.json shard dicts back as :class:`ShardSpec` objects."""
    from repro.cluster.fleet import ShardSpec

    fields = ("name", "host", "port", "spill_path", "pid")
    return [ShardSpec(**{k: s.get(k) for k in fields}) for s in state["shards"]]


def _rewrite_state(args: argparse.Namespace, state: dict, specs: list) -> None:
    from repro.cluster.fleet import write_state

    gw = state["gateway"]
    write_state(args.dir, gw["host"], int(gw["port"]), gw["pid"], specs,
                state.get("replication", 2), state.get("error_bound"))


def cmd_cluster_add_shard(args: argparse.Namespace) -> int:
    """Handle ``pastri cluster add-shard``: boot a shard, migrate keys live.

    The new shard is spawned *detached* (its own session, logging to
    ``<dir>/<name>.log``) so it outlives this command; the gateway's
    ``cluster.reshard.add`` op then streams its share of keys over and
    flips the ring.  ``cluster.json`` is rewritten with the new roster.
    """
    from repro.cluster.fleet import ShardSpec, read_state, spawn_detached
    from repro.service.client import ServiceClient

    state = read_state(args.dir)
    names = {s["name"] for s in state["shards"]}
    name = args.name
    if name is None:
        i = len(names)
        while f"shard-{i:02d}" in names:
            i += 1
        name = f"shard-{i:02d}"
    if name in names:
        raise ReproError(f"shard {name!r} already exists in this fleet")
    spec = ShardSpec(
        name=name, spill_path=os.path.join(args.dir, f"{name}.pstf")
    )
    spawn_detached(spec, args.dir, state.get("error_bound") or 1e-10)
    print(
        f"spawned {name} (pid {spec.pid}) @ {spec.host}:{spec.port}; "
        "migrating keys ...", flush=True,
    )
    gw = state["gateway"]
    with ServiceClient(gw["host"], int(gw["port"]), timeout=args.timeout) as c:
        summary = c.reshard_add(name, spec.host, spec.port)
    _rewrite_state(args, state, _state_specs(state) + [spec])
    print(
        f"reshard complete: {summary['keys_moved']}/{summary['keys_scanned']} "
        f"keys moved ({summary['bytes_moved']} bytes, "
        f"{summary['copy_failures']} failures) in {summary['duration_s']:.3f}s"
    )
    print("members: " + ", ".join(summary["members"]))
    return 0


def cmd_cluster_remove_shard(args: argparse.Namespace) -> int:
    """Handle ``pastri cluster remove-shard``: migrate keys away, then stop it."""
    import signal as _signal

    from repro.cluster.fleet import read_state
    from repro.service.client import ServiceClient

    state = read_state(args.dir)
    target = next(
        (s for s in state["shards"] if s["name"] == args.shard), None
    )
    if target is None:
        raise ReproError(
            f"unknown shard {args.shard!r}; fleet has "
            + ", ".join(s["name"] for s in state["shards"])
        )
    gw = state["gateway"]
    with ServiceClient(gw["host"], int(gw["port"]), timeout=args.timeout) as c:
        summary = c.reshard_remove(args.shard)
    # only stop the process after its keys have migrated off it
    pid = target.get("pid")
    if pid:
        try:
            os.kill(pid, _signal.SIGTERM)
        except ProcessLookupError:
            pass
    _rewrite_state(
        args, state,
        [s for s in _state_specs(state) if s.name != args.shard],
    )
    print(
        f"reshard complete: {summary['keys_moved']} keys moved off "
        f"{args.shard} ({summary['bytes_moved']} bytes) in "
        f"{summary['duration_s']:.3f}s; shard stopped"
    )
    print("members: " + ", ".join(summary["members"]))
    return 0


def cmd_cluster_drain(args: argparse.Namespace) -> int:
    """Handle ``pastri cluster drain``: SIGTERM the gateway, fleet follows."""
    import signal as _signal

    from repro.cluster.fleet import read_state

    state = read_state(args.dir)
    pid = state["gateway"]["pid"]
    try:
        os.kill(pid, _signal.SIGTERM)
    except ProcessLookupError:
        print(f"gateway pid {pid} is already gone")
        return 1
    # shards added with ``add-shard`` are detached from the launch
    # process, so its teardown won't reap them — signal every recorded
    # shard pid too (double-TERM on the launch's own children is benign)
    for shard in state["shards"]:
        spid = shard.get("pid")
        if spid:
            try:
                os.kill(spid, _signal.SIGTERM)
            except ProcessLookupError:
                pass
    print(f"sent SIGTERM to gateway pid {pid}; the fleet drains with it")
    return 0


def cmd_telemetry_report(args: argparse.Namespace) -> int:
    """Handle ``pastri telemetry report``: render a saved JSON-lines trace."""
    from repro.telemetry import format_metrics_table, format_span_tree
    from repro.telemetry.export import read_trace_jsonl

    roots, snapshot = read_trace_jsonl(args.input)
    if roots:
        print(format_span_tree(roots))
    if snapshot is not None:
        print(format_metrics_table(snapshot))
    if not roots and snapshot is None:
        print(f"{args.input}: no spans or metrics recorded")
    return 0


def _run_with_telemetry(args: argparse.Namespace) -> int:
    """Execute a subcommand under telemetry and report afterwards.

    The summary table goes to stderr so stdout stays parseable (``ls``,
    ``info``, ... keep their machine-readable shape); a non-empty PATH
    additionally gets the JSON-lines trace + metrics snapshot.
    """
    from repro import telemetry

    telemetry.enable()
    try:
        with telemetry.trace(f"cli.{args.cmd}"):
            rc = args.func(args)
        print(telemetry.format_report(), file=sys.stderr)
        if args.telemetry:
            telemetry.write_trace_jsonl(args.telemetry)
            print(f"telemetry trace written to {args.telemetry}", file=sys.stderr)
        return rc
    finally:
        telemetry.disable()
        telemetry.reset()


def _add_telemetry_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="instrument the run; print a stage summary and optionally "
        "dump the JSON-lines trace to PATH",
    )


def _add_eb_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eb", type=float, default=1e-10, help="error bound")
    p.add_argument(
        "--eb-mode",
        choices=("abs", "rel"),
        default="abs",
        help="bound semantics: absolute (default) or value-range-relative",
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``pastri`` console script."""
    p = argparse.ArgumentParser(prog="pastri", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compress", help="compress an ERI stream")
    c.add_argument("input")
    c.add_argument("output")
    _add_eb_args(c)
    c.add_argument("--config", default=None, help="BF configuration, e.g. '(dd|dd)'")
    c.add_argument("--metric", default="er", help="scaling metric (fr/er/ar/aar/is)")
    c.add_argument("--tree", type=int, default=5, help="ECQ encoding tree 1-5")
    _add_telemetry_arg(c)
    c.set_defaults(func=cmd_compress)

    d = sub.add_parser("decompress", help="decompress to .npy")
    d.add_argument("input")
    d.add_argument("output")
    _add_telemetry_arg(d)
    d.set_defaults(func=cmd_decompress)

    i = sub.add_parser("info", help="print stream/container header")
    i.add_argument("input")
    i.set_defaults(func=cmd_info)

    pk = sub.add_parser("pack", help="compress into a seekable PSTF-v2 container")
    pk.add_argument("input")
    pk.add_argument("output")
    _add_eb_args(pk)
    pk.add_argument("--codec", default="pastri", help="registry codec name")
    pk.add_argument("--config", default=None, help="BF configuration for raw .npy")
    _add_lowrank_args(pk)
    pk.add_argument("--workers", type=int, default=1, help="compression processes")
    pk.add_argument(
        "--chunk-blocks", type=int, default=64,
        help="shell blocks per container frame (finer = better random access)",
    )
    _add_telemetry_arg(pk)
    pk.set_defaults(func=cmd_pack)

    up = sub.add_parser("unpack", help="decode a PSTF container to .npy")
    up.add_argument("input")
    up.add_argument("output")
    up.add_argument("--workers", type=int, default=1, help="decompression processes")
    _add_telemetry_arg(up)
    up.set_defaults(func=cmd_unpack)

    ls = sub.add_parser("ls", help="list a container's frame index")
    ls.add_argument("input")
    ls.set_defaults(func=cmd_ls)

    fs = sub.add_parser("fsck", help="check/salvage a PSTF container")
    fs.add_argument("input", help="container to check (PSTF v1/v2)")
    fs.add_argument(
        "--output",
        default=None,
        help="write the salvaged container here instead of repairing in place",
    )
    fs.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be recovered without writing anything",
    )
    _add_telemetry_arg(fs)
    fs.set_defaults(func=cmd_fsck)

    g = sub.add_parser("gen", help="generate an ERI dataset with the integral engine")
    g.add_argument("molecule", help="benzene / glutamine / trialanine")
    g.add_argument("config", help="BF configuration, e.g. '(dd|dd)'")
    g.add_argument("output", help=".npz path")
    g.add_argument("--blocks", type=int, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("assess", help="Z-Checker-style quality report")
    a.add_argument("input", help=".npz dataset")
    _add_eb_args(a)
    a.add_argument("--codec", default="pastri")
    _add_lowrank_args(a)
    _add_telemetry_arg(a)
    a.set_defaults(func=cmd_assess)

    b = sub.add_parser("bench", help="run paper experiments")
    b.add_argument("experiments", nargs="*")
    b.set_defaults(func=cmd_bench)

    st = sub.add_parser("stats", help="store snapshot accounting + cache report")
    st.add_argument("input", help="store snapshot / spill container (.pstf)")
    st.add_argument("--hot-cache-mb", type=float, default=0.0,
                    help="decompressed-tier budget in MB for the loaded store")
    st.add_argument("--readahead", type=int, default=0,
                    help="readahead depth for the loaded store")
    st.set_defaults(func=cmd_stats)

    sv = sub.add_parser("serve", help="run the asyncio compression service")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=7557, help="0 = ephemeral")
    sv.add_argument("--shard-id", default=None,
                    help="fleet identity reported in health/stats replies "
                         "(set by `pastri cluster launch`)")
    sv.add_argument("--codec", default="pastri", help="registry codec name")
    sv.add_argument(
        "--config", default=None,
        help="base BF configuration for shape-aware codecs "
             "(per-request dims still apply)",
    )
    _add_lowrank_args(sv)
    sv.add_argument("--eb", type=float, default=1e-10, help="store error bound")
    sv.add_argument("--workers", type=int, default=1,
                    help=">1 adds a multiprocessing batch pool")
    sv.add_argument("--batch-max", type=int, default=32,
                    help="max compress requests coalesced per batch")
    sv.add_argument("--batch-window-ms", type=float, default=2.0,
                    help="how long a batch waits for company")
    sv.add_argument("--max-queue", type=int, default=256,
                    help="compress queue depth before BUSY replies")
    sv.add_argument("--max-inflight-mb", type=float, default=256.0,
                    help="in-flight payload bytes before BUSY replies")
    sv.add_argument("--deadline-ms", type=float, default=10_000.0,
                    help="max queue wait before a DEADLINE reply")
    sv.add_argument("--spill", default=None, metavar="PATH",
                    help="spill store blobs to a PSTF container at PATH")
    sv.add_argument("--memory-budget-mb", type=float, default=64.0,
                    help="hot-set budget for the spill backend")
    sv.add_argument("--hot-cache-mb", type=float, default=4.0,
                    help="decompressed-tier budget in MB (0 disables it)")
    sv.add_argument("--readahead", type=int, default=2,
                    help="blocks to speculatively decode after a store "
                         "miss (0 disables readahead)")
    sv.set_defaults(func=cmd_serve)

    rm = sub.add_parser("remote", help="talk to a running compression service")
    rmsub = rm.add_subparsers(dest="remote_cmd", required=True)

    def _add_remote_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=7557)
        p.add_argument("--timeout", type=float, default=30.0)

    rc = rmsub.add_parser("compress", help="compress through the service")
    rc.add_argument("input")
    rc.add_argument("output")
    _add_eb_args(rc)
    rc.add_argument("--config", default=None, help="BF configuration for raw .npy")
    rc.add_argument("--verify", action="store_true",
                    help="round-trip and assert the bound client-side")
    _add_remote_args(rc)
    rc.set_defaults(func=cmd_remote_compress)

    rd = rmsub.add_parser("decompress", help="decompress through the service")
    rd.add_argument("input")
    rd.add_argument("output")
    _add_remote_args(rd)
    rd.set_defaults(func=cmd_remote_decompress)

    rs = rmsub.add_parser("stats", help="print server health, store, metrics")
    _add_remote_args(rs)
    rs.set_defaults(func=cmd_remote_stats)

    cl = sub.add_parser("cluster", help="launch/inspect a local shard fleet")
    clsub = cl.add_subparsers(dest="cluster_cmd", required=True)

    la = clsub.add_parser(
        "launch", help="start N shard subprocesses behind a gateway"
    )
    la.add_argument("--dir", required=True,
                    help="fleet directory: spill containers, hints, cluster.json")
    la.add_argument("--shards", type=int, default=3)
    la.add_argument("--replication", type=int, default=2,
                    help="copies per stored key")
    la.add_argument("--vnodes", type=int, default=64,
                    help="ring points per shard")
    la.add_argument("--host", default="127.0.0.1")
    la.add_argument("--gateway-port", type=int, default=0, help="0 = ephemeral")
    la.add_argument("--eb", type=float, default=1e-10, help="store error bound")
    la.add_argument("--workers", type=int, default=1,
                    help="worker pool size per shard")
    la.add_argument("--memory-budget-mb", type=float, default=None,
                    help="per-shard hot-set budget before spilling")
    la.set_defaults(func=cmd_cluster_launch)

    cs = clsub.add_parser("status", help="fleet health + per-shard stats")
    cs.add_argument("--dir", default=None,
                    help="fleet directory holding cluster.json")
    cs.add_argument("--host", default=None, help="gateway host (with --port)")
    cs.add_argument("--port", type=int, default=None, help="gateway port")
    cs.add_argument("--timeout", type=float, default=30.0)
    cs.set_defaults(func=cmd_cluster_status)

    ck = clsub.add_parser("kill", help="SIGKILL one shard (failover demo)")
    ck.add_argument("shard", help="shard name, e.g. shard-01")
    ck.add_argument("--dir", required=True)
    ck.set_defaults(func=cmd_cluster_kill)

    ca = clsub.add_parser(
        "add-shard", help="boot a new shard and migrate keys onto it live"
    )
    ca.add_argument("--dir", required=True,
                    help="fleet directory holding cluster.json")
    ca.add_argument("--name", default=None,
                    help="shard name (default: next free shard-NN)")
    ca.add_argument("--timeout", type=float, default=600.0,
                    help="migration timeout in seconds")
    ca.set_defaults(func=cmd_cluster_add_shard)

    cr = clsub.add_parser(
        "remove-shard", help="migrate a shard's keys away, then stop it"
    )
    cr.add_argument("shard", help="shard name to retire, e.g. shard-02")
    cr.add_argument("--dir", required=True,
                    help="fleet directory holding cluster.json")
    cr.add_argument("--timeout", type=float, default=600.0,
                    help="migration timeout in seconds")
    cr.set_defaults(func=cmd_cluster_remove_shard)

    cd = clsub.add_parser("drain", help="gracefully stop the whole fleet")
    cd.add_argument("--dir", required=True)
    cd.set_defaults(func=cmd_cluster_drain)

    t = sub.add_parser("telemetry", help="inspect saved telemetry traces")
    tsub = t.add_subparsers(dest="telemetry_cmd", required=True)
    tr = tsub.add_parser("report", help="render a JSON-lines trace as a report")
    tr.add_argument("input", help="trace file written by --telemetry=PATH")
    tr.set_defaults(func=cmd_telemetry_report)

    args = p.parse_args(argv)
    try:
        if getattr(args, "telemetry", None) is not None:
            return _run_with_telemetry(args)
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `pastri remote stats | head`);
        # exit quietly the way well-behaved unix tools do
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
