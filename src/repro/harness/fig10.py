"""Fig. 10 — parallel dump/load of the Alanine (dd|dd) data on a PFS.

Per-codec elapsed times (Dump = compress + write, Load = read + decompress)
at 256–2048 cores, using the measured compression ratios of this library
and, by default, the paper's native-code codec rates (so the I/O-dominated
regime of the original figure is reproduced; pass ``rates="measured"`` for
this library's Python rates).

Besides the analytic GPFS model, :func:`measure_container_io` performs a
*real* dump/load on this host through the PSTF-v2 container: a
multiprocessing compress into one indexed container file, then a parallel
load where each worker seeks to its own frames via the footer index — the
storage path the paper's POSIX file-per-process setup approximates.
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.api import get_codec
from repro.harness.datasets import standard_dataset
from repro.harness.report import render_table
from repro.metrics import compression_ratio
from repro.parallel.iosim import PAPER_RATES, IOSimulator, measure_rates

CODECS = ("sz", "zfp", "pastri")
CORE_COUNTS = (256, 512, 1024, 2048)


def measure_container_io(
    size: str = "small",
    error_bound: float = 1e-10,
    n_workers: int = 2,
    path: str | None = None,
) -> dict:
    """Real container dump/load timing on this host (not the GPFS model).

    Dump = parallel compress + write one PSTF-v2 container; load = workers
    decompress disjoint frames located through the frame index.  Returns
    wall times, the container's size, and the achieved MB/s.
    """
    from repro.parallel.pool import (
        parallel_compress_to_container,
        parallel_decompress_container,
    )

    ds = standard_dataset("trialanine", "(dd|dd)", size)
    with tempfile.TemporaryDirectory() as scratch:
        tmp = path or os.path.join(scratch, "dump.pstf")
        t0 = time.perf_counter()
        summary = parallel_compress_to_container(
            "pastri",
            ds.data,
            error_bound,
            n_workers,
            ds.spec.block_size,
            tmp,
            codec_kwargs={"dims": ds.spec.dims},
            n_frames=max(n_workers * 4, 8),
        )
        dump_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        out = parallel_decompress_container(tmp, n_workers)
        load_s = time.perf_counter() - t0
        assert out.size == ds.data.size
    return {
        "n_workers": n_workers,
        "n_frames": summary.n_chunks,
        "dataset_mb": ds.nbytes / 1e6,
        "container_mb": summary.compressed_bytes / 1e6,
        "ratio": summary.ratio,
        "dump_s": dump_s,
        "load_s": load_s,
        "dump_mb_s": ds.nbytes / dump_s / 1e6,
        "load_mb_s": ds.nbytes / load_s / 1e6,
    }


def run(
    size: str = "small",
    error_bound: float = 1e-10,
    dataset_bytes: float = 2e12,
    rates: str = "paper",
) -> dict:
    """Returns per-(codec, cores) dump/load timings."""
    ds = standard_dataset("trialanine", "(dd|dd)", size)
    sim = IOSimulator(dataset_bytes=dataset_bytes)
    results = {}
    ratios = {}
    for name in CODECS:
        codec = get_codec(name, dims=ds.spec.dims) if name == "pastri" else get_codec(name)
        blob = codec.compress(ds.data, error_bound)
        ratio = compression_ratio(ds.nbytes, len(blob))
        ratios[name] = ratio
        r = PAPER_RATES[name] if rates == "paper" else measure_rates(codec, ds.data, error_bound)
        results[name] = sim.sweep(name, ratio, CORE_COUNTS, rates=r)
    return {
        "dataset_bytes": dataset_bytes,
        "error_bound": error_bound,
        "ratios": ratios,
        "results": results,
        "rates_source": rates,
    }


def main() -> None:
    """Print the Fig. 10 dump/load table."""
    res = run()
    print(
        f"Fig. 10 — parallel dump/load, modelled {res['dataset_bytes'] / 1e9:.0f} GB "
        f"Alanine (dd|dd), EB={res['error_bound']:.0e}, codec rates: {res['rates_source']}"
    )
    rows = []
    for name, sweep in res["results"].items():
        for r in sweep:
            rows.append(
                [
                    name,
                    r.n_cores,
                    r.compress_time / 60.0,
                    r.write_time / 60.0,
                    r.dump_time / 60.0,
                    r.read_time / 60.0,
                    r.decompress_time / 60.0,
                    r.load_time / 60.0,
                ]
            )
    print(
        render_table(
            ["codec", "cores", "comp (min)", "write (min)", "DUMP (min)",
             "read (min)", "decomp (min)", "LOAD (min)"],
            rows,
        )
    )
    print("(shape target: PaSTRI dump/load ≈ 2x faster than SZ/ZFP, times fall with cores)")
    io = measure_container_io()
    print(
        f"\nreal PSTF-v2 container on this host ({io['n_workers']} workers, "
        f"{io['n_frames']} frames, {io['dataset_mb']:.1f} MB dataset, "
        f"ratio {io['ratio']:.1f}x):"
    )
    print(
        f"  dump {io['dump_s'] * 1e3:.0f} ms ({io['dump_mb_s']:.0f} MB/s)   "
        f"load {io['load_s'] * 1e3:.0f} ms ({io['load_mb_s']:.0f} MB/s) "
        "via the frame index"
    )


if __name__ == "__main__":
    main()
