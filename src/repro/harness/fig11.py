"""Fig. 11 — total computation time: GAMESS recomputation vs PaSTRI reuse.

The integral data is used 20 times (the paper's conservative reuse count).
*Original* regenerates it with GAMESS each time; *PaSTRI infrastructure*
generates once, compresses once, and decompresses 19 times.  Generation
rates are the paper's GAMESS measurements; codec rates are measured from
this library on a synthetic stream by default (pass ``rates="paper"`` for
the native-code rates).

:func:`measure_store_reuse` additionally runs the reuse loop *for real*
through :class:`repro.pipeline.CompressedERIStore` — including the
container-backed spillable variant, where most blobs live in a PSTF-v2
spill file on disk and only a bounded hot set stays in memory — and
reports the measured amortized read rate plus spill/disk traffic.
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.chem.synthetic import SyntheticERIModel
from repro.core import PaSTRICompressor
from repro.harness.report import render_table
from repro.parallel.iosim import PAPER_RATES, measure_rates
from repro.pipeline.workflow import DEFAULT_N_REUSE, ReuseCostModel

CONFIGS = ("(dd|dd)", "(ff|ff)")
ERROR_BOUNDS = (1e-11, 1e-10, 1e-9)


def measure_store_reuse(
    n_reuse: int = DEFAULT_N_REUSE,
    n_blocks: int = 200,
    error_bound: float = 1e-10,
    config: str = "(dd|dd)",
    spill_budget_bytes: int | None = None,
) -> dict:
    """Real SCF-style reuse through the compressed ERI store.

    Fills a store with ``n_blocks`` shell blocks, then re-reads every block
    ``n_reuse`` times.  With ``spill_budget_bytes`` set, the store uses the
    container-backed backend, so the measurement covers the spill-to-disk
    path (compressed reads come back through the PSTF spill file).
    """
    from repro.pipeline.store import CompressedERIStore, ContainerBackend

    gen = SyntheticERIModel.from_config(config, seed=11)
    ds = gen.generate(n_blocks)
    spec = ds.spec
    blocks = ds.data.reshape(n_blocks, spec.block_size)
    codec = PaSTRICompressor(config=config)

    with tempfile.TemporaryDirectory() as tmp:
        backend = None
        if spill_budget_bytes is not None:
            backend = ContainerBackend(
                os.path.join(tmp, "spill.pstf"), memory_budget_bytes=spill_budget_bytes
            )
        with CompressedERIStore(codec, error_bound, backend=backend) as store:
            t0 = time.perf_counter()
            for i in range(n_blocks):
                store.put(i, blocks[i], dims=spec.dims)
            stats = store.stats  # compresses what the puts left staged
            fill_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _ in range(n_reuse):
                for i in range(n_blocks):
                    store.get(i)
            reuse_s = time.perf_counter() - t0
            return {
                "backend": "container-spill" if backend is not None else "memory",
                "n_blocks": n_blocks,
                "n_reuse": n_reuse,
                "dataset_mb": ds.data.nbytes / 1e6,
                "ratio": stats.ratio,
                "fill_s": fill_s,
                "reuse_s": reuse_s,
                "amortized_mb_s": ds.data.nbytes * n_reuse / reuse_s / 1e6,
                "spills": stats.spills,
                "disk_reads": stats.disk_reads,
            }


def run(
    n_reuse: int = DEFAULT_N_REUSE,
    dataset_bytes: float = 8e9,
    rates: str = "hybrid",
    sample_blocks: int = 300,
) -> dict:
    """Returns one ReuseTimings per (config, error bound).

    Rate sources:

    * ``paper`` — the paper's native-code PaSTRI rates at every EB;
    * ``measured`` — this library's Python rates (with these, regomputing
      in native GAMESS beats a Python codec, as expected — the comparison
      the paper makes presumes a native-speed codec);
    * ``hybrid`` (default) — the paper's base rates scaled by this
      library's *measured EB dependence*, reproducing Fig. 11's per-EB bar
      shape without the Python constant factor.
    """
    out = {}
    for config in CONFIGS:
        model = ReuseCostModel(dataset_bytes, config)
        gen = SyntheticERIModel.from_config(config, seed=7)
        sample = gen.generate(sample_blocks).data
        codec = PaSTRICompressor(config=config)
        measured = {eb: measure_rates(codec, sample, eb) for eb in ERROR_BOUNDS} if rates != "paper" else {}
        base_c, base_d = PAPER_RATES["pastri"]
        for eb in ERROR_BOUNDS:
            if rates == "paper":
                c_rate, d_rate = base_c, base_d
            elif rates == "measured":
                c_rate, d_rate = measured[eb]
            else:  # hybrid
                ref_c, ref_d = measured[1e-10]
                c_rate = base_c * measured[eb][0] / ref_c
                d_rate = base_d * measured[eb][1] / ref_d
            out[(config, eb)] = model.evaluate(c_rate, d_rate, eb, n_reuse)
    return {"n_reuse": n_reuse, "dataset_bytes": dataset_bytes, "timings": out, "rates_source": rates}


def main() -> None:
    """Print the Fig. 11 reuse table."""
    res = run()
    print(
        f"Fig. 11 — total time to obtain integral data {res['n_reuse']}x "
        f"({res['dataset_bytes'] / 1e9:.0f} GB dataset, codec rates: {res['rates_source']})"
    )
    rows = []
    for (config, eb), t in res["timings"].items():
        orig_n, pastri_n = t.normalized()
        rows.append([config, f"{eb:.0e}", orig_n, pastri_n, t.speedup])
    print(render_table(
        ["config", "EB", "original (norm.)", "PaSTRI infra (norm.)", "speedup"], rows
    ))
    print("(paper: PaSTRI infrastructure is a small fraction of the original time)")
    mem = measure_store_reuse(n_blocks=100)
    spill = measure_store_reuse(n_blocks=100, spill_budget_bytes=16 << 10)
    print("\nreal reuse through the compressed ERI store (100 blocks, 20 uses):")
    for r in (mem, spill):
        extra = (
            f", {r['spills']} spills / {r['disk_reads']} disk reads"
            if r["backend"] != "memory"
            else ""
        )
        print(
            f"  {r['backend']:<15} ratio {r['ratio']:.1f}x, "
            f"amortized {r['amortized_mb_s']:.0f} MB/s{extra}"
        )


if __name__ == "__main__":
    main()
