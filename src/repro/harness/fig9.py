"""Fig. 9 — the headline comparison: PaSTRI vs SZ vs ZFP.

(a) compression ratios over 6 datasets × 3 error bounds,
(b) PSNR-vs-bitrate for the Alanine (dd|dd) dataset,
(c) compression rates, (d) decompression rates.

Rates here are measured from this library (pure Python/numpy); they are
reported for the *relative* comparison — see EXPERIMENTS.md for the
paper-vs-measured discussion.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import get_codec
from repro.harness.datasets import ERROR_BOUNDS, all_standard_datasets, standard_dataset
from repro.harness.report import render_series, render_table
from repro.metrics import compression_ratio, max_abs_error, rd_curve

CODECS = ("sz", "zfp", "pastri")


def _codec_for(name: str, ds):
    if name == "pastri":
        return get_codec(name, dims=ds.spec.dims)
    return get_codec(name)


def run_ratios(size: str = "small", error_bounds=ERROR_BOUNDS, with_rates: bool = True) -> dict:
    """Fig. 9(a, c, d): per-dataset ratios and rates for the three codecs."""
    cells = []
    datasets = list(all_standard_datasets(size))
    for eb in error_bounds:
        for label, ds in datasets:
            for name in CODECS:
                codec = _codec_for(name, ds)
                t0 = time.perf_counter()
                blob = codec.compress(ds.data, eb)
                t_c = time.perf_counter() - t0
                t0 = time.perf_counter()
                dec = codec.decompress(blob)
                t_d = time.perf_counter() - t0
                assert max_abs_error(ds.data, dec) <= eb
                cells.append(
                    {
                        "codec": name,
                        "dataset": label,
                        "eb": eb,
                        "ratio": compression_ratio(ds.nbytes, len(blob)),
                        "compress_rate": ds.nbytes / t_c if with_rates else None,
                        "decompress_rate": ds.nbytes / t_d if with_rates else None,
                    }
                )
    # Per-codec averages at each EB (the paper's "Average" bars).
    averages = {}
    for eb in error_bounds:
        for name in CODECS:
            sel = [c["ratio"] for c in cells if c["codec"] == name and c["eb"] == eb]
            averages[(name, eb)] = float(np.mean(sel))
    return {"cells": cells, "averages": averages, "error_bounds": tuple(error_bounds)}


def run_rate_distortion(size: str = "small") -> dict:
    """Fig. 9(b): PSNR vs bitrate for Alanine (dd|dd)."""
    ds = standard_dataset("trialanine", "(dd|dd)", size)
    ebs = [10.0**k for k in range(-13, -5)]
    curves = {}
    for name in CODECS:
        codec = _codec_for(name, ds)
        curves[name] = rd_curve(codec, ds.data, ebs)
    return {"dataset": "alanine (dd|dd)", "curves": curves}


def main() -> None:
    """Print the Fig. 9 ratio/rate tables and RD curves."""
    res = run_ratios()
    print("Fig. 9a — compression ratios")
    ds_labels = sorted({c["dataset"] for c in res["cells"]})
    rows = []
    for eb in res["error_bounds"]:
        for name in CODECS:
            per = {
                c["dataset"]: c["ratio"]
                for c in res["cells"]
                if c["codec"] == name and c["eb"] == eb
            }
            rows.append(
                [f"{eb:.0e}", name]
                + [per[label] for label in ds_labels]
                + [res["averages"][(name, eb)]]
            )
    print(render_table(["EB", "codec"] + ds_labels + ["average"], rows))

    print("\nFig. 9c/d — (de)compression rates, MB/s (this library, Python)")
    rows = []
    for name in CODECS:
        cr = np.mean([c["compress_rate"] for c in res["cells"] if c["codec"] == name])
        dr = np.mean([c["decompress_rate"] for c in res["cells"] if c["codec"] == name])
        rows.append([name, cr / 1e6, dr / 1e6])
    print(render_table(["codec", "compress MB/s", "decompress MB/s"], rows))

    rd = run_rate_distortion()
    print(f"\nFig. 9b — PSNR vs bitrate, {rd['dataset']}")
    for name, curve in rd["curves"].items():
        print(render_series(name, [(p.bitrate, p.psnr) for p in curve]))


if __name__ == "__main__":
    main()
