"""Ablation — per-block patterns vs a shared pattern dictionary (§IV-C).

The paper rejects Huffman-style shared dictionaries: "due to differences
in between blocks, each block requires its own pattern".  We quantify that:
reusing the previous block's pattern (a 1-entry dictionary) explodes the
residuals relative to per-block patterns.
"""

import numpy as np

from benchmarks.conftest import paper_vs_measured
from repro.core.quantize import quantize_blocks
from repro.core.scaling import ScalingMetric, fit_pattern_batch


def bench_ablation_pattern_dictionary(benchmark, dd_dataset):
    eb = 1e-10
    blocks = dd_dataset.blocks()
    amps = np.abs(blocks).max(axis=(1, 2))
    live = blocks[amps > 1e-9][:100]

    def measure():
        rows = np.arange(live.shape[0])
        p_idx, scales, _ = fit_pattern_batch(live, ScalingMetric.ER)
        patterns = live[rows, p_idx]
        own = quantize_blocks(live, patterns, scales, eb).ec_b_max
        # A shared pattern is just another patterns row: each block reuses
        # its predecessor's, scaled at that pattern's extremal column.
        prev = patterns[:-1]
        ref = np.argmax(np.abs(prev), axis=1)
        denom = prev[rows[:-1], ref][:, None]
        cols = live[1:][rows[:-1, None], np.arange(live.shape[1]), ref[:, None]]
        safe = np.where(denom == 0, 1.0, denom)
        shared_scales = np.clip(np.where(denom == 0, 0.0, cols / safe), -1, 1)
        shared = quantize_blocks(live[1:], prev, shared_scales, eb).ec_b_max
        return own.mean(), shared.mean()

    own_mean, shared_mean = benchmark.pedantic(measure, rounds=1, iterations=1)
    # sharing patterns across blocks inflates the EC width substantially
    assert shared_mean > own_mean + 2.0
    paper_vs_measured(
        "Ablation: per-block pattern vs shared dictionary",
        [
            ["avg EC_b, own pattern", "-", f"{own_mean:.1f} bits"],
            ["avg EC_b, neighbour's pattern", "much larger", f"{shared_mean:.1f} bits"],
        ],
    )
