"""Fig. 7 table — the five ECQ encoding trees.

Paper row: 17.60 / 17.34 / 17.99 / 17.41 / 18.13 (Tree 5 best).  Shape
targets: all trees within ~15 % of each other; Tree 5 never loses to Tree 3
(it is Tree 3 plus the optimal small-range branch); Tree 2 never beats
Tree 3 (Tree 3 is its strict refinement for "others").
"""

import numpy as np

from benchmarks.conftest import paper_vs_measured
from repro.core.trees import add_ecq_planar, encoded_size_bits_batch
from repro.harness import tab_trees

PAPER = {1: 17.60, 2: 17.34, 3: 17.99, 4: 17.41, 5: 18.13}


def bench_fig7_tree_table(benchmark, dd_dataset):
    res = tab_trees.run(size="small")
    trees = res["trees"]
    assert trees[5] >= trees[3] * 0.999
    assert trees[3] >= trees[2] * 0.999
    assert min(trees.values()) > 0.8 * max(trees.values())

    # Benchmark the Tree-5 planar emitter on a realistic skewed ECQ stream.
    rng = np.random.default_rng(0)
    ecq = rng.integers(-1, 2, (1, 50_000))
    outliers = rng.random(ecq.shape) < 0.02
    ecq[outliers] = rng.integers(-200, 200, int(outliers.sum()))
    ecb, start = np.array([10]), np.array([0])
    n_words = int(encoded_size_bits_batch(ecq, ecb, 5)[0]) // 64 + 3

    def emit():
        add_ecq_planar(np.zeros(n_words, dtype=np.uint64), ecq, ecb, start, 5)

    benchmark.pedantic(emit, rounds=5, iterations=1)

    paper_vs_measured(
        "Fig. 7 encoding trees (ratio at EB=1e-10)",
        [[f"Tree {t}", PAPER[t], f"{trees[t]:.2f}"] for t in (1, 2, 3, 4, 5)],
    )
