"""Integer-grid Lorenzo/curve-fitting predictors for the SZ baseline.

SZ quantizes each value onto the ``2·EB`` grid and predicts the grid value
of point *i* from its decompressed predecessors.  Working directly on the
integer grid makes prediction *exact integer arithmetic*, so the whole
predict/quantize pass vectorises as repeated ``np.diff`` — equivalent to
the sequential formulation because the decoder replays the same integers.

Orders (SZ's curve-fitting models):

* 1 — preceding neighbour:   pred = g[i-1]
* 2 — linear extrapolation:  pred = 2·g[i-1] - g[i-2]
* 3 — quadratic:             pred = 3·g[i-1] - 3·g[i-2] + g[i-3]
"""

from __future__ import annotations

import numpy as np

from repro.core.quantize import ecq_bin_numbers, working_binsize
from repro.errors import ParameterError

MAX_ORDER = 3


def grid_quantize(data: np.ndarray, eb: float) -> np.ndarray:
    """Snap values to the integer grid ``round(x / binsize)``.

    The bin is the fractionally deflated ``2·EB`` grid of
    :func:`repro.core.quantize.working_binsize`, making the EB contract
    robust to round-half ties plus float rounding.

    Raises :class:`ParameterError` when ``|x| / EB`` exceeds the float64
    headroom (2^45 grid steps); :class:`repro.sz.SZCompressor` catches this
    and stores the stream verbatim instead.
    """
    g = np.rint(data / working_binsize(eb))
    # Beyond 2^45 grid steps the float64 reconstruction arithmetic rounds
    # by more than EB (and order-3 differencing needs int64 headroom), so
    # the compressor switches to verbatim raw mode.
    if g.size and np.abs(g).max() >= 2.0**45:
        raise ParameterError(
            "error bound too small relative to data magnitude for the SZ grid"
        )
    return g.astype(np.int64)


def grid_dequantize(grid: np.ndarray, eb: float) -> np.ndarray:
    """Inverse of :func:`grid_quantize`; error is at most EB per point."""
    return grid.astype(np.float64) * working_binsize(eb)


def residuals(grid: np.ndarray, order: int) -> np.ndarray:
    """Prediction residuals of the given order (exact integer diffs)."""
    if not 1 <= order <= MAX_ORDER:
        raise ParameterError(f"predictor order must be 1..{MAX_ORDER}, got {order}")
    out = grid.copy()
    for _ in range(order):
        out[1:] = np.diff(out)
    return out


def reconstruct(res: np.ndarray, order: int) -> np.ndarray:
    """Invert :func:`residuals` (cumulative sums)."""
    if not 1 <= order <= MAX_ORDER:
        raise ParameterError(f"predictor order must be 1..{MAX_ORDER}, got {order}")
    out = res.copy()
    for _ in range(order):
        np.cumsum(out, out=out)
    return out


def choose_order(grid: np.ndarray, radius: int, sample: int = 65536) -> int:
    """Pick the predictor order with the best (cheap) cost estimate.

    Cost model: Huffman-like bit cost proxy ``sum(bin(|r|))`` plus a heavy
    penalty per unpredictable point (|r| >= radius).  Evaluated on a prefix
    sample for speed, like SZ's sampled best-fit selection.
    """
    probe = grid[: min(sample, grid.size)]
    best_order, best_cost = 1, None
    for order in range(1, MAX_ORDER + 1):
        r = residuals(probe, order)
        unpred = np.abs(r) >= radius
        bits = ecq_bin_numbers(r[~unpred])
        cost = float(bits.sum()) + 70.0 * int(unpred.sum())
        if best_cost is None or cost < best_cost:
            best_order, best_cost = order, cost
    return best_order
