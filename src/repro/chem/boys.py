"""The Boys function :math:`F_m(T)`, the radial kernel of all Coulomb integrals.

.. math::

    F_m(T) = \\int_0^1 t^{2m} e^{-T t^2}\\, dt
           = \\frac{\\Gamma(m + 1/2)\\, P(m + 1/2, T)}{2\\, T^{m + 1/2}},

where ``P`` is the regularised lower incomplete gamma function.  Evaluated
via :func:`scipy.special.gammainc` for all orders at once, with a Taylor
series for small ``T`` where the closed form loses precision.
"""

from __future__ import annotations

import numpy as np

#: Below this T the direct formula divides two near-zero quantities; the
#: truncated Taylor series is exact to double precision there.
_SMALL_T = 1e-13


def boys(m_max: int, T: np.ndarray) -> np.ndarray:
    """Evaluate ``F_m(T)`` for all ``m`` in ``[0, m_max]``.

    Parameters
    ----------
    m_max:
        Largest order needed (``l_total`` for an ERI quartet).
    T:
        Non-negative arguments, any shape.

    Returns
    -------
    ndarray of shape ``(m_max + 1,) + T.shape``.
    """
    T = np.asarray(T, dtype=np.float64)
    out = np.empty((m_max + 1,) + T.shape, dtype=np.float64)

    small = T < _SMALL_T
    if small.any():
        Ts = T[small]
        # F_m(T) ≈ 1/(2m+1) - T/(2m+3) + T²/(2·(2m+5))
        for m in range(m_max + 1):
            out[m][small] = (
                1.0 / (2 * m + 1) - Ts / (2 * m + 3) + Ts * Ts / (2 * (2 * m + 5))
            )
    big = ~small
    if big.any():
        from scipy import special  # here, not at the top: only integral work loads SciPy

        Tb = T[big]  # flat regardless of T's shape
        a = (np.arange(m_max + 1, dtype=np.float64) + 0.5)[:, None]
        vals = special.gamma(a) * special.gammainc(a, Tb[None, :]) / (2.0 * Tb[None, :] ** a)
        for m in range(m_max + 1):
            out[m][big] = vals[m]
    return out


def boys_reference(m: int, T: float, n_points: int = 200_001) -> float:
    """Slow quadrature reference for tests (composite Simpson)."""
    t = np.linspace(0.0, 1.0, n_points)
    y = t ** (2 * m) * np.exp(-T * t * t)
    h = t[1] - t[0]
    # Simpson weights 1,4,2,...,4,1 (n_points must be odd).
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * (w @ y))
