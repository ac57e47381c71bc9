"""Special functions: associated Legendre functions of the second kind at
half-integer degree, their AGM elliptic-integral seeds, and ``Gamma`` at
half-integers.

The central object is ``Q_{n-1/2}^m(cosh(eta))`` for ``eta > 0``, the
radial factor of every interior toroidal harmonic.  It is a function of
``eta``, not of ``t = cosh(eta)``: near the axis ``t - 1`` keeps only the
digits of ``eta^2 / 2``, so ``eta`` is the argument throughout.

* ``q_half_grid`` -- the evaluator, on arrays of ``eta``.  Elliptic
  integrals of modulus ``k = 1/cosh(eta/2)``, with ``k' = tanh(eta/2)`` fed
  straight to the AGM, seed degrees -1/2 and +1/2 at orders 0 and 1.  Where
  ``n_max * eta <= 1`` the degree recurrence runs upward from the seeds;
  elsewhere the backward ratio recurrence (Q is its recessive solution)
  runs from degree ``n_max + ceil(22 / min(eta)) + 10`` and
  ``Q_n = Q_0 * prod(ratios)``.  The order recurrence raises ``m``.
  Stated accuracy (suite ``legendre``, against mpmath): relative error at
  most 1e-11 for ``eta`` in [1e-6, 40], ``n <= 60`` and ``m <= 20``,
  wherever ``|Q| >= 1e-290``.

Sign convention: the ``(-1)^m`` prefactor of the integral representation
(the oracle ``checks._q_integral_mp``) is kept throughout, so
``Q_{n-1/2}^m`` has sign ``(-1)^m``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# elliptic integrals (AGM)
# ---------------------------------------------------------------------------

def _elliptic_K_csum(k: np.ndarray, kp: np.ndarray):
    """AGM mean and the tail ``sum_{n>=1} 2^(n-1) c_n^2`` of the E-series,
    for modulus ``k`` and complementary modulus ``kp = sqrt(1 - k^2)``.

    With ``K = pi / (2 agm)`` the second-kind integral is
    ``E = K (1 - k^2/2 - csum_tail)``.  The tail is a sum of positive
    terms, so it stays accurate where the direct ``E`` formula cancels.
    """
    a = np.ones_like(k)
    b = kp
    tail = np.zeros_like(a)
    pow2 = 1.0
    # once a and b agree to an ulp the remaining c's are rounding noise with
    # exponentially growing weights, so freeze each point at convergence
    # (which also makes each point's value independent of the others)
    active = np.ones_like(a, dtype=bool)
    for i in range(40):
        if i == 0:
            # (1 - kp)/2 cancels for tiny k; use the stable form
            c = k * k / (2.0 * (1.0 + b))
        else:
            c = 0.5 * (a - b)
        a, b = np.where(active, 0.5 * (a + b), a), np.where(active, np.sqrt(a * b), b)
        pow2 *= 2.0
        tail = tail + np.where(active, 0.5 * pow2 * c * c, 0.0)
        active = active & (np.abs(a - b) > 8.9e-16 * a)
        if not np.any(active):
            break
    return a, tail


# ---------------------------------------------------------------------------
# Gamma at half-integers
# ---------------------------------------------------------------------------

def gamma_half(k: int) -> float:
    """``Gamma(k + 1/2)`` for integer ``k >= 0``.

    Uses the exact product formula ``(2k)! sqrt(pi) / (4^k k!)``.
    """
    if k != int(k) or k < 0:
        raise ValueError("gamma_half requires an integer k >= 0")
    k = int(k)
    return float(Fraction(math.factorial(2 * k), 4**k * math.factorial(k))) * math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Legendre Q: the evaluator
# ---------------------------------------------------------------------------

def _seeds(eta: np.ndarray) -> np.ndarray:
    """``Q_{n-1/2}^m(cosh(eta))`` for ``n, m`` in {0, 1}, indexed ``[n, m]``.

    With ``k = 1/cosh(eta/2)``, ``Q_{-1/2} = k K(k)`` and
    ``Q_{1/2} = cosh(eta) k K(k) - (2/k) E(k)``.  The second formula
    cancels catastrophically for large ``eta``; substituting the AGM series
    for ``E`` collapses it to ``(2/k) K(k) * csum_tail``, a product of
    positive well-scaled factors.  Order 1 follows from
    ``Q_nu^1 = nu (cosh(eta) Q_nu - Q_{nu-1}) / sinh(eta)`` with
    ``Q_{-3/2} = Q_{1/2}``.
    """
    k = 2.0 * np.exp(-0.5 * eta) / (1.0 + np.exp(-eta))
    agm, tail = _elliptic_K_csum(k, np.tanh(0.5 * eta))
    K = np.pi / (2.0 * agm)
    q0 = k * K
    # the tail is below k^4, so it is 0 wherever k < 1e-300 (toward eta = inf)
    q1 = 2.0 * K * tail / np.maximum(k, 1e-300)
    coth = 1.0 / np.tanh(eta)
    csch = 2.0 * np.exp(-eta) / -np.expm1(-2.0 * eta)
    return np.array([[q0, -0.5 * (coth * q0 - csch * q1)],
                     [q1, 0.5 * (coth * q1 - csch * q0)]])


#: the largest block of the table ``2 n cosh(eta)`` (degrees times points)
#: that :func:`q_half_grid`'s backward recurrence holds at once
_Q_TABLE_VALUES = 2**16


def q_half_grid(n_max: int, m_max: int, eta) -> np.ndarray:
    """Vectorized table of ``Q_{n-1/2}^m(cosh(eta))``, by the method and to
    the accuracy stated in the module docstring.

    Parameters
    ----------
    n_max, m_max : int
        Largest degree index and order required.
    eta : array_like
        Points ``eta > 0``; the limit circle ``eta = inf`` is fine (values
        underflow to 0 gracefully).

    Returns
    -------
    ndarray of shape ``(n_max + 1, m_max + 1, len(eta))``.

    The backward recurrence, run only where ``n_max * eta > 1``, starts at
    most ``23 n_max + 10`` degrees deep; its ratios are at most 1, so their
    product cannot overflow.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if not np.all(eta > 0):
        raise ValueError("q_half_grid requires eta > 0")
    q = np.empty((n_max + 1, m_max + 1, eta.shape[0]))
    seeds = _seeds(eta)[:, : m_max + 1]
    cols = q[:, : seeds.shape[1]]  # the order 0 and 1 columns, a view
    cols[:2] = seeds[: n_max + 1]
    m = np.arange(seeds.shape[1])[:, None]

    if n_max >= 2:
        up = n_max * eta <= 1.0
        if np.any(up):
            # recur on the differences d_n = Q_n - Q_{n-1}:
            # (n - m + 1/2) d_{n+1} = 2 n (cosh(eta) - 1) Q_n + (n + m - 1/2) d_n.
            # Near the axis Q_n barely moves with n, and the growing solution
            # enters only through errors in d, not in Q
            e = eta[up]
            tm1 = 2.0 * np.sinh(0.5 * e) ** 2
            up_cols = np.empty((n_max + 1, seeds.shape[1], e.shape[0]))
            up_cols[:2] = seeds[:, :, up]
            d = up_cols[1] - up_cols[0]
            if seeds.shape[1] > 1:
                # the order-1 difference in closed form, free of cancellation
                d[1] = 0.5 * np.tanh(0.5 * e) * (up_cols[0, 0] + up_cols[1, 0])
            for n in range(1, n_max):
                d = (2.0 * n * tm1 * up_cols[n] + (n + m - 0.5) * d) / (n - m + 0.5)
                up_cols[n + 1] = up_cols[n] + d
            cols[..., up] = up_cols
        down = ~up
        if np.any(down):
            e = eta[down]
            # toward the limit circle cosh overflows to inf, where every
            # ratio, and so Q_n for n >= 1, is 0
            with np.errstate(over="ignore"):
                t = np.cosh(e)
                depth = n_max + int(np.ceil(22.0 / np.min(e))) + 10
                # r_n = (n + m - 1/2) / (2 n cosh(eta) - (n - m + 1/2) r_{n+1}):
                # three in-place products per degree, over tables of the
                # degrees' coefficients and of 2 n cosh(eta), the latter in
                # blocks of at most _Q_TABLE_VALUES values
                k = np.arange(depth + 1)
                above, below = k[:, None, None] + m - 0.5, k[:, None, None] - m + 0.5
                ratios = np.empty((n_max, seeds.shape[1], t.shape[0]))
                r, den = np.zeros_like(ratios[0]), np.empty_like(ratios[0])
                rows = max(1, _Q_TABLE_VALUES // t.shape[0])
                for top in range(depth, 0, -rows):
                    low = max(top - rows, 0)
                    twice_t = np.multiply.outer(2.0 * k[low + 1:top + 1], t)
                    for n in range(top, low, -1):
                        np.multiply(below[n], r, out=den)
                        np.subtract(twice_t[n - low - 1], den, out=den)
                        r = np.divide(above[n], den, out=ratios[n - 1] if n <= n_max else r)
            cols[1:, :, down] = seeds[0][:, down] * np.cumprod(ratios, axis=0)

    # raise the order: Q_nu^m = -2(m-1) coth(eta) Q_nu^{m-1}
    #                           + (nu - m + 2)(nu + m - 1) Q_nu^{m-2}
    if m_max >= 2:
        coth = 1.0 / np.tanh(eta)
        nu = np.arange(n_max + 1)[:, None] - 0.5
        for mm in range(2, m_max + 1):
            q[:, mm] = (-2.0 * (mm - 1) * coth * q[:, mm - 1]
                        + (nu - mm + 2) * (nu + mm - 1) * q[:, mm - 2])
    return q
