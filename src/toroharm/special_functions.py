"""Special functions: associated Legendre functions of the second kind at
half-integer degree, their AGM elliptic-integral seeds, and ``Gamma`` at
half-integers.

The central object is ``Q_{n-1/2}^m(cosh(eta))`` for ``eta > 0``, the
radial factor of every interior toroidal harmonic.  It is a function of
``eta``, not of ``t = cosh(eta)``: near the axis ``t - 1`` keeps only the
digits of ``eta^2 / 2``, so ``eta`` is the argument throughout.

* ``q_half_grid`` -- the evaluator, on arrays of ``eta``.  Elliptic
  integrals of modulus ``k = 1/cosh(eta/2)``, with ``k' = tanh(eta/2)`` fed
  straight to the AGM, seed degrees -1/2 and +1/2 at orders 0 and 1.  The
  AGM runs on the whole array until a point settles, then freezes each
  point as it settles, so a point's seeds do not depend on the others.
  Where ``n_max * eta <= 1`` the degree recurrence runs upward from the
  seeds; elsewhere the backward recurrence (Q is its recessive solution)
  runs from degree ``n_max + ceil(22 / min(eta)) + 10`` in reciprocal
  form, ``s_n = Q_{n-1} / Q_n = a_n - b_n / s_{n+1}``, two ufuncs per
  degree, and ``Q_n = Q_{n-1} / s_n``.  The order recurrence raises ``m``.
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
    # the first step, from (1, kp): (1 - kp)/2 cancels for tiny k, so c
    # takes the stable form
    one_kp = 1.0 + kp
    c = k * k / (2.0 * one_kp)
    a, b, tail = 0.5 * one_kp, np.sqrt(kp), c * c
    pow2 = 2.0
    # once a and b agree to an ulp the remaining c's are rounding noise with
    # exponentially growing weights, so freeze each point at convergence
    # (which also makes each point's value independent of the others); no
    # masks while every point is still open
    active = None
    for _ in range(39):  # 40 steps in all, the first above
        d = a - b
        open_ = np.abs(d) > 8.9e-16 * a
        if active is not None or not open_.all():
            active = open_
            if not active.any():
                break
        c = 0.5 * d
        pow2 *= 2.0
        if active is None:
            tail += 0.5 * pow2 * c * c
            a, b = 0.5 * (a + b), np.sqrt(a * b)
        else:
            tail += np.where(active, 0.5 * pow2 * c * c, 0.0)
            a, b = np.where(active, 0.5 * (a + b), a), np.where(active, np.sqrt(a * b), b)
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

def _seeds(eta: np.ndarray, coth: np.ndarray) -> np.ndarray:
    """``Q_{n-1/2}^m(cosh(eta))`` for ``n, m`` in {0, 1}, indexed ``[n, m]``,
    given ``coth = 1 / tanh(eta)``.

    With ``k = 1/cosh(eta/2)``, ``Q_{-1/2} = k K(k)`` and
    ``Q_{1/2} = cosh(eta) k K(k) - (2/k) E(k)``.  The second formula
    cancels catastrophically for large ``eta``; substituting the AGM series
    for ``E`` collapses it to ``(2/k) K(k) * csum_tail``, a product of
    positive well-scaled factors.  Order 1 follows from
    ``Q_nu^1 = nu (cosh(eta) Q_nu - Q_{nu-1}) / sinh(eta)`` with
    ``Q_{-3/2} = Q_{1/2}``.
    """
    x = np.exp(-eta)
    k = 2.0 * np.exp(-0.5 * eta) / (1.0 + x)
    agm, tail = _elliptic_K_csum(k, np.tanh(0.5 * eta))
    K = np.pi / (2.0 * agm)
    csch = 2.0 * x / -np.expm1(-2.0 * eta)
    seeds = np.empty((2, 2) + eta.shape)
    q0 = np.multiply(k, K, out=seeds[0, 0])
    # the tail is below k^4, so it is 0 wherever k < 1e-300 (toward eta = inf)
    q1 = np.divide(2.0 * K * tail, np.maximum(k, 1e-300), out=seeds[1, 0])
    seeds[0, 1] = -0.5 * (coth * q0 - csch * q1)
    seeds[1, 1] = 0.5 * (coth * q1 - csch * q0)
    return seeds


#: the largest block of the tables ``a_n`` and ``b_n`` together (degrees
#: times orders times points) that :func:`_backward` holds at once
_Q_TABLE_VALUES = 2**16


def _upward(n_max: int, eta: np.ndarray, cols: np.ndarray) -> None:
    """Fill ``cols[2:]``, degrees 2 to ``n_max`` of the orders in ``cols``
    (0, or 0 and 1) at ``eta``, from the seeds in ``cols[:2]``.

    Recurs on the differences ``d_n = Q_n - Q_{n-1}``:
    ``(n - m + 1/2) d_{n+1} = 2 n (cosh(eta) - 1) Q_n + (n + m - 1/2) d_n``.
    Near the axis ``Q_n`` barely moves with ``n``, and the growing solution
    enters only through errors in ``d``, not in ``Q``.
    """
    m = np.arange(cols.shape[1])[:, None]
    tm1 = 2.0 * np.sinh(0.5 * eta) ** 2
    d = cols[1] - cols[0]
    if cols.shape[1] > 1:
        # the order-1 difference in closed form, free of cancellation
        d[1] = 0.5 * np.tanh(0.5 * eta) * (cols[0, 0] + cols[1, 0])
    for n in range(1, n_max):
        d = (2.0 * n * tm1 * cols[n] + (n + m - 0.5) * d) / (n - m + 0.5)
        np.add(cols[n], d, out=cols[n + 1])


def _backward(n_max: int, eta: np.ndarray, cols: np.ndarray) -> None:
    """Fill ``cols[1:]``, degrees 1 to ``n_max`` of the orders in ``cols``
    at ``eta``, from ``Q_0`` in ``cols[0]``.

    ``Q`` is the recessive solution of the degree recurrence, so the
    reciprocal ratio ``s_n = Q_{n-1} / Q_n`` is run backward from
    ``s = inf`` at degree ``n_max + ceil(22 / min(eta)) + 10``:
    ``s_n = a_n - b_n / s_{n+1}`` with ``a_n = 2 n cosh(eta) / (n + m - 1/2)``
    and ``b_n = (n - m + 1/2) / (n + m - 1/2)``, two ufuncs per degree over
    tables of ``a_n`` and ``b_n`` built per block of degrees.  Then
    ``Q_n = Q_{n-1} / s_n``; every ``s_n`` is at least 1, so nothing
    overflows.  Toward the limit circle ``cosh`` overflows to inf, where
    every ``s_n`` is inf, and so ``Q_n`` for ``n >= 1`` is 0.
    """
    depth = n_max + math.ceil(22.0 / eta.min()) + 10
    n = np.arange(depth, 0, -1)[:, None, None]
    above = n + np.arange(cols.shape[1])[:, None] - 0.5  # n + m - 1/2
    a_coef, b_coef = 2.0 * n / above, (2.0 * n - above) / above
    s = np.full(cols.shape[1:], np.inf)
    # each s_n with n <= n_max is kept in the slot of Q_n
    dest = [s] * (depth - n_max) + list(cols[n_max:0:-1])
    rows = max(1, _Q_TABLE_VALUES // (2 * s.size))
    with np.errstate(over="ignore"):
        t = np.cosh(eta)
        for low in range(0, depth, rows):
            a = a_coef[low:low + rows] * t
            b = np.repeat(b_coef[low:low + rows], t.shape[0], axis=2)
            for a_n, b_n, out in zip(a, b, dest[low:low + rows]):
                np.divide(b_n, s, out=out)
                s = np.subtract(a_n, out, out=out)
    for n in range(1, n_max + 1):
        np.divide(cols[n - 1], cols[n], out=cols[n])


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
    most ``23 n_max + 10`` degrees deep.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if not (eta > 0).all():
        raise ValueError("q_half_grid requires eta > 0")
    q = np.empty((n_max + 1, m_max + 1, eta.shape[0]))
    if not eta.size:
        return q
    coth = 1.0 / np.tanh(eta)
    cols = q[:, :2]  # the seeded orders, 0 and 1 (a view)
    cols[:2] = _seeds(eta, coth)[: n_max + 1, : m_max + 1]
    if n_max >= 2:
        up = n_max * eta <= 1.0
        for points, fill in ((up, _upward), (~up, _backward)):
            if points.all():
                fill(n_max, eta, cols)
            elif points.any():
                # each recurrence reads at most degrees 0 and 1 and writes above 0
                part = np.empty(cols.shape[:2] + (np.count_nonzero(points),))
                part[:2] = cols[:2, :, points]
                fill(n_max, eta[points], part)
                cols[1:, :, points] = part[1:]

    # raise the order: Q_nu^m = -2(m-1) coth(eta) Q_nu^{m-1}
    #                           + (nu - m + 2)(nu + m - 1) Q_nu^{m-2}
    if m_max >= 2:
        nu = np.arange(n_max + 1)[:, None] - 0.5
        for mm in range(2, m_max + 1):
            np.multiply(-2.0 * (mm - 1) * coth, q[:, mm - 1], out=q[:, mm])
            q[:, mm] += (nu - mm + 2) * (nu + mm - 1) * q[:, mm - 2]
    return q
