"""Special functions: elliptic integrals, half-integer Gamma values, and
associated Legendre functions of the second kind at half-integer degree.

The central object is ``Q_{n-1/2}^m(t)`` for ``t = cosh(eta) > 1``, the
radial factor of every interior toroidal harmonic.  Two evaluation paths
are provided:

* ``legendre_q_quadrature`` -- direct adaptive quadrature of the integral
  representation

  ``Q_nu^m(t) = (-1)^m / 2^(nu+1) * Gamma(nu+m+1)/Gamma(nu+1)
                * (t^2-1)^(m/2) * integral_{-1}^{1} (1-s^2)^nu / (t-s)^(nu+m+1) ds``

  (slow oracle; the substitution ``s = cos(psi)`` removes the endpoint
  singularity for half-integer degree).
* ``q_half_grid`` -- fast path on arrays of arguments: elliptic-integral
  seeds at degrees -1/2 and +1/2, backward (Miller) recurrence in the
  degree with a seed-consistency monitor, and the order-raising recurrence
  for m >= 2.  Backward recurrence is the stable direction because Q is
  the recessive solution of the degree recurrence for t > 1.

Sign convention: the ``(-1)^m`` prefactor of the integral representation is
kept throughout, so ``Q_{n-1/2}^m(t)`` has sign ``(-1)^m``.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
from scipy import special as _special

from .quadrature import integrate_1d

#: relative mismatch between the Miller-normalized degree-1 value and the
#: elliptic seed above which the recurrence is declared unstable
_MILLER_MONITOR_TOL = 1e-9


# ---------------------------------------------------------------------------
# elliptic integrals (AGM)
# ---------------------------------------------------------------------------

def _elliptic_K_csum(k: np.ndarray):
    """AGM mean and the tail ``sum_{n>=1} 2^(n-1) c_n^2`` of the E-series.

    With ``K = pi / (2 agm)`` the second-kind integral is
    ``E = K (1 - k^2/2 - csum_tail)``.  The tail is a sum of positive
    terms, so it stays accurate where the direct ``E`` formula cancels.
    """
    a = np.ones_like(k)
    b = np.sqrt(np.maximum(1.0 - k * k, 0.0))
    tail = np.zeros_like(a)
    pow2 = 1.0
    # once a and b agree to an ulp the remaining c's are rounding noise with
    # exponentially growing weights, so freeze each point at convergence
    active = np.ones_like(a, dtype=bool)
    for i in range(40):
        if i == 0:
            # (1 - sqrt(1-k^2))/2 cancels for tiny k; use the stable form
            c = k * k / (2.0 * (1.0 + b))
        else:
            c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        pow2 *= 2.0
        tail = tail + np.where(active, 0.5 * pow2 * c * c, 0.0)
        active = active & (np.abs(a - b) > 8.9e-16 * a)
        if not np.any(active):
            break
    return a, tail


def elliptic_E(k):
    """Complete elliptic integral of the second kind, modulus convention.

    ``E(k) = integral_0^{pi/2} (1 - k^2 sin^2 t)^(1/2) dt`` for
    ``0 <= k <= 1``; AGM with the standard ``c_n`` correction sum.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < 0) or np.any(k > 1):
        raise ValueError("elliptic_E requires 0 <= k <= 1")
    agm, tail = _elliptic_K_csum(k)
    out = np.pi / (2.0 * agm) * (1.0 - 0.5 * k * k - tail)
    # K diverges at k=1 but E(1) = 1 is finite; patch the limit explicitly
    out = np.where(k == 1.0, 1.0, out)
    return out if out.ndim else float(out)


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


def gamma_half_ratio(n: int, m: int) -> Fraction:
    """Exact signed ratio ``Gamma(n+m+1/2) / Gamma(n-m+1/2)``.

    Telescopes to a product of half-integers, which is never zero or
    singular, so the ratio is defined for all integer ``n, m`` (including
    ``m < 0``, where it is the reciprocal product and may be negative).
    """
    if m >= 0:
        out = Fraction(1)
        for l in range(n - m, n + m):
            out *= Fraction(2 * l + 1, 2)
        return out
    out = Fraction(1)
    for l in range(n + m, n - m):
        out *= Fraction(2 * l + 1, 2)
    return 1 / out


# ---------------------------------------------------------------------------
# Legendre Q: quadrature oracle
# ---------------------------------------------------------------------------

def legendre_q_integral(nu: float, m: int, t: float, tol: float = 1e-12) -> float:
    """Legendre function of the second kind by direct quadrature.

    Evaluates the integral representation at arbitrary real degree
    ``nu > -1`` and integer order ``m >= 0``.  Slow; intended as an oracle.
    """
    if t <= 1:
        raise ValueError("legendre_q_integral requires t > 1")
    if m < 0:
        raise ValueError("order m must be nonnegative")

    power = nu + m + 1

    def integrand(psi: float) -> float:
        return math.sin(psi) ** (2 * nu + 1) / (t - math.cos(psi)) ** power

    # At large degree/order the integrand peak is tiny and the adaptive
    # routine's absolute tolerance would swamp it; rescale to O(1) so the
    # requested tolerance acts relatively.
    peak = max(abs(integrand(p)) for p in np.linspace(1e-3, math.pi - 1e-3, 64))
    if peak == 0.0:
        return 0.0
    res = integrate_1d(lambda psi: integrand(psi) / peak, 0.0, math.pi, tol=tol)
    pref = (
        (-1) ** m
        / 2 ** (nu + 1)
        * _special.gamma(nu + m + 1)
        / _special.gamma(nu + 1)
        * (t * t - 1) ** (m / 2)
    )
    return pref * res.value * peak


def legendre_q_quadrature(n: int, m: int, t: float, tol: float = 1e-12) -> float:
    """Oracle value of ``Q_{n-1/2}^m(t)`` by adaptive quadrature.

    With degree ``n - 1/2`` the substituted integrand is
    ``sin(psi)^(2n) / (t - cos(psi))^(n+m+1/2)``, smooth on ``[0, pi]``.
    """
    if n < 0:
        raise ValueError("degree index n must be nonnegative")
    return legendre_q_integral(n - 0.5, m, t, tol=tol)


# ---------------------------------------------------------------------------
# Legendre Q: fast path
# ---------------------------------------------------------------------------

def _seeds(t: np.ndarray):
    """``Q_{-1/2}(t)`` and ``Q_{1/2}(t)`` from complete elliptic integrals.

    With modulus ``k = sqrt(2/(1+t))``, ``Q_{-1/2} = k K(k)`` and
    ``Q_{1/2} = t k K(k) - sqrt(2(1+t)) E(k)``.  The second formula
    cancels catastrophically for large ``t``; substituting the AGM series
    for ``E`` collapses it to ``sqrt(2(1+t)) K(k) * csum_tail``, a product
    of positive well-scaled factors.
    """
    k = np.sqrt(2.0 / (1.0 + t))
    agm, tail = _elliptic_K_csum(k)
    K = np.pi / (2.0 * agm)
    q_m = k * K
    q_p = np.sqrt(2.0 * (1.0 + t)) * K * tail
    return q_m, q_p


def _miller_column(m: int, q0: np.ndarray, q1: np.ndarray, n_max: int, t: np.ndarray):
    """Backward-recurrence fill of ``Q_{n-1/2}^m(t)`` for ``n = 0..n_max``.

    The degree recurrence (degrees shifted to ``n - 1/2``) reads

    ``(n - m + 1/2) q_{n+1} = 2 n t q_n - (n + m - 1/2) q_{n-1}``.

    Downward iteration from a trial vector converges to the recessive
    (Q) solution; the result is normalized against the ``n = 0`` seed and
    checked against the ``n = 1`` seed.  Occasional rescaling guards
    against overflow for large ``t``.
    """
    npts = t.shape[0]
    out = np.empty((n_max + 1, npts))
    if n_max == 0:
        out[0] = q0
        return out

    eta = np.arccosh(np.minimum(t, 1e300))
    buffer = int(np.ceil(22.0 / max(np.min(eta), 1e-3))) + 10
    N = n_max + buffer

    y_next = np.zeros(npts)  # trial value at degree N + 1
    y = np.ones(npts)
    stored = np.full((n_max + 1, npts), np.nan)
    # rescale early enough that one more step (factor ~ 2 N t) cannot overflow
    big_cut = min(1e250, 1e290 / (2.0 * N * float(np.max(t))))
    for n in range(N, 0, -1):
        if n <= n_max:
            stored[n] = y
        y_prev = (2.0 * n * t * y - (n - m + 0.5) * y_next) / (n + m - 0.5)
        y_next, y = y, y_prev
        big = np.abs(y) > big_cut
        if np.any(big):
            y[big] *= 1e-250
            y_next[big] *= 1e-250
            stored[:, big] *= 1e-250
    stored[0] = y

    scale = q0 / stored[0]
    out = stored * scale

    mismatch = np.max(np.abs(out[1] - q1) / np.maximum(np.abs(q1), 1e-300))
    if mismatch > _MILLER_MONITOR_TOL:
        raise ArithmeticError(
            f"backward recurrence monitor failed for order m={m}: "
            f"seed mismatch {mismatch:.3g}"
        )
    return out


def q_half_grid(n_max: int, m_max: int, t) -> np.ndarray:
    """Vectorized table of ``Q_{n-1/2}^m(t)``.

    Parameters
    ----------
    n_max, m_max : int
        Largest degree index and order required.
    t : array_like
        Points ``t > 1``; the limit circle ``t -> inf`` is fine (values
        underflow to 0 gracefully).

    Returns
    -------
    ndarray of shape ``(n_max + 1, m_max + 1, len(t))``.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t <= 1):
        raise ValueError("q_half_grid requires t > 1")

    # beyond this the leading large-t asymptotic is exact to double precision
    # (relative error O(t^-2)) and the recurrence machinery would overflow
    far = t > 1e8
    if np.any(far):
        q = np.empty((n_max + 1, m_max + 1, t.shape[0]))
        near = ~far
        if np.any(near):
            q[:, :, near] = q_half_grid(n_max, m_max, t[near])
        logt = np.log(t[far])
        for n in range(n_max + 1):
            for m in range(m_max + 1):
                logq = (
                    0.5 * math.log(math.pi)
                    + _special.gammaln(n + m + 0.5)
                    - _special.gammaln(n + 1)
                    - (n + 0.5) * (math.log(2.0) + logt)
                )
                q[n, m, far] = (-1.0) ** m * np.exp(logq)
        return q

    q = np.empty((n_max + 1, m_max + 1, t.shape[0]))
    q0, q1 = _seeds(t)

    try:
        col0 = _miller_column(0, q0, q1, n_max, t)
    except ArithmeticError:
        warnings.warn("falling back to quadrature oracle for Legendre-Q (m=0)")
        col0 = np.array([[legendre_q_quadrature(n, 0, ti) for ti in t]
                         for n in range(n_max + 1)])
    q[:, 0, :] = col0

    if m_max >= 1:
        s = np.sqrt(t * t - 1.0)
        # Q_nu^1 = nu (t Q_nu - Q_{nu-1}) / sqrt(t^2-1); note Q_{-3/2} = Q_{1/2}
        q0_1 = -0.5 * (t * q0 - q1) / s
        q1_1 = 0.5 * (t * q1 - q0) / s
        if n_max == 0:
            q[:, 1, :] = q0_1[None, :]
        else:
            try:
                q[:, 1, :] = _miller_column(1, q0_1, q1_1, n_max, t)
            except ArithmeticError:
                warnings.warn("falling back to quadrature oracle for Legendre-Q (m=1)")
                q[:, 1, :] = np.array([[legendre_q_quadrature(n, 1, ti) for ti in t]
                                       for n in range(n_max + 1)])

    # raise the order: Q_nu^m = -2(m-1) t / sqrt(t^2-1) Q_nu^{m-1}
    #                           + (nu - m + 2)(nu + m - 1) Q_nu^{m-2}
    if m_max >= 2:
        s = np.sqrt(t * t - 1.0)
        for m in range(2, m_max + 1):
            for n in range(n_max + 1):
                nu = n - 0.5
                q[n, m, :] = (
                    -2.0 * (m - 1) * t / s * q[n, m - 1, :]
                    + (nu - m + 2) * (nu + m - 1) * q[n, m - 2, :]
                )
    return q
