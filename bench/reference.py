"""Independent extended-precision references for the benchmark's output checks.

Everything here is computed with mpmath from the defining formulas, not
from the library's recurrences or coefficient tables:

* ``harmonic`` uses mpmath's ``legenq`` (hypergeometric evaluation of the
  Legendre function of the second kind) for the radial factor;
* ``monogenic_T`` differentiates the starred harmonic numerically at
  extended precision (``mpmath.diff``) instead of using the exact
  derivative tables;
* ``monogenic_T0`` integrates extended-precision derivatives along the
  ``x0`` segment with ``mpmath.quad``;
* ``planar_J`` and ``planar_W`` are the closed-form complex powers.

The only library objects used are exact rational tables: the star matrix,
which the starred harmonics are defined by, and (in ``term_sum``, for the
near-axis check of the radial factor alone) the derivative tables of ``T``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

import mpmath

#: working precision of every reference, in decimal digits
DPS = 30


def _mpf(c: Fraction):
    return mpmath.mpf(c.numerator) / c.denominator


def _trig(sign: int, angle):
    return mpmath.cos(angle) if sign > 0 else mpmath.sin(angle)


def toroidal(x0, x1, x2):
    """Toroidal coordinates ``(eta, theta, phi)`` of a Cartesian point."""
    rho = mpmath.sqrt(x1 * x1 + x2 * x2)
    eta = mpmath.log(((rho + 1) ** 2 + x0 * x0) / ((rho - 1) ** 2 + x0 * x0)) / 2
    theta = mpmath.atan2(2 * x0, rho * rho + x0 * x0 - 1)
    return eta, theta, mpmath.atan2(x2, x1)


def legendre_q(n: int, m: int, eta):
    """``Q_{n-1/2}^m(cosh eta)``, with the ``(-1)^m`` sign the library keeps."""
    return mpmath.re(mpmath.legenq(n - mpmath.mpf(0.5), m, mpmath.cosh(eta), type=3))


def harmonic(n: int, m: int, nu: int, mu: int, eta, theta, phi):
    """Interior toroidal harmonic ``I_{n,m}^{nu,mu}`` at a toroidal point."""
    return (mpmath.sqrt(mpmath.cosh(eta) - mpmath.cos(theta)) * legendre_q(n, m, eta)
            * _trig(nu, n * theta) * _trig(mu, m * phi))


def harmonic_envelope(n: int, m: int, eta, theta):
    """``|I|`` without its trigonometric factors: the scale an error is judged on."""
    return abs(mpmath.sqrt(mpmath.cosh(eta) - mpmath.cos(theta)) * legendre_q(n, m, eta))


def starred(row: Sequence[Fraction], m: int, nu: int, mu: int, eta, theta, phi):
    """Starred harmonic ``sum_k row[k] I_{k,m}^{nu,mu}`` and the sum of the
    magnitudes of its terms."""
    value = envelope = mpmath.mpf(0)
    for k, c in enumerate(row):
        if c == 0 or (k == 0 and nu < 0):
            continue
        term = _mpf(c) * harmonic(k, m, nu, mu, eta, theta, phi)
        value += term
        envelope += abs(_mpf(c)) * harmonic_envelope(k, m, eta, theta)
    return value, envelope


def term_sum(terms, eta, theta, phi):
    """``sum c I_{n,m}^{nu,mu}`` over ``(n, m, nu, mu, c)`` terms, and the sum
    of the terms' envelopes."""
    value = envelope = mpmath.mpf(0)
    for n, m, nu, mu, c in terms:
        value += _mpf(c) * harmonic(n, m, nu, mu, eta, theta, phi)
        envelope += abs(_mpf(c)) * harmonic_envelope(n, m, eta, theta)
    return value, envelope


def monogenic_T(row: Sequence[Fraction], n: int, m: int, nu: int, mu: int,
                point) -> Tuple:
    """``T_{n,m}^{nu,mu} = (d0 h, -d1 h, -d2 h)`` with ``h`` the starred
    harmonic of degree ``n - 1`` and theta-sign ``-nu``; ``row`` is the
    star-matrix row ``n - 1`` at order ``m``."""

    def h(a, b, c):
        return starred(row, m, -nu, mu, *toroidal(a, b, c))[0]

    x = tuple(mpmath.mpf(v) for v in point)
    return (mpmath.diff(h, x, (1, 0, 0)), -mpmath.diff(h, x, (0, 1, 0)),
            -mpmath.diff(h, x, (0, 0, 1)))


def monogenic_T0(m: int, mu: int, point) -> Tuple:
    """``T0_m^mu = (f0, -int_0^x0 d1 f0, -int_0^x0 d2 f0)`` with
    ``f0 = I_{0,m}^{+,mu}``; the Teodorescu part vanishes because the slice
    trace of ``d0 f0`` is identically zero."""
    x0, x1, x2 = (mpmath.mpf(v) for v in point)

    def f0(a, b, c):
        return harmonic(0, m, 1, mu, *toroidal(a, b, c))

    def d1(t):
        return mpmath.diff(lambda b: f0(t, b, x2), x1)

    def d2(t):
        return mpmath.diff(lambda c: f0(t, x1, c), x2)

    return (f0(x0, x1, x2), -mpmath.quad(d1, [0, x0], method="gauss-legendre"),
            -mpmath.quad(d2, [0, x0], method="gauss-legendre"))


def planar_J(m: int, sign: int, x1: float, x2: float) -> float:
    """``Re (x1 + i x2)^m`` for sign ``+``, ``Im`` for sign ``-``."""
    w = mpmath.mpc(x1, x2) ** m
    return w.real if sign > 0 else w.imag


def planar_W(m: int, sign: int, x1: float, x2: float) -> Tuple:
    """``W_m^+ = (0, J_m^+, -J_m^-)`` and ``W_m^- = (0, J_m^-, J_m^+)``."""
    jp, jm = planar_J(m, 1, x1, x2), planar_J(m, -1, x1, x2)
    return (0, jp, -jm) if sign > 0 else (0, jm, jp)
