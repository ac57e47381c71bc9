"""Interior toroidal harmonics, planar harmonic families, and the exact
rational derivative tables for the Cartesian partials.

The interior toroidal harmonics are

    I_{n,m}^{nu,mu} = sqrt(cosh(eta) - cos(theta))
                      * Q_{n-1/2}^m(cosh(eta))
                      * trig_nu(n theta) * trig_mu(m phi)

with ``trig_+ = cos`` and ``trig_- = sin``.  The index combinations
``(n, nu) = (0, -)`` and ``(m, mu) = (0, -)`` are identically zero and are
rejected at construction.

Each Cartesian partial of an ``I`` is again a finite rational combination
of ``I``'s.  The tables below give those combinations exactly; every
coefficient has been arbitrated against high-order finite differences, so
they can serve as ground truth for the rest of the package.  For
``d/dx0`` the nonzero coefficients at fixed ``(n, m)`` (target ``nu``
flipped, ``mu`` kept) are ``nu * kappa(k, m, n)`` with

    kappa(1, m, 0) = m - 1/2                       (n = 0 row)
    kappa(n-1, m, n) = -(2(n+m) - 1)/4
    kappa(n,   m, n) = n
    kappa(n+1, m, n) = -(2(n-m) + 1)/4             (n >= 1)

``d/dx1`` keeps both signs and moves ``m`` by one; ``d/dx2`` is the same
table with the target ``mu`` flipped and a ``mu``-dependent sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .geometry import DegenerateLocusError, ToroidalPoint
from .special_functions import gamma_half, q_half_grid

Sign = int  # +1 or -1

_SIGN_CHARS = {"+": 1, "-": -1, "+1": 1, "-1": -1, "1": 1}


def parse_sign(s) -> Sign:
    """Normalize ``'+'``/``'-'`` (or +-1) to an integer sign."""
    if isinstance(s, str):
        if s in _SIGN_CHARS:
            return _SIGN_CHARS[s]
        raise ValueError(f"not a sign: {s!r}")
    if s in (1, -1):
        return int(s)
    raise ValueError(f"not a sign: {s!r}")


def sign_char(s: Sign) -> str:
    return "+" if s > 0 else "-"


@dataclass(frozen=True)
class HarmonicIndex:
    """Label ``(n, m, nu, mu)`` of an interior toroidal harmonic.

    ``nu`` and ``mu`` are +-1 and select cosine (+) or sine (-) in the
    ``theta`` and ``phi`` factors.  Zero-function combinations are
    rejected.
    """

    n: int
    m: int
    nu: Sign
    mu: Sign

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ValueError(f"indices must be nonnegative, got n={self.n}, m={self.m}")
        if self.nu not in (1, -1) or self.mu not in (1, -1):
            raise ValueError("nu and mu must be +1 or -1")
        if self.n == 0 and self.nu == -1:
            raise ValueError("(n, nu) = (0, -) labels the zero function")
        if self.m == 0 and self.mu == -1:
            raise ValueError("(m, mu) = (0, -) labels the zero function")

    def __str__(self) -> str:
        return f"I[{self.n},{self.m}]^({sign_char(self.nu)},{sign_char(self.mu)})"


def index_is_valid(n: int, m: int, nu: Sign, mu: Sign) -> bool:
    """True when ``(n, m, nu, mu)`` labels a nonzero harmonic."""
    return (
        n >= 0 and m >= 0
        and not (n == 0 and nu == -1)
        and not (m == 0 and mu == -1)
    )


@dataclass(frozen=True)
class DerivativeTerm:
    """One term ``coefficient * I_index`` of an expanded partial derivative."""

    index: HarmonicIndex
    coefficient: Fraction

    def __post_init__(self) -> None:
        if self.coefficient == 0:
            raise ValueError("zero coefficients are dropped, not stored")


def _trig(k: int, sign: Sign, angle):
    return np.cos(k * np.asarray(angle)) if sign > 0 else np.sin(k * np.asarray(angle))


def _metric(eta, theta) -> np.ndarray:
    """The prefactor ``sqrt(cosh(eta) - cos(theta))``, as ``sqrt(2) *
    hypot(sinh(eta/2), sin(theta/2))``: the difference cancels where both
    are small."""
    return math.sqrt(2.0) * np.hypot(np.sinh(0.5 * eta), np.sin(0.5 * np.asarray(theta)))


def eval_I_batch(idx: HarmonicIndex, eta, theta, phi) -> np.ndarray:
    """Vectorized harmonic evaluation on coordinate arrays."""
    return _term_matrix(((DerivativeTerm(idx, Fraction(1)),),))(eta, theta, phi)[0]


def eval_I(idx: HarmonicIndex, p: ToroidalPoint) -> float:
    """Value of the interior toroidal harmonic at a toroidal point."""
    return float(eval_I_batch(idx, np.array([p.eta]), p.theta, p.phi)[0])


def _planar_pair(m: int, x1, x2) -> Tuple[np.ndarray, np.ndarray]:
    """``(J_m^+, J_m^-) = (Re, Im) (x1 + i x2)^m`` on coordinate arrays.

    Raises :class:`DegenerateLocusError` for m < 0 on the x0-axis.
    """
    z = np.asarray(x1, dtype=float) + 1j * np.asarray(x2, dtype=float)
    if m < 0 and (z == 0).any():
        raise DegenerateLocusError("negative powers are singular on the x0-axis")
    w = z**m
    return w.real, w.imag


# ---------------------------------------------------------------------------
# derivative tables
# ---------------------------------------------------------------------------

def kappa(k: int, m: int, n: int) -> Fraction:
    """Exact coefficient of the degree-``k`` harmonic in ``d/dx0`` of the
    degree-``n`` one (at fixed order ``m``, before the ``nu`` prefactor)."""
    if n == 0:
        return Fraction(2 * m - 1, 2) if k == 1 else Fraction(0)
    if k == n - 1:
        return Fraction(-(2 * (n + m) - 1), 4)
    if k == n:
        return Fraction(n)
    if k == n + 1:
        return Fraction(-(2 * (n - m) + 1), 4)
    return Fraction(0)


_Key = Tuple[int, int, Sign, Sign]


def _filtered_terms(pairs: Iterable[Tuple[_Key, Fraction]]) -> List[DerivativeTerm]:
    """Sum the coefficients of equal keys ``(n, m, nu, mu)``; the nonzero
    sums on nonzero harmonics, as terms sorted by key."""
    acc: Dict[_Key, Fraction] = {}
    for key, c in pairs:
        acc[key] = acc.get(key, Fraction(0)) + c
    return [DerivativeTerm(HarmonicIndex(*key), c) for key, c in sorted(acc.items())
            if c != 0 and index_is_valid(*key)]


def _combine(parts: Iterable[Tuple[Fraction, Sequence[DerivativeTerm]]]) -> List[DerivativeTerm]:
    """The combination ``sum c * table`` over ``(c, table)`` pairs, like
    harmonics collected (see :func:`_filtered_terms`)."""
    return _filtered_terms(((t.index.n, t.index.m, t.index.nu, t.index.mu), c * t.coefficient)
                           for c, table in parts for t in table)


def d0_terms(idx: HarmonicIndex) -> List[DerivativeTerm]:
    """Expansion of ``d/dx0`` applied to ``I_idx``.

    The result lives at the same ``(m, mu)`` with ``nu`` flipped and the
    degree shifted by at most one; the overall ``nu`` prefactor (absent in
    compressed tabulations, which state only the ``nu = +`` case) is
    included.
    """
    n, m = idx.n, idx.m
    return _filtered_terms(((k, m, -idx.nu, idx.mu), idx.nu * kappa(k, m, n))
                           for k in (max(n - 1, 0), n, n + 1))


def _d1_raw(n: int, m: int) -> Dict[Tuple[int, int], Fraction]:
    """Coefficients of ``d/dx1`` at fixed signs: maps (degree, order) -> c.

    The ``n = 0`` and ``m = 0`` rows double the degree-raising and
    order-raising entries respectively (the sine component that would
    otherwise cancel is identically zero there).
    """
    out: Dict[Tuple[int, int], Fraction] = {}
    dn = 2 if n == 0 else 1
    dm = 2 if m == 0 else 1
    if m >= 1:
        if n >= 1:
            out[(n - 1, m - 1)] = Fraction(-(2 * n + 2 * m - 3) * (2 * n + 2 * m - 1), 16)
        out[(n, m - 1)] = Fraction((2 * n + 2 * m - 1) * (2 * n - 2 * m + 1), 8)
        out[(n + 1, m - 1)] = dn * Fraction(-(2 * n - 2 * m + 1) * (2 * n - 2 * m + 3), 16)
    if n >= 1:
        out[(n - 1, m + 1)] = dm * Fraction(-1, 4)
    out[(n, m + 1)] = dm * Fraction(1, 2)
    out[(n + 1, m + 1)] = dn * dm * Fraction(-1, 4)
    return out


def d1_terms(idx: HarmonicIndex) -> List[DerivativeTerm]:
    """Expansion of ``d/dx1``: both signs are preserved, the order moves
    by one."""
    return _filtered_terms(((k, mm, idx.nu, idx.mu), c)
                           for (k, mm), c in _d1_raw(idx.n, idx.m).items())


def d2_terms(idx: HarmonicIndex) -> List[DerivativeTerm]:
    """Expansion of ``d/dx2``: the ``d/dx1`` table with ``mu`` flipped, a
    ``mu`` prefactor, and a sign flip on the order-lowering terms."""
    return _filtered_terms(((k, mm, idx.nu, -idx.mu), idx.mu * (-1 if mm == idx.m - 1 else 1) * c)
                           for (k, mm), c in _d1_raw(idx.n, idx.m).items())


# ---------------------------------------------------------------------------
# compiled term tables
# ---------------------------------------------------------------------------

TermTable = Tuple[DerivativeTerm, ...]


class TermMatrix:
    """Term tables (the rows) compiled for evaluation on coordinate arrays.

    The columns are the distinct harmonics of all rows, each the meridian
    factor ``metric * Q[n, m](eta) * trig(n theta)`` (:meth:`meridian`)
    times the phi factor ``trig(m phi)``.  Row ``r`` owns the ``width``
    slots ``r * width + j`` of ``matrix``: slot ``j`` holds its
    coefficients of the harmonics with its ``j``-th phi factor ``(m, mu)``
    (zero past its last).  A row is the sum of its slots of ``matrix @ H``
    times their phi factors (:meth:`phi_sum`): each harmonic is evaluated
    once, and the product runs on the meridian points alone.
    """

    def __init__(self, rows: Sequence[Sequence[DerivativeTerm]]):
        columns = sorted({t.index for table in rows for t in table},
                         key=lambda h: (h.m, h.mu, h.n, h.nu))
        col = {h: j for j, h in enumerate(columns)}
        self.n, self.m = (np.array([getattr(h, a) for h in columns], dtype=int) for a in "nm")
        self.n_max, self.m_max = int(self.n.max(initial=0)), int(self.m.max(initial=0))
        self.theta_keys = sorted({(h.n, h.nu) for h in columns}) or [(0, 1)]
        self.theta_of = np.array([self.theta_keys.index((h.n, h.nu)) for h in columns], dtype=int)
        self.phi_keys = sorted({(h.m, h.mu) for h in columns}) or [(0, 1)]
        slots = [sorted({(t.index.m, t.index.mu) for t in table}) for table in rows]
        self.rows, self.width = len(rows), max(1, max(map(len, slots), default=0))
        self.slot_phi = np.zeros(self.rows * self.width, dtype=int)
        self.matrix = np.zeros((self.rows * self.width, len(columns)))
        for r, (table, keys) in enumerate(zip(rows, slots)):
            s = r * self.width
            self.slot_phi[s:s + len(keys)] = [self.phi_keys.index(key) for key in keys]
            for t in table:
                j = s + keys.index((t.index.m, t.index.mu))
                self.matrix[j, col[t.index]] += float(t.coefficient)

    def meridian(self, eta, theta) -> np.ndarray:
        """The meridian factors of the columns, shape ``(columns,)`` plus
        the broadcast shape of ``eta`` and ``theta``, from one
        ``q_half_grid`` table that covers every column."""
        eta, theta = np.asarray(eta, dtype=float), np.asarray(theta, dtype=float)
        nd = max(eta.ndim, theta.ndim)  # leading ones, so that columns broadcast
        eta, theta = (a.reshape((1,) * (nd - a.ndim) + a.shape) for a in (eta, theta))
        q = q_half_grid(self.n_max, self.m_max, eta.ravel())
        angular = np.array([_trig(n, nu, theta) for n, nu in self.theta_keys])
        return (_metric(eta, theta) * q[self.n, self.m].reshape(self.n.shape + eta.shape)
                * angular[self.theta_of])

    def phi_sum(self, values: np.ndarray, phi) -> np.ndarray:
        """The rows from slot values (``(rows * width,)`` plus a meridian
        shape): each slot times its phi factor at ``phi``, summed per row.

        Where ``phi`` varies on axes after all those the meridian shape
        varies on (a mesh), that is one small matrix product per row;
        elsewhere it is elementwise, so a point's value does not depend on
        the other points of a flat array."""
        phi = np.asarray(phi, dtype=float)
        nd = max(values.ndim - 1, phi.ndim)
        mer = (1,) * (nd + 1 - values.ndim) + values.shape[1:]
        fac = (1,) * (nd - phi.ndim) + phi.shape
        factors = np.array([_trig(m, mu, phi) for m, mu in self.phi_keys])[self.slot_phi]
        split = next((a for a in range(nd) if fac[a] != 1), nd)
        if split < nd and all(k == 1 for k in mer[split:]):
            out = np.matmul(
                values.reshape(self.rows, self.width, math.prod(mer)).transpose(0, 2, 1),
                factors.reshape(self.rows, self.width, math.prod(fac)))
        else:
            out = (values.reshape((self.rows, self.width) + mer)
                   * factors.reshape((self.rows, self.width) + fac)).sum(1)
        return out.reshape((self.rows,) + np.broadcast_shapes(mer, fac))

    def __call__(self, eta, theta, phi) -> np.ndarray:
        """The rows on coordinate arrays that broadcast together, shape
        ``(rows,)`` plus their broadcast shape."""
        H = self.meridian(eta, theta)
        slots = self.matrix @ H.reshape(len(H), math.prod(H.shape[1:]))
        return self.phi_sum(slots.reshape(slots.shape[:1] + H.shape[1:]), phi)


@lru_cache(maxsize=256)
def _term_matrix(rows: Tuple[TermTable, ...]) -> TermMatrix:
    """The :class:`TermMatrix` of a tuple of term tables, cached."""
    return TermMatrix(rows)


def eval_terms(terms: Sequence[DerivativeTerm], eta, theta, phi) -> np.ndarray:
    """Evaluate a finite combination of harmonics on coordinate arrays,
    each distinct harmonic once (see :class:`TermMatrix`); one
    ``q_half_grid`` table sized to the widest term serves every term."""
    return _term_matrix((tuple(terms),))(eta, theta, phi)[0]


# ---------------------------------------------------------------------------
# expansion coefficients of the planar families
# ---------------------------------------------------------------------------

def _gamma_half_signed(k: int) -> float:
    """``Gamma(k + 1/2)`` for any integer ``k`` (never a pole)."""
    if k >= 0:
        return gamma_half(k)
    val = math.sqrt(math.pi)
    for i in range(k, 0):
        val /= i + 0.5
    return val


def j_coefficient(n: int, m: int, sign: Sign = 1) -> float:
    """Coefficient of ``I_{n,|m|}^{+,sign}`` in the toroidal-harmonic
    expansion of ``J_m^sign``.

    The degree-dependent factor is ``2 - delta_{0,n}`` (1 at ``n = 0``,
    2 afterwards), the placement forced by the Fourier quadrature oracle;
    see :func:`j_coefficient_quadrature`.  For ``m < 0`` the two sign
    families differ by an overall sign and a ratio of half-integer Gamma
    values.
    """
    sign = parse_sign(sign)
    if n < 0:
        raise ValueError("n must be nonnegative")
    neumann = 1.0 if n == 0 else 2.0
    base = neumann * (-1) ** abs(m) * math.sqrt(2.0 / math.pi) / _gamma_half_signed(m)
    if m >= 0:
        return base
    ratio = math.prod((l + 0.5) for l in range(n + m, n - m)) or 1.0
    return sign * base / ratio


def fourier_cosine_coefficients(m: int, eta: float, N: int, n_nodes: int = 0) -> np.ndarray:
    """Theta-Fourier cosine coefficients ``a_0..a_N`` of
    ``(cosh(eta) - cos(theta))^(-(m + 1/2))`` by periodic-trapezoid
    quadrature (spectrally accurate)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    npts = n_nodes or max(512, 8 * (N + 1))
    theta = 2.0 * np.pi * np.arange(npts) / npts
    f = (np.cosh(eta) - np.cos(theta)) ** (-(m + 0.5))
    # real FFT gives sum f cos(n theta); normalize to cosine-series form
    spectrum = np.fft.rfft(f).real / npts
    a = 2.0 * spectrum[: N + 1]
    a[0] *= 0.5
    return a


def j_coefficient_quadrature(n: int, m: int, sign: Sign, eta: float) -> float:
    """Slow oracle for :func:`j_coefficient` via Fourier quadrature.

    Divides the quadrature cosine coefficient by the radial factor, using
    ``(x1 + i x2)^m = rho^m e^(i m phi)`` and
    ``rho = sinh(eta) / (cosh(eta) - cos(theta))``.
    """
    sign = parse_sign(sign)
    a = fourier_cosine_coefficients(m, eta, n)[n]
    q = q_half_grid(n, abs(m), np.array([eta]))[n, abs(m), 0]
    value = a * math.sinh(eta) ** m / q
    return value if m >= 0 else sign * value
