"""Quaternion-valued monogenic functions on the solid torus.

Covers the quaternion algebra itself, finite-difference Fueter operators
(verification only), the monogenic constants W built from planar
harmonics, the exact toroidal monogenics T obtained by applying the
conjugate Fueter derivative to starred harmonics, the planar Teodorescu
transform and the monogenic-completion operator Psi, the n = 0 family
T0, cohomology coefficients, and the full-quaternion decomposition
F = f + g e3.

Conventions.  e1 e2 = e3 (and cyclic).  The two first-order operators are

    dbar = d0 + e1 d1 + e2 d2      (monogenic: dbar f = 0)
    d    = d0 - e1 d1 - e2 d2

acting on the left.  Applying ``d`` to a scalar harmonic produces a
monogenic function with components (d0 h, -d1 h, -d2 h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import numpy as np
from numpy.polynomial import legendre as _legendre

from .appell import star_terms
from .geometry import (
    CartesianPoint,
    DegenerateLocusError,
    ToroidalPoint,
    TorusDomain,
    to_cartesian,
    toroidal_arrays,
)
from .harmonics import (
    DerivativeTerm,
    HarmonicIndex,
    Sign,
    d0_terms,
    d1_terms,
    d2_terms,
    eval_I_batch,
    eval_terms,
    parse_sign,
)
from .quadrature import integrate_annulus
from .special_functions import q_half_grid

# The cohomology line integral, evaluated literally with the circle
# parametrized as (0, cos t, sin t), assigns the generator W_{-1}^- the
# value -1.  The library fixes the orientation constant so the generator
# gets +1; the literal sign is pinned by a regression test.
COH_ORIENTATION = -1.0


# ---------------------------------------------------------------------------
# quaternion algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quaternion:
    """A real quaternion a0 + a1 e1 + a2 e2 + a3 e3."""

    a0: float
    a1: float
    a2: float
    a3: float

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(
            self.a0 + other.a0, self.a1 + other.a1,
            self.a2 + other.a2, self.a3 + other.a3,
        )

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return self + (-1.0) * other

    def __neg__(self) -> "Quaternion":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b = self, other
            return Quaternion(
                a.a0 * b.a0 - a.a1 * b.a1 - a.a2 * b.a2 - a.a3 * b.a3,
                a.a0 * b.a1 + a.a1 * b.a0 + a.a2 * b.a3 - a.a3 * b.a2,
                a.a0 * b.a2 - a.a1 * b.a3 + a.a2 * b.a0 + a.a3 * b.a1,
                a.a0 * b.a3 + a.a1 * b.a2 - a.a2 * b.a1 + a.a3 * b.a0,
            )
        c = float(other)
        return Quaternion(c * self.a0, c * self.a1, c * self.a2, c * self.a3)

    def __rmul__(self, other) -> "Quaternion":
        c = float(other)
        return Quaternion(c * self.a0, c * self.a1, c * self.a2, c * self.a3)

    def scalar(self) -> float:
        return self.a0

    def norm(self) -> float:
        return math.sqrt(self.a0**2 + self.a1**2 + self.a2**2 + self.a3**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.a2, self.a3])


E1 = Quaternion(0.0, 1.0, 0.0, 0.0)
E2 = Quaternion(0.0, 0.0, 1.0, 0.0)
E3 = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class ReducedQuaternion:
    """An element a0 + a1 e1 + a2 e2 of the reduced-quaternion subspace."""

    a0: float
    a1: float
    a2: float

    def to_quaternion(self) -> Quaternion:
        return Quaternion(self.a0, self.a1, self.a2, 0.0)

    def __add__(self, other: "ReducedQuaternion") -> "ReducedQuaternion":
        return ReducedQuaternion(
            self.a0 + other.a0, self.a1 + other.a1, self.a2 + other.a2
        )

    def __sub__(self, other: "ReducedQuaternion") -> "ReducedQuaternion":
        return ReducedQuaternion(
            self.a0 - other.a0, self.a1 - other.a1, self.a2 - other.a2
        )

    def __rmul__(self, c) -> "ReducedQuaternion":
        c = float(c)
        return ReducedQuaternion(c * self.a0, c * self.a1, c * self.a2)

    def norm(self) -> float:
        return math.sqrt(self.a0**2 + self.a1**2 + self.a2**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.a2])


def as_quaternion(v) -> Quaternion:
    """Coerce a scalar or reduced quaternion into a full quaternion."""
    if isinstance(v, Quaternion):
        return v
    if isinstance(v, ReducedQuaternion):
        return v.to_quaternion()
    return Quaternion(float(v), 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class SampledAField:
    """A reduced-quaternion field on a solid torus.

    ``evaluator`` maps an interior :class:`CartesianPoint` to a
    :class:`ReducedQuaternion`; callers are responsible for staying
    inside ``domain`` (with whatever margin the evaluator needs).
    """

    evaluator: Callable[[CartesianPoint], ReducedQuaternion]
    domain: TorusDomain

    def __call__(self, x: CartesianPoint) -> ReducedQuaternion:
        return self.evaluator(x)


# ---------------------------------------------------------------------------
# finite-difference Fueter operators (verification path)
# ---------------------------------------------------------------------------

def _fd_partials(f, x: CartesianPoint, h: float) -> List[Quaternion]:
    if not h > 0:
        raise ValueError("step h must be positive")
    out = []
    for i in range(3):
        d = [0.0, 0.0, 0.0]
        d[i] = h
        fp = as_quaternion(f(CartesianPoint(x.x0 + d[0], x.x1 + d[1], x.x2 + d[2])))
        fm = as_quaternion(f(CartesianPoint(x.x0 - d[0], x.x1 - d[1], x.x2 - d[2])))
        out.append((1.0 / (2.0 * h)) * (fp - fm))
    return out


def fueter_bar(f, x: CartesianPoint, h: float = 1e-5) -> Quaternion:
    """Central-difference dbar f = d0 f + e1 d1 f + e2 d2 f (left action).

    ``f`` maps a CartesianPoint to a Quaternion, ReducedQuaternion, or
    scalar.  Vanishes (to O(h^2)) exactly on monogenic fields.
    """
    d0, d1, d2 = _fd_partials(f, x, h)
    return d0 + E1 * d1 + E2 * d2


def fueter(f, x: CartesianPoint, h: float = 1e-5) -> Quaternion:
    """Central-difference conjugate operator d = d0 - e1 d1 - e2 d2."""
    d0, d1, d2 = _fd_partials(f, x, h)
    return d0 - E1 * d1 - E2 * d2


# ---------------------------------------------------------------------------
# monogenic constants W
# ---------------------------------------------------------------------------

def eval_W(m: int, sign: Sign, x: CartesianPoint) -> ReducedQuaternion:
    """The monogenic constant ``W_m^+ = J_m^+ e1 - J_m^- e2`` or
    ``W_m^- = J_m^- e1 + J_m^+ e2``.  Scalar part is zero; the axis is
    excluded for m < 0."""
    return ReducedQuaternion(*eval_W_batch(m, sign, x.x1, x.x2).tolist())


def eval_W_batch(m: int, sign: Sign, x1, x2) -> np.ndarray:
    """Vectorized W evaluation; returns an array of shape (3,) + x1.shape.

    Raises :class:`DegenerateLocusError` for m < 0 on the x0-axis.
    """
    sign = parse_sign(sign)
    z = np.asarray(x1, dtype=float) + 1j * np.asarray(x2, dtype=float)
    if m < 0 and (z == 0).any():
        raise DegenerateLocusError("negative powers are singular on the x0-axis")
    w = z**m
    zero = np.zeros(np.shape(w))
    if sign > 0:
        return np.array([zero, w.real, -w.imag])
    return np.array([zero, w.imag, w.real])


# ---------------------------------------------------------------------------
# exact toroidal monogenics T (n >= 1)
# ---------------------------------------------------------------------------

TermTable = Tuple[DerivativeTerm, ...]


@lru_cache(maxsize=None)
def t_term_tables(n: int, m: int, nu: Sign, mu: Sign) -> Tuple[TermTable, TermTable, TermTable]:
    """Exact component tables of ``T_{n,m}^{nu,mu}``.

    T is the conjugate Fueter derivative of the starred harmonic with
    degree n - 1 and flipped theta-sign; each component is a finite
    rational combination of plain harmonics, returned as
    ``(scalar, e1, e2)`` term tuples.

    The sources with degree 0 and theta-sign ``-`` are identically zero,
    so ``T_{1,m}^{+,mu}`` is the zero function for every m: its tables
    are empty.  (Formally extending the coefficient algebra across the
    zero function produces a field that is *not* monogenic, so the
    honest zero is the only consistent value.)
    """
    if n < 1:
        raise ValueError("T is defined for degree n >= 1")
    if nu == 1 and n == 1:
        return ((), (), ())
    src = HarmonicIndex(n - 1, m, -nu, mu)
    acc: List[Dict[HarmonicIndex, Fraction]] = [{}, {}, {}]
    for base, c in star_terms(src):
        for slot, terms in enumerate((d0_terms(base), d1_terms(base), d2_terms(base))):
            for t in terms:
                acc[slot][t.index] = acc[slot].get(t.index, Fraction(0)) + c * t.coefficient
    out = []
    for slot, table in enumerate(acc):
        s = 1 if slot == 0 else -1  # d = d0 - e1 d1 - e2 d2 on a scalar
        items = sorted(table.items(), key=lambda kv: (kv[0].n, kv[0].m, kv[0].nu, kv[0].mu))
        out.append(tuple(DerivativeTerm(i, s * c) for i, c in items if c != 0))
    return tuple(out)


def t_is_zero(n: int, m: int, nu: Sign, mu: Sign) -> bool:
    """True when ``T_{n,m}^{nu,mu}`` is the identically zero function."""
    return n == 1 and parse_sign(nu) == 1


def eval_T(idx: HarmonicIndex, p: ToroidalPoint) -> ReducedQuaternion:
    """Pointwise value of the exact toroidal monogenic ``T_idx`` (n >= 1)."""
    return ReducedQuaternion(*eval_T_batch(idx, p.eta, p.theta, p.phi).tolist())


def eval_T_batch(idx: HarmonicIndex, eta, theta, phi, q=None) -> np.ndarray:
    """Vectorized T evaluation through the exact coefficient tables (no
    differencing); returns shape (3,) + eta.shape.

    ``q`` is an optional precomputed ``q_half_grid`` table covering
    degrees up to ``idx.n`` and orders up to ``idx.m + 1`` on the
    flattened ``eta`` values.
    """
    eta = np.asarray(eta, dtype=float)
    tables = t_term_tables(idx.n, idx.m, idx.nu, idx.mu)
    if q is None and any(tables):
        q = q_half_grid(idx.n, idx.m + 1, np.cosh(eta).ravel())
    return np.stack([eval_terms(table, eta, theta, phi, q=q) for table in tables])


# ---------------------------------------------------------------------------
# planar Teodorescu transform and the completion operator Psi
# ---------------------------------------------------------------------------

def teodorescu(
    f: Callable[[np.ndarray], np.ndarray],
    w: complex,
    r_in: float,
    r_out: float,
    tol: float = 1e-8,
):
    """Planar Teodorescu transform ``-(1/pi) int_D f(z)/(z - w) dA`` over
    the annulus ``r_in < |z| < r_out``, evaluated at an interior point.

    ``f`` must be vectorized (complex array in, complex array out) and
    smooth on the closed annulus.  Satisfies ``d/d(wbar)`` of the result
    = f(w); for ``f = 1`` the closed form is ``conj(w) - r_in^2 / w``.
    """
    w = complex(w)
    res = integrate_annulus(
        lambda z: f(z) / (z - w), r_in, r_out, singularity=w, tol=tol * math.pi
    )
    return -res.value / math.pi


class Psi:
    """Monogenic completion of a scalar harmonic field on a solid torus.

    Given harmonic ``f0`` on the domain, produces the reduced-quaternion
    field ``f0 + f1 e1 + f2 e2`` with

        f1 = -int_0^{x0} d1 f0 dt + w1 / 2,
        f2 = -int_0^{x0} d2 f0 dt - w2 / 2,

    where ``w = w1 + i w2`` is the Teodorescu transform of the trace of
    ``d0 f0`` on the slice plane x0 = 0.  The result is monogenic and
    shares f0 as its scalar part.

    Parameters
    ----------
    f0 : callable
        Vectorized scalar field: ``f0(x0, x1, x2)`` with array arguments.
    domain : TorusDomain
        Sets the slice annulus for the Teodorescu transform and the
        containment check on the integration segment.
    tol : float
        Quadrature tolerance for both the planar transform and the
        line integrals.
    h : float
        Step for the central differences of ``f0``.
    planar_source : callable or None
        Override for the slice trace of ``d0 f0`` (complex array ->
        values).  ``0`` declares the trace identically zero and skips
        the planar transform entirely; ``None`` (default) differences
        ``f0`` across the slice.

    Notes
    -----
    Teodorescu values are cached per (x1, x2); the cache only grows and
    entries are never mutated, so concurrent reads are safe.
    """

    def __init__(self, f0, domain: TorusDomain, tol: float = 1e-8,
                 h: float = 1e-5, planar_source=None):
        self.f0 = f0
        self.domain = domain
        self.tol = tol
        self.h = h
        self.r_in, self.r_out = domain.slice_radii()
        if planar_source is None:
            def planar_source(z):
                return (f0(self.h, z.real, z.imag) - f0(-self.h, z.real, z.imag)) / (2.0 * self.h)
            self._source = planar_source
        elif planar_source == 0:
            self._source = None
        else:
            self._source = planar_source
        self._w_cache: Dict[Tuple[float, float], complex] = {}

    def _w(self, x1: float, x2: float) -> complex:
        if self._source is None:
            return 0.0j
        key = (x1, x2)
        if key not in self._w_cache:
            self._w_cache[key] = teodorescu(
                self._source, complex(x1, x2), self.r_in, self.r_out, self.tol
            )
        return self._w_cache[key]

    def _check_segment(self, x: CartesianPoint) -> None:
        for s in (0.0, 0.5, 1.0):
            probe = CartesianPoint(s * x.x0, x.x1, x.x2)
            if not self.domain.contains(probe):
                raise ValueError(
                    f"integration segment leaves the domain at {probe}"
                )

    def _line_integrals(self, x: CartesianPoint) -> Tuple[float, float]:
        if x.x0 == 0.0:
            return 0.0, 0.0
        h = self.h
        prev = None
        for n in (24, 48, 96, 192):
            u, wt = _legendre.leggauss(n)
            t = 0.5 * x.x0 * (u + 1.0)
            wt = 0.5 * x.x0 * wt
            g1 = (self.f0(t, x.x1 + h, x.x2) - self.f0(t, x.x1 - h, x.x2)) / (2 * h)
            g2 = (self.f0(t, x.x1, x.x2 + h) - self.f0(t, x.x1, x.x2 - h)) / (2 * h)
            val = (float(np.dot(g1, wt)), float(np.dot(g2, wt)))
            if prev is not None and max(
                abs(val[0] - prev[0]), abs(val[1] - prev[1])
            ) < self.tol:
                return val
            prev = val
        return val

    def __call__(self, x: CartesianPoint) -> ReducedQuaternion:
        self._check_segment(x)
        L1, L2 = self._line_integrals(x)
        w = self._w(x.x1, x.x2)
        f0 = float(np.asarray(self.f0(x.x0, x.x1, x.x2)))
        return ReducedQuaternion(f0, -L1 + w.real / 2.0, -L2 - w.imag / 2.0)


def psi(f0, domain: TorusDomain, x: CartesianPoint, tol: float = 1e-8) -> ReducedQuaternion:
    """One-shot evaluation of the completion operator; see :class:`Psi`."""
    return Psi(f0, domain, tol=tol)(x)


# ---------------------------------------------------------------------------
# the n = 0 monogenics T0
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _t0_gradient_tables(m: int, mu: Sign):
    idx = HarmonicIndex(0, m, 1, mu)
    return tuple(d1_terms(idx)), tuple(d2_terms(idx))


#: Gauss-Legendre nodes on the x0 segment of the T0 line integrals; the
#: integrands are analytic, and against mpmath at interior points the rule
#: is exact to a few 1e-16 relative to the largest component
_T0_NODES = 96


def eval_T0(m: int, mu: Sign, p: ToroidalPoint) -> ReducedQuaternion:
    """Pointwise value of the n = 0 toroidal monogenic; see
    :func:`eval_T0_batch`."""
    x = to_cartesian(p)
    return ReducedQuaternion(*eval_T0_batch(m, mu, [x.x0], [x.x1], [x.x2])[:, 0].tolist())


def eval_T0_batch(m: int, mu: Sign, x0, x1, x2) -> np.ndarray:
    """The n = 0 toroidal monogenic, the completion of ``I_{0,m}^{+,mu}``,
    over 1-D Cartesian arrays; returns shape (3, npts).

    The slice trace of the x0-derivative of ``I_{0,m}`` contains only
    sin(theta) factors, which vanish at x0 = 0, so the Teodorescu term of
    the completion drops out and only the two x0-line integrals remain
    (fixed 96-node Gauss-Legendre).  The completion's e1/e2
    parts are zero on the slice plane, so its cohomology coefficient
    vanishes and no ``W_{-1}^-`` multiple is subtracted.
    """
    mu = parse_sign(mu)
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    f0 = eval_I_batch(HarmonicIndex(0, m, 1, mu), *toroidal_arrays(x0, x1, x2))

    u, wt = _legendre.leggauss(_T0_NODES)
    t = 0.5 * x0[:, None] * (u + 1.0)[None, :]
    wts = 0.5 * x0[:, None] * wt[None, :]
    eta_l, th_l, ph_l = toroidal_arrays(t, x1[:, None], x2[:, None])
    q = q_half_grid(1, m + 1, np.cosh(eta_l).ravel())
    lines = [-np.sum(eval_terms(table, eta_l, th_l, ph_l, q=q) * wts, axis=1)
             for table in _t0_gradient_tables(m, mu)]
    return np.stack([f0] + lines)


# ---------------------------------------------------------------------------
# cohomology coefficient
# ---------------------------------------------------------------------------

def cohomology(f, n_nodes: int = 256, radius: float = 1.0) -> float:
    """Cohomology coefficient of a reduced-quaternion field.

    Integrates the associated 1-form ``f0 dx0 - f1 dx1 - f2 dx2`` along
    the circle of the given radius in the plane x0 = 0 (periodic
    trapezoid rule, spectrally accurate), normalized by 2 pi and by the
    orientation constant :data:`COH_ORIENTATION` so that the generator
    ``W_{-1}^-`` has coefficient +1.  The value is radius-independent
    for fields defined on the full slice annulus (the form is closed).
    """
    if n_nodes < 4:
        raise ValueError("n_nodes too small for a meaningful rule")
    t = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    total = 0.0
    for tk in t:
        v = f(CartesianPoint(0.0, radius * math.cos(tk), radius * math.sin(tk)))
        v = as_quaternion(v)
        # pull-back of the form: -f1 dx1 - f2 dx2 along the circle
        total += radius * (v.a1 * math.sin(tk) - v.a2 * math.cos(tk))
    literal = total / n_nodes
    return COH_ORIENTATION * literal


# ---------------------------------------------------------------------------
# full-quaternion decomposition
# ---------------------------------------------------------------------------

def decompose_H(
    F: Callable[[CartesianPoint], Quaternion],
    domain: TorusDomain,
    tol: float = 1e-8,
) -> Tuple[SampledAField, SampledAField]:
    """Split a monogenic quaternion field as ``F = f + g e3`` with both
    parts reduced-quaternion valued and monogenic.

    ``g`` is the completion of the e3 component; ``f`` collects the
    remainder, which has no e3 part because the completion preserves
    its scalar argument.
    """
    def f3(x0, x1, x2):
        x0, x1, x2 = np.broadcast_arrays(
            np.asarray(x0, float), np.asarray(x1, float), np.asarray(x2, float)
        )
        flat = [F(CartesianPoint(a, b, c)).a3 for a, b, c in
                zip(x0.ravel(), x1.ravel(), x2.ravel())]
        return np.array(flat).reshape(x0.shape)

    g_op = Psi(f3, domain, tol=tol)

    def g_eval(x: CartesianPoint) -> ReducedQuaternion:
        return g_op(x)

    def f_eval(x: CartesianPoint) -> ReducedQuaternion:
        Fv = F(x)
        g = g_op(x)
        # F - g e3: (g0 + g1 e1 + g2 e2) e3 = g0 e3 + g2 e1 - g1 e2
        return ReducedQuaternion(Fv.a0, Fv.a1 - g.a2, Fv.a2 + g.a1)

    return (
        SampledAField(f_eval, domain),
        SampledAField(g_eval, domain),
    )


__all__ = [
    "COH_ORIENTATION",
    "Quaternion",
    "ReducedQuaternion",
    "SampledAField",
    "E1",
    "E2",
    "E3",
    "as_quaternion",
    "fueter_bar",
    "fueter",
    "eval_W",
    "eval_W_batch",
    "t_term_tables",
    "t_is_zero",
    "eval_T",
    "eval_T_batch",
    "teodorescu",
    "Psi",
    "psi",
    "eval_T0",
    "eval_T0_batch",
    "cohomology",
    "decompose_H",
]
