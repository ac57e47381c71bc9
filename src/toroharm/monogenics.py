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

Fields.  Every field argument, and every field made here (``Psi``
instances, the parts returned by ``decompose_H``), is a callable
``f(x0, x1, x2)`` on float arrays of Cartesian coordinates that
broadcast together.  It returns their broadcast shape (scalar) or
``(3|4,)`` plus that shape (reduced or full quaternion components); see
:func:`field_values`.  Quaternion
arithmetic on such values goes through :func:`qmul` on ``(4, ...)``
arrays.
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
# quaternion algebra and fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quaternion:
    """The value a0 + a1 e1 + a2 e2 + a3 e3 of a field at one point.

    Arithmetic on quaternions goes through :func:`qmul` on component
    arrays; this class only carries a point value.
    """

    a0: float
    a1: float
    a2: float
    a3: float

    def norm(self) -> float:
        return math.sqrt(self.a0**2 + self.a1**2 + self.a2**2 + self.a3**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.a2, self.a3])


@dataclass(frozen=True)
class ReducedQuaternion:
    """The value a0 + a1 e1 + a2 e2 of a reduced-quaternion field at one point."""

    a0: float
    a1: float
    a2: float

    def to_quaternion(self) -> Quaternion:
        return Quaternion(self.a0, self.a1, self.a2, 0.0)

    def norm(self) -> float:
        return math.sqrt(self.a0**2 + self.a1**2 + self.a2**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.a2])


#: the imaginary units as (read-only) component arrays of shape (4,)
_UNITS = np.eye(4)
_UNITS.flags.writeable = False
E1, E2, E3 = _UNITS[1:]


def qmul(a, b) -> np.ndarray:
    """Quaternion product ``a b`` of component arrays of shape ``(4, ...)``;
    the trailing shapes broadcast."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ])


def field_values(f, x0, x1, x2) -> np.ndarray:
    """Values of the field ``f`` as quaternion components, shape ``(4,)``
    plus the broadcast shape of the coordinates.

    A field is a callable ``f(x0, x1, x2)`` on float arrays of Cartesian
    coordinates that broadcast together (the operators here pass equal
    shapes, except that the slice trace of :class:`Psi` passes its x0 as a
    scalar).  It returns the broadcast shape (a scalar field) or ``(3,)``
    / ``(4,)`` plus that shape (reduced or full quaternion components);
    the missing components are zero.
    """
    shape = np.broadcast_shapes(np.shape(x0), np.shape(x1), np.shape(x2))
    v = np.asarray(f(x0, x1, x2), dtype=float)
    if v.ndim == len(shape):
        v = v[None]
    out = np.zeros((4,) + shape)
    out[:len(v)] = v
    return out


# ---------------------------------------------------------------------------
# finite-difference Fueter operators (verification path)
# ---------------------------------------------------------------------------

def _fd_partials(f, x: CartesianPoint, h: float) -> np.ndarray:
    """Central differences of the field ``f`` along x0, x1 and x2 at
    ``x``, from one call on the six-point stencil; shape (3, 4)."""
    if not h > 0:
        raise ValueError("step h must be positive")
    stencil = np.array([x.x0, x.x1, x.x2]) + h * np.kron(np.eye(3), [[1.0], [-1.0]])
    v = field_values(f, *stencil.T)
    return ((v[:, 0::2] - v[:, 1::2]) / (2.0 * h)).T


def fueter_bar(f, x: CartesianPoint, h: float = 1e-5) -> Quaternion:
    """Central-difference dbar f = d0 f + e1 d1 f + e2 d2 f (left action)
    of a field at a point.  Vanishes (to O(h^2)) exactly on monogenic
    fields."""
    d0, d1, d2 = _fd_partials(f, x, h)
    return Quaternion(*(d0 + qmul(E1, d1) + qmul(E2, d2)).tolist())


def fueter(f, x: CartesianPoint, h: float = 1e-5) -> Quaternion:
    """Central-difference conjugate operator d = d0 - e1 d1 - e2 d2."""
    d0, d1, d2 = _fd_partials(f, x, h)
    return Quaternion(*(d0 - qmul(E1, d1) - qmul(E2, d2)).tolist())


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


#: Gauss-Legendre nodes of the x0 line rule shared by :class:`Psi` and
#: :func:`eval_T0_batch`; the integrands are analytic, and against mpmath
#: at interior points the T0 line integrals are exact to a few 1e-16
#: relative to the largest component
_T0_NODES = 96
_LINE_NODES, _LINE_WEIGHTS = _legendre.leggauss(_T0_NODES)

#: central-difference step for the partials of a completion's source
_FD_STEP = 1e-5


def _x0_line_rule(x0: np.ndarray):
    """Nodes and weights of the shared rule on the segments from 0 to
    ``x0``; both of shape ``x0.shape + (_T0_NODES,)``."""
    half = 0.5 * x0[..., None]
    return half * (_LINE_NODES + 1.0), half * _LINE_WEIGHTS


class Psi:
    """Monogenic completion of a scalar harmonic field on a solid torus.

    Given harmonic ``f0`` on the domain, produces the reduced-quaternion
    field ``f0 + f1 e1 + f2 e2`` with

        f1 = -int_0^{x0} d1 f0 dt + w1 / 2,
        f2 = -int_0^{x0} d2 f0 dt - w2 / 2,

    where ``w = w1 + i w2`` is the Teodorescu transform of the trace of
    ``d0 f0`` on the slice plane x0 = 0.  The result is monogenic and
    shares f0 as its scalar part.  A ``Psi`` is itself a field:
    ``Psi(f0, domain)(x0, x1, x2)`` returns ``(3,)`` plus the broadcast
    shape of the coordinates.

    Parameters
    ----------
    f0 : callable
        Scalar field ``f0(x0, x1, x2)``.
    domain : TorusDomain
        Sets the slice annulus for the Teodorescu transform; evaluation
        points must lie inside it.
    tol : float
        Tolerance of the Teodorescu quadrature.  The line integrals use
        the fixed ``_T0_NODES``-point Gauss-Legendre rule of
        :func:`eval_T0_batch`.

    Notes
    -----
    The partials of ``f0`` are central differences with step
    ``_FD_STEP``.  Teodorescu values are cached per (x1, x2); the cache
    only grows and entries are never mutated, so concurrent reads are
    safe.
    """

    def __init__(self, f0, domain: TorusDomain, tol: float = 1e-8):
        self.f0 = f0
        self.domain = domain
        self.tol = tol
        self.r_in, self.r_out = domain.slice_radii()
        self._w_cache: Dict[Tuple[float, float], complex] = {}

    def _slice_source(self, z: np.ndarray) -> np.ndarray:
        """Trace of ``d0 f0`` on the slice plane, at complex points ``z``.

        x0 = +-h goes in as a scalar: the quadrature samples millions of
        points, and a full x0 array would make a source such as ``x0**3``
        cost twice as much.
        """
        h = _FD_STEP
        return (self.f0(h, z.real, z.imag) - self.f0(-h, z.real, z.imag)) / (2.0 * h)

    def _w(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        slice_pts, inverse = np.unique(np.stack([x1.ravel(), x2.ravel()], axis=1),
                                       axis=0, return_inverse=True)
        keys = [tuple(k) for k in slice_pts.tolist()]
        # one adaptive quadrature per slice point not seen before
        for key in keys:
            if key not in self._w_cache:
                self._w_cache[key] = teodorescu(
                    self._slice_source, complex(*key), self.r_in, self.r_out, self.tol)
        w = np.array([self._w_cache[key] for key in keys], dtype=complex)
        return w[inverse.reshape(-1)].reshape(x1.shape)

    def _line_integrals(self, x0, x1, x2) -> Tuple[np.ndarray, np.ndarray]:
        t, wt = _x0_line_rule(x0)
        t, s1, s2 = np.broadcast_arrays(t, x1[..., None], x2[..., None])
        h = _FD_STEP
        v = self.f0(np.stack([t, t, t, t]),
                    np.stack([s1 + h, s1 - h, s1, s1]),
                    np.stack([s2, s2, s2 + h, s2 - h]))
        g1 = (v[0] - v[1]) / (2.0 * h)
        g2 = (v[2] - v[3]) / (2.0 * h)
        return np.sum(g1 * wt, axis=-1), np.sum(g2 * wt, axis=-1)

    def __call__(self, x0, x1, x2) -> np.ndarray:
        """The completion at coordinate arrays.  The scalar slot is ``f0``
        called on the arguments as given, so it equals ``f0`` there bit
        for bit."""
        c0, c1, c2 = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (x0, x1, x2)))
        # the cross-section of the torus is a disc centred on the slice
        # plane, so the segment from (0, x1, x2) to x stays inside with x
        with np.errstate(divide="ignore"):
            eta = toroidal_arrays(c0, c1, c2)[0]
        if not np.all(eta > self.domain.eta0):
            raise ValueError("the completion is evaluated outside its domain")
        L1, L2 = self._line_integrals(c0, c1, c2)
        w = self._w(c1, c2)
        f0 = np.broadcast_to(self.f0(x0, x1, x2), c0.shape)
        return np.stack([f0, -L1 + w.real / 2.0, -L2 - w.imag / 2.0])


def psi(f0, domain: TorusDomain, x: CartesianPoint, tol: float = 1e-8) -> ReducedQuaternion:
    """One-shot evaluation of the completion operator; see :class:`Psi`."""
    return ReducedQuaternion(*Psi(f0, domain, tol=tol)(x.x0, x.x1, x.x2).tolist())


# ---------------------------------------------------------------------------
# the n = 0 monogenics T0
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _t0_gradient_tables(m: int, mu: Sign):
    idx = HarmonicIndex(0, m, 1, mu)
    return tuple(d1_terms(idx)), tuple(d2_terms(idx))


def eval_T0(m: int, mu: Sign, p: ToroidalPoint) -> ReducedQuaternion:
    """Pointwise value of the n = 0 toroidal monogenic; see
    :func:`eval_T0_batch`."""
    x = to_cartesian(p)
    return ReducedQuaternion(*eval_T0_batch(m, mu, [x.x0], [x.x1], [x.x2])[:, 0].tolist())


def eval_T0_batch(m: int, mu: Sign, x0, x1, x2) -> np.ndarray:
    """The n = 0 toroidal monogenic, the completion of ``I_{0,m}^{+,mu}``,
    over equal-shape Cartesian arrays; returns shape (3,) + x0.shape.

    The slice trace of the x0-derivative of ``I_{0,m}`` contains only
    sin(theta) factors, which vanish at x0 = 0, so the Teodorescu term of
    the completion drops out and only the two x0-line integrals remain,
    on the exact derivative tables with the shared line rule.  The
    completion's e1/e2 parts are zero on the slice plane, so its
    cohomology coefficient vanishes and no ``W_{-1}^-`` multiple is
    subtracted.
    """
    mu = parse_sign(mu)
    x0, x1, x2 = (np.asarray(c, dtype=float) for c in (x0, x1, x2))
    f0 = eval_I_batch(HarmonicIndex(0, m, 1, mu), *toroidal_arrays(x0, x1, x2))
    t, wts = _x0_line_rule(x0)
    eta_l, th_l, ph_l = toroidal_arrays(t, x1[..., None], x2[..., None])
    q = q_half_grid(1, m + 1, np.cosh(eta_l).ravel())
    lines = [-np.sum(eval_terms(table, eta_l, th_l, ph_l, q=q) * wts, axis=-1)
             for table in _t0_gradient_tables(m, mu)]
    return np.stack([f0] + lines)


# ---------------------------------------------------------------------------
# cohomology coefficient
# ---------------------------------------------------------------------------

def cohomology(f, n_nodes: int = 256, radius: float = 1.0) -> float:
    """Cohomology coefficient of a reduced-quaternion field.

    Integrates the associated 1-form ``f0 dx0 - f1 dx1 - f2 dx2`` of the
    field ``f`` along the circle of the given radius in the plane x0 = 0
    (periodic trapezoid rule, spectrally accurate), normalized by 2 pi
    and by the orientation constant :data:`COH_ORIENTATION` so that the
    generator ``W_{-1}^-`` has coefficient +1.  The value is
    radius-independent for fields defined on the full slice annulus (the
    form is closed).
    """
    if n_nodes < 4:
        raise ValueError("n_nodes too small for a meaningful rule")
    t = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    cos, sin = np.cos(t), np.sin(t)
    v = field_values(f, np.zeros(n_nodes), radius * cos, radius * sin)
    # pull-back of the form: -f1 dx1 - f2 dx2 along the circle
    literal = radius * np.mean(v[1] * sin - v[2] * cos)
    return COH_ORIENTATION * float(literal)


# ---------------------------------------------------------------------------
# full-quaternion decomposition
# ---------------------------------------------------------------------------

def decompose_H(F, domain: TorusDomain, tol: float = 1e-8):
    """Split a monogenic quaternion field as ``F = f + g e3`` with both
    parts reduced-quaternion valued and monogenic.

    ``F`` is a field; so are the two parts returned, ``(f, g)``.  ``g``
    is the completion of the e3 component; ``f`` collects the remainder,
    which has no e3 part because the completion preserves its scalar
    argument.
    """
    g = Psi(lambda x0, x1, x2: field_values(F, x0, x1, x2)[3], domain, tol=tol)

    def f(x0, x1, x2):
        return (field_values(F, x0, x1, x2) - qmul(field_values(g, x0, x1, x2), E3))[:3]

    return f, g


__all__ = [
    "COH_ORIENTATION",
    "Quaternion",
    "ReducedQuaternion",
    "E1",
    "E2",
    "E3",
    "qmul",
    "field_values",
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
