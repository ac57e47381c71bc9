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

Point values.  Every evaluator here takes coordinate arrays; a point value
is a length-1 (or 0-d) array call.  The two point functions, :func:`psi`
and :func:`fueter_bar`, return a :class:`Quaternion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from .appell import star_terms
from .geometry import CartesianPoint, TorusDomain, toroidal_arrays
from .harmonics import (
    DerivativeTerm,
    HarmonicIndex,
    Sign,
    TermMatrix,
    TermTable,
    _combine,
    _planar_pair,
    _term_matrix,
    d0_terms,
    d1_terms,
    d2_terms,
    eval_I_batch,
    parse_sign,
)
from .quadrature import _gauss_legendre, _refine

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

    The package's one point-value type: :func:`psi`, :func:`fueter_bar` and
    :func:`~toroharm.expansion.evaluate_element` return it, a reduced value
    with ``a3 = 0``.  Arithmetic on quaternions goes through :func:`qmul`
    on component arrays; this class only carries a point value.
    """

    a0: float
    a1: float
    a2: float
    a3: float

    def norm(self) -> float:
        return math.sqrt(self.a0**2 + self.a1**2 + self.a2**2 + self.a3**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.a2, self.a3])


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

def _stencil(x0, x1, x2, h: float, steps) -> np.ndarray:
    """The points ``x + k h e_i`` for the axes i and the steps k, from
    coordinate arrays that broadcast together: shape ``(3, 3,
    len(steps))`` (coordinate, axis, step) plus the broadcast shape."""
    x = np.stack(np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (x0, x1, x2))))
    shift = np.multiply.outer(np.eye(3), np.multiply(steps, h))
    return x[:, None, None] + shift.reshape(shift.shape + (1,) * (x.ndim - 1))


def _fd_partials(f, x0, x1, x2, h: float, order: int = 2) -> np.ndarray:
    """Central differences of the field ``f`` along x0, x1 and x2 on
    coordinate arrays, from one call on the :func:`_stencil` ``x +- h
    e_i`` (order 2) or ``x +- h e_i, x +- 2h e_i`` (order 4); shape
    ``(3, 4)`` (axis, component) plus the broadcast shape."""
    if not h > 0:
        raise ValueError("step h must be positive")
    steps = {2: (1, -1), 4: (1, -1, 2, -2)}[order]
    v = np.moveaxis(field_values(f, *_stencil(x0, x1, x2, h, steps)), 0, 2)
    d = (v[:, 0] - v[:, 1]) / (2.0 * h)
    if order == 4:  # Richardson: (4 D_h - D_2h) / 3 for the central differences D
        d = (4.0 * d - (v[:, 2] - v[:, 3]) / (4.0 * h)) / 3.0
    return d


def _dbar(partials, sign: int = 1) -> np.ndarray:
    """``d0 f + sign (e1 d1 f + e2 d2 f)`` (left action) from the partials
    ``(d0 f, d1 f, d2 f)`` of a field, each of shape ``(4, ...)``: the
    operator dbar for ``sign = 1`` and its conjugate d for ``sign = -1``."""
    d0, d1, d2 = partials
    return d0 + sign * qmul(E1, d1) + sign * qmul(E2, d2)


def fueter_bar(f, x: CartesianPoint, h: float = 1e-5) -> Quaternion:
    """Central-difference dbar f = d0 f + e1 d1 f + e2 d2 f (left action)
    of a field at a point.  Vanishes (to O(h^2)) exactly on monogenic
    fields."""
    return Quaternion(*_dbar(_fd_partials(f, x.x0, x.x1, x.x2, h)).tolist())


# ---------------------------------------------------------------------------
# monogenic constants W
# ---------------------------------------------------------------------------

def eval_W_batch(m: int, sign: Sign, x1, x2) -> np.ndarray:
    """The monogenic constant ``W_m^+ = J_m^+ e1 - J_m^- e2`` or
    ``W_m^- = J_m^- e1 + J_m^+ e2`` on coordinate arrays; returns shape
    (3,) + x1.shape, with zero scalar part.

    Raises :class:`DegenerateLocusError` for m < 0 on the x0-axis.
    """
    jp, jm = _planar_pair(m, x1, x2)
    zero = np.zeros(np.shape(jp))
    if parse_sign(sign) > 0:
        return np.array([zero, jp, -jm])
    return np.array([zero, jm, jp])


# ---------------------------------------------------------------------------
# exact toroidal monogenics T (n >= 1)
# ---------------------------------------------------------------------------

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
    src = star_terms(HarmonicIndex(n - 1, m, -nu, mu))
    # d = d0 - e1 d1 - e2 d2 on a scalar
    return tuple(tuple(_combine((s * c, dd(base)) for base, c in src))
                 for s, dd in ((1, d0_terms), (-1, d1_terms), (-1, d2_terms)))


def t_is_zero(n: int, m: int, nu: Sign, mu: Sign) -> bool:
    """True when ``T_{n,m}^{nu,mu}`` is the identically zero function."""
    return n == 1 and parse_sign(nu) == 1


def eval_T_batch(idx: HarmonicIndex, eta, theta, phi) -> np.ndarray:
    """The exact toroidal monogenic ``T_idx`` (n >= 1) on coordinate arrays,
    through the exact coefficient tables (no differencing), one
    :class:`~toroharm.harmonics.TermMatrix` of its three components;
    returns shape (3,) + the broadcast shape of the coordinates.
    """
    return _term_matrix(t_term_tables(idx.n, idx.m, idx.nu, idx.mu))(eta, theta, phi)


# ---------------------------------------------------------------------------
# planar Teodorescu transform and the completion operator Psi
# ---------------------------------------------------------------------------

#: levels of the Teodorescu mode transform: level k has ``16 * 2**k``
#: angular modes and ``8 * 2**k`` Gauss-Legendre radii on each side of |w|
_TEODORESCU_LEVELS = 7
#: the transform evaluates its source in slabs of points, each of at most
#: this many nodes (or one point)
_TEODORESCU_SLAB_NODES = 2**20


def _check_tol(tol: float) -> None:
    """Reject a tolerance that no level can meet (0 or below), that every
    level meets (infinite) or that no comparison reads (NaN)."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


@lru_cache(maxsize=None)
def _teodorescu_rule(level: int):
    """Level ``level`` of the Teodorescu mode transform, built once and
    read-only: ``(U, V, weights, circle)``.

    With ``t`` the ``8 * 2**level`` Gauss-Legendre nodes on [0, 1], the
    radii at a point of modulus ``rho`` are ``(r_in, r_out) * U + rho *
    V``: ``U = (1 - t, t)`` and ``V = (t, 1 - t)`` (shape ``(2, n_r)``)
    map ``t`` onto ``[r_in, rho]`` and ``[rho, r_out]``.  ``weights`` are
    the matching Gauss-Legendre weights times ``2 / n_t``, the factor 2 of
    the transform and the ``1 / n_t`` of its discrete Fourier transform.
    ``circle`` (shape ``(2, 1, n_t)``) holds the ``n_t = 16 * 2**level``
    angles of each side: conjugated inside ``|w|``, so that the modes
    ``f_{-n}`` the inner sum needs are the first ones of its transform, as
    are the modes ``f_{n+1}`` of the outer sum.
    """
    n_t, (x, wx) = 16 << level, _gauss_legendre(8 << level)
    t = 0.5 * (x + 1.0)
    circle = np.exp(2j * np.pi * np.arange(n_t) / n_t)
    rule = (np.stack([1.0 - t, t]), np.stack([t, 1.0 - t]), wx / n_t,
            np.stack([circle.conj(), circle])[:, None])
    for a in rule:
        a.flags.writeable = False
    return rule


def _teodorescu_level(f, w: np.ndarray, r_in: float, r_out: float, level: int) -> np.ndarray:
    """One level of the mode transform at the points ``w`` (1-D complex).

    ``f`` is sampled on ``n_t`` angles at Gauss-Legendre radii of ``[r_in,
    |w|]`` and of ``[|w|, r_out]`` (:func:`_teodorescu_rule`), and
    transformed in the angle to its modes ``f_k(r)``.  The kernel's
    expansions ``1/(z - w) = -sum_n z^n / w^(n+1)`` inside ``|w|`` and
    ``sum_n w^n / z^(n+1)`` outside turn the transform into one radial
    sum per mode:

        2 sum_n int_{r_in}^{|w|} f_{-n}(r) (r/w)^(n+1) dr
      - 2 sum_n int_{|w|}^{r_out} f_{n+1}(r) (w/r)^n dr,

    with n below ``n_t / 2`` (the Nyquist mode is dropped).  No power
    exceeds 1 in modulus.  The powers, each radius's weight folded into
    mode 0, are a running product over the 8 modes of level 0; each
    doubling beyond is one product with ``z^k``.  A point's value is a sum
    over its own row, so it does not depend on the other points.
    """
    U, V, wt, circle = _teodorescu_rule(level)
    half = circle.shape[-1] // 2
    rho = np.abs(w)[:, None, None]
    ends = np.array([[r_in], [r_out]])
    r = ends * U + rho * V  # (point, side, radius)
    modes = np.fft.fft(f(r[..., None] * circle), axis=-1)[..., :half]
    z = r / w[:, None, None]
    # the factor of mode 0: the radius's weight (negated outside |w|) times
    # r/w, which is the power 1 of r/w inside |w| and the power -1 of w/r
    # outside, where the power 0 goes with mode 1
    first = (rho - ends) * wt * z
    z[:, 1] = 1.0 / z[:, 1]
    z = z[..., None]
    powers = np.empty(modes.shape, dtype=complex)
    k = 8  # the modes of level 0: a running product
    head = powers[..., :k]
    head[...] = z
    head[..., 0] = first
    np.multiply.accumulate(head, axis=-1, out=head)
    while k < half:  # each doubling: the first k times z^k
        np.multiply(powers[..., :k], z**k, out=powers[..., k:2 * k])
        k *= 2
    powers[:, 1, :, 0] = 0.0  # the outer sum starts at mode 1
    return np.multiply(modes, powers, out=powers).reshape(len(w), U.size * half).sum(-1)


def teodorescu(
    f: Callable[[np.ndarray], np.ndarray],
    w,
    r_in: float,
    r_out: float,
    tol: float = 1e-8,
):
    """Planar Teodorescu transform ``-(1/pi) int_D f(z)/(z - w) dA`` over
    the annulus ``r_in < |z| < r_out``, at interior points ``w``.

    ``f`` must be vectorized (complex array in, complex array out) and
    smooth on the closed annulus.  ``w`` is a complex scalar (the result
    is a complex scalar) or array (the result has its shape).  Satisfies
    ``d/d(wbar)`` of the result = f(w); for ``f = 1`` the closed form is
    ``conj(w) - r_in^2 / w``.

    Each point runs the levels of :func:`_teodorescu_level` (16, 32, 64,
    ... angular modes, half as many radii on either side of |w|) until a
    level is within ``tol`` of the one before (absolute, on the transform;
    positive and finite), so an array of points gives the values of one
    call per point.  Levels 0 and 1 run at every point, later ones at the
    points still open (:func:`~toroharm.quadrature._refine`).  The error of
    a level is the part of ``f`` beyond its angular modes plus the
    Gauss-Legendre error of its radial sums; for a source analytic near the
    closed annulus both fall geometrically.  The package's sources stop at
    level 1 (32 modes, 16 radii a side, 1280 evaluations per point in all):
    ``f = 1`` is within 5e-16 relative of its closed form, and ``exp(z/2 +
    conj(z)/3)`` (modes of both signs) at tol 1e-10 within 6e-16 relative
    of the Cauchy-Pompeiu formula on the boundary circles.  A source whose
    modes do not settle within ``_TEODORESCU_LEVELS`` levels, or a NaN or
    infinite change, raises :class:`QuadratureError` carrying the last
    values (an array for an array ``w``).
    """
    _check_tol(tol)
    w = np.asarray(w, dtype=complex)
    flat = w.ravel()
    radius = np.abs(flat)
    if not ((radius > r_in) & (radius < r_out)).all():
        raise ValueError(f"the points w must lie inside the annulus ({r_in:.6g}, {r_out:.6g})")

    def step(level, i, prev):
        prev = _teodorescu_level(f, flat[i], r_in, r_out, 0) if prev is None else prev
        value = _teodorescu_level(f, flat[i], r_in, r_out, level)
        return value, np.abs(value - prev)

    return _refine(step, flat.size, lambda k: 2 * (16 << k) * (8 << k), _TEODORESCU_LEVELS,
                   _TEODORESCU_SLAB_NODES, tol, "teodorescu",
                   lambda v: v.reshape(w.shape)[()])[0]


#: the x0 line rule of :class:`Psi` and :func:`eval_T0_batch`: rule k is
#: Gauss-Legendre with ``8 * 2**k`` nodes, evaluated in slabs of at most
#: ``_LINE_SLAB_VALUES`` integrand values (or one point)
_LINE_RULES = 8
_LINE_SLAB_VALUES = 2**19
#: round-off allowance of its convergence test (see :func:`_x0_lines`)
_LINE_ROUNDOFF = 1e-13

#: central-difference step for the partials of a completion's source
_FD_STEP = 1e-5


@lru_cache(maxsize=None)
def _line_rule(*rules: int):
    """The nodes on [0, 2] and the weights of the x0 line rules ``rules``,
    concatenated."""
    nodes, weights = (np.concatenate(a) for a in zip(*(_gauss_legendre(8 << k) for k in rules)))
    return nodes + 1.0, weights


def _x0_lines(g, x0: np.ndarray, tol: float, width: int) -> np.ndarray:
    """Integrals from 0 to ``x0`` of the ``width`` integrands ``g``, point
    by point.

    ``g(t, i)`` returns a new array of shape ``(2, width, len(i), n)``:
    the values of the integrands at the nodes ``t`` (shape ``(len(i), n)``)
    of the lines through the flat points ``i``, and the magnitudes their
    rounding scales with.  Rules 0 and 1 run in one call of ``g`` at every
    point, later ones at the points with an integrand still open
    (:func:`~toroharm.quadrature._refine`).  An integrand settles at the
    first rule within ``tol`` of the one before, plus ``_LINE_ROUNDOFF``
    times the integral of its magnitudes, and keeps that rule's value,
    which depends on that integrand and point alone.  Returns ``(width,) +
    x0.shape``; :class:`QuadratureError` past 1024 nodes or on a
    non-finite change.
    """
    half = 0.5 * x0.ravel()

    def step(k, i, prev):
        t, w = _line_rule(k) if prev is not None else _line_rule(0, 1)
        vw = g(half[i, None] * t, i)
        vw *= w
        if prev is None:  # rule 0 leads the shared call
            prev = np.add.reduce(vw[0, ..., :8], axis=-1)
            vw = vw[..., 8:]
        value, scale = np.add.reduce(vw, axis=-1)
        return value, np.abs(half[i]) * (np.abs(value - prev) - _LINE_ROUNDOFF * scale)

    return _refine(step, half.size, lambda k: 8 << k, _LINE_RULES, _LINE_SLAB_VALUES // width,
                   tol, "x0 line rule", lambda v: (v * half).reshape((width,) + x0.shape))[0]


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
        Absolute tolerance of the Teodorescu transform (see
        :func:`teodorescu`: the package's sources stop at 32 angular modes)
        and of the x0 line rule (:func:`_x0_lines`, with round-off
        allowance 1e-13 of the integral of ``|d f0|``): Gauss-Legendre
        rules of 8, 16, 32, ... nodes, the first two in one call of ``f0``;
        polynomial sources and the degree-0 harmonics stop at 16.  Either
        raises :class:`QuadratureError` on a NaN or infinite change.

    Notes
    -----
    The partials of ``f0`` are central differences with step
    ``_FD_STEP``, so the e1/e2 parts carry their O(h^2) error and the
    round-off of the difference quotient: for the degree-0 harmonics, 3e-10
    relative to the exact tables of :func:`eval_T0_batch`.
    Each call transforms the distinct slice points of its coordinates
    once; a ``Psi`` holds no state between calls.
    """

    def __init__(self, f0, domain: TorusDomain, tol: float = 1e-8):
        _check_tol(tol)
        self.f0 = f0
        self.domain = domain
        self.tol = tol
        self.r_in, self.r_out = domain.slice_radii()

    def _slice_source(self, z: np.ndarray) -> np.ndarray:
        """Trace of ``d0 f0`` on the slice plane, at complex points ``z``.

        x0 = +-h goes in as a scalar: the transform samples about a
        thousand points per slice point, and a full x0 array would make a
        source such as ``x0**3`` cost twice as much.
        """
        h = _FD_STEP
        return (self.f0(h, z.real, z.imag) - self.f0(-h, z.real, z.imag)) / (2.0 * h)

    def _w(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """The Teodorescu transform at the slice points ``(x1, x2)`` (1-D):
        one call over the distinct ones, in order of first appearance."""
        distinct = {}
        inverse = [distinct.setdefault(z, len(distinct)) for z in (x1 + 1j * x2).tolist()]
        w = teodorescu(self._slice_source, list(distinct), self.r_in, self.r_out, self.tol)
        return w.take(inverse)

    def _line_integrals(self, x: np.ndarray) -> np.ndarray:
        """The x0-line integrals of ``d1 f0`` and ``d2 f0`` at the points
        ``x`` (shape ``(3,) + s``): shape ``(2,) + s``."""
        h = _FD_STEP
        # x1 +- h, then x1 twice; x2 twice, then x2 +- h: shape (4, N) each
        shifts = np.array([[h, -h, 0.0, 0.0], [0.0, 0.0, h, -h]])
        x1, x2 = x[1:].reshape(2, 1, -1) + shifts[..., None]

        def g(t, i):  # f0 at the four shifted lines, differenced
            v = np.empty((4,) + t.shape)
            v[...] = self.f0(t, x1[:, i, None], x2[:, i, None])
            d = (v[::2] - v[1::2]) / (2.0 * h)
            return np.array([d, np.abs(d)])

        return _x0_lines(g, x[0], self.tol, 2)

    def __call__(self, x0, x1, x2) -> np.ndarray:
        """The completion at coordinate arrays.  The scalar slot is ``f0``
        called on the arguments as given, so it equals ``f0`` there bit
        for bit."""
        out = np.empty((3,) + np.broadcast(x0, x1, x2).shape)
        x = np.empty(out.shape)
        x[0], x[1], x[2] = x0, x1, x2
        # the cross-section of the torus is a disc centred on the slice
        # plane, so the segment from (0, x1, x2) to x stays inside with x
        if not self.domain.contains(*x).all():
            raise ValueError("the completion is evaluated outside its domain")
        out[0] = self.f0(x0, x1, x2)
        L1, L2 = self._line_integrals(x)
        w = self._w(x[1].ravel(), x[2].ravel()).reshape(L1.shape)
        out[1] = -L1 + w.real / 2.0
        out[2] = -L2 - w.imag / 2.0
        return out


def psi(f0, domain: TorusDomain, x: CartesianPoint, tol: float = 1e-8) -> Quaternion:
    """One-shot evaluation of the completion operator at a point; see
    :class:`Psi`.  The e3 part is zero and ``a0`` is ``f0`` at ``x``, bit for
    bit."""
    return Quaternion(*Psi(f0, domain, tol=tol)(x.x0, x.x1, x.x2).tolist(), 0.0)


# ---------------------------------------------------------------------------
# the n = 0 monogenics T0
# ---------------------------------------------------------------------------

def eval_T0_batch(m: int, mu: Sign, x0, x1, x2) -> np.ndarray:
    """The n = 0 toroidal monogenic, the completion of ``I_{0,m}^{+,mu}``,
    on Cartesian arrays that broadcast together; returns shape (3,) plus
    their broadcast shape.

    The slice trace of ``d0 I_{0,m}`` vanishes at x0 = 0, so the
    Teodorescu term (and the cohomology coefficient) drops out; the e1/e2
    parts are x0-line integrals of the exact ``d1``/``d2`` tables of
    ``I_{0,m}`` (:func:`_t0_lines`).  The rule is :func:`_x0_lines` at
    ``tol = 0``, to round-off: 16 nodes at interior points, up to 512 near
    the axis (eta down to 1e-6), :class:`QuadratureError` past 1024 or on
    NaN integrands (next to the limit circle, x0 = 5e-324 near eta 745).
    Against mpmath the components are within 1e-15 of the largest, inside
    and at eta 1e-3 and 20.
    """
    x0, x1, x2 = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (x0, x1, x2)))
    rho, phi = np.hypot(x1, x2), np.arctan2(x2, x1)
    eta, theta, _ = toroidal_arrays(x0, rho, 0.0)
    mu = parse_sign(mu)
    scalar = eval_I_batch(HarmonicIndex(0, m, 1, mu), eta, theta, phi)
    return np.concatenate([scalar[None], _t0_lines(((m, mu),), x0, rho, phi)[0]])


@lru_cache(maxsize=64)
def _t0_integrands(pairs: Tuple[Tuple[int, Sign], ...]):
    """The x0-line slots of the pairs ``(m, mu)``: the ``d1`` and ``d2``
    tables of ``I_{0,m}^{+,mu}``, two rows per pair; their distinct
    integrands up to sign over the distinct meridian factors (which do not
    depend on a harmonic's ``mu``, so ``T0[m]^-`` integrates those of
    ``T0[m]^+``), each with its first nonzero coefficient positive; and
    the signed ``(slots, integrands)`` fold that gives each slot from them
    (a zero row for an empty slot)."""
    tables = TermMatrix([tuple(table(HarmonicIndex(0, m, 1, mu)))
                         for m, mu in pairs for table in (d1_terms, d2_terms)])
    keys = [(int(n), int(m), tables.theta_keys[t][1])
            for n, m, t in zip(tables.n, tables.m, tables.theta_of)]
    harmonics = sorted(set(keys))
    onto = np.zeros((len(keys), len(harmonics)))
    onto[np.arange(len(keys)), [harmonics.index(k) for k in keys]] = 1.0
    rows = tables.matrix @ onto
    flip = np.sign(rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)])
    distinct = {}
    column = [distinct.setdefault(tuple(row), len(distinct))
              for row in rows * flip[:, None] if row.any()]
    fold = np.zeros((len(rows), len(distinct)))
    fold[np.flatnonzero(flip), column] = flip[flip != 0]
    lines = TermMatrix([tuple(DerivativeTerm(HarmonicIndex(n, m, nu, 1), Fraction(c))
                              for (n, m, nu), c in zip(harmonics, row) if c != 0)
                        for row in distinct])
    return tables, lines, fold


def _t0_lines(pairs, x0, rho, phi) -> np.ndarray:
    """The e1/e2 parts of ``T0[m]^mu`` for the pairs ``(m, mu)`` at meridian
    coordinates ``x0``, ``rho`` and azimuth ``phi`` that broadcast against
    them: shape ``(len(pairs), 2)`` plus the broadcast shape.

    Each distinct integrand (:func:`_t0_integrands`) is integrated along
    x0 once per distinct meridian point, since a harmonic's ``trig(m phi)``
    is constant along a line: all of them in one :func:`_x0_lines` call
    with one radial table per slab.  The terms of an integrand cancel
    toward the axis, so its rounding scales with ``|C| @ |H|``, the sum of
    their absolute values.  The slots are their signed sums (the fold),
    times their phi factors.
    """
    tables, lines, fold = _t0_integrands(tuple(pairs))
    C, size = lines.matrix, np.abs(lines.matrix)
    x0, rho = np.broadcast_arrays(np.asarray(x0, dtype=float), np.asarray(rho, dtype=float))
    meridian, inverse = np.unique((x0 + 1j * rho).ravel(), return_inverse=True)
    rho_flat = meridian.imag

    def g(t, i):
        eta, theta, _ = toroidal_arrays(t, rho_flat[i, None], 0.0)
        # on the limit circle (a node x0 that rounds to 0 at rho = 1) the
        # metric is inf and Q is 0: a NaN integrand, which the rule refuses
        with np.errstate(invalid="ignore"):
            H = lines.meridian(eta, theta)
        H = H.reshape(len(H), -1)
        out = np.empty((2, len(C)) + t.shape)
        np.matmul(C, H, out=out[0].reshape(len(C), -1))
        np.matmul(size, np.abs(H), out=out[1].reshape(len(C), -1))
        return out

    values = _x0_lines(g, meridian.real, 0.0, len(C))[:, inverse.reshape(-1)]
    slots = (fold @ values).reshape((len(fold),) + x0.shape)
    e12 = -tables.phi_sum(slots, phi)
    return e12.reshape((len(pairs), 2) + e12.shape[1:])


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
    "E1",
    "E2",
    "E3",
    "qmul",
    "field_values",
    "fueter_bar",
    "eval_W_batch",
    "t_term_tables",
    "t_is_zero",
    "eval_T_batch",
    "teodorescu",
    "Psi",
    "psi",
    "eval_T0_batch",
    "cohomology",
    "decompose_H",
]
