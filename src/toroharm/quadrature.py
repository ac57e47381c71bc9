"""Numerical integration kernels.

Two integrators, the adaptive loop and the Gauss-Legendre rule they share:

* ``_refine`` -- the adaptive loop of ``integrate_torus`` and of the
  Teodorescu transform and x0 line rule of ``monogenics``.
* ``integrate_annulus`` -- integration of a smooth complex-valued
  integrand over a planar annulus (Gauss-Legendre in the radius, periodic
  trapezoid in the angle).  The Teodorescu transform has its own mode
  rule in ``monogenics``, checked against the Cauchy-Pompeiu formula in
  ``checks``.
* ``integrate_torus`` -- integration over the open solid torus
  ``{eta > eta0}`` with the toroidal volume element
  ``sinh(eta) (cosh(eta) - cos(theta))**-3 d(eta) d(theta) d(phi)``.

All routines are pure functions.  The one shared state is the cache of
Gauss-Legendre rules (:func:`_gauss_legendre`), whose arrays are
read-only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.polynomial import legendre as _legendre


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of a quadrature rule.

    Attributes
    ----------
    value : float or complex
        Estimate of the integral (in a :class:`QuadratureError` of the
        Teodorescu transform or x0 line rule, one per point and integrand).
    error_estimate : float
        Nonnegative estimate of the absolute error.
    evaluations : int
        Number of integrand evaluations performed (at least 1).
    """

    value: float | complex
    error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")
        if self.evaluations < 1:
            raise ValueError("evaluations must be at least 1")


class QuadratureError(RuntimeError):
    """Raised when an integrator fails to converge.

    Carries the best available partial result so callers can decide
    whether the estimate is still usable.
    """

    def __init__(self, message: str, partial: Optional[QuadratureResult] = None):
        super().__init__(message)
        self.partial = partial


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``n``-point Gauss-Legendre nodes and weights on [-1, 1],
    computed once per ``n``; every caller shares the (read-only) arrays."""
    nodes, weights = _legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _refine(step, size: int, nodes, rules: int, slab: int, tol: float, what: str, finish):
    """Run rules 0, 1, ... of an adaptive integrator at ``size`` points.

    ``step(k, i, prev)`` runs rule ``k`` at the flat points ``i`` (a slice
    or index array) and returns its values and their excess over ``prev``,
    rule ``k - 1``'s values, net of any round-off allowance (each of shape
    ``slots + (points,)``); its first call, at every point with ``k = 1``
    and no ``prev``, runs rule 0 too.  Later rules run at the points with
    an open slot, ``nodes(k)`` evaluations each and at most ``slab`` per
    call (or one point).  A slot settles, keeping its value, at the first
    excess of at most ``tol`` (never for NaN).  Returns ``(finish(value),
    excess, evaluations)``; a non-finite excess on an open slot, or an open
    slot after rule ``rules - 1``, raises :class:`QuadratureError`.
    """
    per_point = nodes(0) + nodes(1)
    value, excess = _slabs(step, 1, None, size, None, max(1, slab // per_point))
    evaluations, k = size * per_point, 1
    settled = excess <= tol
    while not settled.all():
        open_ = ~settled
        points = open_.reshape(-1, size).any(0)
        worst = excess[open_]
        if k >= rules - 1 or not np.isfinite(worst).all():
            err = float(worst.max())
            raise QuadratureError(
                f"{what}: {np.count_nonzero(points)} of {size} points did not settle to "
                f"tol={tol:g} within {nodes(k)} nodes (last change {err:g})",
                QuadratureResult(finish(value), err, evaluations))
        k += 1
        i = points.nonzero()[0]
        new, new_excess = _slabs(step, k, i, i.size, value[..., i], max(1, slab // nodes(k)))
        evaluations += i.size * nodes(k)
        was_open = open_[..., i]
        value[..., i] = np.where(was_open, new, value[..., i])
        excess[..., i] = np.where(was_open, new_excess, excess[..., i])
        settled[..., i] = ~was_open | (new_excess <= tol)
    return finish(value), excess, evaluations


def _slabs(step, k, i, size, prev, slab):
    """``step`` at the ``size`` points ``i`` (None: all) in slabs of ``slab``."""
    parts = [step(k, slice(s, s + slab) if i is None else i[s:s + slab],
                  None if prev is None else prev[..., s:s + slab])
             for s in range(0, max(size, 1), slab)]  # one call for no points
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(p, -1) for p in zip(*parts))


def _map_gauss(nodes, weights, a, b):
    """Affine image of Gauss-Legendre nodes/weights on [a, b]; a, b arrays ok."""
    half = 0.5 * (b - a)
    return a + half * (nodes + 1.0), half * weights


def _annulus_pass(f, r_in, r_out, n_r, n_t):
    nodes, weights = _gauss_legendre(n_r)
    r, wr = _map_gauss(nodes, weights, r_in, r_out)
    t = 2.0 * np.pi * np.arange(n_t) / n_t
    wt = 2.0 * np.pi / n_t
    z = r[:, None] * np.exp(1j * t)[None, :]
    vals = f(z.ravel()).reshape(z.shape)
    return np.sum(vals * (r * wr)[:, None]) * wt, z.size


def integrate_annulus(
    f: Callable[[np.ndarray], np.ndarray],
    r_in: float,
    r_out: float,
    tol: float = 1e-9,
) -> QuadratureResult:
    """Integrate ``f`` over the annulus ``r_in < |z| < r_out``.

    Parameters
    ----------
    f : callable
        Vectorized map from a complex array of sample points to complex
        values, smooth on the closed annulus.
    r_in, r_out : float
        Annulus radii, ``0 < r_in < r_out``.
    tol : float
        Target absolute accuracy; refinement stops once successive node
        doublings agree to this level.

    Returns
    -------
    QuadratureResult
        ``value`` is complex.
    """
    if not (0.0 < r_in < r_out):
        raise ValueError(f"need 0 < r_in < r_out, got {r_in}, {r_out}")

    evaluations, prev, change = 0, None, np.inf
    for level in range(9):
        value, n = _annulus_pass(f, r_in, r_out, 16 * 2**level, 32 * 2**level)
        evaluations += n
        if prev is not None:
            change = abs(value - prev)
            if change < tol:
                return QuadratureResult(value, change, evaluations)
        prev = value

    raise QuadratureError(
        f"integrate_annulus did not reach tol={tol:g} (last change {change:g})",
        QuadratureResult(value, change, evaluations),
    )


#: integrate_torus refuses to start a rule with more nodes than this
#: (rule 4 has 25.2M; rule 5 would need 1.6 GB per float64 array)
_TORUS_NODE_BUDGET = 2**25
#: integrate_torus evaluates each rule in slabs along eta of at most
#: this many nodes
_TORUS_SLAB_NODES = 2**20


def integrate_torus(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    eta0: float,
    tol: float = 1e-9,
) -> QuadratureResult:
    """Integrate ``f(x0, x1, x2)`` over the solid torus ``{eta > eta0}``.

    Uses the rule of ``geometry.sample_grid`` (Gauss-Legendre in ``u =
    exp(eta0 - eta)``, periodic trapezoid in both angles).  ``f`` must
    accept numpy arrays of Cartesian coordinates and be bounded on the
    domain.  Each rule doubles the nodes per axis (from 24 in ``u`` and 16
    per angle) until one is within ``tol`` of the one before (:func:`_refine`);
    a rule over ``_TORUS_NODE_BUDGET`` nodes, or a NaN change, raises
    :class:`QuadratureError` with the last estimate attached.
    """
    # imported here because geometry reads this module's Gauss-Legendre rule
    from .geometry import _torus_grid, _torus_rule

    if eta0 <= 0:
        raise ValueError("eta0 must be positive")

    def rule(k):
        n_u, n_ang = 24 << k, 16 << k
        eta, w_eta, theta, phi = _torus_rule(eta0, n_u, n_ang, n_ang)
        rows = max(1, _TORUS_SLAB_NODES // n_ang**2)
        total = 0.0
        for i in range(0, n_u, rows):
            grid = _torus_grid(eta[i:i + rows], w_eta[i:i + rows], theta, phi)
            total += np.sum(f(grid.x0, grid.x1, grid.x2) * grid.weights)
        return np.array([total])

    def step(k, i, prev):
        prev = rule(0) if prev is None else prev
        value = rule(k)
        return value, np.abs(value - prev)

    def nodes(k):
        return (24 << k) * (16 << k) ** 2

    rules = next(k for k in itertools.count() if nodes(k) > _TORUS_NODE_BUDGET)
    value, excess, evaluations = _refine(step, 1, nodes, rules, _TORUS_SLAB_NODES, tol,
                                         "integrate_torus", lambda v: float(v[0]))
    return QuadratureResult(value, float(excess[0]), evaluations)
