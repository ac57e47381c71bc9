"""Numerical integration kernels.

Three integrators, and the Gauss-Legendre rule they share:

* ``integrate_1d`` -- adaptive quadrature on an interval (wraps QUADPACK),
  used by the slow special-function oracles.
* ``integrate_annulus`` -- integration of a complex-valued integrand over a
  planar annulus, optionally with a weak (``1/|z - w|``) singularity at an
  interior point ``w``.  The singular case is handled in polar coordinates
  centered at ``w``, where the area Jacobian cancels the singular factor;
  it is the oracle of the Teodorescu transform in ``monogenics``.
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
from scipy import integrate as _integrate


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of a quadrature rule.

    Attributes
    ----------
    value : float or complex
        Estimate of the integral (an array of them for
        ``monogenics.teodorescu`` at an array of points).
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


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
) -> QuadratureResult:
    """Adaptive quadrature of a scalar function on ``(a, b)``.

    Integrable endpoint singularities are tolerated.  Raises
    :class:`QuadratureError` (with a partial estimate attached) when the
    subdivision limit is reached without meeting the tolerance.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    value, abserr, info, *tail = _integrate.quad(
        f, a, b, epsabs=tol, epsrel=tol, limit=200, full_output=1
    )
    result = QuadratureResult(value, abserr, int(info["neval"]))
    if tail:  # non-empty only when QUADPACK reports a warning message
        raise QuadratureError(f"integrate_1d did not converge: {tail[0]}", result)
    return result


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``n``-point Gauss-Legendre nodes and weights on [-1, 1],
    computed once per ``n``; every caller shares the (read-only) arrays."""
    nodes, weights = _legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


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


def _inner_tangent_angles(w: complex, r_in: float) -> list[float]:
    """Directions from w tangent to the inner circle, as angles in [0, 2pi)."""
    aw = abs(w)
    if aw <= r_in:
        return []
    base = np.angle(-w)
    spread = np.arcsin(r_in / aw)
    return sorted(((base - spread) % (2 * np.pi), (base + spread) % (2 * np.pi)))


def _radial_intervals(w: complex, direction: np.ndarray, r_in: float, r_out: float):
    """Intersections of rays ``w + s*direction`` with the annulus.

    Returns (s0a, s0b, s1a, s1b): per-direction bounds of up to two radial
    intervals; the second interval collapses (s1a == s1b) when the ray
    misses the inner disk.
    """
    b = np.real(np.conj(w) * direction)
    aw2 = abs(w) ** 2
    s_out = -b + np.sqrt(np.maximum(b * b + r_out**2 - aw2, 0.0))
    disc = b * b + r_in**2 - aw2
    hits = (disc > 0.0) & (b < 0.0)
    root = np.sqrt(np.maximum(disc, 0.0))
    s1 = np.where(hits, -b - root, s_out)
    s2 = np.where(hits, -b + root, s_out)
    return np.zeros_like(s_out), s1, s2, s_out


def _annulus_singular_pass(f, w, r_in, r_out, n_phi_panel, n_s, panels):
    """One refinement level of the polar-about-``w`` rule.

    ``panels`` is the sorted list of angular breakpoints (the tangent
    directions to the inner circle, where the radial geometry has kinks).
    """
    gl_phi, glw_phi = _gauss_legendre(n_phi_panel)
    gl_s, glw_s = _gauss_legendre(n_s)
    total = 0.0 + 0.0j
    count = 0
    for a, b in zip(panels[:-1], panels[1:]):
        phi, wphi = _map_gauss(gl_phi, glw_phi, a, b)
        direction = np.exp(1j * phi)
        lo0, hi0, lo1, hi1 = _radial_intervals(w, direction, r_in, r_out)
        for lo, hi in ((lo0, hi0), (lo1, hi1)):
            s, ws = _map_gauss(gl_s[:, None], glw_s[:, None], lo[None, :], hi[None, :])
            z = w + s * direction[None, :]
            vals = f(z.ravel()).reshape(z.shape)
            # the factor s is the polar Jacobian; it cancels 1/|z - w|
            total += np.sum(vals * s * ws * wphi[None, :])
            count += z.size
    return total, count


def integrate_annulus(
    f: Callable[[np.ndarray], np.ndarray],
    r_in: float,
    r_out: float,
    singularity: Optional[complex] = None,
    tol: float = 1e-9,
) -> QuadratureResult:
    """Integrate ``f`` over the annulus ``r_in < |z| < r_out``.

    Parameters
    ----------
    f : callable
        Vectorized map from a complex array of sample points to complex
        values.  May blow up like ``1/|z - singularity|`` at the declared
        singularity but must be smooth elsewhere on the closed annulus.
    r_in, r_out : float
        Annulus radii, ``0 < r_in < r_out``.
    singularity : complex, optional
        Interior point where ``f`` has an integrable singularity.  Must lie
        strictly inside the open annulus.
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
    if singularity is not None:
        w = complex(singularity)
        if not (r_in < abs(w) < r_out):
            raise ValueError(
                f"singularity |w|={abs(w):.6g} is not strictly inside "
                f"the annulus ({r_in:.6g}, {r_out:.6g})"
            )

    evaluations = 0
    prev = None
    if singularity is None:
        for level in range(9):
            n_r = 16 * 2**level
            n_t = 32 * 2**level
            value, n = _annulus_pass(f, r_in, r_out, n_r, n_t)
            evaluations += n
            if prev is not None and abs(value - prev) < tol:
                return QuadratureResult(value, abs(value - prev), evaluations)
            prev = value
    else:
        tangents = _inner_tangent_angles(w, r_in)
        breaks = sorted({0.0, *tangents, 2.0 * np.pi})
        if breaks[0] != 0.0:
            breaks = [0.0] + breaks
        for level in range(8):
            n_phi = 24 * 2**level
            n_s = 12 * 2**level
            value, n = _annulus_singular_pass(f, w, r_in, r_out, n_phi, n_s, breaks)
            evaluations += n
            if prev is not None and abs(value - prev) < tol:
                return QuadratureResult(value, abs(value - prev), evaluations)
            prev = value

    err = abs(value - prev) if prev is not None else np.inf
    raise QuadratureError(
        f"integrate_annulus did not reach tol={tol:g} (last change {err:g})",
        QuadratureResult(value, err, evaluations),
    )


#: integrate_torus refuses to start a level with more nodes than this
#: (level 4 has 25.2M; level 5 would need 1.6 GB per float64 array)
_TORUS_NODE_BUDGET = 2**25
#: integrate_torus evaluates each level in slabs along eta of at most
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
    domain.  Each level doubles the nodes per axis; a level over
    ``_TORUS_NODE_BUDGET`` nodes raises :class:`QuadratureError` with the
    last estimate attached.
    """
    # imported here because geometry reads this module's Gauss-Legendre rule
    from .geometry import _torus_grid, _torus_rule

    if eta0 <= 0:
        raise ValueError("eta0 must be positive")

    evaluations = 0
    value, err = None, np.inf
    for level in itertools.count():
        n_u = 24 * 2**level
        n_ang = 16 * 2**level
        if n_u * n_ang**2 > _TORUS_NODE_BUDGET:
            break
        eta, w_eta, theta, phi = _torus_rule(eta0, n_u, n_ang, n_ang)
        rows = max(1, _TORUS_SLAB_NODES // n_ang**2)
        total = 0.0
        for i in range(0, n_u, rows):
            grid = _torus_grid(eta[i:i + rows], w_eta[i:i + rows], theta, phi)
            total += np.sum(f(grid.x0, grid.x1, grid.x2) * grid.weights)
        prev, value = value, float(total)
        evaluations += n_u * n_ang**2
        if prev is not None:
            err = abs(value - prev)
            if err < tol:
                return QuadratureResult(value, err, evaluations)

    raise QuadratureError(
        f"integrate_torus did not reach tol={tol:g} within {_TORUS_NODE_BUDGET} "
        f"nodes per level (last change {err:g})",
        QuadratureResult(value, err, evaluations) if value is not None else None,
    )
