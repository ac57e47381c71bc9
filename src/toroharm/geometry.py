"""Toroidal coordinates, the solid-torus domain, and sampling grids.

The coordinate map is

    x0 = sin(theta) / (cosh(eta) - cos(theta))
    x1 = sinh(eta) cos(phi) / (cosh(eta) - cos(theta))
    x2 = sinh(eta) sin(phi) / (cosh(eta) - cos(theta))

with eta > 0.  Surfaces of constant eta are nested tori around the unit
circle in the plane x0 = 0; the solid torus of parameter eta0 is
``{eta > eta0}``.  The degenerate loci of the map are the x0-axis
(x1 = x2 = 0, reached as eta -> 0 with theta != 0) and the limit circle
{x0 = 0, x1^2 + x2^2 = 1} (eta -> infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .quadrature import _gauss_legendre


class DegenerateLocusError(ValueError):
    """Input lies on the axis or limit circle, where (eta, theta, phi) is
    undefined (and, on the axis, the negative planar powers are singular)."""


def _principal(angle: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    a = math.fmod(angle, 2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    elif a <= -math.pi:
        a += 2.0 * math.pi
    return a


@dataclass(frozen=True)
class ToroidalPoint:
    """A point in toroidal coordinates (eta > 0, angles principal)."""

    eta: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        object.__setattr__(self, "theta", _principal(self.theta))
        object.__setattr__(self, "phi", _principal(self.phi))


@dataclass(frozen=True)
class CartesianPoint:
    """A point (x0, x1, x2) in Cartesian coordinates."""

    x0: float
    x1: float
    x2: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x0, self.x1, self.x2)):
            raise ValueError("coordinates must be finite")

    def rho(self) -> float:
        """Distance to the x0-axis."""
        return math.hypot(self.x1, self.x2)


def torus_volume(eta0: float) -> float:
    """Closed-form volume of the solid torus ``{eta > eta0}``.

    Pappus' theorem with tube radius ``1/sinh(eta0)`` and center-circle
    radius ``coth(eta0)``.
    """
    if eta0 <= 0:
        raise ValueError("eta0 must be positive")
    return 2.0 * np.pi**2 / (np.tanh(eta0) * np.sinh(eta0) ** 2)


@dataclass(frozen=True)
class TorusDomain:
    """The open solid torus ``{eta > eta0}``."""

    eta0: float

    def __post_init__(self) -> None:
        if not self.eta0 > 0:
            raise ValueError(f"eta0 must be positive, got {self.eta0}")

    def volume(self) -> float:
        return torus_volume(self.eta0)

    def slice_radii(self) -> Tuple[float, float]:
        """Inner and outer radii of the annulus cut by the plane x0 = 0."""
        return math.tanh(self.eta0 / 2.0), 1.0 / math.tanh(self.eta0 / 2.0)


def to_cartesian(p: ToroidalPoint) -> CartesianPoint:
    """Map toroidal to Cartesian coordinates: :func:`cartesian_arrays` at
    one point.  Raises ``ValueError`` where ``cosh(eta)`` overflows (eta
    above about 710)."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = cartesian_arrays(p.eta, p.theta, p.phi)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"cosh(eta) overflows at eta = {p.eta}")
    return CartesianPoint(*map(float, x))


def to_toroidal(x: CartesianPoint) -> ToroidalPoint:
    """Inverse coordinate map: :func:`toroidal_arrays` at one point.

    Raises :class:`DegenerateLocusError` on the axis (rho = 0), on the
    limit circle (rho = 1, x0 = 0) and where ``eta`` rounds to 0.
    """
    if x.rho() == 0.0:
        raise DegenerateLocusError("point lies on the x0-axis")
    with np.errstate(all="ignore"):  # d_near^2 is 0 on the limit circle
        eta, theta, phi = toroidal_arrays(x.x0, x.x1, x.x2)
    if eta == math.inf:
        raise DegenerateLocusError("point lies on the limit circle")
    if not eta > 0.0:
        raise DegenerateLocusError(
            "point lies on the boundary sheet eta = 0 (outside every torus)"
        )
    return ToroidalPoint(float(eta), float(theta), float(phi))


def toroidal_arrays(x0, x1, x2):
    """Vectorized inverse map returning ``(eta, theta, phi)`` arrays.

    Uses the bipolar representation in the meridian half-plane: with
    ``rho = sqrt(x1^2 + x2^2)``, ``eta`` is the log-ratio of distances from
    ``(rho, x0)`` to the foci ``(1, 0)`` and ``(-1, 0)``, and ``theta`` is
    the angle subtended.  The squared ratio is ``1 + 4 rho / d_near^2``, so
    ``eta = log1p(4 rho / d_near^2) / 2`` keeps full precision near the
    axis, where the ratio tends to 1.  No degeneracy checks; intended for
    grids known to avoid the axis and limit circle (see :func:`to_toroidal`).
    """
    x0 = np.asarray(x0, dtype=float)
    rho = np.hypot(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    d_near2 = (rho - 1.0) ** 2 + x0 * x0
    eta = 0.5 * np.log1p(4.0 * rho / d_near2)
    theta = np.arctan2(2.0 * x0, rho * rho + x0 * x0 - 1.0)
    phi = np.arctan2(x2, x1)
    return eta, theta, phi


def cartesian_arrays(eta, theta, phi):
    """Vectorized forward map returning ``(x0, x1, x2)`` arrays."""
    eta = np.asarray(eta, dtype=float)
    theta = np.asarray(theta, dtype=float)
    denom = np.cosh(eta) - np.cos(theta)
    return (
        np.sin(theta) / denom,
        np.sinh(eta) * np.cos(phi) / denom,
        np.sinh(eta) * np.sin(phi) / denom,
    )


def _torus_rule(eta_in: float, n_eta: int, n_theta: int, n_phi: int):
    """One-dimensional factors of the tensor rule on the solid torus
    ``{eta > eta_in}``.

    Gauss-Legendre in the substituted radial variable ``u = exp(eta_in -
    eta)``, which maps the unbounded ``eta`` range to ``u in (0, 1)``, and
    uniform (periodic trapezoid) nodes in both angles.  Returns ``(eta,
    w_eta, theta, phi)``; ``w_eta`` is the radial weight, with ``d(eta) =
    -du/u``, times the angular weight.  :func:`_torus_mesh` expands them.
    """
    gl, glw = _gauss_legendre(n_eta)
    u = 0.5 * (gl + 1.0)
    w_eta = 0.5 * glw / u * ((2.0 * np.pi) ** 2 / (n_theta * n_phi))
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    return eta_in - np.log(u), w_eta, theta, phi


def _torus_mesh(eta, w_eta, theta, phi):
    """Cartesian nodes ``(x0, x1, x2)`` and weights of a :func:`_torus_rule`
    on the mesh ``eta x theta x phi``, each of shape ``(eta.size,
    theta.size, phi.size)``.  The weights carry the volume element
    ``sinh(eta) (cosh(eta) - cos(theta))^-3``."""
    E, T = eta[:, None, None], theta[:, None]
    x = np.broadcast_arrays(*cartesian_arrays(E, T, phi))
    w = w_eta[:, None, None] * np.sinh(E) / (np.cosh(E) - np.cos(T)) ** 3
    return x, np.broadcast_to(w, x[0].shape)


def sample_grid(
    domain: TorusDomain,
    n_eta: int,
    n_theta: int,
    n_phi: int,
    margin: float,
) -> List[Tuple[CartesianPoint, float]]:
    """Quadrature nodes and weights on the shrunken torus ``{eta >= eta0 + margin}``.

    The nodes of :func:`_torus_rule`, ordered eta-major, then theta, then
    phi.  The weights sum to the volume of the sampled region, so Gram
    matrices built on the grid approximate L2 inner products.
    """
    if n_eta < 1 or n_theta < 1 or n_phi < 1:
        raise ValueError("grid counts must be positive")
    if margin <= 0:
        raise ValueError("margin must be positive")
    x, w = _torus_mesh(*_torus_rule(domain.eta0 + margin, n_eta, n_theta, n_phi))
    points = map(CartesianPoint, *(c.ravel().tolist() for c in x))
    return list(zip(points, w.ravel().tolist()))
