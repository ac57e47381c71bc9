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
from numpy.polynomial import legendre as _legendre

from .quadrature import torus_volume


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
    """Map toroidal to Cartesian coordinates."""
    denom = math.cosh(p.eta) - math.cos(p.theta)
    return CartesianPoint(
        math.sin(p.theta) / denom,
        math.sinh(p.eta) * math.cos(p.phi) / denom,
        math.sinh(p.eta) * math.sin(p.phi) / denom,
    )


def to_toroidal(x: CartesianPoint) -> ToroidalPoint:
    """Inverse coordinate map.

    Uses the bipolar representation in the meridian half-plane: with
    ``rho = sqrt(x1^2 + x2^2)``, ``eta`` is the log-ratio of distances from
    ``(rho, x0)`` to the foci ``(1, 0)`` and ``(-1, 0)``, and ``theta`` is
    the angle subtended.  The squared ratio is ``1 + 4 rho / d_near^2``, so
    ``eta = log1p(4 rho / d_near^2) / 2`` keeps full precision near the
    axis, where the ratio tends to 1.  Raises :class:`DegenerateLocusError`
    on the axis (rho = 0) and on the limit circle (rho = 1, x0 = 0).
    """
    rho = x.rho()
    if rho == 0.0:
        raise DegenerateLocusError("point lies on the x0-axis")
    d_near2 = (rho - 1.0) ** 2 + x.x0 * x.x0
    if d_near2 == 0.0:
        raise DegenerateLocusError("point lies on the limit circle")
    eta = 0.5 * math.log1p(4.0 * rho / d_near2)
    if eta <= 0.0:
        raise DegenerateLocusError(
            "point lies on the boundary sheet eta = 0 (outside every torus)"
        )
    theta = math.atan2(2.0 * x.x0, rho * rho + x.x0 * x.x0 - 1.0)
    phi = math.atan2(x.x2, x.x1)
    return ToroidalPoint(eta, theta, phi)


def toroidal_arrays(x0, x1, x2):
    """Vectorized inverse map returning ``(eta, theta, phi)`` arrays.

    No degeneracy checks; intended for grids known to avoid the axis and
    limit circle.  ``eta`` as in :func:`to_toroidal`.
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


def sample_grid(
    domain: TorusDomain,
    n_eta: int,
    n_theta: int,
    n_phi: int,
    margin: float,
) -> List[Tuple[CartesianPoint, float]]:
    """Quadrature nodes and weights on the shrunken torus ``{eta >= eta0 + margin}``.

    Gauss-Legendre in the substituted radial variable ``u = exp(eta_in - eta)``
    and uniform (trapezoid) nodes in both angles, weighted with the volume
    element ``sinh(eta) (cosh(eta) - cos(theta))^-3``.  The weights sum to
    the volume of the sampled region, so Gram matrices built on the grid
    approximate L2 inner products.
    """
    if n_eta < 1 or n_theta < 1 or n_phi < 1:
        raise ValueError("grid counts must be positive")
    if margin <= 0:
        raise ValueError("margin must be positive")
    eta_in = domain.eta0 + margin

    gl, glw = _legendre.leggauss(n_eta)
    u = 0.5 * (gl + 1.0)
    wu = 0.5 * glw
    eta = eta_in - np.log(u)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_ang = (2.0 * np.pi) ** 2 / (n_theta * n_phi)

    out: List[Tuple[CartesianPoint, float]] = []
    for i in range(n_eta):
        ch, sh = math.cosh(eta[i]), math.sinh(eta[i])
        for th in theta:
            denom = ch - math.cos(th)
            jac = sh / denom**3
            weight = (wu[i] / u[i]) * jac * w_ang
            x0 = math.sin(th) / denom
            rho = sh / denom
            for ph in phi:
                out.append(
                    (CartesianPoint(x0, rho * math.cos(ph), rho * math.sin(ph)), weight)
                )
    return out
