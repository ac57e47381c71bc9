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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Tuple

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

    def slice_radii(self) -> Tuple[float, float]:
        """Inner and outer radii of the annulus cut by the plane x0 = 0."""
        return math.tanh(self.eta0 / 2.0), 1.0 / math.tanh(self.eta0 / 2.0)

    def contains(self, x0, x1, x2) -> np.ndarray:
        """Membership ``eta > eta0`` of Cartesian coordinate arrays, without
        the coordinate map.

        ``eta`` is the log-ratio of the distances from the meridian point
        ``(rho, x0)`` to the foci ``(1, 0)`` and ``(-1, 0)`` (see
        :func:`toroidal_arrays`), so the test is ``d_near < e^{-eta0}
        d_far``.  The limit circle (``d_near = 0``) is inside and the axis
        outside.  ``hypot`` neither overflows nor warns, so NaN and
        infinite coordinates are outside, with no warning.
        """
        rho = np.hypot(x1, x2)
        return np.hypot(x0, rho - 1.0) < math.exp(-self.eta0) * np.hypot(x0, rho + 1.0)


def to_cartesian(p: ToroidalPoint) -> CartesianPoint:
    """Map toroidal to Cartesian coordinates: :func:`cartesian_arrays` at
    one point.  Raises ``ValueError`` where the coordinates overflow, next
    to the point at infinity (eta below about 1e-154 with theta 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = cartesian_arrays(p.eta, p.theta, p.phi)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"the Cartesian coordinates overflow at eta = {p.eta}, "
                         f"theta = {p.theta}")
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
    axis, where the ratio tends to 1.  Where that ratio overflows (next to
    the limit circle, where ``d_near^2`` is subnormal or 0 while ``d_near``
    is not), ``eta = log(4 rho) / 2 - log(d_near)`` with ``d_near =
    hypot(rho - 1, x0)``; on the limit circle itself eta is inf.  No
    degeneracy checks; intended for grids known to avoid the axis and
    limit circle (see :func:`to_toroidal`).
    """
    x0 = np.asarray(x0, dtype=float)
    rho = np.hypot(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    d_near2 = (rho - 1.0) ** 2 + x0 * x0
    with np.errstate(over="ignore", divide="ignore"):
        eta = 0.5 * np.log1p(4.0 * rho / d_near2)
    far = np.isinf(eta)
    if far.any():
        r, x = np.broadcast_arrays(rho, x0)
        with np.errstate(divide="ignore"):  # log(0) = -inf on the limit circle
            eta = np.where(far, 0.5 * np.log(4.0 * r) - np.log(np.hypot(r - 1.0, x)), eta)
    theta = np.arctan2(2.0 * x0, rho * rho + x0 * x0 - 1.0)
    phi = np.arctan2(x2, x1)
    return eta, theta, phi


def _denominator(eta, theta):
    """``e^{-eta}`` and ``D = expm1(-eta)^2 + 4 e^{-eta} sin^2(theta / 2)``,
    which is ``2 e^{-eta} (cosh(eta) - cos(theta))`` without cancellation
    near the axis or overflow toward the limit circle."""
    decay = np.exp(-eta)
    return decay, np.expm1(-eta) ** 2 + 4.0 * decay * np.sin(0.5 * theta) ** 2


def _meridian_arrays(eta, theta):
    """Vectorized meridian coordinates ``(x0, rho)`` of toroidal ``(eta,
    theta)``, with ``rho = sqrt(x1^2 + x2^2)``.

    Both are written with ``e^{-eta}`` and the ``D`` of
    :func:`_denominator`: ``x0 = 2 e^{-eta} sin(theta) / D`` and ``rho =
    -expm1(-2 eta) / D``.  No term cancels near the axis, nothing
    overflows, and on the limit circle (``eta = inf``) they are ``0`` and
    ``1``.
    """
    eta = np.asarray(eta, dtype=float)
    theta = np.asarray(theta, dtype=float)
    decay, denom = _denominator(eta, theta)
    return 2.0 * decay * np.sin(theta) / denom, -np.expm1(-2.0 * eta) / denom


def cartesian_arrays(eta, theta, phi):
    """Vectorized forward map returning ``(x0, x1, x2)`` arrays, finite up
    to the limit circle (see :func:`_meridian_arrays`)."""
    x0, rho = _meridian_arrays(eta, theta)
    return x0, rho * np.cos(phi), rho * np.sin(phi)


def _torus_rule(eta_in: float, n_eta: int, n_theta: int, n_phi: int):
    """One-dimensional factors of the tensor rule on the solid torus
    ``{eta > eta_in}``.

    Gauss-Legendre in the substituted radial variable ``u = exp(eta_in -
    eta)``, which maps the unbounded ``eta`` range to ``u in (0, 1)``, and
    uniform (periodic trapezoid) nodes in both angles.  Returns ``(eta,
    w_eta, theta, phi)``; ``w_eta`` is the radial weight, with ``d(eta) =
    -du/u``, times the angular weight.  :func:`_torus_grid` expands them.
    """
    gl, glw = _gauss_legendre(n_eta)
    u = 0.5 * (gl + 1.0)
    w_eta = 0.5 * glw / u * ((2.0 * np.pi) ** 2 / (n_theta * n_phi))
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    return eta_in - np.log(u), w_eta, theta, phi


def _torus_grid(eta, w_eta, theta, phi) -> "ExpansionGrid":
    """The mesh of a :func:`_torus_rule`, with weights that carry the
    volume element ``sinh(eta) (cosh(eta) - cos(theta))^-3``, written as
    ``-4 expm1(-2 eta) e^{-2 eta} / D^3`` (:func:`_denominator`) so that it
    stays finite down to underflow next to the limit circle."""
    E = eta[:, None, None]
    decay, denom = _denominator(E, theta[:, None])
    return ExpansionGrid.mesh(eta, theta, phi,
                              -4.0 * w_eta[:, None, None] * np.expm1(-2.0 * E) * decay**2 / denom**3)


def sample_grid(
    domain: TorusDomain,
    n_eta: int,
    n_theta: int,
    n_phi: int,
    margin: float,
) -> "ExpansionGrid":
    """Quadrature nodes and weights on the shrunken torus ``{eta >= eta0 + margin}``.

    The mesh of :func:`_torus_rule`, an iterable of ``(CartesianPoint,
    weight)`` pairs ordered eta-major, then theta, then phi.  The weights
    sum to the volume of the sampled region, so Gram matrices built on the
    grid approximate L2 inner products.
    """
    if n_eta < 1 or n_theta < 1 or n_phi < 1:
        raise ValueError("grid counts must be positive")
    if margin <= 0:
        raise ValueError("margin must be positive")
    return _torus_grid(*_torus_rule(domain.eta0 + margin, n_eta, n_theta, n_phi))


def _read_only(a) -> np.ndarray:
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class ExpansionGrid:
    """Quadrature nodes and weights in both coordinate systems, and an
    iterable of ``(CartesianPoint, weight)`` pairs.

    ``x0``, ``x1``, ``x2`` and ``weights`` are flat over the ``N`` nodes.
    The toroidal coordinates broadcast to :attr:`shape`: on a mesh
    (:meth:`mesh`, :func:`sample_grid`) ``eta``, ``theta`` and the
    ``meridian`` pair ``(x0, rho)`` have shape ``(P, 1)`` against ``phi``
    of shape ``(1, K)``, so what depends on the meridian alone is computed
    on ``P`` points; scattered points hold ``(N,)`` arrays.

    The arrays are read-only views: ``factors`` holds what
    :func:`~toroharm.expansion.project` keeps per basis, which is only
    valid for the nodes and weights it was made on.
    """

    x0: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    eta: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    meridian: Tuple[np.ndarray, np.ndarray]
    weights: np.ndarray
    factors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("x0", "x1", "x2", "eta", "theta", "phi", "weights"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        object.__setattr__(self, "meridian", tuple(map(_read_only, self.meridian)))
        if not np.all(np.isfinite(self.weights) & (self.weights >= 0.0)):
            raise ValueError("grid weights must be finite and non-negative")

    @classmethod
    def mesh(cls, eta, theta, phi, weights=1.0) -> "ExpansionGrid":
        """The tensor grid of the 1-D node arrays ``eta x theta x phi``;
        ``weights`` broadcast to ``(eta.size, theta.size, phi.size)``."""
        eta, theta, phi = (np.asarray(c, dtype=float).ravel() for c in (eta, theta, phi))
        w = weights * np.ones((eta.size, theta.size, phi.size))
        return cls.on_meridian(np.repeat(eta, theta.size), np.tile(theta, eta.size), phi,
                               w.reshape(-1, phi.size))

    @classmethod
    def on_meridian(cls, eta, theta, phi, weights=1.0) -> "ExpansionGrid":
        """The mesh of the meridian nodes ``(eta, theta)`` (paired 1-D
        arrays of ``P`` nodes) times the ``K`` azimuths ``phi``; ``weights``
        broadcast to ``(P, K)``."""
        E, T = (np.asarray(c, dtype=float).reshape(-1, 1) for c in (eta, theta))
        phi = np.asarray(phi, dtype=float).reshape(1, -1)
        x0, rho = _meridian_arrays(E, T)
        x1, x2 = rho * np.cos(phi), rho * np.sin(phi)
        w = (weights * np.ones(x1.shape)).ravel()
        return cls(np.repeat(x0, phi.size), x1.ravel(), x2.ravel(), E, T, phi, (x0, rho), w)

    @classmethod
    def from_samples(cls, samples) -> "ExpansionGrid":
        """A grid as given, or scattered points from ``(point, weight)``
        pairs; their toroidal coordinates come from :func:`toroidal_arrays`."""
        if isinstance(samples, cls):
            return samples
        pts = np.array([(p.x0, p.x1, p.x2, w) for p, w in samples]).reshape(-1, 4)
        x0, x1, x2, w = pts.T
        return cls(x0, x1, x2, *toroidal_arrays(x0, x1, x2), (x0, np.hypot(x1, x2)), w)

    @cached_property
    def shape(self) -> Tuple[int, ...]:
        """The broadcast shape of the toroidal coordinates: ``(P, K)`` or ``(N,)``."""
        return np.broadcast_shapes(self.eta.shape, self.phi.shape)

    def __len__(self) -> int:
        return self.weights.size

    def __iter__(self) -> Iterator[Tuple[CartesianPoint, float]]:
        points = map(CartesianPoint, self.x0.tolist(), self.x1.tolist(), self.x2.tolist())
        return zip(points, self.weights.tolist())
