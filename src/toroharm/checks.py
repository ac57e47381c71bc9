"""Verification suites.

A suite is a tuple of checks, and ``SUITES`` maps each suite name to its
tuple: it is the one list of checks, which ``run_suite`` (and through it
the command-line ``verify`` subcommand and the acceptance tests) runs in
order.  A check is a ``check_*`` function that takes no required
argument and returns a list of :class:`CheckResult`; a result passes when
its residual is within its tolerance (exact checks report residual 0 or
1).  Everything here is deterministic: random points come from
fixed-seed generators.

The checks evaluate through the library's own array forms (coordinate
arrays in, component arrays out), with its finite-difference stencil and
its Fueter-operator assembly; the independent oracles are mpmath (its
``legenq``, and its quadrature of the integral representation of ``Q``),
exact rational arithmetic, the Cauchy-Pompeiu formula and adaptive
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable, Dict, List, Tuple

import numpy as np

from .appell import (
    alpha_beta,
    eval_d0_star,
    eval_I_star_batch,
    inverse_matrix,
    j_coefficient_unit,
    reverse_appell_check,
    star_matrix,
)
from .expansion import (
    ExpansionGrid,
    basis_A_second,
    basis_H,
    element_T,
    element_W,
    element_one,
    evaluate_series_grid,
    gram,
    known_expansion_one,
    known_expansion_one_in_T,
    known_expansion_x0,
    make_series,
    project,
    t_family,
)
from .geometry import (
    TorusDomain,
    cartesian_arrays,
    sample_grid,
    toroidal_arrays,
    torus_volume,
)
from .harmonics import (
    DerivativeTerm,
    HarmonicIndex,
    _combine,
    d0_terms,
    d1_terms,
    d2_terms,
    eval_I_batch,
    eval_terms,
    index_is_valid,
    j_coefficient,
    j_coefficient_quadrature,
)
from .monogenics import (
    COH_ORIENTATION,
    E3,
    Psi,
    _dbar,
    _fd_partials,
    _stencil,
    cohomology,
    decompose_H,
    eval_T0_batch,
    eval_T_batch,
    eval_W_batch,
    field_values,
    qmul,
    teodorescu,
    t_term_tables,
)
from .quadrature import integrate_torus
from .special_functions import q_half_grid


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"{self.name}: {status} (residual {self.residual:.3e}, tol {self.tolerance:.1e})"
        if self.detail:
            msg += f" -- {self.detail}"
        return msg


def _result(name: str, residual: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name, residual <= tol, float(residual), tol, detail)


def _random_interior_points(n: int, eta0: float, seed: int):
    """``(eta, theta, phi)`` arrays of ``n`` seeded points with ``eta`` in
    ``[eta0 + 0.3, eta0 + 2.8)`` and principal angles."""
    r = np.random.default_rng(seed).random((n, 3))
    return (eta0 + 0.3 + 2.5 * r[:, 0],
            2.0 * math.pi * r[:, 1] - math.pi,
            2.0 * math.pi * r[:, 2] - math.pi)


def _point(eta: float, theta: float, phi: float):
    """One point as length-1 ``(eta, theta, phi)`` arrays."""
    return np.array([eta]), np.array([theta]), np.array([phi])


def _chart_field(fn, *args):
    """The field ``fn(*args, eta, theta, phi)`` of an array form that reads
    toroidal coordinates."""
    return lambda x0, x1, x2: fn(*args, *toroidal_arrays(x0, x1, x2))


def _w_field(m: int, s: int):
    """``W_m^s`` as a field."""
    return lambda x0, x1, x2: eval_W_batch(m, s, x1, x2)


def _table_partials(tables, eta, theta, phi) -> np.ndarray:
    """The partials ``(d0 f, d1 f, d2 f)`` of the field whose components
    are the term tables, through the exact derivative tables (no
    differencing); shape ``(3, 4)`` plus the shape of ``eta``."""
    out = np.zeros((3, 4) + np.shape(eta))
    for j, dd in enumerate((d0_terms, d1_terms, d2_terms)):
        for i, table in enumerate(tables):
            out[j, i] = eval_terms(_combine((t.coefficient, dd(t.index)) for t in table),
                                   eta, theta, phi)
    return out


def _max_rel(fd: np.ndarray, an: np.ndarray) -> float:
    """Largest ``|fd - an|``, relative where ``|an| > 1``."""
    return float(np.max(np.abs(fd - an) / np.maximum(1.0, np.abs(an))))


def _max_norm(q: np.ndarray) -> float:
    """Largest Euclidean norm over the points of component arrays."""
    return float(np.max(np.linalg.norm(q, axis=0)))


def _all_indices(n_max: int, m_max: int) -> List[HarmonicIndex]:
    return [HarmonicIndex(*k) for k in product(range(n_max + 1), range(m_max + 1), (1, -1), (1, -1))
            if index_is_valid(*k)]


# ---------------------------------------------------------------------------
# legendre suite
# ---------------------------------------------------------------------------

def check_legendre_recurrences() -> List[CheckResult]:
    """Degree and order recurrences of the radial functions, relative
    residual over t in [1.1, 10]."""
    n_max, m_max = 30, 10
    eta = np.arccosh(np.linspace(1.1, 10.0, 45))
    t = np.cosh(eta)
    q = q_half_grid(n_max + 1, m_max, eta)
    worst = 0.0
    for m in range(m_max + 1):
        for n in range(1, n_max + 1):
            lhs = (n - m + 0.5) * q[n + 1, m]
            rhs = 2 * n * t * q[n, m] - (n + m - 0.5) * q[n - 1, m]
            scale = np.maximum(np.abs(2 * n * t * q[n, m]), np.abs(lhs)) + 1e-300
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    s = np.sqrt(t * t - 1.0)
    for m in range(2, m_max + 1):
        for n in range(n_max + 1):
            nu = n - 0.5
            lhs = q[n, m]
            rhs = (-2.0 * (m - 1) * t / s * q[n, m - 1]
                   + (nu - m + 2) * (nu + m - 1) * q[n, m - 2])
            scale = np.maximum(np.abs(lhs), np.abs(q[n, m - 1] * t / s)) + 1e-300
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    return [_result("radial recurrences (degree and order)", worst, 1e-10)]


def _q_integral_mp(n: int, m: int, t: float):
    """``Q_{n-1/2}^m(t)`` for ``t > 1`` from the integral representation

    ``Q_nu^m(t) = (-1)^m / 2^(nu+1) * Gamma(nu+m+1)/Gamma(nu+1)
                  * (t^2-1)^(m/2) * integral_{-1}^{1} (1-s^2)^nu / (t-s)^(nu+m+1) ds``

    by mpmath quadrature at 30 digits, a method independent of ``legenq``.
    With ``s = cos(psi)`` and ``nu = n - 1/2`` the integrand is
    ``sin(psi)^(2n) / (t - cos(psi))^(n+m+1/2)``, smooth on ``[0, pi]``.
    """
    import mpmath as mp

    with mp.workdps(30):
        t, nu = mp.mpf(t), n - mp.mpf(1) / 2
        power = nu + m + 1
        integral = mp.quad(lambda psi: mp.sin(psi) ** (2 * n) / (t - mp.cos(psi)) ** power,
                           [0, mp.pi])
        return ((-1) ** m / 2 ** (nu + 1) * mp.gamma(power) / mp.gamma(nu + 1)
                * (t * t - 1) ** (mp.mpf(m) / 2) * integral)


def check_legendre_oracle() -> List[CheckResult]:
    """Fast radial path against the integral-representation oracle
    (:func:`_q_integral_mp`) on sampled (n, m, t) triples."""
    n_points = 125
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(n_points):
        n = int(rng.integers(0, 13))
        m = int(rng.integers(0, 7))
        t = float(1.05 + 9.0 * rng.random())
        fast = float(q_half_grid(n, m, np.array([math.acosh(t)]))[n, m, 0])
        slow = float(_q_integral_mp(n, m, t))
        worst = max(worst, abs(fast - slow) / max(abs(slow), 1e-300))
    return [_result("radial fast path vs integral oracle", worst, 1e-11,
                    f"{n_points} sampled triples")]


def check_legendre_mpmath() -> List[CheckResult]:
    """The radial evaluator over eta in [1e-6, 40], n <= 60 and m <= 20
    (absolute error where ``|Q| < 1e-290``), and ``I``, ``T`` and ``T0``
    near the axis and the limit circle (relative to the largest
    component), against mpmath ``legenq`` at 30 digits."""
    import mpmath as mp

    def q_mp(n, m, eta):
        return mp.re(mp.legenq(n - mp.mpf(1) / 2, m, mp.cosh(mp.mpf(eta)), type=3))

    theta, phi = 0.7, 0.4

    def i_mp(idx, eta):
        def trig(sign, k, angle):
            return mp.cos(k * angle) if sign > 0 else mp.sin(k * angle)
        return (mp.sqrt(mp.cosh(mp.mpf(eta)) - mp.cos(theta)) * q_mp(idx.n, idx.m, eta)
                * trig(idx.nu, idx.n, theta) * trig(idx.mu, idx.m, phi))

    etas = np.logspace(-6.0, math.log10(40.0), 9)
    q = q_half_grid(60, 20, etas)
    pts = np.array([1e-6, 1e-3, 20.0, 35.0])
    worst = 0.0
    with mp.workdps(30):
        for i, eta in enumerate(etas):
            for n in (0, 1, 2, 13, 60):
                for m in (0, 1, 6, 20):
                    ref = q_mp(n, m, eta)
                    err = abs(q[n, m, i] - ref)
                    worst = max(worst, float(err if abs(ref) < 1e-290 else err / abs(ref)))
        # I as a one-term table, T through its exact term tables
        cases = [(eval_I_batch(idx, pts, theta, phi)[None], [[DerivativeTerm(idx, Fraction(1))]])
                 for idx in (HarmonicIndex(3, 2, 1, -1), HarmonicIndex(0, 1, 1, 1))]
        cases += [(eval_T_batch(idx, pts, theta, phi), t_term_tables(idx.n, idx.m, idx.nu, idx.mu))
                  for idx in (HarmonicIndex(2, 1, 1, -1), HarmonicIndex(4, 2, -1, -1))]
        for got, tables in cases:
            for j, eta in enumerate(pts):
                ref = [mp.fsum(mp.mpf(t.coefficient.numerator) / t.coefficient.denominator
                               * i_mp(t.index, eta) for t in table) for table in tables]
                err = max(abs(got[s, j] - r) for s, r in enumerate(ref))
                worst = max(worst, float(err / max(abs(r) for r in ref)))
        # T0: the x0-line integrals of the d1 and d2 tables of I_{0,m}, by a
        # 24-node Gauss-Legendre rule in mpmath
        u, w = mp.gauss_quadrature(24, "legendre")
        x = cartesian_arrays(pts[1:3], theta, phi)
        for idx in (HarmonicIndex(0, 1, 1, 1), HarmonicIndex(0, 2, 1, -1)):
            got = eval_T0_batch(idx.m, idx.mu, *x)
            for j, eta in enumerate(pts[1:3]):
                x0, x1, x2 = (mp.mpf(float(c[j])) for c in x)
                pds = [_point_data_mp(x0 * (1 + u[k]) / 2, x1, x2, 1, idx.m + 1)
                       for k in range(len(u))]
                ref = [i_mp(idx, eta)] + [-x0 / 2 * mp.fsum(
                    w[k] * mp.fsum(mp.mpf(t.coefficient.numerator) / t.coefficient.denominator
                                   * _harmonic_mp(pd, t.index) for t in table(idx))
                    for k, pd in enumerate(pds)) for table in (d1_terms, d2_terms)]
                err = max(abs(got[s, j] - r) for s, r in enumerate(ref))
                worst = max(worst, float(err / max(abs(r) for r in ref)))
    return [_result("radial evaluator, I and T vs mpmath", worst, 1e-11,
                    "eta in [1e-6, 40], n <= 60, m <= 20; T0 at eta 1e-3 and 20")]


def check_torus_volume() -> List[CheckResult]:
    """Numerical volume of the solid torus against the closed form."""
    worst = 0.0
    for eta0 in (0.5, 1.0, 2.0):
        val = integrate_torus(lambda x0, x1, x2: np.ones_like(x0), eta0, tol=1e-10)
        ref = torus_volume(eta0)
        worst = max(worst, abs(val.value - ref) / ref)
    return [_result("torus volume vs closed form", worst, 1e-8)]


# ---------------------------------------------------------------------------
# derivatives suite
# ---------------------------------------------------------------------------

def _point_data_mp(x0, x1, x2, n_max: int, m_max: int):
    """Everything needed to assemble any harmonic at one Cartesian point
    in extended precision: metric prefactor, radial table, angular trig
    tables."""
    import mpmath as mp

    x0, x1, x2 = mp.mpf(x0), mp.mpf(x1), mp.mpf(x2)
    rho = mp.sqrt(x1 * x1 + x2 * x2)
    eta = mp.mpf(0.5) * mp.log(((rho + 1) ** 2 + x0 * x0) / ((rho - 1) ** 2 + x0 * x0))
    theta = mp.atan2(2 * x0, rho * rho + x0 * x0 - 1)
    phi = mp.atan2(x2, x1)
    t = mp.cosh(eta)
    q = [[None] * (m_max + 1) for _ in range(n_max + 1)]
    half = mp.mpf(1) / 2
    for m in range(m_max + 1):
        q[0][m] = mp.re(mp.legenq(-half, m, t, type=3))
        if n_max >= 1:
            q[1][m] = mp.re(mp.legenq(half, m, t, type=3))
        for n in range(1, n_max):
            q[n + 1][m] = (2 * n * t * q[n][m] - (n + m - half) * q[n - 1][m]) / (n - m + half)
    pref = mp.sqrt(t - mp.cos(theta))
    ct = [mp.cos(k * theta) for k in range(n_max + 1)]
    st = [mp.sin(k * theta) for k in range(n_max + 1)]
    cp = [mp.cos(k * phi) for k in range(m_max + 1)]
    sp = [mp.sin(k * phi) for k in range(m_max + 1)]
    return pref, q, ct, st, cp, sp


def _harmonic_mp(pd, idx: HarmonicIndex):
    """The harmonic ``idx`` from the :func:`_point_data_mp` of a point."""
    pref, q, ct, st, cp, sp = pd
    tn = ct[idx.n] if idx.nu > 0 else st[idx.n]
    tm = cp[idx.m] if idx.mu > 0 else sp[idx.m]
    return pref * q[idx.n][idx.m] * tn * tm


def check_harmonicity() -> List[CheckResult]:
    """FD Laplacian of the toroidal harmonics at random interior points.

    Two parts.  The O(h^2) decay of the plain second-order stencil is
    observed in float64 across h in {1e-3, 1e-4}.  The residual bound at
    h = 1e-4 sits below both the second-order truncation floor (~5e-4
    here) and the float64 evaluation-noise floor (~3e-6, scaling as
    1/h^2), so the residual itself uses a fourth-order stencil with the
    harmonics evaluated at stencil points formed and evaluated in extended
    precision.
    """
    import mpmath as mp

    n_max, m_max, n_points = 8, 4, 50
    pts = cartesian_arrays(*_random_interior_points(n_points, 1.0, 20240812))
    worst = {1e-3: 0.0, 1e-4: 0.0}
    for idx in _all_indices(n_max, m_max):
        for h in worst:
            # the centre (step 0) and x +- h e_i on each axis i
            v = eval_I_batch(idx, *toroidal_arrays(*_stencil(*pts, h, (0, 1, -1))))
            lap = (v[:, 1:].reshape(6, -1).sum(axis=0) - 6.0 * v[0, 0]) / h**2
            worst[h] = max(worst[h], float(np.max(np.abs(lap))))
    decay = worst[1e-3] / max(worst[1e-4], 1e-300)

    h = 1e-4
    steps = (-2, -1, 1, 2)
    with mp.workdps(35):
        hh = mp.mpf(h)
        w1, w2, w0 = 16 / (12 * hh * hh), -1 / (12 * hh * hh), -90 / (12 * hh * hh)
        weights = [w0] + [w1 if abs(k) == 1 else w2 for _ in range(3) for k in steps]
        # per point: the float centre, then x + k h e_i axis by axis, formed
        # in extended precision so that the stencil is exact
        data = []
        for centre in zip(*(c.tolist() for c in pts)):
            x = [mp.mpf(c) for c in centre]
            shifted = [[x[a] + k * hh if a == i else x[a] for a in range(3)]
                       for i in range(3) for k in steps]
            data.append([_point_data_mp(*p, n_max, m_max) for p in [x] + shifted])

        worst_hi = 0.0
        for idx in _all_indices(n_max, m_max):
            for row in data:
                lap = sum((w * _harmonic_mp(pd, idx) for w, pd in zip(weights, row)), mp.mpf(0))
                worst_hi = max(worst_hi, abs(float(lap)))

    return [
        _result("harmonicity: FD Laplacian at h=1e-4", worst_hi, 1e-6,
                f"{n_points} interior points, n<={n_max}, m<={m_max}, "
                "fourth-order stencil, extended-precision evaluation"),
        CheckResult("harmonicity: O(h^2) residual decay", decay > 10.0,
                    decay, 10.0, "ratio of residuals at h=1e-3 vs h=1e-4 (want >10)"),
    ]


def check_derivative_tables() -> List[CheckResult]:
    """Analytic coefficient expansions of the three Cartesian partials
    against fourth-order central differences at h = 2e-4, where both the
    truncation and the rounding error of the differences sit near 1e-9."""
    p = _point(1.35, 0.85, 0.55)
    x = cartesian_arrays(*p)
    worst = 0.0
    for idx in _all_indices(6, 6):
        fd = _fd_partials(_chart_field(eval_I_batch, idx), *x, 2e-4, order=4)[:, 0]
        an = np.stack([eval_terms(table(idx), *p) for table in (d0_terms, d1_terms, d2_terms)])
        worst = max(worst, _max_rel(fd, an))
    return [_result("derivative tables vs central differences", worst, 1e-6,
                    "all sign combinations, n,m <= 6")]


# ---------------------------------------------------------------------------
# appell suite
# ---------------------------------------------------------------------------

def check_reverse_appell_exact() -> List[CheckResult]:
    """Coefficient-level degree-raising identity, exact in rationals."""
    m_max, n_max = 6, 15
    for m in range(m_max + 1):
        ok, msg = reverse_appell_check(m, n_max)
        if not ok:
            return [CheckResult("reverse-Appell exact", False, 1.0, 0.0, msg)]
    return [CheckResult("reverse-Appell exact", True, 0.0, 0.0,
                        f"m <= {m_max}, n <= {n_max}, zero tolerance")]


def check_matrix_inverse() -> List[CheckResult]:
    """Star matrix times its inverse equals the identity, exactly."""
    m_max, n_max = 6, 20
    for m in range(m_max + 1):
        s = star_matrix(m, n_max).entries
        v = inverse_matrix(m, n_max).entries
        for n in range(n_max + 1):
            for k in range(n + 1):
                prod = sum(s[n][j] * v[j][k] for j in range(k, n + 1))
                if prod != (1 if n == k else 0):
                    return [CheckResult("star matrix inverse exact", False, 1.0, 0.0,
                                        f"mismatch at m={m}, n={n}, k={k}")]
    return [CheckResult("star matrix inverse exact", True, 0.0, 0.0,
                        f"m <= {m_max}, n_max = {n_max}")]


def check_reverse_appell_numeric() -> List[CheckResult]:
    """Function-level degree raising: finite differences of the starred
    harmonics against the coefficient prediction.

    The cosine family satisfies the single-term identity; the sine
    family carries the zero-slot correction term (see
    ``appell.d0_star_terms``), which is what is verified here.
    """
    p = _point(1.4, 0.8, 0.5)
    x = cartesian_arrays(*p)
    worst = 0.0
    for idx in _all_indices(6, 3):
        if idx.n >= 1:
            fd = _fd_partials(_chart_field(eval_I_star_batch, idx), *x, 2e-4, order=4)[0, 0]
            worst = max(worst, _max_rel(fd, eval_d0_star(idx, *p)))
    return [_result("reverse-Appell numeric (degree raising)", worst, 1e-6,
                    "cosine family single-term; sine family with zero-slot correction")]


def check_alpha_beta_transport() -> List[CheckResult]:
    """The starred-basis coefficient lists reproduce 1 and x0.

    Evaluated at joint depth N = 25: the starred harmonics lose about
    eleven digits internally at depth 40, so the float check runs at the
    depth where roundoff stays below the tolerance; the underlying
    transport identity is exact in rationals at any depth.
    """
    N = 25
    alphas, betas = alpha_beta(N)
    unit = j_coefficient_unit()
    eta, th = (c.ravel() for c in np.meshgrid(
        np.linspace(1.5, 4.0, 7), np.linspace(-math.pi, math.pi, 9, endpoint=False),
        indexing="ij"))
    one = sum(unit * float(alphas[k]) * eval_I_star_batch(HarmonicIndex(k, 0, 1, 1), eta, th, 0.3)
              for k in range(N + 1))
    x0v = sum(unit * float(betas[k]) * eval_I_star_batch(HarmonicIndex(k, 0, -1, 1), eta, th, 0.3)
              for k in range(1, N + 1))
    worst_a = float(np.max(np.abs(one - 1.0)))
    worst_b = float(np.max(np.abs(x0v - cartesian_arrays(eta, th, 0.3)[0])))
    return [
        _result("starred expansion of 1 (alpha transport)", worst_a, 1e-6, f"joint depth {N}"),
        _result("starred expansion of x0 (beta transport)", worst_b, 1e-6, f"joint depth {N}"),
    ]


# ---------------------------------------------------------------------------
# monogenic suite
# ---------------------------------------------------------------------------

def check_T_monogenic() -> List[CheckResult]:
    """Fueter-operator residual of the exact monogenics T.

    Fully analytic: each component of T is a finite harmonic combination,
    so its partials are obtained by composing the coefficient tables
    twice; no finite differences enter.
    """
    pts = _random_interior_points(5, 1.0, 20240813)
    worst = 0.0
    for el in t_family(4, 3):
        if el.kind == "T":
            tables = t_term_tables(el.n, el.m, el.nu, el.mu)
            worst = max(worst, _max_norm(_dbar(_table_partials(tables, *pts))))
    return [_result("T monogenicity (analytic second derivatives)", worst, 1e-10)]


def check_T_scalar_part() -> List[CheckResult]:
    """Scalar part of T against the degree-raising image of its source.

    For the sine-family T the scalar part is the positive multiple of
    the starred harmonic; for the cosine family it is the negative
    multiple plus the zero-slot correction.
    """
    p = _point(1.3, 0.7, 0.4)
    worst = 0.0
    for el in t_family(4, 3):
        if el.kind == "T":
            sc = eval_T_batch(HarmonicIndex(el.n, el.m, el.nu, el.mu), *p)[0]
            ref = eval_d0_star(HarmonicIndex(el.n - 1, el.m, -el.nu, el.mu), *p)
            worst = max(worst, _max_rel(sc, ref))
    return [_result("Sc T matches degree-raising image", worst, 1e-10)]


def check_W_constants() -> List[CheckResult]:
    """W fields are monogenic constants (both operators vanish)."""
    x = cartesian_arrays(*_random_interior_points(3, 1.0, 20240814))
    worst = 0.0
    for m in range(-3, 4):
        for s in (1, -1):
            partials = _fd_partials(_w_field(m, s), *x, 1e-5)
            worst = max(worst, _max_norm(_dbar(partials)), _max_norm(_dbar(partials, -1)))
    return [_result("W monogenic constants", worst, 1e-6)]


def check_teodorescu_closed_form() -> List[CheckResult]:
    """Planar transform of the constant 1 against its closed form.

    Only the mode 0 of the source is nonzero, so the mode transform is
    exact up to round-off from its first level on."""
    r_in, r_out = TorusDomain(1.0).slice_radii()
    rng = np.random.default_rng(20240815)
    worst = 0.0
    for _ in range(10):
        r = r_in + (r_out - r_in) * (0.15 + 0.7 * rng.random())
        a = 2 * math.pi * rng.random()
        w = r * complex(math.cos(a), math.sin(a))
        val = teodorescu(lambda z: np.ones_like(z), w, r_in, r_out, tol=1e-8)
        ref = np.conj(w) - r_in**2 / w
        worst = max(worst, abs(val - ref) / abs(ref))
    return [_result("Teodorescu closed form on annulus", worst, 1e-12,
                    "10 interior probe points")]


def _cauchy_pompeiu(F, w, r_in, r_out, n=1024):
    """The Teodorescu transform at ``w`` of ``f = dF/d(zbar)`` by the
    Cauchy-Pompeiu formula ``F(w) - (1/2 pi i) oint F(z) / (z - w) dz`` over
    the boundary of the annulus: the periodic trapezoid rule of ``n`` nodes
    on each circle, the inner one clockwise."""
    circle = np.exp(2j * np.pi * np.arange(n) / n)

    def mean(r):  # (1/2 pi i) of the counterclockwise integral over |z| = r
        z = r * circle
        return np.mean(F(z) * z / (z - w))

    return F(w) - mean(r_out) + mean(r_in)


def check_teodorescu_oracle() -> List[CheckResult]:
    """The mode transform against the Cauchy-Pompeiu formula, for the
    smooth source ``f = exp(z/2 + conj(z)/3)`` (modes of both signs) with
    ``F = 3 f``, at points near the inner circle, in the middle and near
    the outer circle.  The boundary rule converges geometrically and shares
    nothing with the mode transform; at 1024 nodes per circle it is exact
    to round-off at all three points."""
    r_in, r_out = TorusDomain(1.0).slice_radii()

    def f(z):
        return np.exp(z / 2.0 + np.conj(z) / 3.0)

    worst = 0.0
    for frac, angle in ((0.05, 0.7), (0.5, 2.5), (0.95, -2.0)):
        w = (r_in + frac * (r_out - r_in)) * complex(math.cos(angle), math.sin(angle))
        ref = _cauchy_pompeiu(lambda z: 3.0 * f(z), w, r_in, r_out)
        worst = max(worst, abs(teodorescu(f, w, r_in, r_out, tol=1e-10) - ref) / abs(ref))
    return [_result("Teodorescu modes vs Cauchy-Pompeiu", worst, 1e-12,
                    "3 points across the annulus, 1024 boundary nodes per circle")]


def check_psi() -> List[CheckResult]:
    """The completion operator: closed forms for 1 and x0, the
    monogenicity of completions of the degree-0 harmonics, and their
    closed forms ``T0`` against ``Psi`` of the source."""
    dom = TorusDomain(1.0)
    r_in, _ = dom.slice_radii()
    out = []

    op1 = Psi(lambda x0, x1, x2: np.ones(np.broadcast(x0, x1, x2).shape),
              dom, tol=1e-9)
    opx = Psi(lambda x0, x1, x2: np.broadcast_arrays(np.asarray(x0, float), x1)[0],
              dom, tol=1e-9)
    x0, x1, x2 = cartesian_arrays(*_random_interior_points(6, 1.0, 20240816))
    f = 0.5 * (1.0 - r_in**2 / (x1**2 + x2**2))
    err = np.concatenate([op1(x0, x1, x2) - [[1.0], [0.0], [0.0]],
                          opx(x0, x1, x2) - np.stack([x0, f * x1, f * x2])])
    out.append(_result("completion closed forms (1 and x0)", float(np.max(np.abs(err))), 1e-8))
    worst_mono = _max_norm(_dbar(_fd_partials(opx, x0, x1, x2, 1e-4)))
    out.append(_result("completion of x0 monogenic", worst_mono, 1e-4))

    x = cartesian_arrays(*_random_interior_points(5, 1.0, 20240817))
    worst = worst_psi = 0.0
    for el in t_family(0, 3):
        field = partial(eval_T0_batch, el.m, el.mu)
        worst = max(worst, _max_norm(_dbar(_fd_partials(field, *x, 1e-4))))
        t0 = field(*x)
        completion = Psi(_chart_field(eval_I_batch, HarmonicIndex(0, el.m, 1, el.mu)), dom,
                         tol=1e-9)
        worst_psi = max(worst_psi, float(np.max(np.abs(completion(*x) - t0)
                                                / np.max(np.abs(t0)))))
    out.append(_result("completion of degree-0 harmonics monogenic", worst, 1e-4,
                       "m <= 3, random interior points, batched stencil"))
    out.append(_result("degree-0 monogenics T0 vs Psi(I_0m)", worst_psi, 1e-8,
                       "m <= 3, all three components, relative to the largest"))
    return out


def check_decompose() -> List[CheckResult]:
    """The full-quaternion split F = f + g e3 produces monogenic parts.

    The reconstruction itself is exact by construction (the completion
    preserves its scalar argument), so the content to verify is that
    both reduced-quaternion outputs annihilate the Fueter operator.
    """

    def F(x0, x1, x2):
        # W_1^+ e3 + (1 + 0.5 e1 + e3) + W_{-1}^-
        w_plus, w_minus = (field_values(_w_field(m, s), x0, x1, x2) for m, s in ((1, 1), (-1, -1)))
        const = np.multiply.outer([1.0, 0.5, 0.0, 1.0], np.ones(np.broadcast(x0, x1, x2).shape))
        return qmul(w_plus, E3) + const + w_minus

    f, g = decompose_H(F, TorusDomain(1.0), tol=1e-6)
    x = cartesian_arrays(*_random_interior_points(2, 1.0, 20240818))
    worst = max(_max_norm(_dbar(_fd_partials(part, *x, 1e-4))) for part in (g, f))
    return [_result("quaternion decomposition yields monogenic parts", worst, 1e-4)]


# ---------------------------------------------------------------------------
# cohomology suite
# ---------------------------------------------------------------------------

def check_W_coefficients() -> List[CheckResult]:
    """The cohomology coefficient of the generator ``W_{-1}^-`` is +1 under
    the fixed orientation, and that of every other ``W`` vanishes."""
    other = max(abs(cohomology(_w_field(m, s))) for m in range(-4, 5) for s in (1, -1)
                if (m, s) != (-1, -1))
    return [
        _result("generator coefficient +1 (fixed convention)",
                abs(cohomology(_w_field(-1, -1)) - 1.0), 1e-8),
        _result("literal-orientation regression (constant = -1)",
                abs(COH_ORIENTATION + 1.0), 0.0,
                "the raw line integral gives -1 for the generator"),
        _result("other W coefficients vanish", other, 1e-8, "|m| <= 4"),
    ]


def check_monogenic_coefficients() -> List[CheckResult]:
    """The coefficients of the exact monogenics ``T`` and ``T0`` vanish."""
    family = t_family(3, 2)
    worst_t = max(abs(cohomology(_chart_field(eval_T_batch,
                                              HarmonicIndex(el.n, el.m, el.nu, el.mu)),
                                 n_nodes=64, radius=0.9))
                  for el in family if el.kind == "T")
    worst_t0 = max(abs(cohomology(partial(eval_T0_batch, el.m, el.mu), n_nodes=32, radius=0.9))
                   for el in family if el.kind == "T0")
    return [
        _result("exact T coefficients vanish", worst_t, 1e-6),
        _result("degree-0 monogenic coefficients vanish", worst_t0, 1e-6),
    ]


def check_coefficient_invariance() -> List[CheckResult]:
    """The coefficient does not depend on the loop's radius, and the
    coefficient of an exact form ``d I`` vanishes."""
    table = [DerivativeTerm(HarmonicIndex(2, 1, 1, 1), Fraction(1))]

    def d_of_I(x0, x1, x2):
        # d I = d0 I - e1 d1 I - e2 d2 I from the exact derivative tables
        return _dbar(_table_partials([table], *toroidal_arrays(x0, x1, x2)), -1)

    a = cohomology(_w_field(-1, -1), radius=0.8)
    b = cohomology(_w_field(-1, -1), radius=1.2)
    return [
        _result("radius independence of the coefficient", abs(a - b), 1e-8),
        _result("exact forms have zero coefficient",
                abs(cohomology(d_of_I, n_nodes=64, radius=0.9)), 1e-8),
    ]


# ---------------------------------------------------------------------------
# expansions suite
# ---------------------------------------------------------------------------

def _margin_grid() -> ExpansionGrid:
    return ExpansionGrid.mesh(np.linspace(1.5, 4.0, 9),
                              np.linspace(-math.pi, math.pi, 11, endpoint=False),
                              np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False))


def check_known_expansions() -> List[CheckResult]:
    """Truncated closed-form series for 1 and x0 on a margin-0.5 grid."""
    N = 40
    grid = _margin_grid()
    v1 = evaluate_series_grid(known_expansion_one(N), grid)
    vx = evaluate_series_grid(known_expansion_x0(N), grid)
    return [
        _result("expansion of 1 over harmonics", float(np.max(np.abs(v1[0] - 1.0))),
                1e-6, f"N = {N}"),
        _result("expansion of x0 over harmonics", float(np.max(np.abs(vx[0] - grid.x0))),
                1e-6, f"N = {N}"),
    ]


def check_expansion_one_in_T() -> List[CheckResult]:
    """The constant 1 as a series of exact monogenics T."""
    grid = _margin_grid()
    v = evaluate_series_grid(known_expansion_one_in_T(20), grid)
    err = max(float(np.max(np.abs(v[0] - 1.0))),
              float(np.max(np.abs(v[1]))), float(np.max(np.abs(v[2]))))
    return [_result("expansion of 1 over exact monogenics", err, 1e-5, "N = 20")]


def check_j_coefficients() -> List[CheckResult]:
    """The planar-family expansion coefficients against the Fourier
    quadrature oracle, and the demonstrable failure of both misprint
    placements of the degree/order Kronecker factor."""
    n_max, m_max, eta = 10, 4, 1.2
    worst = 0.0
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            imp = j_coefficient(n, m)
            orc = j_coefficient_quadrature(n, m, 1, eta)
            worst = max(worst, abs(imp - orc) / max(abs(orc), 1e-300))
    ok = _result("planar expansion coefficients vs Fourier oracle", worst, 1e-8,
                 f"n <= {n_max}, m <= {m_max}")

    # misreading A doubles at order zero instead of degree zero: as a
    # function of degree it is constant, so it fails at (n, m) = (0, 0)
    unit = j_coefficient_unit()
    orc00 = j_coefficient_quadrature(0, 0, 1, eta)
    errA = abs(2.0 * unit - orc00) / abs(orc00)
    # misreading B doubles at degree zero (and only there): it fails for
    # every n >= 1 at m = 0
    errB = min(
        abs(unit * (2.0 if n == 0 else 1.0) - j_coefficient_quadrature(n, 0, 1, eta))
        / abs(j_coefficient_quadrature(n, 0, 1, eta))
        for n in range(1, n_max + 1)
    )
    fails = CheckResult(
        "misprint readings demonstrably fail",
        errA > 1e-3 and errB > 1e-3,
        min(errA, errB), 1e-3,
        "order-zero doubling fails at (0,0); degree-zero-only doubling fails at m=0, n>=1",
    )
    return [ok, fails]


# ---------------------------------------------------------------------------
# basis suite
# ---------------------------------------------------------------------------

def _gram_grid() -> ExpansionGrid:
    return ExpansionGrid.from_samples(sample_grid(TorusDomain(1.0), 8, 14, 14, margin=0.3))


def check_gram_definiteness() -> List[CheckResult]:
    """Positive-definiteness of the Gram matrices of the two basis
    truncations (about 50 reduced and 80 full elements)."""
    grid = _gram_grid()
    out = []
    for name, basis in (
        ("reduced basis Gram (first 50)", basis_A_second(4, 3)[:50]),
        ("full-quaternion basis Gram (first 80)", basis_H(4, 3)[:80]),
    ):
        ev = np.linalg.eigvalsh(gram(basis, grid))
        out.append(CheckResult(name, ev[0] > 0, float(ev[0]), 0.0,
                               f"min eigenvalue {ev[0]:.3e}"))
    return out


def check_projection_round_trip() -> List[CheckResult]:
    """Synthetic projection recovers planted coefficients."""
    grid = _gram_grid()
    planted = make_series([(element_T(2, 1, 1, 1), 2.0), (element_W(1, -1), 3.0)])
    s, res = project(planted, basis_A_second(3, 2), grid)
    c = s.coefficients()
    err = max(abs(c[element_T(2, 1, 1, 1)] - 2.0), abs(c[element_W(1, -1)] - 3.0), res)
    return [_result("synthetic projection round trip", err, 1e-6)]


def check_generator_orthogonality() -> List[CheckResult]:
    """The cohomology generator ``W_{-1}^-`` is orthogonal to every ``T``
    and ``T0`` of ``t_family(4, 3)``, and joins the span once added.

    ``W_{-1}^- = (-x2 e1 + x1 e2) / rho^2`` is ``grad phi``, and the vector
    part of ``T = d I*`` is ``-grad I*`` (see ``t_term_tables``), so
    ``<T, W_{-1}^->`` is, up to sign, the integral of ``rho^-2 dI*/dphi``.
    That integral vanishes because ``I*`` is periodic in phi, and so does
    its sum over the grid's uniform phi nodes, which resolve every mode of
    the family.  For ``T0`` the bound is measured: about 3e-18 on this grid,
    against about 3e-16 for ``T``."""
    grid = _gram_grid()
    family = t_family(4, 3)
    wm = element_W(-1, -1)
    g = gram(family + [wm], grid)
    norms = np.sqrt(np.diag(g))
    cosine = float(np.max(np.abs(g[-1, :-1]) / (norms[-1] * norms[:-1])))
    _, res_with = project(wm, [el for el in family if el.kind == "T"] + [wm], grid)
    return [
        _result("generator orthogonal to every T and T0", cosine, 1e-13,
                f"largest normalised inner product over t_family(4, 3), {len(family)} elements"),
        _result("generator joins the span when added", res_with, 1e-8),
    ]


def check_residual_monotonicity() -> List[CheckResult]:
    """Enlarging the basis never increases the projection residual."""
    grid = _gram_grid()
    inv = inverse_matrix(0, 3).row(3)
    target = make_series([(element_T(k + 1, 0, -1, 1), float(c))
                          for k, c in enumerate(inv) if c != 0])
    prev = math.inf
    worst = 0.0
    for n_max in (1, 2, 3, 4):
        _, res = project(target, basis_A_second(n_max, 1), grid)
        worst = max(worst, res - prev)
        prev = res
    return [_result("projection residual monotone in basis size", max(worst, 0.0), 1e-10)]


def check_projection_idempotence() -> List[CheckResult]:
    grid = _gram_grid()
    s0 = make_series([(element_T(2, 0, 1, 1), 1.5), (element_one(), -0.7),
                      (element_W(2, 1), 0.3)])
    s1, _ = project(s0, [el for el, _ in s0.terms], grid)
    err = max(abs(s1.coefficients()[el] - c) for el, c in s0.terms)
    return [_result("projection idempotence", err, 1e-8)]


def check_H_projection() -> List[CheckResult]:
    """A full-quaternion monogenic field is captured by the truncated
    full basis."""
    grid = _gram_grid()
    basis = basis_H(3, 2)
    from .expansion import element_e3_times
    target = make_series([
        (element_T(2, 0, 1, 1), 0.8),
        (element_e3_times(element_T(1, 1, -1, 1)), -1.1),
        (element_W(0, 1), 0.5),
        (element_e3_times(element_one()), 0.4),
        (element_one(), 1.0),
    ])
    _, res = project(target, basis, grid)
    return [_result("full-quaternion projection residual", res, 1e-4)]


def check_deep_truncation() -> List[CheckResult]:
    """Projection past degree 4, one SVD per phi mode: planted coefficients
    of the second reduced basis at degree 8 come back, and the Cauchy
    kernel with its pole in the hole is approximated at degree 10."""
    grid = _gram_grid()
    basis = basis_A_second(8, 3)
    norms = np.sqrt(np.diag(gram(basis, grid)))
    planted = np.random.default_rng(17).standard_normal(len(basis)) / norms
    s, _ = project(make_series(zip(basis, planted)), basis, grid)
    err = float(np.max(np.abs([c for _, c in s.terms] - planted) * norms))

    # conj(x) / |x|^3, with its pole at the origin
    cauchy = (np.stack([grid.x0, -grid.x1, -grid.x2, np.zeros(len(grid))])
              / (grid.x0**2 + grid.x1**2 + grid.x2**2) ** 1.5)
    _, res = project(cauchy, basis_A_second(10, 1), grid)
    rel = res / float(np.sqrt(np.sum(cauchy**2 * grid.weights)))
    return [
        _result("deep-truncation planted round trip", err, 1e-6,
                f"basis_A_second(8, 3), {len(basis)} unit-normalised coefficients"),
        _result("Cauchy kernel projection residual", rel, 1e-5,
                "conj(x)/|x|^3 onto basis_A_second(10, 1), relative to its grid norm"),
    ]


SUITES: Dict[str, Tuple[Callable[[], List[CheckResult]], ...]] = {
    "legendre": (check_legendre_recurrences, check_legendre_oracle, check_legendre_mpmath,
                 check_torus_volume),
    "derivatives": (check_harmonicity, check_derivative_tables),
    "appell": (check_reverse_appell_exact, check_matrix_inverse, check_reverse_appell_numeric,
               check_alpha_beta_transport),
    "monogenic": (check_T_monogenic, check_T_scalar_part, check_W_constants,
                  check_teodorescu_closed_form, check_teodorescu_oracle, check_psi,
                  check_decompose),
    "coh": (check_W_coefficients, check_monogenic_coefficients, check_coefficient_invariance),
    "expansions": (check_known_expansions, check_expansion_one_in_T, check_j_coefficients),
    "basis": (check_gram_definiteness, check_projection_round_trip,
              check_generator_orthogonality, check_residual_monotonicity,
              check_projection_idempotence, check_H_projection, check_deep_truncation),
}


def run_suite(name: str) -> List[CheckResult]:
    """The results of the checks of suite ``name``, in order."""
    return [r for check in SUITES[name] for r in check()]


__all__ = ["CheckResult", "SUITES", "run_suite"]
