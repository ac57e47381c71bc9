"""Verification suites.

Each suite function returns a list of :class:`CheckResult`; a check
passes when its residual is within its tolerance (exact checks report
residual 0 or 1).  The suites back both the command-line ``verify``
subcommand and the acceptance test battery, so everything here is
deterministic: random points come from fixed-seed generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List

import numpy as np

from .appell import (
    alpha_beta,
    eval_d0_star,
    eval_I_star,
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
    CartesianPoint,
    TorusDomain,
    ToroidalPoint,
    cartesian_arrays,
    sample_grid,
    to_cartesian,
    to_toroidal,
    toroidal_arrays,
)
from .harmonics import (
    HarmonicIndex,
    d0_terms,
    d1_terms,
    d2_terms,
    eval_I,
    eval_I_batch,
    eval_terms,
    fourier_cosine_coefficients,
    index_is_valid,
    j_coefficient,
    j_coefficient_quadrature,
    kappa,
)
from .monogenics import (
    COH_ORIENTATION,
    E3,
    Psi,
    cohomology,
    decompose_H,
    eval_T,
    eval_T0,
    eval_T0_batch,
    eval_T_batch,
    eval_W_batch,
    field_values,
    fueter,
    fueter_bar,
    qmul,
    teodorescu,
    t_is_zero,
)
from .quadrature import integrate_torus, torus_volume
from .special_functions import legendre_q_quadrature, q_half_grid


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


def _random_interior_points(n: int, eta0: float, seed: int,
                            margin: float = 0.3) -> List[ToroidalPoint]:
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        pts.append(ToroidalPoint(
            eta0 + margin + 2.5 * rng.random(),
            2.0 * math.pi * rng.random() - math.pi,
            2.0 * math.pi * rng.random() - math.pi,
        ))
    return pts


def _all_indices(n_max: int, m_max: int) -> List[HarmonicIndex]:
    out = []
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            for nu in (1, -1):
                for mu in (1, -1):
                    if index_is_valid(n, m, nu, mu):
                        out.append(HarmonicIndex(n, m, nu, mu))
    return out


# ---------------------------------------------------------------------------
# legendre suite
# ---------------------------------------------------------------------------

def check_legendre_recurrences(n_max: int = 30, m_max: int = 10) -> CheckResult:
    """Degree and order recurrences of the radial functions, relative
    residual over t in [1.1, 10]."""
    t = np.linspace(1.1, 10.0, 45)
    q = q_half_grid(n_max + 1, m_max, t)
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
    return _result("radial recurrences (degree and order)", worst, 1e-10)


def check_legendre_oracle(n_points: int = 125) -> CheckResult:
    """Fast radial path against the slow integral-representation oracle
    on sampled (n, m, t) triples."""
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(n_points):
        n = int(rng.integers(0, 13))
        m = int(rng.integers(0, 7))
        t = float(1.05 + 9.0 * rng.random())
        fast = float(q_half_grid(n, m, np.array([t]))[n, m, 0])
        slow = legendre_q_quadrature(n, m, t)
        worst = max(worst, abs(fast - slow) / max(abs(slow), 1e-300))
    return _result("radial fast path vs integral oracle", worst, 1e-8,
                   f"{n_points} sampled triples")


def check_torus_volume() -> CheckResult:
    """Numerical volume of the solid torus against the closed form."""
    worst = 0.0
    for eta0 in (0.5, 1.0, 2.0):
        val = integrate_torus(lambda x0, x1, x2: np.ones_like(x0), eta0, tol=1e-10)
        ref = torus_volume(eta0)
        worst = max(worst, abs(val.value - ref) / ref)
    return _result("torus volume vs closed form", worst, 1e-8)


def suite_legendre() -> List[CheckResult]:
    return [
        check_legendre_recurrences(),
        check_legendre_oracle(),
        check_torus_volume(),
    ]


# ---------------------------------------------------------------------------
# derivatives suite
# ---------------------------------------------------------------------------

def _laplacian_fd(idx: HarmonicIndex, pts: np.ndarray, h: float) -> float:
    """Max FD Laplacian residual of a harmonic over Cartesian points."""
    stencil = np.concatenate([
        pts,
        pts + [h, 0, 0], pts - [h, 0, 0],
        pts + [0, h, 0], pts - [0, h, 0],
        pts + [0, 0, h], pts - [0, 0, h],
    ])
    eta, th, ph = toroidal_arrays(stencil[:, 0], stencil[:, 1], stencil[:, 2])
    vals = eval_I_batch(idx, eta, th, ph).reshape(7, -1)
    lap = (vals[1:].sum(axis=0) - 6.0 * vals[0]) / h**2
    return float(np.max(np.abs(lap)))


def _point_data_mp(x0: float, x1: float, x2: float, n_max: int, m_max: int):
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


def check_harmonicity(n_max: int = 8, m_max: int = 4, n_points: int = 50) -> List[CheckResult]:
    """FD Laplacian of the toroidal harmonics at random interior points.

    Two parts.  The O(h^2) decay of the plain second-order stencil is
    observed in float64 across h in {1e-3, 1e-4}.  The residual bound at
    h = 1e-4 sits below both the second-order truncation floor (~5e-4
    here) and the float64 evaluation-noise floor (~3e-6, scaling as
    1/h^2), so the residual itself uses a fourth-order stencil with the
    harmonics evaluated through an extended-precision path.
    """
    import mpmath as mp

    pts = np.array([
        [x.x0, x.x1, x.x2]
        for x in map(to_cartesian, _random_interior_points(n_points, 1.0, 20240812))
    ])
    worst = {1e-3: 0.0, 1e-4: 0.0}
    for idx in _all_indices(n_max, m_max):
        for h in worst:
            worst[h] = max(worst[h], _laplacian_fd(idx, pts, h))
    decay = worst[1e-3] / max(worst[1e-4], 1e-300)

    h = 1e-4
    offsets = [(0, 0)]
    for ax in range(3):
        for k in (-2, -1, 1, 2):
            offsets.append((ax, k))
    with mp.workdps(35):
        hh = mp.mpf(h)
        w1, w2, w0 = 16 / (12 * hh * hh), -1 / (12 * hh * hh), -90 / (12 * hh * hh)
        data = []
        for p in pts:
            row = []
            for ax, k in offsets:
                d = [0.0, 0.0, 0.0]
                if k:
                    d[ax] = k * h
                row.append(_point_data_mp(p[0] + d[0], p[1] + d[1], p[2] + d[2],
                                          n_max, m_max))
            data.append(row)

        def val(pd, idx):
            pref, q, ct, st, cp, sp = pd
            tn = ct[idx.n] if idx.nu > 0 else st[idx.n]
            tm = cp[idx.m] if idx.mu > 0 else sp[idx.m]
            return pref * q[idx.n][idx.m] * tn * tm

        worst_hi = 0.0
        for idx in _all_indices(n_max, m_max):
            for row in data:
                lap = w0 * val(row[0], idx)
                for j, (_, k) in enumerate(offsets[1:], start=1):
                    lap += (w1 if abs(k) == 1 else w2) * val(row[j], idx)
                worst_hi = max(worst_hi, abs(float(lap)))

    return [
        _result("harmonicity: FD Laplacian at h=1e-4", worst_hi, 1e-6,
                f"{n_points} interior points, n<={n_max}, m<={m_max}, "
                "fourth-order stencil, extended-precision evaluation"),
        CheckResult("harmonicity: O(h^2) residual decay", decay > 10.0,
                    decay, 10.0, "ratio of residuals at h=1e-3 vs h=1e-4 (want >10)"),
    ]


def check_derivative_tables(n_max: int = 6, m_max: int = 6) -> CheckResult:
    """Analytic coefficient expansions of the three Cartesian partials
    against central differences."""
    p = ToroidalPoint(1.35, 0.85, 0.55)
    x = to_cartesian(p)
    h = 1e-5
    worst = 0.0
    for idx in _all_indices(n_max, m_max):
        for axis, table in ((0, d0_terms(idx)), (1, d1_terms(idx)), (2, d2_terms(idx))):
            d = [0.0, 0.0, 0.0]
            d[axis] = h
            fp = eval_I(idx, to_toroidal(CartesianPoint(x.x0 + d[0], x.x1 + d[1], x.x2 + d[2])))
            fm = eval_I(idx, to_toroidal(CartesianPoint(x.x0 - d[0], x.x1 - d[1], x.x2 - d[2])))
            fd = (fp - fm) / (2 * h)
            an = float(eval_terms(table, p.eta, p.theta, p.phi))
            worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    return _result("derivative tables vs central differences", worst, 1e-6,
                   f"all sign combinations, n,m <= {n_max}")


def suite_derivatives() -> List[CheckResult]:
    return check_harmonicity() + [check_derivative_tables()]


# ---------------------------------------------------------------------------
# appell suite
# ---------------------------------------------------------------------------

def check_reverse_appell_exact(m_max: int = 6, n_max: int = 15) -> CheckResult:
    """Coefficient-level degree-raising identity, exact in rationals."""
    for m in range(m_max + 1):
        ok, msg = reverse_appell_check(m, n_max)
        if not ok:
            return CheckResult("reverse-Appell exact", False, 1.0, 0.0, msg)
    return CheckResult("reverse-Appell exact", True, 0.0, 0.0,
                       f"m <= {m_max}, n <= {n_max}, zero tolerance")


def check_matrix_inverse(m_max: int = 6, n_max: int = 20) -> CheckResult:
    """Star matrix times its inverse equals the identity, exactly."""
    for m in range(m_max + 1):
        s = star_matrix(m, n_max).entries
        v = inverse_matrix(m, n_max).entries
        for n in range(n_max + 1):
            for k in range(n + 1):
                prod = sum(s[n][j] * v[j][k] for j in range(k, n + 1))
                if prod != (1 if n == k else 0):
                    return CheckResult("star matrix inverse exact", False, 1.0, 0.0,
                                       f"mismatch at m={m}, n={n}, k={k}")
    return CheckResult("star matrix inverse exact", True, 0.0, 0.0,
                       f"m <= {m_max}, n_max = {n_max}")


def check_reverse_appell_numeric(n_max: int = 6, m_max: int = 3) -> CheckResult:
    """Function-level degree raising: finite differences of the starred
    harmonics against the coefficient prediction.

    The cosine family satisfies the single-term identity; the sine
    family carries the zero-slot correction term (see
    ``appell.d0_star_terms``), which is what is verified here.
    """
    p = ToroidalPoint(1.4, 0.8, 0.5)
    x = to_cartesian(p)
    h = 1e-5
    worst = 0.0
    for m in range(m_max + 1):
        for n in range(1, n_max + 1):
            for nu in (1, -1):
                for mu in ((1,) if m == 0 else (1, -1)):
                    idx = HarmonicIndex(n, m, nu, mu)
                    fp = eval_I_star(idx, to_toroidal(CartesianPoint(x.x0 + h, x.x1, x.x2)))
                    fm = eval_I_star(idx, to_toroidal(CartesianPoint(x.x0 - h, x.x1, x.x2)))
                    fd = (fp - fm) / (2 * h)
                    an = eval_d0_star(idx, p)
                    worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    return _result("reverse-Appell numeric (degree raising)", worst, 1e-6,
                   "cosine family single-term; sine family with zero-slot correction")


def check_alpha_beta_transport(N: int = 25) -> List[CheckResult]:
    """The starred-basis coefficient lists reproduce 1 and x0.

    Evaluated at joint depth N = 25: the starred harmonics lose about
    eleven digits internally at depth 40, so the float check runs at the
    depth where roundoff stays below the tolerance; the underlying
    transport identity is exact in rationals at any depth.
    """
    alphas, betas, _ = alpha_beta(N)
    unit = j_coefficient_unit()
    eta, th = (c.ravel() for c in np.meshgrid(
        np.linspace(1.5, 4.0, 7), np.linspace(-math.pi, math.pi, 9, endpoint=False),
        indexing="ij"))
    q = q_half_grid(N, 0, np.cosh(eta))
    one = sum(unit * float(alphas[k])
              * eval_I_star_batch(HarmonicIndex(k, 0, 1, 1), eta, th, 0.3, q=q)
              for k in range(N + 1))
    x0v = sum(unit * float(betas[k])
              * eval_I_star_batch(HarmonicIndex(k, 0, -1, 1), eta, th, 0.3, q=q)
              for k in range(1, N + 1))
    worst_a = float(np.max(np.abs(one - 1.0)))
    worst_b = float(np.max(np.abs(x0v - cartesian_arrays(eta, th, 0.3)[0])))
    return [
        _result("starred expansion of 1 (alpha transport)", worst_a, 1e-6, f"joint depth {N}"),
        _result("starred expansion of x0 (beta transport)", worst_b, 1e-6, f"joint depth {N}"),
    ]


def suite_appell() -> List[CheckResult]:
    return [
        check_reverse_appell_exact(),
        check_matrix_inverse(),
        check_reverse_appell_numeric(),
    ] + check_alpha_beta_transport()


# ---------------------------------------------------------------------------
# monogenic suite
# ---------------------------------------------------------------------------

def _compose_terms(table, dfun) -> list:
    """Apply a derivative-table map to every term of an expansion and
    collect like harmonics."""
    from .harmonics import DerivativeTerm

    acc: Dict[HarmonicIndex, Fraction] = {}
    for t in table:
        for s in dfun(t.index):
            c = acc.get(s.index, Fraction(0)) + t.coefficient * s.coefficient
            acc[s.index] = c
    return [DerivativeTerm(k, v) for k, v in acc.items() if v != 0]


def check_T_monogenic(n_max: int = 4, m_max: int = 3) -> CheckResult:
    """Fueter-operator residual of the exact monogenics T.

    Fully analytic: each component of T is a finite harmonic combination,
    so its partials are obtained by composing the coefficient tables
    twice; no finite differences enter.
    """
    from .monogenics import t_term_tables

    pts = _random_interior_points(5, 1.0, 20240813)
    coords = np.array([(p.eta, p.theta, p.phi) for p in pts]).T
    worst = 0.0
    for n in range(1, n_max + 1):
        for m in range(m_max + 1):
            for nu in (1, -1):
                if t_is_zero(n, m, nu, 1):
                    continue
                for mu in ((1,) if m == 0 else (1, -1)):
                    f0, f1, f2 = t_term_tables(n, m, nu, mu)
                    # dbar(f0 + f1 e1 + f2 e2) componentwise
                    d = {(i, j): _compose_terms(t, dd)
                         for i, t in enumerate((f0, f1, f2))
                         for j, dd in enumerate((d0_terms, d1_terms, d2_terms))}
                    v = {k: eval_terms(t, *coords) for k, t in d.items()}
                    dbar = np.stack([
                        v[0, 0] - v[1, 1] - v[2, 2],
                        v[1, 0] + v[0, 1],
                        v[2, 0] + v[0, 2],
                        v[2, 1] - v[1, 2],
                    ])
                    worst = max(worst, float(np.max(np.linalg.norm(dbar, axis=0))))
    return _result("T monogenicity (analytic second derivatives)", worst, 1e-10)


def check_T_scalar_part(n_max: int = 4, m_max: int = 3) -> CheckResult:
    """Scalar part of T against the degree-raising image of its source.

    For the sine-family T the scalar part is the positive multiple of
    the starred harmonic; for the cosine family it is the negative
    multiple plus the zero-slot correction.
    """
    p = ToroidalPoint(1.3, 0.7, 0.4)
    worst = 0.0
    for n in range(1, n_max + 1):
        for m in range(m_max + 1):
            for nu in (1, -1):
                for mu in ((1,) if m == 0 else (1, -1)):
                    if t_is_zero(n, m, nu, 1):
                        continue
                    idx = HarmonicIndex(n, m, nu, mu)
                    sc = eval_T(idx, p).a0
                    ref = eval_d0_star(HarmonicIndex(n - 1, m, -nu, mu), p)
                    worst = max(worst, abs(sc - ref) / max(1.0, abs(ref)))
    return _result("Sc T matches degree-raising image", worst, 1e-10)


def _w_field(m: int, s: int):
    """``W_m^s`` as a field."""
    return lambda x0, x1, x2: eval_W_batch(m, s, x1, x2)


def _t_field(idx: HarmonicIndex):
    """``T_idx`` as a field."""
    return lambda x0, x1, x2: eval_T_batch(idx, *toroidal_arrays(x0, x1, x2))


def check_W_constants(m_range=(-3, 3)) -> CheckResult:
    """W fields are monogenic constants (both operators vanish)."""
    worst = 0.0
    for p in _random_interior_points(3, 1.0, 20240814):
        x = to_cartesian(p)
        for m in range(m_range[0], m_range[1] + 1):
            for s in (1, -1):
                worst = max(worst, fueter_bar(_w_field(m, s), x).norm(),
                            fueter(_w_field(m, s), x).norm())
    return _result("W monogenic constants", worst, 1e-6)


def check_teodorescu_closed_form(eta0: float = 1.0) -> CheckResult:
    """Planar transform of the constant 1 against its closed form."""
    dom = TorusDomain(eta0)
    r_in, r_out = dom.slice_radii()
    rng = np.random.default_rng(20240815)
    worst = 0.0
    for _ in range(10):
        r = r_in + (r_out - r_in) * (0.15 + 0.7 * rng.random())
        a = 2 * math.pi * rng.random()
        w = r * complex(math.cos(a), math.sin(a))
        val = teodorescu(lambda z: np.ones_like(z), w, r_in, r_out, tol=1e-8)
        ref = np.conj(w) - r_in**2 / w
        worst = max(worst, abs(val - ref) / abs(ref))
    return _result("Teodorescu closed form on annulus", worst, 1e-4,
                   "10 interior probe points")


def check_psi(eta0: float = 1.0) -> List[CheckResult]:
    """The completion operator: closed forms for 1 and x0, and the
    monogenicity of completions of the degree-0 harmonics."""
    dom = TorusDomain(eta0)
    r_in, _ = dom.slice_radii()
    out = []

    op1 = Psi(lambda x0, x1, x2: np.ones(np.broadcast(x0, x1, x2).shape),
              dom, tol=1e-9)
    opx = Psi(lambda x0, x1, x2: np.broadcast_arrays(np.asarray(x0, float), x1)[0],
              dom, tol=1e-9)
    worst_cf = 0.0
    worst_mono = 0.0
    pts = _random_interior_points(6, eta0, 20240816)
    for p in pts:
        x = to_cartesian(p)
        v1 = op1(x.x0, x.x1, x.x2)
        worst_cf = max(worst_cf, abs(v1[0] - 1.0), abs(v1[1]), abs(v1[2]))
        vx = opx(x.x0, x.x1, x.x2)
        rho2 = x.x1**2 + x.x2**2
        f = 0.5 * (1.0 - r_in**2 / rho2)
        worst_cf = max(worst_cf, abs(vx[0] - x.x0),
                       abs(vx[1] - f * x.x1), abs(vx[2] - f * x.x2))
        worst_mono = max(worst_mono, fueter_bar(opx, x, h=1e-4).norm())
    out.append(_result("completion closed forms (1 and x0)", worst_cf, 1e-8))
    out.append(_result("completion of x0 monogenic", worst_mono, 1e-4))

    worst = 0.0
    pts20 = _random_interior_points(20, eta0, 20240817)
    base = np.array([[x.x0, x.x1, x.x2]
                     for x in map(to_cartesian, pts20[:5])])
    h = 1e-4
    stencil = np.concatenate([
        base,
        base + [h, 0, 0], base - [h, 0, 0],
        base + [0, h, 0], base - [0, h, 0],
        base + [0, 0, h], base - [0, 0, h],
    ])
    for m in range(4):
        for mu in ((1,) if m == 0 else (1, -1)):
            v = eval_T0_batch(m, mu, stencil[:, 0], stencil[:, 1],
                              stencil[:, 2]).reshape(3, 7, -1)
            d = [(v[:, 2 * i + 1] - v[:, 2 * i + 2]) / (2 * h) for i in range(3)]
            dbar = np.stack([
                d[0][0] - d[1][1] - d[2][2],
                d[0][1] + d[1][0],
                d[0][2] + d[2][0],
                d[1][2] - d[2][1],
            ])
            worst = max(worst, float(np.max(np.linalg.norm(dbar, axis=0))))
    out.append(_result("completion of degree-0 harmonics monogenic", worst, 1e-4,
                       "m <= 3, random interior points, batched stencil"))

    worst_sc = 0.0
    for m in range(4):
        for mu in ((1,) if m == 0 else (1, -1)):
            for p in pts20[:5]:
                sc = eval_T0(m, mu, p).a0
                ref = eval_I(HarmonicIndex(0, m, 1, mu), p)
                worst_sc = max(worst_sc, abs(sc - ref))
    out.append(_result("degree-0 monogenics preserve scalar part", worst_sc, 1e-8))
    return out


def check_decompose(eta0: float = 1.0) -> CheckResult:
    """The full-quaternion split F = f + g e3 produces monogenic parts.

    The reconstruction itself is exact by construction (the completion
    preserves its scalar argument), so the content to verify is that
    both reduced-quaternion outputs annihilate the Fueter operator.
    """
    dom = TorusDomain(eta0)

    def F(x0, x1, x2):
        # W_1^+ e3 + (1 + 0.5 e1 + e3) + W_{-1}^-
        w_plus, w_minus = (field_values(_w_field(m, s), x0, x1, x2) for m, s in ((1, 1), (-1, -1)))
        const = np.multiply.outer([1.0, 0.5, 0.0, 1.0], np.ones(np.broadcast(x0, x1, x2).shape))
        return qmul(w_plus, E3) + const + w_minus

    f, g = decompose_H(F, dom, tol=1e-6)
    worst = 0.0
    for p in _random_interior_points(2, eta0, 20240818):
        x = to_cartesian(p)
        worst = max(worst, fueter_bar(g, x, h=1e-4).norm(),
                    fueter_bar(f, x, h=1e-4).norm())
    return _result("quaternion decomposition yields monogenic parts", worst, 1e-4)


def suite_monogenic() -> List[CheckResult]:
    return [
        check_T_monogenic(),
        check_T_scalar_part(),
        check_W_constants(),
        check_teodorescu_closed_form(),
        *check_psi(),
        check_decompose(),
    ]


# ---------------------------------------------------------------------------
# cohomology suite
# ---------------------------------------------------------------------------

def suite_coh() -> List[CheckResult]:
    out = []
    v = cohomology(_w_field(-1, -1))
    out.append(_result("generator coefficient +1 (fixed convention)", abs(v - 1.0), 1e-8))
    out.append(_result("literal-orientation regression (constant = -1)",
                       abs(COH_ORIENTATION + 1.0), 0.0,
                       "the raw line integral gives -1 for the generator"))
    worst = 0.0
    for m in range(-4, 5):
        for s in (1, -1):
            if (m, s) == (-1, -1):
                continue
            worst = max(worst, abs(cohomology(_w_field(m, s))))
    out.append(_result("other W coefficients vanish", worst, 1e-8, "|m| <= 4"))

    worst = 0.0
    for n in range(1, 4):
        for m in range(3):
            for nu in (1, -1):
                if t_is_zero(n, m, nu, 1):
                    continue
                for mu in ((1,) if m == 0 else (1, -1)):
                    idx = HarmonicIndex(n, m, nu, mu)
                    worst = max(worst, abs(cohomology(_t_field(idx), n_nodes=64, radius=0.9)))
    out.append(_result("exact T coefficients vanish", worst, 1e-6))

    worst = 0.0
    for m in range(3):
        for mu in ((1,) if m == 0 else (1, -1)):
            worst = max(worst, abs(cohomology(
                partial(eval_T0_batch, m, mu), n_nodes=32, radius=0.9)))
    out.append(_result("degree-0 monogenic coefficients vanish", worst, 1e-6))

    a = cohomology(_w_field(-1, -1), radius=0.8)
    b = cohomology(_w_field(-1, -1), radius=1.2)
    out.append(_result("radius independence of the coefficient", abs(a - b), 1e-8))

    idx = HarmonicIndex(2, 1, 1, 1)

    def d_of_I(x0, x1, x2):
        # d I = d0 I - e1 d1 I - e2 d2 I from the exact derivative tables
        tor = toroidal_arrays(x0, x1, x2)
        return np.stack([s * eval_terms(table(idx), *tor)
                         for s, table in ((1, d0_terms), (-1, d1_terms), (-1, d2_terms))])

    v = cohomology(d_of_I, n_nodes=64, radius=0.9)
    out.append(_result("exact forms have zero coefficient", abs(v), 1e-8))
    return out


# ---------------------------------------------------------------------------
# expansions suite
# ---------------------------------------------------------------------------

def _margin_grid(eta0: float, margin: float) -> ExpansionGrid:
    eta = np.linspace(eta0 + margin, eta0 + 3.0, 9)
    th = np.linspace(-math.pi, math.pi, 11, endpoint=False)
    ph = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
    E, T, P = np.meshgrid(eta, th, ph, indexing="ij")
    x0, x1, x2 = cartesian_arrays(E, T, P)
    pts = [(CartesianPoint(a, b, c), 1.0)
           for a, b, c in zip(x0.ravel(), x1.ravel(), x2.ravel())]
    return ExpansionGrid.from_samples(pts)


def check_known_expansions(N: int = 40) -> List[CheckResult]:
    """Truncated closed-form series for 1 and x0 on a margin-0.5 grid."""
    grid = _margin_grid(1.0, 0.5)
    v1 = evaluate_series_grid(known_expansion_one(N), grid)
    vx = evaluate_series_grid(known_expansion_x0(N), grid)
    return [
        _result("expansion of 1 over harmonics", float(np.max(np.abs(v1[0] - 1.0))),
                1e-6, f"N = {N}"),
        _result("expansion of x0 over harmonics", float(np.max(np.abs(vx[0] - grid.x0))),
                1e-6, f"N = {N}"),
    ]


def check_expansion_one_in_T(N: int = 20) -> CheckResult:
    """The constant 1 as a series of exact monogenics T."""
    grid = _margin_grid(1.0, 0.5)
    v = evaluate_series_grid(known_expansion_one_in_T(N), grid)
    err = max(float(np.max(np.abs(v[0] - 1.0))),
              float(np.max(np.abs(v[1]))), float(np.max(np.abs(v[2]))))
    return _result("expansion of 1 over exact monogenics", err, 1e-5, f"N = {N}")


def check_j_coefficients(n_max: int = 10, m_max: int = 4,
                         eta: float = 1.2) -> List[CheckResult]:
    """The planar-family expansion coefficients against the Fourier
    quadrature oracle, and the demonstrable failure of both misprint
    placements of the degree/order Kronecker factor."""
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


def suite_expansions() -> List[CheckResult]:
    return (
        check_known_expansions()
        + [check_expansion_one_in_T()]
        + check_j_coefficients()
    )


# ---------------------------------------------------------------------------
# basis suite
# ---------------------------------------------------------------------------

def _gram_grid(eta0: float = 1.0) -> ExpansionGrid:
    return ExpansionGrid.from_samples(sample_grid(TorusDomain(eta0), 8, 14, 14, margin=0.3))


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


def check_projection_round_trip() -> CheckResult:
    """Synthetic projection recovers planted coefficients."""
    grid = _gram_grid()
    planted = make_series([(element_T(2, 1, 1, 1), 2.0), (element_W(1, -1), 3.0)])
    s, res = project(planted, basis_A_second(3, 2), grid)
    c = s.coefficients()
    err = max(abs(c[element_T(2, 1, 1, 1)] - 2.0), abs(c[element_W(1, -1)] - 3.0), res)
    return _result("synthetic projection round trip", err, 1e-6)


def check_w_plateau() -> List[CheckResult]:
    """The generator is not approximable by exact monogenics alone, but
    joins the span exactly once added."""
    grid = _gram_grid()
    t_only = [el for el in t_family(4, 3) if el.kind == "T"]
    wm = element_W(-1, -1)
    wnorm = math.sqrt(gram([wm], grid)[0, 0])
    _, res_without = project(wm, t_only, grid)
    _, res_with = project(wm, t_only + [wm], grid)
    return [
        CheckResult("generator residual plateau vs exact monogenics",
                    res_without / wnorm > 0.1, res_without / wnorm, 0.1,
                    "want residual above 0.1 of the norm"),
        _result("generator joins the span when added", res_with, 1e-8),
    ]


def check_residual_monotonicity() -> CheckResult:
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
    return _result("projection residual monotone in basis size", max(worst, 0.0), 1e-10)


def check_projection_idempotence() -> CheckResult:
    grid = _gram_grid()
    s0 = make_series([(element_T(2, 0, 1, 1), 1.5), (element_one(), -0.7),
                      (element_W(2, 1), 0.3)])
    s1, _ = project(s0, [el for el, _ in s0.terms], grid)
    err = max(abs(s1.coefficients()[el] - c) for el, c in s0.terms)
    return _result("projection idempotence", err, 1e-8)


def check_H_projection() -> CheckResult:
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
    return _result("full-quaternion projection residual", res, 1e-4)


def suite_basis() -> List[CheckResult]:
    return (
        check_gram_definiteness()
        + [check_projection_round_trip()]
        + check_w_plateau()
        + [check_residual_monotonicity(), check_projection_idempotence(),
           check_H_projection()]
    )


SUITES: Dict[str, Callable[[], List[CheckResult]]] = {
    "legendre": suite_legendre,
    "derivatives": suite_derivatives,
    "appell": suite_appell,
    "monogenic": suite_monogenic,
    "coh": suite_coh,
    "expansions": suite_expansions,
    "basis": suite_basis,
}


def run_suite(name: str) -> List[CheckResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()


__all__ = ["CheckResult", "SUITES", "run_suite"]
