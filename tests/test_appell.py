from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from toroharm.appell import (
    alpha_beta,
    d0_star_terms,
    eval_d0_star,
    eval_I_star_batch,
    inverse_matrix,
    j_coefficient_unit,
    reverse_appell_check,
    star_matrix,
    star_terms,
)
from toroharm.geometry import ToroidalPoint, to_cartesian, toroidal_arrays
from toroharm.harmonics import HarmonicIndex, kappa

P = ToroidalPoint(1.4, 0.8, 0.5)


def test_star_matrix_examples():
    s = star_matrix(0, 2)
    assert s.row(2) == (Fraction(1, 3), Fraction(-4, 3), Fraction(1))
    # unit diagonal by construction
    for n in range(3):
        assert s.row(n)[n] == 1


def test_inverse_is_exact():
    for m in (0, 1, 3):
        s = star_matrix(m, 12).entries
        v = inverse_matrix(m, 12).entries
        for n in range(13):
            for k in range(n + 1):
                prod = sum(s[n][j] * v[j][k] for j in range(k, n + 1))
                assert prod == (1 if n == k else 0)


def test_star_terms_drop_zero_functions():
    # the k = 0 term of a sine-family combination multiplies a zero function
    terms = star_terms(HarmonicIndex(3, 1, -1, 1))
    assert all(t.n >= 1 for t, _ in terms)
    terms_cos = star_terms(HarmonicIndex(3, 1, 1, 1))
    assert any(t.n == 0 for t, _ in terms_cos)


def test_reverse_appell_exact():
    for m in (0, 2, 5):
        ok, msg = reverse_appell_check(m, 12)
        assert ok, msg


@pytest.mark.parametrize("n,m,nu,mu", [
    (2, 0, 1, 1), (3, 1, 1, -1), (2, 0, -1, 1), (4, 2, -1, -1), (1, 3, -1, 1),
])
def test_degree_raising_matches_fd(n, m, nu, mu):
    idx = HarmonicIndex(n, m, nu, mu)
    x = to_cartesian(P)
    h = 1e-5
    fp, fm = eval_I_star_batch(idx, *toroidal_arrays(x.x0 + np.array([h, -h]), x.x1, x.x2))
    assert_allclose(eval_d0_star(idx, P.eta, P.theta, P.phi), (fp - fm) / (2 * h), rtol=1e-7, atol=1e-9)


def test_degree_raising_cosine_family_single_term():
    terms = d0_star_terms(HarmonicIndex(3, 2, 1, 1))
    assert len(terms) == 1
    (tidx, starred, coeff) = terms[0]
    assert starred and tidx == HarmonicIndex(4, 2, -1, 1)
    assert coeff == kappa(4, 2, 3)


def test_degree_raising_sine_family_correction():
    # the sine family carries an extra plain-harmonic term from the
    # zero-function slot of the coefficient recursion
    terms = d0_star_terms(HarmonicIndex(3, 2, -1, 1))
    kinds = sorted(starred for _, starred, _ in terms)
    assert kinds == [False, True]


def test_alpha_beta_are_exact_fractions():
    alphas, betas = alpha_beta(10)
    assert all(isinstance(a, Fraction) for a in alphas)
    assert all(isinstance(b, Fraction) for b in betas)


def test_alpha_beta_reproduce_constants():
    N = 20
    alphas, _ = alpha_beta(N)
    unit = j_coefficient_unit()
    p = ToroidalPoint(1.8, 0.4, 0.3)
    total = sum(unit * float(alphas[k])
                * eval_I_star_batch(HarmonicIndex(k, 0, 1, 1), [p.eta], [p.theta], [p.phi])[0]
                for k in range(N + 1))
    assert_allclose(total, 1.0, atol=1e-6)
