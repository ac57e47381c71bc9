import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from toroharm.geometry import CartesianPoint, ToroidalPoint, to_cartesian, to_toroidal
from toroharm.harmonics import (
    HarmonicIndex,
    d0_terms,
    d1_terms,
    d2_terms,
    eval_I,
    eval_I_batch,
    eval_terms,
    index_is_valid,
    j_coefficient,
    j_coefficient_quadrature,
    kappa,
    parse_sign,
)
from toroharm.monogenics import eval_W_batch

P = ToroidalPoint(1.4, 0.8, 0.5)


def test_parse_sign():
    assert parse_sign("+") == 1
    assert parse_sign("-") == -1
    assert parse_sign(1) == 1
    with pytest.raises(ValueError):
        parse_sign("x")


def test_zero_function_indices_rejected():
    # sine of 0 * angle is identically zero in either slot
    assert not index_is_valid(0, 2, -1, 1)
    assert not index_is_valid(2, 0, 1, -1)
    assert index_is_valid(0, 0, 1, 1)
    with pytest.raises(ValueError):
        HarmonicIndex(0, 1, -1, 1)


def test_eval_matches_batch():
    idx = HarmonicIndex(3, 2, 1, -1)
    eta = np.array([1.2, 1.4, 2.0])
    theta = np.array([0.3, 0.8, -1.0])
    phi = np.array([0.0, 0.5, 2.0])
    batch = eval_I_batch(idx, eta, theta, phi)
    for i in range(3):
        assert_allclose(
            batch[i], eval_I(idx, ToroidalPoint(eta[i], theta[i], phi[i])),
            rtol=1e-13)


def test_structure_of_I():
    # separable structure: the phi dependence of a mu=- harmonic is sin(m phi)
    idx = HarmonicIndex(2, 3, 1, -1)
    a = eval_I(idx, ToroidalPoint(1.4, 0.8, 0.5))
    b = eval_I(idx, ToroidalPoint(1.4, 0.8, 0.0))
    assert b == 0.0
    c = eval_I(HarmonicIndex(2, 3, 1, 1), ToroidalPoint(1.4, 0.8, 0.0))
    assert_allclose(a, c * math.sin(3 * 0.5) / 1.0, rtol=1e-12)


def test_planar_harmonics():
    # J_m^s = Re / Im (x1 + i x2)^m is the e1 row of W_m^s
    x = CartesianPoint(0.0, 0.6, 0.8)
    z = complex(0.6, 0.8)

    def J(m, s):
        return eval_W_batch(m, s, [x.x1], [x.x2])[1, 0]

    assert_allclose(J(3, 1), (z**3).real, rtol=1e-14)
    assert_allclose(J(3, -1), (z**3).imag, rtol=1e-14)
    assert_allclose(J(-2, 1), (z**-2).real, rtol=1e-13)


def test_kappa_values():
    # the anomalous degree-0 value sits at target degree 1
    assert kappa(1, 2, 0) == Fraction(3, 2)
    assert kappa(2, 1, 2) == 2
    assert kappa(1, 1, 2) == Fraction(-5, 4)
    assert kappa(3, 1, 2) == Fraction(-3, 4)


@pytest.mark.parametrize("maker,axis", [(d0_terms, 0), (d1_terms, 1), (d2_terms, 2)])
@pytest.mark.parametrize("n,m,nu,mu", [
    (2, 1, 1, 1), (3, 2, -1, -1), (0, 2, 1, 1), (4, 0, -1, 1), (1, 1, 1, -1),
])
def test_derivative_tables_against_fd(maker, axis, n, m, nu, mu):
    idx = HarmonicIndex(n, m, nu, mu)
    x = to_cartesian(P)
    h = 1e-5
    d = [0.0, 0.0, 0.0]
    d[axis] = h
    fp = eval_I(idx, to_toroidal(CartesianPoint(x.x0 + d[0], x.x1 + d[1], x.x2 + d[2])))
    fm = eval_I(idx, to_toroidal(CartesianPoint(x.x0 - d[0], x.x1 - d[1], x.x2 - d[2])))
    fd = (fp - fm) / (2 * h)
    assert_allclose(eval_terms(maker(idx), P.eta, P.theta, P.phi), fd, rtol=2e-8, atol=1e-10)


def test_j_coefficient_against_quadrature():
    for n in range(6):
        for m in range(4):
            ref = j_coefficient_quadrature(n, m, 1, eta=1.2)
            assert_allclose(j_coefficient(n, m), ref, rtol=1e-9)


def test_j_coefficient_neumann_factor():
    # only the n = 0 coefficient escapes the doubling
    unit = math.sqrt(2.0 / math.pi) / math.gamma(0.5)
    assert_allclose(j_coefficient(0, 0), unit, rtol=1e-13)
    assert_allclose(j_coefficient(3, 0), 2.0 * unit, rtol=1e-13)
    assert_allclose(j_coefficient(7, 0), j_coefficient(3, 0), rtol=1e-15)


def test_j_coefficient_negative_order():
    # the m < 0 values fold back per the quadrature oracle, with the two
    # angular families differing only by an overall sign
    assert_allclose(j_coefficient(3, -2, 1),
                    j_coefficient_quadrature(3, -2, 1, eta=1.2), rtol=1e-9)
    assert_allclose(j_coefficient(3, -2, -1), -j_coefficient(3, -2, 1), rtol=1e-14)
