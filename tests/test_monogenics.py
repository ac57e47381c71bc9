import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from toroharm.geometry import (
    CartesianPoint,
    TorusDomain,
    ToroidalPoint,
    to_cartesian,
    toroidal_arrays,
)
from toroharm.harmonics import HarmonicIndex, eval_I, eval_I_batch
from toroharm.monogenics import (
    COH_ORIENTATION,
    E1,
    E2,
    E3,
    Psi,
    Quaternion,
    ReducedQuaternion,
    cohomology,
    decompose_H,
    eval_T,
    eval_T0,
    eval_T_batch,
    eval_W,
    eval_W_batch,
    field_values,
    fueter,
    fueter_bar,
    psi,
    qmul,
    t_is_zero,
    teodorescu,
)

P = ToroidalPoint(1.4, 0.8, 0.5)
X = to_cartesian(P)


def _w_field(m, s):
    return lambda x0, x1, x2: eval_W_batch(m, s, x1, x2)


def _t_field(idx):
    return lambda x0, x1, x2: eval_T_batch(idx, *toroidal_arrays(x0, x1, x2))


def test_quaternion_algebra():
    assert_array_equal(qmul(E1, E2), E3)
    assert_array_equal(qmul(E2, E3), E1)
    assert_array_equal(qmul(E3, E1), E2)
    assert_array_equal(qmul(E1, E1), [-1.0, 0.0, 0.0, 0.0])
    q = np.array([1.0, 2.0, -1.0, 0.5])
    r = np.array([0.3, -0.2, 1.0, 2.0])
    # norm is multiplicative for quaternions
    assert_allclose(np.linalg.norm(qmul(q, r)), np.linalg.norm(q) * np.linalg.norm(r),
                    rtol=1e-13)
    # component arrays multiply pointwise, with broadcasting
    qs = np.stack([q, r], axis=1)
    assert_array_equal(qmul(qs, E3), np.stack([qmul(q, E3), qmul(r, E3)], axis=1))


def test_field_values_pads_components():
    x0 = np.array([0.1, 0.2])
    x1, x2 = x0 + 1.0, x0 - 1.0
    assert_array_equal(field_values(lambda a, b, c: a * b, x0, x1, x2),
                       [x0 * x1, [0, 0], [0, 0], [0, 0]])
    assert_array_equal(field_values(_w_field(1, 1), x0, x1, x2)[3], [0, 0])


def test_reduced_quaternion_embedding():
    v = ReducedQuaternion(1.0, 2.0, 3.0)
    q = v.to_quaternion()
    assert q == Quaternion(1.0, 2.0, 3.0, 0.0)
    assert_allclose(v.norm(), math.sqrt(14.0))


def test_w_is_monogenic_constant():
    for m in (-2, -1, 0, 3):
        for s in (1, -1):
            assert fueter_bar(_w_field(m, s), X).norm() < 1e-7
            assert fueter(_w_field(m, s), X).norm() < 1e-7


def test_w_e3_relation():
    # multiplying W by e3 on the right swaps the family and flips a sign
    for m in (-1, 0, 2):
        for s in (1, -1):
            lhs = qmul(eval_W(m, s, X).to_quaternion().as_array(), E3)
            rhs = -s * eval_W(m, -s, X).to_quaternion().as_array()
            assert np.linalg.norm(lhs - rhs) < 1e-14


def test_w_batch_matches_pointwise():
    x1 = np.array([0.8, 1.1])
    x2 = np.array([-0.2, 0.4])
    for m, s in ((2, 1), (-1, -1)):
        batch = eval_W_batch(m, s, x1, x2)
        for i in range(2):
            v = eval_W(m, s, CartesianPoint(0.0, x1[i], x2[i]))
            assert_allclose(batch[:, i], [v.a0, v.a1, v.a2], rtol=1e-13)


def test_t_zero_slots():
    assert t_is_zero(1, 0, 1, 1)
    assert t_is_zero(1, 2, 1, -1)
    assert not t_is_zero(1, 0, -1, 1)
    assert not t_is_zero(2, 0, 1, 1)
    v = eval_T(HarmonicIndex(1, 2, 1, 1), P)
    assert v.norm() == 0.0


def test_t_monogenic_fd():
    idx = HarmonicIndex(2, 1, 1, 1)
    r = fueter_bar(_t_field(idx), X)
    assert r.norm() < 1e-5


def test_t_batch_matches_pointwise():
    idx = HarmonicIndex(3, 1, -1, -1)
    eta = np.array([1.3, 1.9])
    theta = np.array([0.4, -0.7])
    phi = np.array([0.1, 2.3])
    batch = eval_T_batch(idx, eta, theta, phi)
    for i in range(2):
        v = eval_T(idx, ToroidalPoint(eta[i], theta[i], phi[i]))
        assert_allclose(batch[:, i], [v.a0, v.a1, v.a2], rtol=1e-12)


def test_teodorescu_closed_form():
    r_in, r_out = 0.5, 2.0
    w = 1.2 + 0.4j
    val = teodorescu(lambda z: np.ones_like(z), w, r_in, r_out, tol=1e-9)
    assert_allclose(val, np.conj(w) - r_in**2 / w, rtol=1e-7)


def test_psi_of_constant():
    dom = TorusDomain(1.0)
    v = psi(lambda x0, x1, x2: np.ones(np.broadcast(x0, x1, x2).shape), dom, X)
    assert_allclose([v.a0, v.a1, v.a2], [1.0, 0.0, 0.0], atol=1e-9)


def test_psi_of_x0_closed_form():
    dom = TorusDomain(1.0)
    r_in, _ = dom.slice_radii()
    op = Psi(lambda x0, x1, x2: np.broadcast_arrays(np.asarray(x0, float), x1)[0],
             dom, tol=1e-9)
    v = op(X.x0, X.x1, X.x2)
    rho2 = X.x1**2 + X.x2**2
    f = 0.5 * (1.0 - r_in**2 / rho2)
    assert_allclose(v, [X.x0, f * X.x1, f * X.x2], atol=1e-8)


def test_psi_preserves_scalar_part():
    # completion of a harmonic scalar leaves the scalar slot untouched
    m, mu = 2, 1
    v = eval_T0(m, mu, P)
    assert_allclose(v.a0, eval_I(HarmonicIndex(0, m, 1, mu), P), atol=1e-10)


def _mp_I0(m, mu, x0, x1, x2):
    """``I_{0,m}^{+,mu}`` at a Cartesian point, in mpmath."""
    rho = mp.hypot(x1, x2)
    far, near = (rho + 1) ** 2 + x0**2, (rho - 1) ** 2 + x0**2
    t = (far + near) / (2 * mp.sqrt(far * near))  # cosh(eta)
    cos_theta = (rho**2 + x0**2 - 1) / mp.sqrt(far * near)
    q = mp.re(mp.legenq(-mp.mpf(1) / 2, m, t, type=3))
    trig = mp.cos if mu > 0 else mp.sin
    return mp.sqrt(t - cos_theta) * q * trig(m * mp.atan2(x2, x1))


T0_POINTS = [ToroidalPoint(1.2, 0.7, 0.4), ToroidalPoint(1.6, -1.1, 2.0),
             ToroidalPoint(0.9, 2.3, -0.8)]


@pytest.mark.parametrize("m,mu", [(1, 1), (2, -1)])
def test_t0_against_mpmath(m, mu):
    # T0 = I_{0,m} - (int_0^x0 d1 I_{0,m} dt) e1 - (int_0^x0 d2 I_{0,m} dt) e2
    for p in T0_POINTS:
        x = to_cartesian(p)
        with mp.workdps(25):
            ref = [
                _mp_I0(m, mu, x.x0, x.x1, x.x2),
                -mp.quad(lambda t: mp.diff(lambda s: _mp_I0(m, mu, t, s, x.x2), x.x1),
                         [0, x.x0]),
                -mp.quad(lambda t: mp.diff(lambda s: _mp_I0(m, mu, t, x.x1, s), x.x2),
                         [0, x.x0]),
            ]
        ref = np.array([float(r) for r in ref])
        v = eval_T0(m, mu, p)
        err = np.max(np.abs(v.as_array() - ref)) / np.max(np.abs(ref))
        assert err < 1e-12, (p, err)


@pytest.mark.parametrize("m,mu", [(1, 1), (2, -1)])
def test_psi_of_I0_matches_t0(m, mu):
    # Psi differences a non-polynomial source where T0 uses the exact
    # derivative tables; both integrate along x0 with the same rule
    idx = HarmonicIndex(0, m, 1, mu)
    dom = TorusDomain(0.8)
    for p in T0_POINTS:
        v = psi(lambda x0, x1, x2: eval_I_batch(idx, *toroidal_arrays(x0, x1, x2)),
                dom, to_cartesian(p)).as_array()
        ref = eval_T0(m, mu, p).as_array()
        err = np.max(np.abs(v - ref)) / np.max(np.abs(ref))
        assert err < 1e-8, (p, err)


def test_decompose_H_parts():
    # F = W_1^+ e3 + 1 + e3 + W_{-1}^-: g completes the constant e3 part
    # and f takes the rest, with no e3 component
    def F(x0, x1, x2):
        const = np.multiply.outer([1.0, 0, 0, 1.0], np.ones(np.broadcast(x0, x1, x2).shape))
        return (qmul(field_values(_w_field(1, 1), x0, x1, x2), E3)
                + field_values(_w_field(-1, -1), x0, x1, x2) + const)

    f, g = decompose_H(F, TorusDomain(1.0))
    x0, x1, x2 = (np.array([X.x0, -X.x0]), np.array([X.x1, X.x2]), np.array([X.x2, X.x1]))
    assert_allclose(field_values(f, x0, x1, x2) + qmul(field_values(g, x0, x1, x2), E3),
                    F(x0, x1, x2), atol=1e-14)
    assert f(x0, x1, x2).shape == g(x0, x1, x2).shape == (3, 2)
    assert fueter_bar(f, X).norm() < 1e-7
    assert fueter_bar(g, X).norm() < 1e-7


def test_cohomology_generator():
    assert_allclose(cohomology(_w_field(-1, -1)), 1.0, atol=1e-12)
    # sign convention is fixed against the raw parametrization
    assert COH_ORIENTATION == -1.0


def test_cohomology_vanishes_elsewhere():
    assert abs(cohomology(_w_field(2, 1))) < 1e-12
    idx = HarmonicIndex(2, 0, 1, 1)
    assert abs(cohomology(_t_field(idx), n_nodes=64, radius=0.9)) < 1e-8


def test_cohomology_radius_independent():
    a = cohomology(_w_field(-1, -1), radius=0.7)
    b = cohomology(_w_field(-1, -1), radius=1.3)
    assert_allclose(a, b, atol=1e-12)
