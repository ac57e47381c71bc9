import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import special

from toroharm import special_functions
from toroharm.special_functions import (
    _elliptic_K_csum,
    gamma_half,
    q_half_grid,
)


def _mp_q(n, m, eta):
    return float(mp.re(mp.legenq(n - mp.mpf(1) / 2, m, mp.cosh(mp.mpf(eta)), type=3)))


def test_elliptic_against_scipy():
    k = np.linspace(0.01, 0.99, 25)
    # the K that the Legendre-Q seeds use
    assert_allclose(np.pi / (2 * _elliptic_K_csum(k, np.sqrt(1 - k**2))[0]),
                    special.ellipk(k**2), rtol=1e-13)


def test_gamma_half_values():
    assert_allclose(gamma_half(0), math.sqrt(math.pi), rtol=1e-15)
    assert_allclose(gamma_half(3), 15.0 / 8.0 * math.sqrt(math.pi), rtol=1e-14)


@pytest.mark.parametrize("t", [1.0001, 1.1, 2.0, 10.0, 500.0])
def test_seeds_against_mpmath(t):
    eta = math.acosh(t)
    q = q_half_grid(1, 0, np.array([eta]))
    assert_allclose(q[0, 0, 0], _mp_q(0, 0, eta), rtol=1e-13)
    assert_allclose(q[1, 0, 0], _mp_q(1, 0, eta), rtol=1e-13)


@pytest.mark.parametrize("n,m,t", [
    (5, 0, 1.2), (10, 3, 1.5431), (20, 6, 3.0), (30, 10, 7.0),
    (8, 2, 1.05), (3, 1, 100.0), (12, 4, 2.2),
    (0, 0, 1.3), (4, 2, 2.7), (11, 6, 7.6913), (9, 4, 6.99),
])
def test_grid_against_mpmath(n, m, t):
    eta = math.acosh(t)
    got = float(q_half_grid(n, m, np.array([eta]))[n, m, 0])
    assert_allclose(got, _mp_q(n, m, eta), rtol=5e-12)


def test_large_argument_branch():
    # far from the axis: the seeds and the ratios shrink like powers of
    # exp(-eta), with no overflow on the way
    eta = math.acosh(1e10)
    got = float(q_half_grid(2, 1, np.array([eta]))[2, 1, 0])
    ref = _mp_q(2, 1, eta)
    assert_allclose(got, ref, rtol=1e-8)


def test_limit_circle_is_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = q_half_grid(4, 3, np.array([np.inf, 1.0]))
    assert np.all(q[:, :, 0] == 0.0)
    assert np.all(q[:, :, 1] != 0.0)


def test_degree_recurrence_on_grid():
    eta = np.arccosh(np.linspace(1.1, 10.0, 31))
    t = np.cosh(eta)
    q = q_half_grid(16, 5, eta)
    for m in range(6):
        for n in range(1, 15):
            lhs = (n - m + 0.5) * q[n + 1, m]
            rhs = 2 * n * t * q[n, m] - (n + m - 0.5) * q[n - 1, m]
            scale = np.abs(2 * n * t * q[n, m]) + np.abs(lhs)
            assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


@pytest.mark.parametrize("n_max", [0, 1])
@pytest.mark.parametrize("m_max", [0, 1, 2, 3])
def test_seeded_degrees_of_a_batch_equal_its_one_point_calls(n_max, m_max):
    # the seeds and the order recurrence act point by point: the AGM, run
    # without masks until a point settles, freezes each point on its own,
    # so a batch gives every point the bits of its one-point call
    eta = np.concatenate([np.geomspace(1e-6, 40.0, 57), [np.inf]])
    q = q_half_grid(n_max, m_max, eta)
    for i, e in enumerate(eta):
        assert_array_equal(q[..., i], q_half_grid(n_max, m_max, e)[..., 0])


@pytest.mark.parametrize("values", [1, 20, 61, 300])
def test_backward_recurrence_blocks_do_not_change_values(monkeypatch, values):
    # the a_n and b_n tables are built in blocks of at most _Q_TABLE_VALUES
    # values together; block edges (one degree per block at 1) leave every
    # bit as is
    eta = np.array([1e-3, 0.05, 0.3, 1.0, 3.0, 12.0, 40.0, np.inf])
    cases = [(n_max, m_max, e) for n_max, m_max in [(1, 0), (2, 2), (8, 3), (30, 5)]
             for e in (eta, eta[3:], eta[-1:])]
    want = [q_half_grid(n_max, m_max, e) for n_max, m_max, e in cases]
    monkeypatch.setattr(special_functions, "_Q_TABLE_VALUES", values)
    for (n_max, m_max, e), q in zip(cases, want):
        assert_array_equal(q_half_grid(n_max, m_max, e), q)


def test_rejects_bad_arguments():
    for eta in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            q_half_grid(2, 1, np.array([eta]))
