import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from toroharm.geometry import (
    CartesianPoint,
    DegenerateLocusError,
    ExpansionGrid,
    TorusDomain,
    ToroidalPoint,
    cartesian_arrays,
    sample_grid,
    to_cartesian,
    to_toroidal,
    toroidal_arrays,
    torus_volume,
)


@given(
    eta=st.floats(0.05, 8.0),
    theta=st.floats(-math.pi, math.pi, exclude_max=True),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)
@settings(max_examples=200, deadline=None)
def test_round_trip(eta, theta, phi):
    p = ToroidalPoint(eta, theta, phi)
    q = to_toroidal(to_cartesian(p))
    assert q.eta == pytest.approx(eta, rel=1e-9, abs=1e-9)
    # angles compare on the circle
    assert math.cos(q.theta - theta) == pytest.approx(1.0, abs=1e-9)
    assert math.cos(q.phi - phi) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("eta", [1e-9, 1e-6, 1e-3])
def test_near_axis_round_trip(eta):
    # the distance ratio tends to 1 near the axis; eta keeps its digits
    x = to_cartesian(ToroidalPoint(eta, 0.7, 0.3))
    assert_allclose(to_toroidal(x).eta, eta, rtol=1e-13, atol=0)
    assert_allclose(toroidal_arrays(x.x0, x.x1, x.x2)[0], eta, rtol=1e-13, atol=0)


def test_round_trip_cartesian_start():
    x = CartesianPoint(0.3, 0.9, -0.4)
    y = to_cartesian(to_toroidal(x))
    assert_allclose([y.x0, y.x1, y.x2], [x.x0, x.x1, x.x2], atol=1e-12)


def test_degenerate_axis():
    with pytest.raises(DegenerateLocusError):
        to_toroidal(CartesianPoint(0.7, 0.0, 0.0))


def test_degenerate_limit_circle():
    with pytest.raises(DegenerateLocusError):
        to_toroidal(CartesianPoint(0.0, 1.0, 0.0))


def test_array_conversions_match_pointwise():
    eta = np.array([0.7, 1.3])
    theta = np.array([0.2, -2.0])
    phi = np.array([1.0, 4.0])
    x0, x1, x2 = cartesian_arrays(eta, theta, phi)
    for i in range(2):
        ref = to_cartesian(ToroidalPoint(eta[i], theta[i], phi[i]))
        assert_allclose([x0[i], x1[i], x2[i]], [ref.x0, ref.x1, ref.x2])
    e2, t2, p2 = toroidal_arrays(x0, x1, x2)
    assert_allclose(e2, eta, atol=1e-12)


def test_domain_volume_and_slice():
    dom = TorusDomain(1.0)
    assert_allclose(
        torus_volume(dom.eta0), 2 * math.pi**2 * math.cosh(1.0) / math.sinh(1.0) ** 3)
    r_in, r_out = dom.slice_radii()
    assert_allclose(r_in * r_out, 1.0, rtol=1e-14)
    assert r_in < 1.0 < r_out


def test_sample_grid_weights_sum_to_shifted_volume():
    dom = TorusDomain(1.0)
    nodes = sample_grid(dom, 10, 24, 8, margin=0.3)
    total = sum(w for _, w in nodes)
    ref = 2 * math.pi**2 * math.cosh(1.3) / math.sinh(1.3) ** 3
    assert_allclose(total, ref, rtol=1e-6)


def test_sample_grid_weights_stay_finite_next_to_the_limit_circle():
    # sinh(eta) / (cosh(eta) - cos(theta))^3 overflows from eta about 237;
    # written with e^{-eta}, the weights still sum to the volume
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total = sample_grid(TorusDomain(240.0), 4, 4, 4, 0.3).weights.sum()
    assert_allclose(total, torus_volume(240.3), rtol=1e-12)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_grids_reject_negative_and_non_finite_weights(bad):
    eta, theta, phi = [1.5, 2.0], [0.1, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]
    weights = np.ones((2, 3, 4))
    samples = list(ExpansionGrid.mesh(eta, theta, phi, weights))
    weights[1, 2, 3] = 0.0  # zero stays allowed
    ExpansionGrid.mesh(eta, theta, phi, weights)
    weights[0, 1, 2] = bad
    samples[5] = (samples[5][0], bad)
    with pytest.raises(ValueError, match="weights must be finite and non-negative"):
        ExpansionGrid.mesh(eta, theta, phi, weights)
    with pytest.raises(ValueError, match="weights must be finite and non-negative"):
        ExpansionGrid.from_samples(samples)


def test_sample_grid_respects_margin():
    dom = TorusDomain(1.0)
    for x, _ in sample_grid(dom, 5, 6, 6, margin=0.3):
        assert to_toroidal(x).eta >= 1.3 - 1e-12


def test_sample_grid_single_phi_in_half_plane():
    dom = TorusDomain(1.0)
    nodes = sample_grid(dom, 4, 5, 1, margin=0.2)
    assert all(abs(x.x2) < 1e-14 and x.x1 > 0 for x, _ in nodes)


def test_sample_grid_no_duplicate_nodes():
    dom = TorusDomain(1.0)
    nodes = sample_grid(dom, 4, 5, 3, margin=0.2)
    coords = {(round(x.x0, 12), round(x.x1, 12), round(x.x2, 12)) for x, _ in nodes}
    assert len(coords) == len(nodes)


def test_sample_grid_rejects_bad_counts():
    with pytest.raises(ValueError):
        sample_grid(TorusDomain(1.0), 0, 4, 4, margin=0.2)
    with pytest.raises(ValueError):
        sample_grid(TorusDomain(1.0), 4, 4, 4, margin=0.0)


def test_eta_next_to_the_limit_circle_matches_mpmath():
    # rho = 1 to the last bit and |x0| below 1e-154: x0^2 is subnormal or 0,
    # so 4 rho / d_near^2 overflows and eta takes the log form
    import mpmath as mp

    for x0 in (1e-100, 1e-160, 1e-170, 1e-300, 5e-324, -1e-200):
        for rho in (1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53):
            eta = float(toroidal_arrays(x0, rho, 0.0)[0])
            with mp.workdps(50):
                x, r = mp.mpf(x0), mp.mpf(rho)
                ref = mp.log(((r + 1) ** 2 + x**2) / ((r - 1) ** 2 + x**2)) / 2
            assert abs(eta - ref) <= 1e-15 * ref, (x0, rho, eta)


def test_t0_is_finite_next_to_the_limit_circle():
    from toroharm.monogenics import eval_T0_batch

    x = cartesian_arrays(np.array([300.0, 360.0, 700.0]), 0.7, 0.4)
    assert np.all(np.isfinite(eval_T0_batch(2, 1, *x)))


@pytest.mark.parametrize("eta", [720.0, 1500.0, math.inf])
def test_cartesian_arrays_are_finite_up_to_the_limit_circle(eta):
    # e^{-eta} underflows instead of cosh(eta) overflowing; on the limit
    # circle itself the point is (0, cos phi, sin phi)
    import warnings

    theta, phi = np.array([0.7, -2.9, 0.0]), 0.4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x0, x1, x2 = cartesian_arrays(eta, theta, phi)
        p = to_cartesian(ToroidalPoint(eta, 0.7, phi))
    assert np.all(np.abs(x0) <= 1e-300)
    assert np.all(x1 == math.cos(phi)) and np.all(x2 == math.sin(phi))
    assert (p.x1, p.x2) == (math.cos(phi), math.sin(phi))
    if eta == math.inf:
        assert np.all(x0 == 0.0)


def test_cartesian_arrays_match_mpmath_near_the_axis_and_limit_circle():
    import mpmath as mp

    for eta in (1e-9, 1e-4, 0.3, 2.0, 30.0, 600.0):  # x0 is subnormal from about 700
        for theta in (1e-7, 0.7, -2.9, 3.1):
            x0, x1, _ = cartesian_arrays(eta, theta, 0.0)
            with mp.workdps(50):
                e, t = mp.mpf(eta), mp.mpf(theta)
                d = mp.cosh(e) - mp.cos(t)
                want = mp.sin(t) / d, mp.sinh(e) / d
            assert abs(x0 - want[0]) <= 4e-16 * abs(want[0]), (eta, theta)
            assert abs(x1 - want[1]) <= 4e-16 * abs(want[1]), (eta, theta)
