import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from toroharm import quadrature
from toroharm.quadrature import (
    QuadratureError,
    QuadratureResult,
    integrate_1d,
    integrate_annulus,
    integrate_torus,
    torus_volume,
)


def test_integrate_1d_polynomial():
    res = integrate_1d(lambda x: 3.0 * x**2, 0.0, 2.0)
    assert_allclose(res.value, 8.0, rtol=1e-12)
    assert res.evaluations >= 1


def test_integrate_1d_endpoint_singularity():
    # integrable singularity at the left endpoint
    res = integrate_1d(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
    assert_allclose(res.value, 2.0, rtol=1e-9)


def test_integrate_1d_rejects_bad_interval():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 1.0, 1.0)


def test_quadrature_result_validation():
    with pytest.raises(ValueError):
        QuadratureResult(1.0, -1.0, 10)
    with pytest.raises(ValueError):
        QuadratureResult(1.0, 0.0, 0)


def test_annulus_area():
    res = integrate_annulus(lambda z: np.ones_like(z), 0.5, 2.0)
    assert_allclose(res.value.real, math.pi * (4.0 - 0.25), rtol=1e-10)
    assert abs(res.value.imag) < 1e-12


def test_annulus_moment():
    # integral of z over a centered annulus vanishes by symmetry
    res = integrate_annulus(lambda z: z, 0.5, 2.0)
    assert abs(res.value) < 1e-10


def test_annulus_singular_integrand():
    w = 1.1 + 0.3j
    res = integrate_annulus(
        lambda z: 1.0 / (z - w), 0.5, 2.0, singularity=w, tol=1e-10)
    # closed form: the integral of 1/(z-w) over the annulus is
    # -pi * (conj(w) - r_in^2 / w) for w inside
    ref = -math.pi * (np.conj(w) - 0.25 / w)
    assert_allclose(res.value, ref, rtol=1e-8)


def test_annulus_rejects_singularity_outside():
    with pytest.raises(ValueError):
        integrate_annulus(lambda z: z, 0.5, 2.0, singularity=3.0 + 0j)


@pytest.mark.parametrize("eta0", [0.5, 1.0, 2.0])
def test_torus_volume_closed_form(eta0):
    ref = 2.0 * math.pi**2 * math.cosh(eta0) / math.sinh(eta0) ** 3
    assert_allclose(torus_volume(eta0), ref, rtol=1e-14)
    val = integrate_torus(lambda x0, x1, x2: np.ones_like(x0), eta0, tol=1e-10)
    assert_allclose(val.value, ref, rtol=1e-8)


def test_integrate_torus_odd_function_vanishes():
    val = integrate_torus(lambda x0, x1, x2: x0, 1.0, tol=1e-10)
    assert abs(val.value) < 1e-10


def test_integrate_torus_node_budget(monkeypatch):
    # with the budget at the size of level 1, an integrand that never
    # converges stops before level 2 and carries the level-1 estimate
    monkeypatch.setattr(quadrature, "_TORUS_NODE_BUDGET", 48 * 32**2)
    rng = np.random.default_rng(7)
    with pytest.raises(QuadratureError) as exc:
        integrate_torus(lambda x0, x1, x2: rng.standard_normal(x0.shape), 1.0)
    assert exc.value.partial.evaluations == 24 * 16**2 + 48 * 32**2
    assert exc.value.partial.error_estimate > 0


def test_integrate_torus_slabs_keep_the_value(monkeypatch):
    def f(x0, x1, x2):
        return x0**2 + x1
    ref = integrate_torus(f, 1.0, tol=1e-6)
    monkeypatch.setattr(quadrature, "_TORUS_SLAB_NODES", 1000)  # a few eta rows each
    val = integrate_torus(f, 1.0, tol=1e-6)
    assert val.evaluations == ref.evaluations
    assert_allclose(val.value, ref.value, rtol=1e-13)
