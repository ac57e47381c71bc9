import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from toroharm import monogenics
from toroharm.checks import _cauchy_pompeiu, _random_interior_points
from toroharm.geometry import (
    CartesianPoint,
    TorusDomain,
    ToroidalPoint,
    cartesian_arrays,
    to_cartesian,
    toroidal_arrays,
)
from toroharm.harmonics import HarmonicIndex, eval_I_batch
from toroharm.monogenics import (
    COH_ORIENTATION,
    E1,
    E2,
    E3,
    Psi,
    Quaternion,
    _dbar,
    _fd_partials,
    cohomology,
    decompose_H,
    eval_T0_batch,
    eval_T_batch,
    eval_W_batch,
    field_values,
    fueter_bar,
    psi,
    qmul,
    t_is_zero,
    teodorescu,
)
from toroharm.quadrature import QuadratureError

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


def test_w_is_monogenic_constant():
    for m in (-2, -1, 0, 3):
        for s in (1, -1):
            assert fueter_bar(_w_field(m, s), X).norm() < 1e-7
            d = _dbar(_fd_partials(_w_field(m, s), X.x0, X.x1, X.x2, 1e-5), -1)
            assert np.linalg.norm(d) < 1e-7


def test_w_e3_relation():
    # multiplying W by e3 on the right swaps the family and flips a sign
    for m in (-1, 0, 2):
        for s in (1, -1):
            lhs = qmul(field_values(_w_field(m, s), X.x0, X.x1, X.x2), E3)
            rhs = -s * field_values(_w_field(m, -s), X.x0, X.x1, X.x2)
            assert np.linalg.norm(lhs - rhs) < 1e-14


def test_t_zero_slots():
    assert t_is_zero(1, 0, 1, 1)
    assert t_is_zero(1, 2, 1, -1)
    assert not t_is_zero(1, 0, -1, 1)
    assert not t_is_zero(2, 0, 1, 1)
    v = eval_T_batch(HarmonicIndex(1, 2, 1, 1), [P.eta], [P.theta], [P.phi])
    assert np.linalg.norm(v) == 0.0


def test_t_monogenic_fd():
    idx = HarmonicIndex(2, 1, 1, 1)
    r = fueter_bar(_t_field(idx), X)
    assert r.norm() < 1e-5


def test_teodorescu_closed_form():
    r_in, r_out = 0.5, 2.0
    w = 1.2 + 0.4j
    val = teodorescu(lambda z: np.ones_like(z), w, r_in, r_out, tol=1e-9)
    assert_allclose(val, np.conj(w) - r_in**2 / w, rtol=1e-7)


def _smooth_source(z):
    return np.exp(z / 2.0 + np.conj(z) / 3.0)


def test_teodorescu_array_matches_scalar_calls(monkeypatch):
    r_in, r_out = 0.5, 2.0
    w = np.array([[0.55 + 0.1j, 1.2 - 0.4j, -1.9 + 0.2j], [1.0j, -0.7 + 0.0j, 1.5 + 1.1j]])
    scalar = [[teodorescu(_smooth_source, v, r_in, r_out, tol=1e-10) for v in row] for row in w]
    assert all(isinstance(v, complex) and np.ndim(v) == 0 for row in scalar for v in row)
    values = teodorescu(_smooth_source, w, r_in, r_out, tol=1e-10)
    assert values.shape == w.shape
    assert_array_equal(values, scalar)
    # one point per slab gives the same values
    monkeypatch.setattr(monogenics, "_TEODORESCU_SLAB_NODES", 1)
    assert_array_equal(teodorescu(_smooth_source, w, r_in, r_out, tol=1e-10), scalar)


@pytest.mark.parametrize("a", range(4))
@pytest.mark.parametrize("b", range(4))
def test_teodorescu_matches_cauchy_pompeiu_on_polynomials(a, b):
    # f = z^a zbar^b has the antiderivative F = z^a zbar^(b+1) / (b+1) in zbar
    r_in, r_out = TorusDomain(1.0).slice_radii()
    rng = np.random.default_rng(20261019)
    w = (r_in + (r_out - r_in) * rng.uniform(0.05, 0.95, 6)) * np.exp(2j * np.pi * rng.random(6))
    got = teodorescu(lambda z: z**a * np.conj(z)**b, w, r_in, r_out, tol=1e-12)
    want = [_cauchy_pompeiu(lambda z: z**a * np.conj(z)**(b + 1) / (b + 1), v, r_in, r_out)
            for v in w]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_teodorescu_deep_levels_match_cauchy_pompeiu(monkeypatch):
    # exp(3z + 2 zbar) has modes of both signs far beyond level 1's 32: the
    # points run to level 3 (128 modes, 64 radii a side)
    levels = []
    level_fn = monogenics._teodorescu_level

    def spy(f, w, r_in, r_out, level):
        levels.append(level)
        return level_fn(f, w, r_in, r_out, level)

    monkeypatch.setattr(monogenics, "_teodorescu_level", spy)
    r_in, r_out = TorusDomain(1.0).slice_radii()
    rng = np.random.default_rng(20261020)
    w = (r_in + (r_out - r_in) * rng.uniform(0.05, 0.95, 4)) * np.exp(2j * np.pi * rng.random(4))
    got = teodorescu(lambda z: np.exp(3.0 * z + 2.0 * np.conj(z)), w, r_in, r_out, tol=1e-10)
    assert max(levels) >= 3
    want = np.array([_cauchy_pompeiu(lambda z: np.exp(3.0 * z + 2.0 * np.conj(z)) / 2.0,
                                     v, r_in, r_out) for v in w])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_teodorescu_rule_is_read_only_and_built_once_per_level():
    monogenics._teodorescu_rule.cache_clear()
    w = np.array([0.7 + 0.2j, -1.1 + 0.9j])
    for _ in range(2):  # the constant source stops at level 1
        teodorescu(lambda z: np.ones_like(z), w, 0.5, 2.0, tol=1e-9)
        teodorescu(lambda z: np.ones_like(z), w[0], 0.5, 2.0, tol=1e-9)
    info = monogenics._teodorescu_rule.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    for level in range(2):
        rule = monogenics._teodorescu_rule(level)
        assert rule is monogenics._teodorescu_rule(level)
        for a in rule:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0


def test_teodorescu_rejects_points_outside_the_annulus():
    for w in (0.4, 2.0j, np.array([1.0, 2.5])):
        with pytest.raises(ValueError, match="inside the annulus"):
            teodorescu(_smooth_source, w, 0.5, 2.0)


def test_teodorescu_unresolved_source_raises():
    # the modes of sign(Im z) fall like 1/k: no level cap is high enough
    with pytest.raises(QuadratureError) as exc:
        teodorescu(lambda z: np.sign(z.imag) + 0j, 1.0 + 0.5j, 0.5, 2.0, tol=1e-8)
    levels = range(monogenics._TEODORESCU_LEVELS)
    assert exc.value.partial.evaluations == sum(2 * (16 << k) * (8 << k) for k in levels)
    assert exc.value.partial.error_estimate >= 1e-8
    assert np.ndim(exc.value.partial.value) == 0


def test_psi_of_constant():
    dom = TorusDomain(1.0)
    v = psi(lambda x0, x1, x2: np.ones(np.broadcast(x0, x1, x2).shape), dom, X)
    assert_allclose([v.a0, v.a1, v.a2], [1.0, 0.0, 0.0], atol=1e-9)


def test_psi_domain_membership():
    # Psi holds the membership rule eta > eta0: the axis lies outside, the
    # limit circle inside, and a NaN or infinite coordinate outside, with
    # Psi's own ValueError and no warning
    dom = TorusDomain(1.0)
    op = Psi(lambda x0, x1, x2: np.ones(np.broadcast(x0, x1, x2).shape), dom)
    inside = to_cartesian(ToroidalPoint(1.5, 0.3, 0.1))
    for x in (inside, CartesianPoint(0.0, 1.0, 0.0), CartesianPoint(0.0, 0.0, -1.0)):
        assert_allclose(op(x.x0, x.x1, x.x2), [1.0, 0.0, 0.0], atol=1e-9)
    outside = [to_cartesian(ToroidalPoint(0.5, 0.3, 0.1)), CartesianPoint(2.0, 0.0, 0.0)]
    outside = [[x.x0, x.x1, x.x2] for x in outside]
    for k in range(3):
        for v in (np.inf, -np.inf, np.nan):
            outside.append([inside.x0, inside.x1, inside.x2])
            outside[-1][k] = v
    for p in outside:
        with pytest.raises(ValueError, match="outside its domain"):
            op(*p)
    # seeded points, scattered and next to the boundary, agree with the
    # coordinate map's eta outside a band of 1e-12 around eta0
    rng = np.random.default_rng(20261022)
    near = cartesian_arrays(dom.eta0 + rng.uniform(-1e-3, 1e-3, 2000),
                            rng.uniform(-np.pi, np.pi, 2000), rng.uniform(-np.pi, np.pi, 2000))
    x0, x1, x2 = np.concatenate([rng.uniform(-2.5, 2.5, (3, 2000)), near], axis=1)
    eta = toroidal_arrays(x0, x1, x2)[0]
    clear = np.abs(eta - dom.eta0) > 1e-12
    want = eta > dom.eta0
    assert 0.1 < want.mean() < 0.9
    assert_array_equal(dom.contains(x0, x1, x2)[clear], want[clear])
    for k in np.flatnonzero(clear)[::100]:
        if want[k]:
            assert_allclose(op(x0[k], x1[k], x2[k]), [1.0, 0.0, 0.0], atol=1e-9)
        else:
            with pytest.raises(ValueError, match="outside its domain"):
                op(x0[k], x1[k], x2[k])


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-8, np.inf])
def test_bad_tolerance_is_rejected(tol):
    # a NaN tol passes every agreement test unread, 0 or below none, inf all
    f0 = lambda x0, x1, x2: x0 * x1
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        teodorescu(_smooth_source, 1.0 + 0.5j, 0.5, 2.0, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        Psi(f0, TorusDomain(1.0), tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        psi(f0, TorusDomain(1.0), X, tol=tol)


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
    # the completion of a non-polynomial harmonic source keeps the source,
    # bit for bit, as its scalar part and has no e3 part
    idx = HarmonicIndex(0, 2, 1, 1)

    def f0(x0, x1, x2):
        return eval_I_batch(idx, *toroidal_arrays(x0, x1, x2))

    v = psi(f0, TorusDomain(0.8), X)
    assert isinstance(v, Quaternion)
    assert v.a3 == 0.0
    assert v.a0 == float(f0(X.x0, X.x1, X.x2))


def test_psi_scalar_part_is_the_source_bit_for_bit():
    # the scalar slot is f0 called on the coordinates as given: on the
    # point's own floats for psi, on the arrays for a Psi call.  numpy's
    # array power can differ from Python's float power in the last bit, so
    # the two are compared each on its own footing
    def f0(x0, x1, x2):
        return x0**3 - 3.0 * x0 * x1 * x1

    dom = TorusDomain(1.0)
    x0, x1, x2 = cartesian_arrays(*_random_interior_points(2000, 1.0, 20261021))
    for p in zip(x0[:200].tolist(), x1[:200].tolist(), x2[:200].tolist()):
        assert psi(f0, dom, CartesianPoint(*p), tol=1e-9).a0 == f0(*p), p
    assert_array_equal(Psi(f0, dom, tol=1e-9)(x0, x1, x2)[0], f0(x0, x1, x2))


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
#: near the axis and near the limit circle
T0_EDGE_POINTS = [ToroidalPoint(1e-3, 0.7, 0.4), ToroidalPoint(20.0, 0.7, 0.4)]


@pytest.mark.parametrize("m,mu", [(1, 1), (2, -1)])
def test_t0_against_mpmath(m, mu):
    # T0 = I_{0,m} - (int_0^x0 d1 I_{0,m} dt) e1 - (int_0^x0 d2 I_{0,m} dt) e2
    for p in T0_POINTS + T0_EDGE_POINTS:
        x = to_cartesian(p)
        with mp.workdps(25):
            ref = [
                _mp_I0(m, mu, x.x0, x.x1, x.x2),
                -mp.quad(lambda t: mp.diff(lambda s: _mp_I0(m, mu, t, s, x.x2), x.x1),
                         [0, x.x0], method="gauss-legendre"),
                -mp.quad(lambda t: mp.diff(lambda s: _mp_I0(m, mu, t, x.x1, s), x.x2),
                         [0, x.x0], method="gauss-legendre"),
            ]
        ref = np.array([float(r) for r in ref])
        v = eval_T0_batch(m, mu, [x.x0], [x.x1], [x.x2])[:, 0]
        err = np.max(np.abs(v - ref)) / np.max(np.abs(ref))
        assert err < 1e-12, (p, err)


def test_t0_array_equals_scalar_calls():
    # the line rule settles each point on its own, so a point's value does
    # not depend on the other points of the call
    pts = [to_cartesian(ToroidalPoint(*q)) for q in
           ((1.2, 0.7, 0.4), (1e-3, 0.7, 0.4), (20.0, -1.1, 2.0), (0.05, 0.3, -2.0),
            (3.0, 2.9, 1.0))]
    x0, x1, x2 = (np.array([getattr(q, c) for q in pts]) for c in ("x0", "x1", "x2"))
    for m, mu in ((0, 1), (1, -1), (3, 1)):
        batch = monogenics.eval_T0_batch(m, mu, x0, x1, x2)
        single = np.stack([monogenics.eval_T0_batch(m, mu, x0[i:i + 1], x1[i:i + 1],
                                                    x2[i:i + 1])[:, 0]
                           for i in range(len(pts))], axis=1)
        assert_array_equal(batch, single)


def test_psi_line_rule_raises_past_its_cap():
    # a kink in d1 f0 along x0 (at x0 = 0.2) keeps Gauss-Legendre from
    # settling; the slice source d0 f0 = -x1 is smooth
    op = Psi(lambda x0, x1, x2: x1 * np.abs(x0 - 0.2), TorusDomain(1.0), tol=1e-10)
    assert X.x0 > 0.3
    with pytest.raises(QuadratureError, match="1024 nodes") as info:
        op(X.x0, X.x1, X.x2)
    assert info.value.partial.value.shape == (2,)
    # rule k has 8 * 2**k nodes and runs once: rules 0 to 7
    assert info.value.partial.evaluations == sum(8 << k for k in range(8)) == 2040


def test_empty_point_sets_give_empty_results():
    got = teodorescu(_smooth_source, np.zeros((0, 3), complex), 0.5, 2.0)
    assert got.shape == (0, 3) and got.dtype == complex
    e = np.array([])
    assert Psi(lambda x0, x1, x2: x0 * x1, TorusDomain(1.0))(e, e, e).shape == (3, 0)


def test_nan_source_raises_instead_of_settling():
    # NaN fails every agreement test, so it must not count as settled
    with pytest.raises(QuadratureError, match="last change nan") as info:
        teodorescu(lambda z: np.full_like(z, np.nan), 1 + 0.5j, 0.5, 2.0)
    assert info.value.partial.evaluations == 256 + 1024  # rules 0 and 1 only
    # NaN on the slice annulus beyond x1 = 0.8 reaches the transform
    f0 = lambda x0, x1, x2: np.where(x1 > 0.8, np.nan, x0 * x1)
    with pytest.raises(QuadratureError, match="teodorescu"):
        Psi(f0, TorusDomain(1.0))(0.1, 0.7, 0.2)
    # NaN beyond x0 = 0.05 reaches the x0 lines, not the slice source
    f0 = lambda x0, x1, x2: np.where(x0 > 0.05, np.nan, x0 * x1)
    with pytest.raises(QuadratureError, match="x0 line rule") as info:
        Psi(f0, TorusDomain(1.0))(0.1, 0.7, 0.2)
    assert info.value.partial.evaluations == 8 + 16


@pytest.mark.parametrize("m,mu", [(1, 1), (2, -1)])
def test_psi_of_I0_matches_t0(m, mu):
    # Psi differences a non-polynomial source where T0 uses the exact
    # derivative tables; both integrate along x0 with the same rule
    idx = HarmonicIndex(0, m, 1, mu)
    dom = TorusDomain(0.8)
    for p in T0_POINTS:
        x = to_cartesian(p)
        v = psi(lambda x0, x1, x2: eval_I_batch(idx, *toroidal_arrays(x0, x1, x2)),
                dom, x).as_array()[:3]
        ref = eval_T0_batch(m, mu, [x.x0], [x.x1], [x.x2])[:, 0]
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


def test_psi_repeated_slice_points_take_their_distinct_values():
    # the transform runs once per distinct slice point (x1, x2); every copy
    # of a point gets the value of that point alone, and the point API
    # (psi) gives the e1/e2 parts of the batched call bit for bit
    dom = TorusDomain(1.0)
    f0 = lambda x0, x1, x2: x0 * x1
    pts = [to_cartesian(ToroidalPoint(*p)) for p in ((1.3, 0.4, 0.2), (1.6, -0.5, 2.0))]
    order = [0, 1, 0, 0, 1]
    x0 = np.array([0.1, -0.05, -0.2, 0.0, 0.15])  # along the lines through the points
    x1 = np.array([pts[i].x1 for i in order])
    x2 = np.array([pts[i].x2 for i in order])
    got = Psi(f0, dom, tol=1e-10)(x0, x1, x2)
    for k in range(len(order)):
        want = Psi(f0, dom, tol=1e-10)(x0[k:k + 1], x1[k:k + 1], x2[k:k + 1])[:, 0]
        assert_array_equal(got[:, k], want)
        point = psi(f0, dom, CartesianPoint(x0[k], x1[k], x2[k]), tol=1e-10)
        assert [point.a1, point.a2] == got[1:, k].tolist()
