import numpy as np
import pytest
from numpy.testing import assert_allclose

from toroharm.expansion import (
    BasisElement,
    ExpansionGrid,
    IllConditionedGram,
    basis_A,
    basis_A_second,
    basis_H,
    element_I,
    element_T,
    element_T0,
    element_W,
    element_e3_times,
    element_one,
    evaluate_element,
    evaluate_series,
    evaluate_series_grid,
    expand_monogenic_constant,
    gram,
    known_expansion_one,
    known_expansion_one_in_T,
    known_expansion_x0,
    make_series,
    project,
    series_from_json,
    series_to_json,
    t_family,
    w_family,
)
from toroharm.geometry import TorusDomain, sample_grid, to_cartesian, ToroidalPoint
from toroharm.monogenics import eval_W

X = to_cartesian(ToroidalPoint(1.5, 0.6, 0.4))


@pytest.fixture(scope="module")
def grid():
    return ExpansionGrid.from_samples(
        sample_grid(TorusDomain(1.0), 6, 10, 10, margin=0.3))


def test_element_validation():
    with pytest.raises(ValueError):
        element_T(1, 0, 1, 1)  # identically zero slot
    el = element_T(1, 0, 1, 1, allow_excluded=True)
    assert el.label()
    with pytest.raises(ValueError):
        element_e3_times(element_e3_times(element_one()))


def test_element_evaluation_matches_direct():
    el = element_W(1, -1)
    q = evaluate_element(el, X)
    v = eval_W(1, -1, X)
    assert_allclose([q.a0, q.a1, q.a2, q.a3], [v.a0, v.a1, v.a2, 0.0])


def test_e3_action():
    base = evaluate_element(element_W(0, 1), X)
    rot = evaluate_element(element_e3_times(element_W(0, 1)), X)
    assert_allclose([rot.a0, rot.a1, rot.a2, rot.a3],
                    [-base.a3, base.a2, -base.a1, base.a0])


def test_series_json_round_trip():
    s = make_series([
        (element_T(2, 1, 1, 1), 2.0),
        (element_e3_times(element_T0(1, -1)), -0.5),
        (element_one(), 1.0),
    ], note="round trip")
    s2 = series_from_json(series_to_json(s))
    assert s2.terms == s.terms
    assert dict(s2.meta)["note"] == "round trip"


def test_series_json_rejects_wrong_schema():
    text = series_to_json(make_series([(element_one(), 1.0)]))
    with pytest.raises(ValueError):
        series_from_json(text.replace('"schema_version": 1', '"schema_version": 99'))


def test_duplicate_terms_rejected():
    with pytest.raises(ValueError):
        make_series([(element_one(), 1.0), (element_one(), 2.0)])


def test_basis_enumeration_skips_zero_slots():
    els = t_family(3, 2)
    labels = {e.label() for e in els}
    assert not any(e.kind == "T" and e.n == 1 and e.nu == 1 for e in els)
    assert len(labels) == len(els)
    # second basis = constant + planar family + degree family
    b = basis_A_second(3, 2)
    assert b[0].kind == "ONE"
    full = basis_H(3, 2)
    assert any(e.kind == "E3" for e in full)
    assert len(full) > len(b)


def test_w_family_ordering():
    ms = [(e.m, e.nu) for e in w_family(2)]
    assert ms[0][0] == 0
    assert all(abs(ms[i][0]) <= abs(ms[i + 1][0]) for i in range(len(ms) - 1))


def test_gram_positive_definite(grid):
    basis = basis_A(2, 1)
    G = gram(basis, grid)
    assert_allclose(G, G.T, atol=1e-12)
    assert np.linalg.eigvalsh(G)[0] > 0


def test_projection_round_trip(grid):
    target = make_series([(element_T(2, 1, 1, 1), 2.0), (element_W(1, -1), 3.0)])
    s, res = project(target, basis_A_second(3, 2), grid)
    c = s.coefficients()
    assert_allclose(c[element_T(2, 1, 1, 1)], 2.0, atol=1e-8)
    assert_allclose(c[element_W(1, -1)], 3.0, atol=1e-8)
    assert res < 1e-8


def test_projection_refuses_ill_conditioned(grid):
    basis = [element_W(1, 1), element_W(1, 1)]  # exactly dependent
    with pytest.raises(IllConditionedGram):
        project(element_W(1, 1), basis, grid)


def test_known_expansions_small_depth(grid):
    v1 = evaluate_series_grid(known_expansion_one(25), grid)
    assert np.max(np.abs(v1[0] - 1.0)) < 1e-8
    vx = evaluate_series_grid(known_expansion_x0(25), grid)
    assert np.max(np.abs(vx[0] - grid.x0)) < 1e-8


def test_expansion_of_one_in_monogenics(grid):
    v = evaluate_series_grid(known_expansion_one_in_T(15), grid)
    assert np.max(np.abs(v[0] - 1.0)) < 1e-5
    assert np.max(np.abs(v[1])) < 1e-5
    assert np.max(np.abs(v[2])) < 1e-5


def test_expand_monogenic_constant_recovers():
    def phi(x0, x1, x2):
        z2 = (x1 + 1j * x2) ** 2
        return np.stack([np.zeros_like(x0), 3.0 + 0.5 * z2.real, -0.5 * z2.imag])

    a0, coeffs = expand_monogenic_constant(phi, m_max=3)
    assert abs(a0) < 1e-10
    assert_allclose(coeffs.get((0, 1), 0.0), 3.0, atol=1e-10)
    assert_allclose(coeffs.get((2, 1), 0.0), 0.5, atol=1e-10)
    spurious = max(abs(v) for k, v in coeffs.items() if k not in ((0, 1), (2, 1)))
    assert spurious < 1e-10


def test_expand_monogenic_constant_rejects_nonconstant_scalar():
    def bad(x0, x1, x2):
        return np.stack([x1, np.ones_like(x0), np.zeros_like(x0)])

    with pytest.raises(ValueError):
        expand_monogenic_constant(bad)
