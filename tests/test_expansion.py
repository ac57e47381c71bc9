import re
import warnings
from itertools import product

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
    element_T,
    element_T0,
    element_W,
    element_e3_times,
    element_one,
    evaluate_element,
    evaluate_element_grid,
    evaluate_series_grid,
    expand_monogenic_constant,
    gram,
    known_expansion_one,
    known_expansion_one_in_T,
    known_expansion_x0,
    make_series,
    project,
    t_family,
    w_family,
)
from toroharm.geometry import (
    CartesianPoint,
    DegenerateLocusError,
    TorusDomain,
    ToroidalPoint,
    sample_grid,
    to_cartesian,
)
from toroharm.harmonics import HarmonicIndex, index_is_valid
from toroharm.monogenics import E3, eval_W_batch, qmul
from toroharm.special_functions import q_half_grid

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
    v = eval_W_batch(1, -1, [X.x1], [X.x2])[:, 0]
    assert_allclose([q.a0, q.a1, q.a2, q.a3], [*v, 0.0])


@pytest.mark.parametrize("x", [CartesianPoint(0.5, 0.0, 0.0), CartesianPoint(0.0, 1.0, 0.0)],
                         ids=["axis", "limit-circle"])
def test_evaluate_series_rejects_the_degenerate_loci(x):
    # the point path of a series is evaluate_element on each of its terms
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for el, _ in known_expansion_one(3).terms:
            with pytest.raises(DegenerateLocusError):
                evaluate_element(el, x)


def test_e3_action():
    base = evaluate_element(element_W(0, 1), X)
    rot = evaluate_element(element_e3_times(element_W(0, 1)), X)
    assert_allclose([rot.a0, rot.a1, rot.a2, rot.a3],
                    [-base.a3, base.a2, -base.a1, base.a0])


def test_duplicate_terms_rejected():
    with pytest.raises(ValueError):
        make_series([(element_one(), 1.0), (element_one(), 2.0)])
    with pytest.raises(ValueError, match=r"duplicate basis element T\[2,1\]\^\(\+,-\)\*e3"):
        make_series([(element_e3_times(element_T(2, 1, 1, -1)), 1.0), (element_one(), 0.5),
                     (element_e3_times(element_T(2, 1, 1, -1)), 2.0)])
    with pytest.raises(ValueError, match=r"duplicate basis element W\[1\]\^\+"):
        make_series([(element_one(), 1.0), (element_W(1, 1), 2.0), (element_W(1, 1), 3.0),
                     (element_one(), 4.0)])
    with pytest.raises(ValueError, match="non-finite coefficient for 1"):
        make_series([(element_W(1, 1), 1.0), (element_one(), np.nan)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 2])
def test_series_names_the_element_of_a_non_finite_coefficient(bad, where):
    elements = [element_W(1, 1), element_one(), element_T(2, 1, 1, 1)]
    coeffs = [1.0, 2.0, 3.0]
    coeffs[where] = bad
    message = re.escape(f"non-finite coefficient for {elements[where].label()}")
    with pytest.raises(ValueError, match=message):
        make_series(zip(elements, coeffs))


def test_equal_elements_hash_equal():
    # the hash is stored when an element is built; e3 multiples built
    # separately are equal and hash equal, and differ from their inner element
    pairs = [(element_e3_times(element_T(2, 1, 1, -1)), element_e3_times(element_T(2, 1, 1, -1))),
             (element_e3_times(element_one()), element_e3_times(element_one())),
             (element_T0(2, -1), element_T0(2, -1)), (element_W(-1, 1), element_W(-1, 1))]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    inner = element_T(2, 1, 1, -1)
    assert element_e3_times(inner) != inner and len({element_e3_times(inner), inner}) == 2
    assert len(set(basis_H(4, 3))) == len(basis_H(4, 3))


def test_unpickled_elements_hash_the_same_in_another_process():
    # the hash depends on no salted str hash: a process with another
    # PYTHONHASHSEED unpickles elements equal to fresh ones, with the hashes
    # of this process
    import os
    import pickle
    import subprocess
    import sys

    import toroharm

    basis = basis_H(2, 1)
    code = ("import pickle, sys\n"
            "from toroharm.expansion import basis_H\n"
            "got, fresh = pickle.loads(sys.stdin.buffer.read()), basis_H(2, 1)\n"
            "place = {el: i for i, el in enumerate(fresh)}\n"
            "assert got == fresh and [place[el] for el in got] == list(range(len(got)))\n"
            "print(*[hash(el) for el in got + fresh])\n")
    src = os.path.dirname(os.path.dirname(toroharm.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(basis), env=env,
                         capture_output=True, check=True, timeout=60).stdout
    assert list(map(int, out.split())) == [hash(el) for el in basis] * 2


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


def test_project_builds_one_grid_radial_table(monkeypatch):
    # the T elements of one phi mode read the same table on the grid's own
    # eta: one table for each of the modes 0-3 of the T and T0 elements,
    # none for the W elements alone in mode 4; the T0 line tables are built
    # on the line nodes, not on the grid
    from toroharm import harmonics
    from toroharm.checks import _gram_grid

    grid = _gram_grid()
    calls = []
    real = harmonics.q_half_grid
    monkeypatch.setattr(harmonics, "q_half_grid",
                        lambda *args: calls.append(args[2]) or real(*args))
    project(lambda x0, x1, x2: x0, basis_A_second(4, 3), grid)
    eta = grid.eta.ravel()
    assert sum(np.array_equal(e, eta) for e in calls) == 4


def test_mesh_matches_scattered_nodes():
    # the mesh evaluates on its meridian and closes phi in product form; the
    # same nodes as a plain list of pairs go point by point
    mesh = sample_grid(TorusDomain(1.0), 8, 14, 14, 0.3)
    scattered = ExpansionGrid.from_samples(list(mesh))
    assert ExpansionGrid.from_samples(mesh) is mesh
    assert mesh.shape == (8 * 14, 14) and scattered.shape == (len(mesh),)
    basis = basis_H(4, 3)
    for el in basis:
        a, b = evaluate_element_grid(el, mesh), evaluate_element_grid(el, scattered)
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), el.label()
    g_mesh, g_scattered = gram(basis, mesh), gram(basis, scattered)
    assert np.max(np.abs(g_mesh - g_scattered)) <= 1e-12 * np.max(np.abs(g_scattered))


def _term_sum(table, eta, theta, phi, q):
    """A term table summed term by term from the radial table ``q``."""
    def trig(k, sign, angle):
        return np.cos(k * angle) if sign > 0 else np.sin(k * angle)

    metric = np.sqrt(2.0) * np.hypot(np.sinh(0.5 * eta), np.sin(0.5 * theta))
    total = np.zeros(np.broadcast_shapes(eta.shape, theta.shape, phi.shape))
    for t in table:
        i = t.index
        total = total + float(t.coefficient) * (metric * q[i.n, i.m].reshape(eta.shape)
                                                * trig(i.n, i.nu, theta) * trig(i.m, i.mu, phi))
    return total


@pytest.mark.parametrize("scattered", [False, True])
def test_compiled_basis_matches_term_sums(scattered):
    # one coefficient matrix over the distinct harmonics gives every element
    # of the basis as its own terms summed one by one (T0 scalar parts here;
    # their line parts are checked against single pairs below)
    from toroharm.appell import star_terms
    from toroharm.expansion import _values
    from toroharm.harmonics import DerivativeTerm
    from toroharm.monogenics import t_term_tables

    grid = sample_grid(TorusDomain(1.0), 8, 14, 14, 0.3)
    if scattered:
        grid = ExpansionGrid.from_samples(list(grid))
    basis = basis_H(8, 3)
    got = _values(basis, grid)
    eta, theta, phi = grid.eta, grid.theta, grid.phi
    q = q_half_grid(8, 4, eta.ravel())  # the widest T: degree 8, order 3 + 1
    for el, v in zip(basis, got):
        inner = el.inner if el.kind == "E3" else el
        if inner.kind == "T":
            tables = t_term_tables(inner.n, inner.m, inner.nu, inner.mu)
        elif inner.kind == "T0":
            tables = [[DerivativeTerm(HarmonicIndex(0, inner.m, 1, inner.mu), 1)]]
        elif inner.kind == "ISTAR":
            tables = [[DerivativeTerm(i, c) for i, c in star_terms(HarmonicIndex(
                inner.n, inner.m, inner.nu, inner.mu))]]
        else:
            continue
        want = np.zeros((4,) + grid.shape)
        want[:len(tables)] = [_term_sum(table, eta, theta, phi, q) for table in tables]
        want = want.reshape(4, -1)
        comps = [0] if inner.kind == "T0" else [0, 1, 2, 3]
        if el.kind == "E3":  # (a0, a1, a2, a3) e3 = (-a3, a2, -a1, a0)
            want, comps = qmul(want, E3), [3 - c for c in comps]
        scale = np.max(np.abs(v))
        assert np.max(np.abs(v[comps] - want[comps])) <= 1e-15 * scale, el.label()


def test_t0_batch_matches_single_pairs():
    # the line integrands of all pairs settle one by one, so a pair's values
    # do not depend on the pairs batched with it
    from toroharm.monogenics import _t0_lines

    pts = [to_cartesian(ToroidalPoint(*p)) for p in
           ((1.2, 0.7, 0.4), (1e-3, 0.7, 0.4), (20.0, -1.1, 2.0), (0.05, 0.3, -2.0),
            (3.0, 2.9, 1.0), (1.6, -3.0, 5.5))]
    x0 = np.array([p.x0 for p in pts])
    rho = np.array([p.rho() for p in pts])
    phi = np.arctan2([p.x2 for p in pts], [p.x1 for p in pts])
    pairs = [(m, mu) for m in range(5) for mu in ((1,) if m == 0 else (1, -1))]
    batch = _t0_lines(pairs, x0, rho, phi)
    for (m, mu), got in zip(pairs, batch):
        want = _t0_lines([(m, mu)], x0, rho, phi)[0]
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), (m, mu)


def test_t0_lines_integrate_each_distinct_meridian_point_once(monkeypatch):
    # the x0 lines depend on (x0, rho) alone; the scattered nodes of the
    # default grid hold 217 distinct pairs (hypot rounds differently across
    # phi), the mesh its 112 meridian points
    from toroharm import monogenics

    mesh = sample_grid(TorusDomain(1.0), 8, 14, 14, 0.3)
    scattered = ExpansionGrid.from_samples(list(mesh))
    pairs = [(m, mu) for m in range(4) for mu in ((1,) if m == 0 else (1, -1))]
    sizes, x0_lines = [], monogenics._x0_lines

    def spy(g, x0, tol, width):
        sizes.append(x0.size)
        return x0_lines(g, x0, tol, width)

    monkeypatch.setattr(monogenics, "_x0_lines", spy)
    a = monogenics._t0_lines(pairs, *mesh.meridian, mesh.phi).reshape(len(pairs), 2, -1)
    b = monogenics._t0_lines(pairs, *scattered.meridian, scattered.phi)
    x0, rho = scattered.meridian
    assert sizes == [len(mesh) // 14, np.unique(x0 + 1j * rho).size] == [112, 217]
    assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))


def test_t0_lines_integrate_each_distinct_integrand_once(monkeypatch):
    # T0[m]^- integrates the integrands of T0[m]^+ up to sign: one T0[2]^-
    # has 4 line slots and 2 distinct integrands, the 7 pairs of m <= 3 have
    # 28 slots and 7
    from toroharm import monogenics

    widths, x0_lines = [], monogenics._x0_lines
    monkeypatch.setattr(monogenics, "_x0_lines",
                        lambda g, x0, tol, width: widths.append(width) or x0_lines(g, x0, tol, width))
    x0, rho, phi = np.array([0.3]), np.array([1.4]), np.array([0.5])
    monogenics._t0_lines([(2, -1)], x0, rho, phi)
    monogenics._t0_lines([(m, mu) for m in range(4) for mu in ((1,) if m == 0 else (1, -1))],
                         x0, rho, phi)
    assert widths == [2, 7]


def test_series_grid_is_weighted_sum_of_elements(grid):
    basis = basis_H(2, 2)
    rng = np.random.default_rng(11)
    s = make_series(zip(basis, rng.uniform(-2.0, 2.0, len(basis))))
    want = sum(c * evaluate_element_grid(el, grid) for el, c in s.terms)
    got = evaluate_series_grid(s, grid)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_projection_refuses_ill_conditioned(grid):
    basis = [element_W(1, 1), element_W(1, 1)]  # exactly dependent
    with pytest.raises(IllConditionedGram):
        project(element_W(1, 1), basis, grid)


def test_mesh_projection_forms_no_full_mesh_basis_values(monkeypatch):
    # on a mesh the basis enters through its values on the meridian nodes
    # times a few azimuths alone; a fresh grid, so no kept factors hide a call
    from toroharm import expansion

    grid = sample_grid(TorusDomain(1.0), 6, 10, 10, margin=0.3)
    series = make_series([(element_T(2, 1, 1, 1), 2.0), (element_T0(2, -1), -0.5)])
    field = evaluate_series_grid(series, grid)
    sizes, values = [], expansion._values
    monkeypatch.setattr(expansion, "_values", lambda els, g: sizes.append(len(g)) or values(els, g))
    s, res = project(field, basis_A_second(3, 2), grid)
    assert sizes and len(grid) not in sizes
    c = s.coefficients()
    assert_allclose([c[element_T(2, 1, 1, 1)], c[element_T0(2, -1)]], [2.0, -0.5], rtol=1e-12)
    assert res < 1e-12


def test_ill_conditioned_names_the_phi_mode_and_its_group(grid):
    # W[1]^+ is rho (cos 2 phi e_rho - sin 2 phi e_phi): phi mode 2; the
    # T element of mode 0 solves on its own and is not named
    basis = [element_T(2, 0, -1, 1), element_W(1, 1), element_W(1, 1)]
    with pytest.raises(IllConditionedGram) as info:
        project(element_W(1, 1), basis, grid)
    err = info.value
    assert (err.mode, err.labels, err.size) == (2, ("W[1]^+", "W[1]^+"), 2)
    assert err.condition > 1e12 and "phi mode 2" in str(err)


def _mode_energy(values, grid):
    """Energy of element values ``(elements, 4, P * K)`` in each ``rfft``
    mode of phi, in the frame (1, e_rho, e_phi, e3)."""
    P, K = grid.shape
    phi = grid.phi.ravel()
    v = values.reshape(len(values), 4, P, K)
    cyl = np.stack([v[:, 0], v[:, 1] * np.cos(phi) + v[:, 2] * np.sin(phi),
                    v[:, 2] * np.cos(phi) - v[:, 1] * np.sin(phi), v[:, 3]], axis=1)
    return (np.abs(np.fft.rfft(cyl)) ** 2).sum(axis=(1, 2))


def every_kind(n_max, m_max):
    """Elements of all seven kinds: I and I* of every index, the second
    reduced basis (1, W with both signs of m, T0 and T), and the e3
    multiples of 1 and of every W."""
    harmonics = [BasisElement(kind, *k) for kind in ("I", "ISTAR")
                 for k in product(range(n_max + 1), range(m_max + 1), (1, -1), (1, -1))
                 if index_is_valid(*k)]
    second = basis_A_second(n_max, m_max)
    return harmonics + second + [element_e3_times(el) for el in second
                                 if el.kind in ("ONE", "W")]


@pytest.mark.parametrize("family", [basis_A, basis_A_second, basis_H, every_kind])
def test_each_element_lies_in_its_phi_mode(family):
    # the full values on the default mesh put at most 1e-13 of each
    # element's energy outside the mode that its index gives
    from toroharm.expansion import _mode, _values

    grid = sample_grid(TorusDomain(1.0), 8, 14, 14, 0.3)
    basis = family(8, 3)
    energy = _mode_energy(_values(basis, grid), grid)
    for el, e in zip(basis, energy):
        k = _mode(el)
        assert np.delete(e, k).sum() <= 1e-13 * e.sum(), (el.label(), k, e)


def test_meridian_values_rebuild_the_grid_values():
    # V[e, c] cos(k phi) - V[e, 4 + c] sin(k phi) in (1, e_rho, e_phi, e3),
    # rotated back to e1/e2, is the element on every node of the mesh
    from toroharm.expansion import _meridian_values, _mode, _values

    grid = sample_grid(TorusDomain(1.0), 8, 14, 14, 0.3)
    basis = basis_H(4, 3)
    modes = np.array([_mode(el) for el in basis])
    phi = grid.phi.ravel()
    for k in np.unique(modes).tolist():
        group = np.flatnonzero(modes == k)
        V = _meridian_values([basis[i] for i in group], k, grid)
        cyl = (V[:, :4, :, None] * np.cos(k * phi) - V[:, 4:, :, None] * np.sin(k * phi))
        rebuilt = np.stack([cyl[:, 0], cyl[:, 1] * np.cos(phi) - cyl[:, 2] * np.sin(phi),
                            cyl[:, 1] * np.sin(phi) + cyl[:, 2] * np.cos(phi), cyl[:, 3]], axis=1)
        want = _values([basis[i] for i in group], grid)
        err = np.abs(rebuilt.reshape(want.shape) - want).max(axis=(1, 2))
        assert np.all(err <= 1e-13 * np.abs(want).max(axis=(1, 2))), k


def test_mode_at_half_the_phi_nodes_aliases():
    grid = sample_grid(TorusDomain(1.0), 4, 6, 8, 0.3)
    with pytest.raises(ValueError, match=r"phi mode 4, which aliases on K = 8"):
        project(lambda x0, x1, x2: x0, basis_A_second(4, 4), grid)


def test_reduced_basis_leaves_e3_out_of_its_blocks(grid):
    # no element of the reduced basis has an e3 part: the blocks drop it,
    # and a field in e3 alone is left whole in the residual
    basis = basis_A_second(3, 2)
    field = np.zeros((4, len(grid)))
    field[3] = grid.x0
    for g in (grid, ExpansionGrid.from_samples(list(grid))):
        s, res = project(field, basis, g)
        assert all(c == 0.0 for _, c in s.terms)
        assert_allclose(res, np.sqrt(np.sum(g.weights * g.x0**2)), rtol=1e-13)
    groups = grid.factors[tuple(basis)].groups
    assert [g.mode for g in groups] == [0, 1, 2, 3]
    assert all(3 not in g.parts and 7 not in g.parts for g in groups)


def test_cosine_elements_leave_their_round_off_parts_out_of_the_blocks():
    # their values at pi / 2k are 0 but for cos(pi / 2) round-off in the
    # scalar and e_rho parts, which must not enter the blocks as parts
    grid = sample_grid(TorusDomain(1.0), 8, 14, 14, 0.3)
    basis = (element_T(2, 1, 1, 1), element_T(3, 1, 1, 1), element_T(3, 2, -1, 1))
    project(lambda x0, x1, x2: x0, basis, grid)
    groups = grid.factors[basis].groups
    assert [(g.mode, g.parts.tolist()) for g in groups] == [(1, [0, 1, 6]), (2, [0, 1, 6])]


def test_scattered_and_phi_weighted_grids_solve_as_one_group(monkeypatch):
    from toroharm import expansion

    mesh = sample_grid(TorusDomain(1.0), 8, 14, 14, 0.3)
    eta, theta, phi = mesh.eta.ravel()[::14], mesh.theta.ravel()[:14], mesh.phi.ravel()
    weighted = ExpansionGrid.mesh(eta, theta, phi,
                                  mesh.weights.reshape(8, 14, 14) * (1.5 + np.cos(phi)))
    scattered = ExpansionGrid.from_samples(list(mesh))
    basis = basis_A_second(3, 3)
    planted = make_series(zip(basis, np.random.default_rng(5).uniform(-2.0, 2.0, len(basis))))
    want = np.array([c for _, c in project(planted, basis, mesh)[0].terms])
    modes, factor = [], expansion._factor
    monkeypatch.setattr(expansion, "_factor", lambda A, k, *a: modes.append(k) or factor(A, k, *a))
    for g in (scattered, weighted):
        got = np.array([c for _, c in project(planted, basis, g)[0].terms])
        assert np.max(np.abs(got - want)) <= 1e-10
    assert modes == [None, None]


def _coefficient_bytes(result):
    series, residual = result
    return np.array([c for _, c in series.terms] + [residual]).tobytes()


@pytest.mark.parametrize("scattered", [False, True])
def test_repeated_projection_reuses_the_factors(monkeypatch, scattered):
    # the second call on the same basis and grid builds no radial table and
    # gives the same bytes
    from toroharm import harmonics

    grid = sample_grid(TorusDomain(1.0), 6, 10, 10, margin=0.3)
    if scattered:
        grid = ExpansionGrid.from_samples(list(grid))
    basis = basis_A_second(3, 2)
    first = _coefficient_bytes(project(lambda x0, x1, x2: x0, basis, grid))
    calls, real = [], harmonics.q_half_grid
    monkeypatch.setattr(harmonics, "q_half_grid", lambda *a: calls.append(a) or real(*a))
    again = _coefficient_bytes(project(lambda x0, x1, x2: x0, basis, grid))
    assert again == first and calls == []


def test_grids_never_share_factors():
    # an equal grid built again is another grid: its own factors, and the
    # same result as on a grid projected first
    basis = basis_A_second(3, 2)
    a, b, c = (sample_grid(TorusDomain(1.0), 6, 10, 10, margin) for margin in (0.3, 0.5, 0.5))
    field = lambda x0, x1, x2: x0 * x1  # noqa: E731
    project(field, basis, a)
    on_b = _coefficient_bytes(project(field, basis, b))
    assert on_b == _coefficient_bytes(project(field, basis, c))
    kept = [g.factors[tuple(basis)] for g in (a, b, c)]
    assert len({id(k) for k in kept}) == 3


def test_factors_are_bounded_per_grid_and_released_with_it():
    import gc
    import weakref

    from toroharm.expansion import _FACTORS_PER_GRID

    grid = sample_grid(TorusDomain(1.0), 4, 6, 8, margin=0.3)
    bases = [tuple(basis_A_second(n, 1)) for n in range(1, _FACTORS_PER_GRID + 3)]
    for basis in bases:
        project(lambda x0, x1, x2: x0, basis, grid)
    assert list(grid.factors) == bases[-_FACTORS_PER_GRID:]
    refs = [weakref.ref(grid), weakref.ref(grid.factors[bases[-1]].U)]
    del grid
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("scattered", [False, True])
def test_grid_arrays_are_read_only(scattered):
    # kept factors hold for the nodes and weights they were made on
    grid = sample_grid(TorusDomain(1.0), 4, 6, 8, margin=0.3)
    if scattered:
        grid = ExpansionGrid.from_samples(list(grid))
    project(lambda x0, x1, x2: x0, basis_A_second(2, 1), grid)
    arrays = [grid.x0, grid.x1, grid.x2, grid.eta, grid.theta, grid.phi, grid.weights,
              *grid.meridian]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 2.0


def test_threads_projecting_on_one_grid_share_its_factors_safely():
    # more bases than the grid keeps, from more threads than cores, with a
    # short switch interval: every result is the sequential one
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from toroharm.expansion import _FACTORS_PER_GRID

    grid = sample_grid(TorusDomain(1.0), 4, 6, 8, margin=0.3)
    bases = [tuple(basis_A_second(n, 1)) for n in range(1, _FACTORS_PER_GRID + 3)]
    field = lambda x0, x1, x2: x0 * x2  # noqa: E731
    want = [_coefficient_bytes(project(field, b, grid)) for b in bases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(lambda i: (i, _coefficient_bytes(project(field, bases[i], grid))),
                                   i % len(bases)) for i in range(60)]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(b == want[i] for i, b in got)
    assert len(grid.factors) == _FACTORS_PER_GRID


@pytest.mark.parametrize("scattered", [False, True])
def test_project_refuses_an_empty_basis(scattered):
    grid = sample_grid(TorusDomain(1.0), 4, 6, 8, 0.3)
    if scattered:
        grid = ExpansionGrid.from_samples(list(grid))
    with pytest.raises(ValueError, match="empty basis"):
        project(lambda x0, x1, x2: x0, [], grid)
    assert grid.factors == {}


def test_factor_step_keeps_its_memory_down():
    # each phi mode's meridian values are evaluated and factored on their
    # own, so the full basis is never evaluated at every mode's azimuths
    import tracemalloc

    from toroharm.expansion import _factorise

    grid = sample_grid(TorusDomain(1.0), 16, 28, 16, 0.3)
    basis = tuple(basis_A_second(8, 3))
    _factorise(basis, grid)  # the term tables and evaluation plans are made here
    tracemalloc.start()
    try:
        _factorise(basis, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def test_kept_factors_pad_to_at_most_twice_the_groups():
    # the stacked factors are padded to the largest group: for the default
    # basis on the default mesh they take at most twice the bytes of the
    # groups' own U and C
    grid = sample_grid(TorusDomain(1.0), 8, 14, 14, 0.3)
    basis = tuple(basis_A_second(4, 3))
    project(lambda x0, x1, x2: x0, basis, grid)
    factors = grid.factors[basis]
    P = grid.shape[0]
    own = sum(8 * (len(g.parts) * P * len(g.elements) + len(g.elements) ** 2)
              for g in factors.groups)
    kept = sum(a.nbytes for a in (factors.transform, factors.weight, factors.gather, factors.U,
                                  factors.C, factors.scatter, factors.rest))
    assert kept <= 2 * own


def test_batched_apply_matches_a_global_least_squares():
    # planted coefficients of the degree-8 basis on the default mesh: the
    # stacked per-mode solve agrees with one lstsq on the full weighted
    # values to the round-trip gate of the deep-truncation check
    from toroharm.expansion import _values

    grid = sample_grid(TorusDomain(1.0), 8, 14, 14, 0.3)
    basis = basis_A_second(8, 3)
    values = _values(basis, grid)
    A = (values * np.sqrt(grid.weights)).reshape(len(basis), -1).T
    norms = np.linalg.norm(A, axis=0)
    planted = np.random.default_rng(23).standard_normal(len(basis)) / norms
    field = np.tensordot(planted, values, 1)
    b = (field * np.sqrt(grid.weights)).ravel()
    want = np.linalg.lstsq(A / norms, b, rcond=None)[0] / norms
    series, residual = project(field, basis, grid)
    got = np.array([c for _, c in series.terms])
    assert np.max(np.abs(got - want) * norms) <= 1e-6
    assert np.max(np.abs(got - planted) * norms) <= 1e-6
    assert residual <= 1e-9 * np.linalg.norm(b)


@pytest.mark.parametrize("scattered", [False, True])
def test_kept_projection_applies_products_only(monkeypatch, scattered):
    # a repeated call solves, factors and transforms nothing: it applies
    # the kept factors and gives the same bytes
    grid = sample_grid(TorusDomain(1.0), 8, 14, 14, 0.3)
    if scattered:
        grid = ExpansionGrid.from_samples(list(grid))
    basis = basis_A_second(4, 3)
    field = lambda x0, x1, x2: x0 * x1  # noqa: E731
    first = _coefficient_bytes(project(field, basis, grid))
    calls = []
    for module, name in ((np.linalg, "solve"), (np.linalg, "qr"), (np.linalg, "svd"),
                         (np.fft, "rfft")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, name=name, real=real, **k:
                            calls.append(name) or real(*a, **k))
    assert _coefficient_bytes(project(field, basis, grid)) == first
    assert calls == []


@pytest.mark.parametrize("K", [8, 14, 15])
def test_phi_mode_matrix_is_the_rotated_rfft(K):
    # against the rotation to (1, e_rho, e_phi, e3), the rfft in phi and
    # the mode weight 1 / sqrt(_mode_scale), real and imaginary parts
    # interleaved per mode; K = 8 and 14 have a Nyquist mode, 15 has none
    from toroharm.expansion import _mode_scale, _phi_modes, _rotate

    P = 5
    phi = 2.0 * np.pi * np.arange(K) / K
    F = np.random.default_rng(K).standard_normal((4, P * K)) * 10.0
    got = F.reshape(4, P, K).transpose(1, 0, 2).reshape(P, 4 * K) @ _phi_modes(K)
    G = np.fft.rfft(_rotate(F.reshape(4, P, K), np.cos(phi), np.sin(phi))) / np.sqrt(_mode_scale(K))
    want = np.stack([G.real, G.imag]).transpose(2, 3, 0, 1).reshape(P, -1)
    assert got.shape == (P, 8 * (K // 2 + 1))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(F))


@pytest.mark.parametrize("family", [basis_A_second, basis_H])
def test_modes_match_the_rotated_rfft_of_the_probe_values(family):
    # the mode that the index gives is the largest bin of the element's
    # values on the default mesh, rotated, transformed by rfft and divided
    # by the mode scale
    from toroharm.expansion import _mode, _mode_scale, _rotate, _values

    grid = sample_grid(TorusDomain(1.0), 8, 14, 14, 0.3)
    basis = family(4, 3)
    P, K = grid.shape
    V = _values(basis, grid).transpose(1, 0, 2).reshape(4, len(basis), P, K)
    G = np.fft.rfft(_rotate(V, np.cos(grid.phi), np.sin(grid.phi)))
    largest = (np.abs(G / _mode_scale(K)) ** 2).sum((0, 2)).argmax(1)
    assert largest.tolist() == [_mode(el) for el in basis]


def test_planted_degree_8_coefficients_come_back_over_forty_seeds():
    # unit-normalised errors of planted basis_A_second(8, 3) coefficients on
    # the default mesh, seeds 17-56: at most twice the 4.28e-8 median and
    # 1.15e-7 largest error of a QR factor with a solve
    from toroharm.expansion import _values

    grid = sample_grid(TorusDomain(1.0), 8, 14, 14, 0.3)
    basis = basis_A_second(8, 3)
    values = _values(basis, grid)
    norms = np.sqrt(np.diag(gram(basis, grid)))
    errors = []
    for seed in range(17, 57):
        planted = np.random.default_rng(seed).standard_normal(len(basis)) / norms
        series, _ = project(np.tensordot(planted, values, 1), basis, grid)
        got = np.array([c for _, c in series.terms])
        errors.append(np.max(np.abs(got - planted) * norms))
    assert np.median(errors) <= 8.6e-8 and max(errors) <= 2.3e-7


@pytest.mark.parametrize("scattered", [False, True])
@pytest.mark.parametrize("part, value", [(3, np.nan), (0, np.inf)], ids=["nan-e3", "inf-a0"])
def test_project_rejects_a_field_that_is_not_finite(scattered, part, value):
    # a NaN in the e3 part, which no element of the reduced basis has, and
    # an inf in the scalar part are refused by name, with no numpy warning
    grid = sample_grid(TorusDomain(1.0), 8, 14, 14, 0.3)
    if scattered:
        grid = ExpansionGrid.from_samples(list(grid))
    field = np.zeros((4, len(grid)))
    field[0] = grid.x0
    field[part, 17] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="field is not finite on 1 of the grid's 1568 nodes"):
            project(field, basis_A_second(4, 3), grid)


def test_refusals_are_raised_on_every_call():
    grid = sample_grid(TorusDomain(1.0), 4, 6, 8, margin=0.3)
    dependent = [element_W(1, 1), element_W(1, 1)]
    aliasing = basis_A_second(4, 4)
    for _ in range(2):
        with pytest.raises(IllConditionedGram):
            project(element_W(1, 1), dependent, grid)
        with pytest.raises(ValueError, match="aliases on K = 8"):
            project(lambda x0, x1, x2: x0, aliasing, grid)
    assert grid.factors == {}


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


def test_elements_on_a_grid_of_zero_nodes():
    # every kind, the T0 line integrals included, gives an empty (4, 0)
    nodes = np.array([])
    grid = ExpansionGrid.on_meridian(nodes, nodes, np.array([0.0, 1.0]))
    for el in (element_T(2, 1, 1, -1), element_T0(1, 1), element_W(-1, -1), element_one(),
               element_e3_times(element_T0(2, -1))):
        assert evaluate_element_grid(el, grid).shape == (4, 0)
