"""End-to-end acceptance gate.

One test per verification suite gates every check of ``checks.SUITES``
and pins the names and tolerances of its results; one test per headline
property gates the checks that cover it. Each prints a single pass/fail
line (visible with ``pytest -s`` or in the captured output). A check runs
once per session: every test reads its results from :func:`_run`.
"""

import functools
import time
import warnings
from fractions import Fraction

import pytest

from toroharm import harmonics, monogenics
from toroharm.checks import (
    SUITES,
    CheckResult,
    check_deep_truncation,
    check_derivative_tables,
    check_generator_orthogonality,
    check_gram_definiteness,
    check_harmonicity,
    check_j_coefficients,
    check_known_expansions,
    check_legendre_mpmath,
    check_legendre_oracle,
    check_legendre_recurrences,
    check_matrix_inverse,
    check_projection_round_trip,
    check_psi,
    check_reverse_appell_exact,
    check_reverse_appell_numeric,
    check_teodorescu_closed_form,
    check_teodorescu_oracle,
    check_torus_volume,
    run_suite,
)

#: the ``(name, tolerance)`` of every result of every suite, in order;
#: ``verify --tol NAME=VALUE`` keys on these names
PINNED = {
    "appell": [
        ("reverse-Appell exact", 0.0),
        ("star matrix inverse exact", 0.0),
        ("reverse-Appell numeric (degree raising)", 1e-6),
        ("starred expansion of 1 (alpha transport)", 1e-6),
        ("starred expansion of x0 (beta transport)", 1e-6),
    ],
    "basis": [
        ("reduced basis Gram (first 50)", 0.0),
        ("full-quaternion basis Gram (first 80)", 0.0),
        ("synthetic projection round trip", 1e-6),
        ("generator orthogonal to every T and T0", 1e-13),
        ("generator joins the span when added", 1e-8),
        ("projection residual monotone in basis size", 1e-10),
        ("projection idempotence", 1e-8),
        ("full-quaternion projection residual", 1e-4),
        ("deep-truncation planted round trip", 1e-6),
        ("Cauchy kernel projection residual", 1e-5),
    ],
    "coh": [
        ("generator coefficient +1 (fixed convention)", 1e-8),
        ("literal-orientation regression (constant = -1)", 0.0),
        ("other W coefficients vanish", 1e-8),
        ("exact T coefficients vanish", 1e-6),
        ("degree-0 monogenic coefficients vanish", 1e-6),
        ("radius independence of the coefficient", 1e-8),
        ("exact forms have zero coefficient", 1e-8),
    ],
    "derivatives": [
        ("harmonicity: FD Laplacian at h=1e-4", 1e-6),
        ("harmonicity: O(h^2) residual decay", 10.0),
        ("derivative tables vs central differences", 1e-6),
    ],
    "expansions": [
        ("expansion of 1 over harmonics", 1e-6),
        ("expansion of x0 over harmonics", 1e-6),
        ("expansion of 1 over exact monogenics", 1e-5),
        ("planar expansion coefficients vs Fourier oracle", 1e-8),
        ("misprint readings demonstrably fail", 1e-3),
    ],
    "legendre": [
        ("radial recurrences (degree and order)", 1e-10),
        ("radial fast path vs integral oracle", 1e-11),
        ("radial evaluator, I and T vs mpmath", 1e-11),
        ("torus volume vs closed form", 1e-8),
    ],
    "monogenic": [
        ("T monogenicity (analytic second derivatives)", 1e-10),
        ("Sc T matches degree-raising image", 1e-10),
        ("W monogenic constants", 1e-6),
        ("Teodorescu closed form on annulus", 1e-12),
        ("Teodorescu modes vs Cauchy-Pompeiu", 1e-12),
        ("completion closed forms (1 and x0)", 1e-8),
        ("completion of x0 monogenic", 1e-4),
        ("completion of degree-0 harmonics monogenic", 1e-4),
        ("degree-0 monogenics T0 vs Psi(I_0m)", 1e-8),
        ("quaternion decomposition yields monogenic parts", 1e-4),
    ],
}


@functools.lru_cache(maxsize=None)
def _run(check):
    """The results of ``check`` and its seconds, warnings raised as errors
    as CI runs ``python -W error -m toroharm.cli verify``."""
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = check()
    return results, time.perf_counter() - t0


def _gate(label, checks, max_seconds=None):
    """Assert that every result of ``checks`` passes, within ``max_seconds``
    if given, and return the results."""
    runs = [_run(check) for check in checks]
    results = [r for rs, _ in runs for r in rs]
    elapsed = sum(seconds for _, seconds in runs)
    passed = all(r.passed for r in results)
    if max_seconds is not None and elapsed > max_seconds:
        passed = False
    worst = max(r.residual for r in results)
    print(f"{label}: {'PASS' if passed else 'FAIL'} "
          f"({len(results)} checks, worst residual {worst:.3e}, {elapsed:.1f} s)")
    assert passed, "\n".join(r.line() for r in results)
    return results


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_in_60_s_with_pinned_checks(name):
    results = _gate(f"suite {name}", SUITES[name], max_seconds=60.0)
    assert [(r.name, r.tolerance) for r in results] == PINNED[name]


def test_run_suite_concatenates_the_suite_checks_in_order(monkeypatch):
    a, b, c = (CheckResult(name, True, 0.0, 1.0) for name in "abc")
    monkeypatch.setitem(SUITES, "two checks", (lambda: [a], lambda: [b, c]))
    assert run_suite("two checks") == [a, b, c]


def test_criterion_01_legendre_recurrences_and_oracle():
    _gate("criterion 01 half-integer Legendre recurrences + quadrature oracle + mpmath",
          [check_legendre_recurrences, check_legendre_oracle, check_legendre_mpmath],
          max_seconds=60.0)


def test_criterion_02_harmonicity():
    _gate("criterion 02 Laplacian annihilates the toroidal harmonics", [check_harmonicity])


def test_criterion_03_derivative_tables():
    _gate("criterion 03 analytic Cartesian derivatives match central differences",
          [check_derivative_tables])


def test_derivative_table_check_sees_a_1e_5_coefficient_error(monkeypatch):
    raw = harmonics._d1_raw

    def perturbed(n, m):
        out = raw(n, m)
        if (n, m) == (3, 2):
            out[(3, 3)] *= Fraction(100001, 100000)
        return out

    monkeypatch.setattr(harmonics, "_d1_raw", perturbed)
    [result] = check_derivative_tables()
    assert not result.passed


def test_criterion_04_reverse_appell():
    _gate("criterion 04 starred basis raises degree under d/dx0",
          [check_reverse_appell_exact, check_reverse_appell_numeric])


def test_criterion_05_matrix_inverse():
    _gate("criterion 05 exact rational inverse of the star matrix", [check_matrix_inverse])


def test_criterion_06_known_expansions():
    # ``check_known_expansions`` runs at N = 40
    _gate("criterion 06 closed-form expansions of 1 and x0", [check_known_expansions],
          max_seconds=60.0)


def test_criterion_07_expansion_coefficients():
    _gate("criterion 07 planar expansion coefficients vs Fourier oracle",
          [check_j_coefficients])


def test_criterion_08_teodorescu_closed_form():
    _gate("criterion 08 annulus Teodorescu transform closed form",
          [check_teodorescu_closed_form], max_seconds=120.0)


def test_teodorescu_closed_form_check_runs_the_mode_transform(monkeypatch):
    # the constant source has one mode, so every point stops at level 1
    levels = []
    level_fn = monogenics._teodorescu_level

    def spy(f, w, r_in, r_out, level):
        levels.append(level)
        return level_fn(f, w, r_in, r_out, level)

    monkeypatch.setattr(monogenics, "_teodorescu_level", spy)
    [result] = check_teodorescu_closed_form()
    assert result.passed and result.residual <= 1e-12, result.line()
    assert levels == [0, 1] * 10


def test_teodorescu_modes_match_cauchy_pompeiu():
    _gate("Teodorescu mode transform vs Cauchy-Pompeiu", [check_teodorescu_oracle])


def test_criterion_09_psi_monogenicity():
    _gate("criterion 09 monogenic completion Psi", [check_psi])


def test_criterion_10_cohomology():
    _gate("criterion 10 circulation coefficients around the torus hole", SUITES["coh"])


def test_criterion_11_basis_experiments():
    _gate("criterion 11 Gram definiteness, projection round trip, generator orthogonality",
          [check_gram_definiteness, check_projection_round_trip, check_generator_orthogonality])


def test_deep_truncation_projection():
    # one SVD per phi mode reaches degree 8 (planted, 1e-6) and 10 (the
    # Cauchy kernel with its pole in the hole, relative residual 1e-5)
    results = _gate("deep-truncation projection by phi mode", [check_deep_truncation])
    assert [(r.name, r.tolerance) for r in results] == [
        ("deep-truncation planted round trip", 1e-6),
        ("Cauchy kernel projection residual", 1e-5),
    ]


def test_criterion_12_torus_volume():
    _gate("criterion 12 solid torus volume quadrature", [check_torus_volume])


def test_check_names_and_order_are_pinned():
    # ``verify --tol NAME=VALUE`` keys on these names
    names = [r.name for suite in ("appell", "coh", "expansions")
             for check in SUITES[suite] for r in _run(check)[0]]
    assert names == [name for suite in ("appell", "coh", "expansions")
                     for name, _ in PINNED[suite]]
