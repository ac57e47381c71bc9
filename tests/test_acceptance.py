"""End-to-end acceptance gate.

Each test covers one headline property of the library and prints a single
pass/fail line (visible with ``pytest -s`` or in the captured output).
"""

import time
from fractions import Fraction

from toroharm import harmonics, monogenics
from toroharm.checks import (
    check_deep_truncation,
    check_derivative_tables,
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
    check_w_plateau,
    suite_appell,
    suite_coh,
    suite_expansions,
)


def _gate(label, results, max_seconds=None, elapsed=None):
    if not isinstance(results, list):
        results = [results]
    passed = all(r.passed for r in results)
    if max_seconds is not None and elapsed is not None and elapsed > max_seconds:
        passed = False
    worst = max(r.residual for r in results)
    line = f"{label}: {'PASS' if passed else 'FAIL'} (worst residual {worst:.3e}"
    if elapsed is not None:
        line += f", {elapsed:.1f} s"
    line += ")"
    print(line)
    assert passed, "\n".join(r.line() for r in results)


def test_criterion_01_legendre_recurrences_and_oracle():
    t0 = time.perf_counter()
    results = [check_legendre_recurrences(), check_legendre_oracle(), check_legendre_mpmath()]
    _gate("criterion 01 half-integer Legendre recurrences + quadrature oracle + mpmath",
          results, max_seconds=60.0, elapsed=time.perf_counter() - t0)


def test_criterion_02_harmonicity():
    _gate("criterion 02 Laplacian annihilates the toroidal harmonics",
          check_harmonicity())


def test_criterion_03_derivative_tables():
    _gate("criterion 03 analytic Cartesian derivatives match central differences",
          check_derivative_tables())


def test_derivative_table_check_sees_a_1e_5_coefficient_error(monkeypatch):
    raw = harmonics._d1_raw

    def perturbed(n, m):
        out = raw(n, m)
        if (n, m) == (3, 2):
            out[(3, 3)] *= Fraction(100001, 100000)
        return out

    monkeypatch.setattr(harmonics, "_d1_raw", perturbed)
    assert not check_derivative_tables().passed


def test_criterion_04_reverse_appell():
    results = [check_reverse_appell_exact(), check_reverse_appell_numeric()]
    _gate("criterion 04 starred basis raises degree under d/dx0", results)


def test_criterion_05_matrix_inverse():
    _gate("criterion 05 exact rational inverse of the star matrix",
          check_matrix_inverse())


def test_criterion_06_known_expansions():
    t0 = time.perf_counter()
    results = check_known_expansions(N=40)
    _gate("criterion 06 closed-form expansions of 1 and x0", results,
          max_seconds=60.0, elapsed=time.perf_counter() - t0)


def test_criterion_07_expansion_coefficients():
    _gate("criterion 07 planar expansion coefficients vs Fourier oracle",
          check_j_coefficients())


def test_criterion_08_teodorescu_closed_form():
    t0 = time.perf_counter()
    result = check_teodorescu_closed_form()
    _gate("criterion 08 annulus Teodorescu transform closed form", result,
          max_seconds=120.0, elapsed=time.perf_counter() - t0)


def test_teodorescu_closed_form_check_runs_the_mode_transform(monkeypatch):
    # the constant source has one mode, so every point stops at level 1
    levels = []
    level_fn = monogenics._teodorescu_level

    def spy(f, w, r_in, r_out, level):
        levels.append(level)
        return level_fn(f, w, r_in, r_out, level)

    monkeypatch.setattr(monogenics, "_teodorescu_level", spy)
    result = check_teodorescu_closed_form()
    assert result.passed and result.residual <= 1e-12, result.line()
    assert levels == [0, 1] * 10


def test_teodorescu_modes_match_cauchy_pompeiu():
    _gate("Teodorescu mode transform vs Cauchy-Pompeiu", check_teodorescu_oracle())


def test_criterion_09_psi_monogenicity():
    _gate("criterion 09 monogenic completion Psi", check_psi())


def test_criterion_10_cohomology():
    _gate("criterion 10 circulation coefficients around the torus hole",
          suite_coh())


def test_criterion_11_basis_experiments():
    results = (check_gram_definiteness()
               + [check_projection_round_trip()]
               + check_w_plateau())
    _gate("criterion 11 Gram definiteness, projection round trip, W plateau",
          results)


def test_deep_truncation_projection():
    # one SVD per phi mode reaches degree 8 (planted, 1e-6) and 10 (the
    # Cauchy kernel with its pole in the hole, relative residual 1e-5)
    results = check_deep_truncation()
    assert [(r.name, r.tolerance) for r in results] == [
        ("deep-truncation planted round trip", 1e-6),
        ("Cauchy kernel projection residual", 1e-5),
    ]
    _gate("deep-truncation projection by phi mode", results)


def test_criterion_12_torus_volume():
    _gate("criterion 12 solid torus volume quadrature", check_torus_volume())


def test_check_names_and_order_are_pinned():
    # ``verify --tol NAME=VALUE`` keys on these names
    names = [r.name for r in suite_appell() + suite_coh() + suite_expansions()]
    assert names == [
        "reverse-Appell exact",
        "star matrix inverse exact",
        "reverse-Appell numeric (degree raising)",
        "starred expansion of 1 (alpha transport)",
        "starred expansion of x0 (beta transport)",
        "generator coefficient +1 (fixed convention)",
        "literal-orientation regression (constant = -1)",
        "other W coefficients vanish",
        "exact T coefficients vanish",
        "degree-0 monogenic coefficients vanish",
        "radius independence of the coefficient",
        "exact forms have zero coefficient",
        "expansion of 1 over harmonics",
        "expansion of x0 over harmonics",
        "expansion of 1 over exact monogenics",
        "planar expansion coefficients vs Fourier oracle",
        "misprint readings demonstrably fail",
    ]
