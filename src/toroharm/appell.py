"""Reverse-Appell change of basis: the star matrices, their inverses, and
the starred harmonics I*.

For each order ``m`` the starred harmonics are unit-lower-triangular
combinations of the plain ones,

    I*_{n,m} = sum_{k<=n} star[n][k] * I_{k,m},

chosen so that ``d/dx0`` raises the degree index by exactly one:

    d0 I*_{n,m}^{nu,mu} = nu * kappa(n+1, m, n) * I*_{n+1,m}^{-nu,mu}.

All coefficient algebra here is exact rational; floats appear only at
evaluation time.  That makes the Appell identity a hard equality test and
keeps the (rapidly growing) matrix entries from silently losing digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .harmonics import DerivativeTerm, HarmonicIndex, _combine, eval_terms, kappa

Rows = Tuple[Tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class StarMatrix:
    """Exact unit-lower-triangular matrix ``entries[n][k]`` at a fixed
    order ``m``: the starred harmonics in terms of the plain ones
    (:func:`star_matrix`), or the inverse change of basis
    (:func:`inverse_matrix`)."""

    m: int
    n_max: int
    entries: Rows

    def row(self, n: int) -> Tuple[Fraction, ...]:
        return self.entries[n]


@lru_cache(maxsize=None)
def star_matrix(m: int, n_max: int) -> StarMatrix:
    """Build the degree-raising change of basis at order ``m``.

    Row ``n`` is produced from row ``n - 1`` by pushing it through the
    ``d/dx0`` coefficient table and dividing by the single new diagonal
    coefficient ``kappa(n, m, n-1)``, which is nonzero for every
    admissible ``(n, m)`` except ``(1, 0)`` handled by the ``n = 0`` row
    special case (``kappa(1, 0, 0) = -1/2``).
    """
    if m < 0 or n_max < 0:
        raise ValueError("m and n_max must be nonnegative")
    rows: List[Tuple[Fraction, ...]] = [(Fraction(1),)]
    for n in range(1, n_max + 1):
        denom = kappa(n, m, n - 1)
        if denom == 0:
            raise ZeroDivisionError(
                f"degree-raising coefficient vanishes at (n={n}, m={m})"
            )
        prev = rows[n - 1]
        row = []
        for k in range(n):
            s = sum(kappa(k, m, j) * prev[j] for j in range(max(k - 1, 0), n))
            row.append(s / denom)
        row.append(Fraction(1))
        rows.append(tuple(row))
    return StarMatrix(m, n_max, tuple(rows))


@lru_cache(maxsize=None)
def inverse_matrix(m: int, n_max: int) -> StarMatrix:
    """Exact inverse of :func:`star_matrix` by back-substitution."""
    star = star_matrix(m, n_max).entries
    inv: List[List[Fraction]] = [[Fraction(0)] * (n + 1) for n in range(n_max + 1)]
    for n in range(n_max + 1):
        inv[n][n] = Fraction(1)
        for k in range(n - 1, -1, -1):
            inv[n][k] = -sum(star[j][k] * inv[n][j] for j in range(k + 1, n + 1))
    return StarMatrix(m, n_max, tuple(tuple(r) for r in inv))


def star_terms(idx: HarmonicIndex) -> List[Tuple[HarmonicIndex, Fraction]]:
    """The starred harmonic ``I*_idx`` as an exact combination of plain
    harmonics, with zero-function indices dropped."""
    row = star_matrix(idx.m, idx.n).row(idx.n)
    out = []
    for k, c in enumerate(row):
        if c == 0:
            continue
        if k == 0 and idx.nu == -1:
            continue  # the (0, -) harmonic is identically zero
        out.append((HarmonicIndex(k, idx.m, idx.nu, idx.mu), c))
    return out


def _star_table(idx: HarmonicIndex) -> List[DerivativeTerm]:
    return [DerivativeTerm(i, c) for i, c in star_terms(idx)]


def eval_I_star_batch(idx: HarmonicIndex, eta, theta, phi) -> np.ndarray:
    """Vectorized starred-harmonic evaluation on coordinate arrays."""
    return eval_terms(_star_table(idx), eta, theta, phi)


def d0_star_terms(idx: HarmonicIndex) -> List[Tuple[HarmonicIndex, bool, Fraction]]:
    """Exact expansion of ``d/dx0`` applied to the starred harmonic ``I*_idx``.

    Returns ``(target, starred, coefficient)`` triples: ``starred`` tells
    whether the target index names a starred or a plain harmonic.

    For the cosine family (nu = +1) the derivative is a single starred
    term, ``kappa(n+1, m, n) * I*_{n+1}^{-,mu}``.  For the sine family the
    single-term identity holds only at the level of formal coefficient
    rows: the k = 0 entry of the star matrix multiplies the identically
    zero (0, -) harmonic, so the function-level derivative picks up a
    plain-harmonic correction,

        d0 I*_n^{-,mu} = -kappa(n+1,m,n) I*_{n+1}^{+,mu}
                         + star[n][0] * kappa(1,m,0) * I_{1,m}^{+,mu}.
    """
    n, m = idx.n, idx.m
    lead = idx.nu * kappa(n + 1, m, n)
    out: List[Tuple[HarmonicIndex, bool, Fraction]] = [
        (HarmonicIndex(n + 1, m, -idx.nu, idx.mu), True, lead)
    ]
    if idx.nu == -1:
        c = star_matrix(m, n).row(n)[0] * kappa(1, m, 0)
        if c != 0:
            out.append((HarmonicIndex(1, m, 1, idx.mu), False, c))
    return out


def eval_d0_star(idx: HarmonicIndex, eta, theta, phi) -> np.ndarray:
    """``d/dx0`` of the starred harmonic on coordinate arrays, via
    :func:`d0_star_terms` (no differencing)."""
    terms = _combine((c, _star_table(tgt) if starred else [DerivativeTerm(tgt, Fraction(1))])
                     for tgt, starred, c in d0_star_terms(idx))
    return eval_terms(terms, eta, theta, phi)


def reverse_appell_check(m: int, n_max: int) -> Tuple[bool, str]:
    """Exact coefficient-level verification of the degree-raising identity.

    Pushes each star-matrix row through the ``d/dx0`` table (the bare
    ``kappa`` map; the ``nu`` prefactor cancels against the one on the
    right-hand side) and compares with ``kappa(n+1, m, n)`` times the next
    row.  Returns ``(True, '')`` or ``(False, description-of-first-mismatch)``.
    """
    star = star_matrix(m, n_max).entries
    for n in range(n_max):
        derived = [Fraction(0)] * (n + 2)
        for k, c in enumerate(star[n]):
            for kk in (max(k - 1, 0), k, k + 1):
                derived[kk] += c * kappa(kk, m, k)
        lam = kappa(n + 1, m, n)
        expected = [lam * c for c in star[n + 1]]
        for k in range(n + 2):
            if derived[k] != expected[k]:
                return False, (
                    f"mismatch at m={m}, n={n}, k={k}: "
                    f"{derived[k]} != {expected[k]}"
                )
    return True, ""


def alpha_beta(n_max: int):
    """Truncated coefficients expressing 1 and x0 over the starred basis.

    The harmonic function 1 expands over the plain harmonics with
    coefficients ``c_n = sqrt(2)/pi * (2 - delta_{0,n})`` and ``x0`` with
    ``4 sqrt(2)/pi * n`` (sine family); transporting a depth-``n_max``
    truncation through the inverse matrix gives

        alpha_k = sum_{n=k}^{n_max} c_n * inv[n][k],
        beta_k  = sum_{n=max(k,1)}^{n_max} d_n * inv[n][k].

    The termwise sums diverge as ``n_max`` grows entry-by-entry (the
    inverse-matrix entries grow much faster than the ``c_n``), so only
    this jointly truncated form is meaningful: it reproduces the plain
    truncated series exactly.  Returns ``(alphas, betas)``, exact
    ``Fraction`` multiples of ``sqrt(2)/pi``.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    inv = inverse_matrix(0, n_max).entries
    # exact rational prefactors: c_n = (2 - delta) * [sqrt(2)/pi], d_n = 4 n * [...]
    alphas = [
        sum((Fraction(1) if n == 0 else Fraction(2)) * inv[n][k]
            for n in range(k, n_max + 1))
        for k in range(n_max + 1)
    ]
    betas = [
        sum(Fraction(4 * n) * inv[n][k] for n in range(max(k, 1), n_max + 1))
        for k in range(n_max + 1)
    ]
    return alphas, betas


def j_coefficient_unit() -> float:
    """The common irrational unit ``sqrt(2)/pi`` of the alpha/beta lists."""
    return float(np.sqrt(2.0) / np.pi)


__all__ = [
    "StarMatrix",
    "star_matrix",
    "inverse_matrix",
    "star_terms",
    "eval_I_star_batch",
    "d0_star_terms",
    "eval_d0_star",
    "reverse_appell_check",
    "alpha_beta",
    "j_coefficient_unit",
]
