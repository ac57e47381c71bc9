"""Series expansions over the monogenic and harmonic basis families.

Provides the basis-element vocabulary (exact toroidal monogenics T, the
degree-0 family T0, monogenic constants W, the constant 1, right
multiples by e3, and the plain/starred harmonics used by the known
closed-form expansions), Gram-matrix projection on sampled grids, the
closed-form expansions of 1 and x0, and the Laurent analysis of
monogenic constants.

Completeness of the infinite families is only falsifiable numerically;
the desk-scale experiments here test positive-definiteness of Gram
matrices at fixed truncations and residual decay of least-squares
projections, not the theorems themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .appell import _star_table, alpha_beta, j_coefficient_unit
from .geometry import CartesianPoint, ExpansionGrid, to_toroidal
from .harmonics import DerivativeTerm, HarmonicIndex, Sign, TermMatrix, parse_sign, sign_char
from .monogenics import (
    Quaternion,
    _t0_lines,
    eval_W_batch,
    field_values,
    t_is_zero,
    t_term_tables,
)


# ---------------------------------------------------------------------------
# basis elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisElement:
    """One element of a monogenic (or harmonic) basis.

    ``kind`` is one of ``"T"``, ``"T0"``, ``"W"``, ``"ONE"``, ``"E3"``
    (right multiplication of ``inner`` by e3), plus the harmonic kinds
    ``"I"`` and ``"ISTAR"`` used by the closed-form expansions of 1 and
    x0.  Index fields are meaningful per kind: T uses all of (n, m, nu,
    mu); T0 uses (m, mu); W uses (m, nu) with nu as the family sign and
    m possibly negative; I/ISTAR use the full harmonic index.

    The degree-1 cosine slots of the T family are identically zero
    functions (their sources vanish), so they are rejected unless
    ``allow_excluded`` is set; this covers in particular the index
    (1, 0, +, +) that the second-basis enumeration explicitly swaps for
    the constant 1.
    """

    kind: str
    n: int = 0
    m: int = 0
    nu: Sign = 1
    mu: Sign = 1
    inner: Optional["BasisElement"] = None
    allow_excluded: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("T", "T0", "W", "ONE", "E3", "I", "ISTAR"):
            raise ValueError(f"unknown basis element kind {self.kind!r}")
        if self.kind == "E3":
            if self.inner is None:
                raise ValueError("E3 element needs an inner element")
            if self.inner.kind == "E3":
                raise ValueError("nested e3 multiples are not elements")
        elif self.inner is not None:
            raise ValueError("inner element only valid for kind E3")
        if self.kind == "T":
            if self.n < 1:
                raise ValueError("T elements need degree n >= 1")
            HarmonicIndex(self.n, self.m, self.nu, self.mu)  # validity
            if t_is_zero(self.n, self.m, self.nu, self.mu) and not self.allow_excluded:
                raise ValueError(
                    f"T[{self.n},{self.m}]^({sign_char(self.nu)},{sign_char(self.mu)}) "
                    "is the zero function (excluded index)"
                )
        if self.kind == "T0":
            HarmonicIndex(0, self.m, 1, self.mu)
        if self.kind in ("I", "ISTAR"):
            HarmonicIndex(self.n, self.m, self.nu, self.mu)
        if self.kind == "W" and self.nu not in (1, -1):
            raise ValueError("W sign must be +-1")

    def label(self) -> str:
        if self.kind == "ONE":
            return "1"
        if self.kind == "E3":
            return f"{self.inner.label()}*e3"
        if self.kind == "W":
            return f"W[{self.m}]^{sign_char(self.nu)}"
        if self.kind == "T0":
            return f"T0[{self.m}]^{sign_char(self.mu)}"
        return (
            f"{self.kind}[{self.n},{self.m}]"
            f"^({sign_char(self.nu)},{sign_char(self.mu)})"
        )


def element_T(n: int, m: int, nu, mu, allow_excluded: bool = False) -> BasisElement:
    return BasisElement("T", n, m, parse_sign(nu), parse_sign(mu),
                        allow_excluded=allow_excluded)


def element_T0(m: int, mu) -> BasisElement:
    return BasisElement("T0", 0, m, 1, parse_sign(mu))


def element_W(m: int, sign) -> BasisElement:
    return BasisElement("W", 0, m, parse_sign(sign), 1)


def element_one() -> BasisElement:
    return BasisElement("ONE")


def element_e3_times(inner: BasisElement) -> BasisElement:
    return BasisElement("E3", inner=inner)


def element_I(idx: HarmonicIndex) -> BasisElement:
    return BasisElement("I", idx.n, idx.m, idx.nu, idx.mu)


def evaluate_element(el: BasisElement, x: CartesianPoint) -> Quaternion:
    """Pointwise value of a basis element: :func:`evaluate_element_grid`
    on a one-point grid.  Raises :class:`DegenerateLocusError` where the
    element needs the toroidal chart and ``x`` lies on the axis or the
    limit circle."""
    if (el.inner if el.kind == "E3" else el).kind not in ("ONE", "W"):
        to_toroidal(x)
    with np.errstate(divide="ignore"):  # eta is inf on the limit circle
        grid = ExpansionGrid.from_samples([(x, 1.0)])
    return Quaternion(*evaluate_element_grid(el, grid)[:, 0].tolist())


# ---------------------------------------------------------------------------
# values on grids
# ---------------------------------------------------------------------------

#: right multiplication by e3 as a component map:
#: ``(a0, a1, a2, a3) e3 = (-a3, a2, -a1, a0)``
_E3_ORDER, _E3_SIGN = [3, 2, 1, 0], np.array([-1.0, 1.0, -1.0, 1.0])[:, None]


@lru_cache(maxsize=64)
def _compiled(elements: Tuple[BasisElement, ...]):
    """The evaluation plan of the elements: their distinct bases (e3
    multiples by their inner element); one :class:`TermMatrix` of the
    component tables of every ``T``, ``I`` and ``ISTAR`` base and the
    scalar part ``I_{0,m}`` of every ``T0`` base, and the ``(m, mu)`` pairs
    of the ``T0`` bases, each with its rows in the ``(4 * bases,)`` value
    array; the base of each element (``None`` if they are the elements)."""
    bases = list(dict.fromkeys(el.inner if el.kind == "E3" else el for el in elements))
    rows, row_dest, pairs, line_dest = [], [], [], []
    for b, el in enumerate(bases):
        idx = (0, el.m, 1, el.mu) if el.kind == "T0" else (el.n, el.m, el.nu, el.mu)
        if el.kind == "T":
            tables = t_term_tables(*idx)
        elif el.kind == "ISTAR":
            tables = (tuple(_star_table(HarmonicIndex(*idx))),)
        elif el.kind in ("I", "T0"):
            tables = ((DerivativeTerm(HarmonicIndex(*idx), Fraction(1)),),)
        else:
            continue
        if el.kind == "T0":
            pairs.append((el.m, el.mu))
            line_dest += [4 * b + 1, 4 * b + 2]
        rows += tables
        row_dest += range(4 * b, 4 * b + len(tables))
    position = {el: b for b, el in enumerate(bases)}
    base_of = [position[el.inner if el.kind == "E3" else el] for el in elements]
    e3 = [i for i, el in enumerate(elements) if el.kind == "E3"]
    if base_of == list(range(len(bases))) and not e3:
        base_of = None
    return bases, TermMatrix(rows), row_dest, tuple(pairs), line_dest, base_of, e3


def _values(elements: Sequence[BasisElement], grid: ExpansionGrid) -> np.ndarray:
    """Values of the elements on all grid nodes, shape ``(len(elements), 4,
    len(grid))``: one :class:`TermMatrix` call (one radial table), one
    batched :func:`_t0_lines` call, the closed forms of ``W`` and ``ONE``,
    and e3 multiples as a signed permutation of their base's components."""
    bases, matrix, row_dest, pairs, line_dest, base_of, e3 = _compiled(tuple(elements))
    out = np.zeros((4 * len(bases),) + grid.shape)
    if row_dest:
        out[row_dest] = matrix(grid.eta, grid.theta, grid.phi)
    if pairs:
        out[line_dest] = _t0_lines(pairs, *grid.meridian, grid.phi).reshape((-1,) + grid.shape)
    for b, el in enumerate(bases):
        if el.kind == "ONE":
            out[4 * b] = 1.0
        elif el.kind == "W":
            out[4 * b:4 * b + 3] = eval_W_batch(el.m, el.nu, grid.x1, grid.x2).reshape(
                (3,) + grid.shape)
    values = out.reshape(len(bases), 4, -1)
    if base_of is None:
        return values
    values = values[base_of]
    values[e3] = values[e3][:, _E3_ORDER] * _E3_SIGN
    return values


def evaluate_element_grid(el: BasisElement, grid: ExpansionGrid) -> np.ndarray:
    """Element values on all grid nodes, shape ``(4, len(grid))``.

    Each kind is evaluated on the grid's broadcasting coordinates, so on a
    mesh the radial table, the prefactor, the theta factors and the ``T0``
    line integrals are computed on the meridian nodes alone (see
    :func:`_values`).
    """
    return _values([el], grid)[0]


# ---------------------------------------------------------------------------
# series container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesExpansion:
    """A finite linear combination of basis elements with real
    coefficients."""

    terms: Tuple[Tuple[BasisElement, float], ...]

    def __post_init__(self) -> None:
        seen = set()
        for el, c in self.terms:
            if el in seen:
                raise ValueError(f"duplicate basis element {el.label()}")
            seen.add(el)
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient for {el.label()}")

    def coefficients(self) -> Dict[BasisElement, float]:
        return dict(self.terms)


def make_series(pairs) -> SeriesExpansion:
    return SeriesExpansion(tuple((el, float(c)) for el, c in pairs))


def evaluate_series_grid(s: SeriesExpansion, grid: ExpansionGrid) -> np.ndarray:
    """Series values on all grid nodes, shape ``(4, len(grid))``: the
    coefficient-weighted sum of the :func:`_values` of its elements."""
    if not s.terms:
        return np.zeros((4, len(grid)))
    elements, coeffs = zip(*s.terms)
    return np.tensordot(coeffs, _values(elements, grid), 1)


# ---------------------------------------------------------------------------
# Gram projection
# ---------------------------------------------------------------------------

def _weighted_values(basis: Sequence[BasisElement], grid: ExpansionGrid):
    """One row per element: its grid values times the square-root weights,
    flattened over components and nodes; returned with those weights."""
    sqw = np.sqrt(grid.weights)
    values = _values(basis, grid)
    values *= sqw
    return values.reshape(len(basis), -1), sqw


def gram(basis: Sequence[BasisElement], grid: ExpansionGrid) -> np.ndarray:
    """Gram matrix of pairwise grid L2 inner products (Euclidean on the
    four quaternion components)."""
    M, _ = _weighted_values(basis, grid)
    return M @ M.T


class IllConditionedGram(ValueError):
    """Projection refused: the Gram matrix is numerically singular."""

    def __init__(self, message: str, condition: float, size: int):
        super().__init__(message)
        self.condition = condition
        self.size = size


def _field_on_grid(f, grid: ExpansionGrid) -> np.ndarray:
    if isinstance(f, np.ndarray):
        if f.shape != (4, len(grid)):
            raise ValueError(f"field array must have shape (4, {len(grid)})")
        return f
    if isinstance(f, SeriesExpansion):
        return evaluate_series_grid(f, grid)
    if isinstance(f, BasisElement):
        return evaluate_element_grid(f, grid)
    return field_values(f, grid.x0, grid.x1, grid.x2)


#: the largest condition number :func:`project` accepts for the Gram matrix
#: of the unit-normalised basis, that is ``cond(M)^2`` for the weighted
#: values ``M``
_CONDITION_CAP = 1e12


def project(
    f,
    basis: Sequence[BasisElement],
    grid: ExpansionGrid,
) -> Tuple[SeriesExpansion, float]:
    """Least-squares projection of a field onto a finite basis.

    ``f`` may be a field (see :func:`monogenics.field_values`), a
    :class:`SeriesExpansion`, a :class:`BasisElement`, or a values array
    of shape (4, npts).  Returns the coefficient series and the L2
    residual norm on the grid.  Refuses (raising
    :class:`IllConditionedGram`) when the Gram condition number exceeds
    :data:`_CONDITION_CAP`.
    """
    M, sqw = _weighted_values(basis, grid)
    G = M @ M.T
    # normalize each element to unit grid norm before solving; the raw
    # basis mixes wildly different magnitudes
    d = np.sqrt(np.diag(G))
    if np.any(d <= 0):
        raise IllConditionedGram(
            "basis contains an element with zero grid norm", math.inf, len(basis)
        )
    Gs = G / np.outer(d, d)
    eigvals = np.linalg.eigvalsh(Gs)
    if eigvals[0] <= 0 or eigvals[-1] / eigvals[0] > _CONDITION_CAP:
        cond = math.inf if eigvals[0] <= 0 else float(eigvals[-1] / eigvals[0])
        raise IllConditionedGram(
            f"Gram matrix of {len(basis)} elements has condition {cond:.3g} "
            f"(cap {_CONDITION_CAP:.3g}); refine the grid or shrink the basis",
            cond, len(basis),
        )
    F = (_field_on_grid(f, grid) * sqw).reshape(-1)
    b = (M @ F) / d
    coeffs = np.linalg.solve(Gs, b)
    # one step of iterative refinement sharpens small residuals
    coeffs += np.linalg.solve(Gs, b - Gs @ coeffs)
    coeffs = coeffs / d
    residual = float(np.linalg.norm(F - M.T @ coeffs))
    return make_series(zip(basis, coeffs)), residual


# ---------------------------------------------------------------------------
# basis enumerations
# ---------------------------------------------------------------------------

def _sign_range(m: int):
    return ((1,) if m == 0 else (1, -1))


def t_family(n_max: int, m_max: int) -> List[BasisElement]:
    """All nonzero T elements with 0 <= n <= n_max, 0 <= m <= m_max.

    Degree 0 contributes the T0 family; the identically-zero degree-1
    cosine slots are skipped.
    """
    out: List[BasisElement] = []
    for m in range(m_max + 1):
        for mu in _sign_range(m):
            out.append(element_T0(m, mu))
    for n in range(1, n_max + 1):
        for m in range(m_max + 1):
            for nu in (1, -1):
                if t_is_zero(n, m, nu, 1):
                    continue
                for mu in _sign_range(m):
                    out.append(element_T(n, m, nu, mu))
    return out


def w_family(m_max: int) -> List[BasisElement]:
    """Monogenic constants W_m^+- for |m| <= m_max, ordered by |m|."""
    out: List[BasisElement] = []
    for a in range(m_max + 1):
        for m in ((a,) if a == 0 else (a, -a)):
            for s in (1, -1):
                out.append(element_W(m, s))
    return out


def basis_A(n_max: int, m_max: int) -> List[BasisElement]:
    """Truncation of the first reduced-quaternion basis: the T family
    plus the monogenic constants W."""
    return w_family(m_max) + t_family(n_max, m_max)


def basis_A_second(n_max: int, m_max: int) -> List[BasisElement]:
    """Truncation of the second reduced-quaternion basis: the constant 1,
    the W family, and the T family.

    The enumeration that this realizes swaps one T element for the
    constant; here every degree-1 cosine slot is a zero function and is
    skipped by :func:`t_family`, which subsumes that exclusion.
    """
    return [element_one()] + w_family(m_max) + t_family(n_max, m_max)


def basis_H(n_max: int, m_max: int) -> List[BasisElement]:
    """Truncation of the full-quaternion basis: the second reduced basis
    together with the e3 right-multiples of its T part and of 1.

    e3 multiples of the W family are omitted: they coincide with other
    W elements up to sign.
    """
    second = basis_A_second(n_max, m_max)
    tails = [element_e3_times(element_one())]
    tails += [element_e3_times(el) for el in t_family(n_max, m_max)]
    return second + tails


# ---------------------------------------------------------------------------
# known closed-form expansions
# ---------------------------------------------------------------------------

def known_expansion_one(N: int) -> SeriesExpansion:
    """The constant 1 over the order-0 cosine harmonics: coefficients
    sqrt(2)/pi times (2 - delta_{0,n}), truncated at degree N."""
    if N < 1:
        raise ValueError("N must be at least 1")
    unit = j_coefficient_unit()
    pairs = [
        (element_I(HarmonicIndex(n, 0, 1, 1)), unit * (1.0 if n == 0 else 2.0))
        for n in range(N + 1)
    ]
    return make_series(pairs)


def known_expansion_x0(N: int) -> SeriesExpansion:
    """The coordinate x0 over the order-0 sine harmonics: coefficients
    4 sqrt(2)/pi times n, truncated at degree N."""
    if N < 1:
        raise ValueError("N must be at least 1")
    unit = j_coefficient_unit()
    pairs = [
        (element_I(HarmonicIndex(n, 0, -1, 1)), 4.0 * unit * n)
        for n in range(1, N + 1)
    ]
    return make_series(pairs)


def known_expansion_one_in_T(N: int) -> SeriesExpansion:
    """The constant 1 over the exact monogenics T, truncated at joint
    depth N.

    Obtained by applying the conjugate Fueter derivative to the starred
    expansion of x0; the coefficient of ``T_{k+1,0}^{+,+}`` is the
    x0-transport coefficient beta_k.  The k = 0 term multiplies the zero
    function and is dropped.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    _, betas = alpha_beta(N)
    unit = j_coefficient_unit()
    pairs = [
        (element_T(k + 1, 0, 1, 1), unit * float(betas[k]))
        for k in range(1, N + 1)
        if betas[k] != 0
    ]
    return make_series(pairs)


# ---------------------------------------------------------------------------
# monogenic-constant Laurent analysis
# ---------------------------------------------------------------------------

def expand_monogenic_constant(
    phi,
    m_max: int = 4,
    n_nodes: int = 256,
    radius: float = 0.9,
    tol: float = 1e-6,
):
    """Coefficients of a monogenic constant, the field ``phi``, over
    {1, W_m^+-}.

    The scalar part must be constant (checked; rejected otherwise); its
    value is the coefficient of 1.  The planar part phi1 - i phi2 is a
    holomorphic function of x1 + i x2 on the slice annulus, and its
    Laurent coefficients on a circle give the W coefficients:
    ``a_m^+ = Re c_m``, ``a_m^- = -Im c_m``.

    Returns ``(a0, {(m, sign): coefficient})`` for |m| <= m_max.
    """
    t = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    v = field_values(phi, np.zeros(n_nodes), radius * np.cos(t), radius * np.sin(t))
    sc = v[0]
    g = v[1] - 1j * v[2]
    a0 = float(np.mean(sc))
    if float(np.max(np.abs(sc - a0))) > tol:
        raise ValueError(
            "scalar part is not constant on the test circle; "
            "the field is not a monogenic constant"
        )
    spectrum = np.fft.fft(g) / n_nodes
    coeffs: Dict[Tuple[int, int], float] = {}
    for m in range(-m_max, m_max + 1):
        c = spectrum[m % n_nodes] / radius**m
        coeffs[(m, 1)] = float(c.real)
        coeffs[(m, -1)] = float(-c.imag)
    return a0, coeffs


__all__ = [
    "BasisElement",
    "element_T",
    "element_T0",
    "element_W",
    "element_one",
    "element_e3_times",
    "element_I",
    "evaluate_element",
    "ExpansionGrid",
    "evaluate_element_grid",
    "SeriesExpansion",
    "make_series",
    "evaluate_series_grid",
    "gram",
    "IllConditionedGram",
    "project",
    "t_family",
    "w_family",
    "basis_A",
    "basis_A_second",
    "basis_H",
    "known_expansion_one",
    "known_expansion_x0",
    "known_expansion_one_in_T",
    "expand_monogenic_constant",
]
