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

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .appell import alpha_beta, eval_I_star_batch, j_coefficient_unit
from .geometry import (
    CartesianPoint,
    TorusDomain,
    to_toroidal,
    toroidal_arrays,
)
from .harmonics import HarmonicIndex, Sign, eval_I_batch, parse_sign, sign_char
from .monogenics import (
    E3,
    Quaternion,
    eval_T0_batch,
    eval_T_batch,
    eval_W_batch,
    field_values,
    qmul,
    t_is_zero,
)
from .special_functions import q_half_grid

SCHEMA_VERSION = 1


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


def element_I_star(idx: HarmonicIndex) -> BasisElement:
    return BasisElement("ISTAR", idx.n, idx.m, idx.nu, idx.mu)


def _element_q_extent(el: BasisElement) -> Tuple[int, int]:
    """(n_max, m_max) of the radial table needed to evaluate a T, I or
    ISTAR element."""
    if el.kind == "T":
        return (el.n, el.m + 1)
    return (el.n, el.m)


def evaluate_element(el: BasisElement, x: CartesianPoint) -> Quaternion:
    """Pointwise value of a basis element: :func:`evaluate_element_grid`
    on a one-point grid.  Raises :class:`DegenerateLocusError` where the
    element needs the toroidal chart and ``x`` lies on the axis or the
    limit circle."""
    base = el.inner if el.kind == "E3" else el
    if base.kind not in ("ONE", "W"):
        to_toroidal(x)
    grid = ExpansionGrid.from_samples([(x, 1.0)])
    return Quaternion(*evaluate_element_grid(el, grid)[:, 0].tolist())


# ---------------------------------------------------------------------------
# sampled grids
# ---------------------------------------------------------------------------

@dataclass
class ExpansionGrid:
    """Flattened quadrature nodes and weights for Gram assembly.

    Built from the (point, weight) pairs of ``geometry.sample_grid``;
    caches the shared radial table so that repeated element evaluations
    do not redo the backward recurrences.
    """

    x0: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    eta: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    _q_cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_samples(cls, samples) -> "ExpansionGrid":
        pts = np.array([(p.x0, p.x1, p.x2, w) for p, w in samples])
        eta, theta, phi = toroidal_arrays(pts[:, 0], pts[:, 1], pts[:, 2])
        return cls(pts[:, 0], pts[:, 1], pts[:, 2], eta, theta, phi, pts[:, 3])

    def q_table(self, n_max: int, m_max: int):
        key = max([k for k in self._q_cache if k[0] >= n_max and k[1] >= m_max],
                  default=None)
        if key is not None:
            return self._q_cache[key]
        new_key = (n_max, m_max)
        self._q_cache.clear()
        self._q_cache[new_key] = q_half_grid(n_max, m_max, np.cosh(self.eta))
        return self._q_cache[new_key]

    def __len__(self) -> int:
        return self.x0.size


def evaluate_element_grid(el: BasisElement, grid: ExpansionGrid) -> np.ndarray:
    """Element values on all grid nodes, shape (4, npts)."""
    npts = len(grid)
    if el.kind == "ONE":
        out = np.zeros((4, npts))
        out[0] = 1.0
        return out
    if el.kind == "W":
        v = eval_W_batch(el.m, el.nu, grid.x1, grid.x2)
        return np.vstack([v, np.zeros((1, npts))])
    if el.kind == "E3":
        return qmul(evaluate_element_grid(el.inner, grid), E3)
    if el.kind == "T0":
        v = eval_T0_batch(el.m, el.mu, grid.x0, grid.x1, grid.x2)
        return np.vstack([v, np.zeros((1, npts))])
    ne, me = _element_q_extent(el)
    q = grid.q_table(max(ne, 1), max(me, 1))
    if el.kind == "T":
        idx = HarmonicIndex(el.n, el.m, el.nu, el.mu)
        v = eval_T_batch(idx, grid.eta, grid.theta, grid.phi, q=q)
        return np.vstack([v, np.zeros((1, npts))])
    idx = HarmonicIndex(el.n, el.m, el.nu, el.mu)
    out = np.zeros((4, npts))
    if el.kind == "I":
        out[0] = eval_I_batch(idx, grid.eta, grid.theta, grid.phi, q=q)
    else:
        out[0] = eval_I_star_batch(idx, grid.eta, grid.theta, grid.phi, q=q)
    return out


# ---------------------------------------------------------------------------
# series container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesExpansion:
    """A finite linear combination of basis elements with real
    coefficients, plus free-form truncation metadata."""

    terms: Tuple[Tuple[BasisElement, float], ...]
    meta: Tuple[Tuple[str, str], ...] = ()

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


def make_series(pairs, **meta) -> SeriesExpansion:
    return SeriesExpansion(
        tuple((el, float(c)) for el, c in pairs),
        tuple(sorted((k, str(v)) for k, v in meta.items())),
    )


def evaluate_series(s: SeriesExpansion, x: CartesianPoint) -> Quaternion:
    """Value of the series at an interior point: :func:`evaluate_series_grid`
    on a one-point grid."""
    grid = ExpansionGrid.from_samples([(x, 1.0)])
    return Quaternion(*evaluate_series_grid(s, grid)[:, 0].tolist())


def evaluate_series_grid(s: SeriesExpansion, grid: ExpansionGrid) -> np.ndarray:
    total = np.zeros((4, len(grid)))
    for el, c in s.terms:
        total += c * evaluate_element_grid(el, grid)
    return total


def _element_to_json(el: BasisElement) -> dict:
    d = {"kind": el.kind}
    if el.kind == "E3":
        d["inner"] = _element_to_json(el.inner)
    elif el.kind == "ONE":
        pass
    elif el.kind == "W":
        d.update(m=el.m, sign=sign_char(el.nu))
    elif el.kind == "T0":
        d.update(m=el.m, mu=sign_char(el.mu))
    else:
        d.update(n=el.n, m=el.m, nu=sign_char(el.nu), mu=sign_char(el.mu))
    return d


def _element_from_json(d: dict) -> BasisElement:
    kind = d["kind"]
    if kind == "E3":
        return element_e3_times(_element_from_json(d["inner"]))
    if kind == "ONE":
        return element_one()
    if kind == "W":
        return element_W(d["m"], d["sign"])
    if kind == "T0":
        return element_T0(d["m"], d["mu"])
    el = BasisElement(kind, d["n"], d["m"], parse_sign(d["nu"]), parse_sign(d["mu"]),
                      allow_excluded=True)
    return el


def series_to_json(s: SeriesExpansion) -> str:
    """Serialize a series to a versioned JSON document."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "terms": [
            {"element": _element_to_json(el), "coefficient": c}
            for el, c in s.terms
        ],
        "meta": dict(s.meta),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def series_from_json(text: str) -> SeriesExpansion:
    doc = json.loads(text)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported series schema version {version!r}")
    terms = tuple(
        (_element_from_json(t["element"]), float(t["coefficient"]))
        for t in doc["terms"]
    )
    meta = tuple(sorted((k, str(v)) for k, v in doc.get("meta", {}).items()))
    return SeriesExpansion(terms, meta)


# ---------------------------------------------------------------------------
# Gram projection
# ---------------------------------------------------------------------------

def _weighted_values(basis: Sequence[BasisElement], grid: ExpansionGrid):
    """One row per element: its grid values times the square-root weights,
    flattened over components and nodes; returned with those weights."""
    sqw = np.sqrt(grid.weights)
    M = np.stack([(evaluate_element_grid(el, grid) * sqw).reshape(-1) for el in basis])
    return M, sqw


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


def project(
    f,
    basis: Sequence[BasisElement],
    grid: ExpansionGrid,
    condition_cap: float = 1e12,
) -> Tuple[SeriesExpansion, float]:
    """Least-squares projection of a field onto a finite basis.

    ``f`` may be a field (see :func:`monogenics.field_values`), a
    :class:`SeriesExpansion`, a :class:`BasisElement`, or a values array
    of shape (4, npts).  Returns the coefficient series and the L2
    residual norm on the grid.  Refuses (raising
    :class:`IllConditionedGram`) when the Gram condition number exceeds
    the cap.
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
    if eigvals[0] <= 0 or eigvals[-1] / eigvals[0] > condition_cap:
        cond = math.inf if eigvals[0] <= 0 else float(eigvals[-1] / eigvals[0])
        raise IllConditionedGram(
            f"Gram matrix of {len(basis)} elements has condition {cond:.3g} "
            f"(cap {condition_cap:.3g}); refine the grid or shrink the basis",
            cond, len(basis),
        )
    F = (_field_on_grid(f, grid) * sqw).reshape(-1)
    b = (M @ F) / d
    coeffs = np.linalg.solve(Gs, b)
    # one step of iterative refinement sharpens small residuals
    coeffs += np.linalg.solve(Gs, b - Gs @ coeffs)
    coeffs = coeffs / d
    residual = float(np.linalg.norm(F - M.T @ coeffs))
    series = make_series(zip(basis, coeffs), projection="least-squares",
                         nodes=len(grid))
    return series, residual


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
    return make_series(pairs, target="1", truncation=N)


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
    return make_series(pairs, target="x0", truncation=N)


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
    _, betas, _ = alpha_beta(N)
    unit = j_coefficient_unit()
    pairs = [
        (element_T(k + 1, 0, 1, 1), unit * float(betas[k]))
        for k in range(1, N + 1)
        if betas[k] != 0
    ]
    return make_series(pairs, target="1", truncation=N, family="T")


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
    "SCHEMA_VERSION",
    "BasisElement",
    "element_T",
    "element_T0",
    "element_W",
    "element_one",
    "element_e3_times",
    "element_I",
    "element_I_star",
    "evaluate_element",
    "ExpansionGrid",
    "evaluate_element_grid",
    "SeriesExpansion",
    "make_series",
    "evaluate_series",
    "evaluate_series_grid",
    "series_to_json",
    "series_from_json",
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
