"""Series expansions over the monogenic and harmonic basis families.

Provides the basis-element vocabulary (exact toroidal monogenics T, the
degree-0 family T0, monogenic constants W, the constant 1, right
multiples by e3, and the plain/starred harmonics used by the known
closed-form expansions), Gram matrices and least-squares projection on
sampled grids, the closed-form expansions of 1 and x0, and the Laurent
analysis of monogenic constants.

Every value comes from one evaluation core, :func:`_values`.  On a mesh,
projection splits by phi Fourier mode (one SVD per mode).  Each element's
mode is a rule of its index (:func:`_mode`), and the same core gives its
meridian values by mode, on the mesh's meridian nodes times a few
azimuths.  One real matrix per azimuth count (:func:`_phi_modes`) takes
values on uniform azimuths to their phi modes, for every field.

Completeness of the infinite families is only falsifiable numerically;
the desk-scale experiments here test positive-definiteness of Gram
matrices at fixed truncations and residual decay of least-squares
projections, not the theorems themselves.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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

#: the element kinds, whose index (not a salted ``str`` hash) enters an
#: element's stored hash
_KINDS = ("T", "T0", "W", "ONE", "E3", "I", "ISTAR")


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

    Elements are dictionary keys (kept projection factors, series terms),
    so each stores its hash when it is built, from its kind's index and its
    integer fields: the same in every process, so it holds for an unpickled
    element too.
    """

    kind: str
    n: int = 0
    m: int = 0
    nu: Sign = 1
    mu: Sign = 1
    inner: Optional["BasisElement"] = None
    allow_excluded: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
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
        key = (_KINDS.index(self.kind), self.n, self.m, self.nu, self.mu)
        object.__setattr__(self, "_hash", hash(key + ((self.inner._hash,) if self.inner else ())))

    def __hash__(self) -> int:
        return self._hash

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
        out[line_dest] = _t0_lines(pairs, *grid.meridian, grid.phi).reshape(
            (len(line_dest),) + grid.shape)
    for b, el in enumerate(bases):
        if el.kind == "ONE":
            out[4 * b] = 1.0
        elif el.kind == "W":
            out[4 * b:4 * b + 3] = eval_W_batch(el.m, el.nu, grid.x1, grid.x2).reshape(
                (3,) + grid.shape)
    values = out.reshape(len(bases), 4, len(grid))
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
        elements = [el for el, _ in self.terms]
        if len(set(elements)) < len(elements):
            seen = set()
            el = next(el for el in elements if el in seen or seen.add(el))
            raise ValueError(f"duplicate basis element {el.label()}")
        for el, c in self.terms:
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
# meridian values by phi mode
# ---------------------------------------------------------------------------

def _rotate(F: np.ndarray, cos, sin) -> np.ndarray:
    """The components ``(1, e1, e2, e3)`` on the first axis of ``F`` in the
    frame ``(1, e_rho, e_phi, e3)`` at the azimuths of cosines ``cos`` and
    sines ``sin``, which broadcast against the other axes."""
    return np.stack([F[0], F[1] * cos + F[2] * sin, F[2] * cos - F[1] * sin, F[3]])


@lru_cache(maxsize=16)
def _phi_modes(K: int) -> np.ndarray:
    """The phi-mode matrix of ``K`` uniform azimuths ``2 pi l / K``, shape
    ``(4K, 8(K//2 + 1))``, read-only.  A field's values at one meridian
    node, laid out ``(component, azimuth)`` with the components in ``(1,
    e1, e2, e3)``, times this matrix are its phi modes laid out ``(mode,
    part)``: part ``c`` is the real and part ``4 + c`` the imaginary part
    of the ``rfft`` of component ``c`` in the frame ``(1, e_rho, e_phi,
    e3)`` (:func:`_rotate`), divided by the square root of
    :func:`_mode_scale`, so that the squares of a mode's parts sum to its
    share of the field's squared L2 norm over the azimuths."""
    phi = 2.0 * np.pi * np.arange(K) / K
    # rotation[f, c, l]: component f in (1, e_rho, e_phi, e3) of e_c at azimuth l
    rotation = _rotate(np.eye(4)[:, :, None].repeat(K, 2), np.cos(phi), np.sin(phi))
    angle = 2.0 * np.pi / K * (np.outer(np.arange(K), np.arange(K // 2 + 1)) % K)
    trig = np.stack([np.cos(angle), -np.sin(angle)], axis=2) / np.sqrt(_mode_scale(K))[:, None]
    M = np.einsum("fcl,lkr->clkrf", rotation, trig).reshape(4 * K, -1)
    M.setflags(write=False)
    return M


def _mode(el: BasisElement) -> int:
    """The phi mode of an element in the frame ``(1, e_rho, e_phi, e3)``:
    ``m`` for ``T``, ``T0``, ``I``, ``I*`` and 1, whose harmonics carry
    ``trig(m phi)``; ``|m + 1|`` for ``W[m]``, which is ``rho^m (cos((m + 1)
    phi) e_rho - sin((m + 1) phi) e_phi)`` or that turned a quarter turn;
    and for an e3 multiple its inner element's mode, since right
    multiplication by e3 commutes with the rotation in phi."""
    el = el.inner or el
    return abs(el.m + 1) if el.kind == "W" else el.m


#: the share of its element's largest meridian value below which a part is 0
_MODE_LEAK = 1e-12


def _meridian_values(elements: Sequence[BasisElement], k: int, grid: ExpansionGrid) -> np.ndarray:
    """Elements of the phi mode ``k`` on a mesh's meridian nodes, shape
    ``(len(elements), 8, P)``: element ``e`` has component ``c`` equal to
    ``V[e, c] cos(k phi) - V[e, 4 + c] sin(k phi)`` in the frame ``(1,
    e_rho, e_phi, e3)``.

    One :func:`_values` call on the meridian nodes times the azimuth 0 and,
    for ``k > 0``, ``pi / 2k``: at 0 the frame is ``(1, e1, e2, e3)`` and
    the values are ``V[e, :4]``; at ``pi / 2k`` the components are ``-V[e,
    4:]``.  A part below :data:`_MODE_LEAK` of its element's largest value
    is round-off (``cos(pi / 2)`` is not 0) and is set to 0.  No value is
    formed on the full mesh.
    """
    phi = [0.0, np.pi / (2 * k)] if k else [0.0]
    nodes = ExpansionGrid.on_meridian(grid.eta, grid.theta, phi)
    values = _values(elements, nodes).reshape(len(elements), 4, -1, len(phi))
    V = np.zeros((len(elements), 8, values.shape[2]))
    V[:, :4] = values[..., 0]
    if k:
        own = values[..., 1].transpose(1, 0, 2)
        V[:, 4:] = -_rotate(own, math.cos(phi[1]), math.sin(phi[1])).transpose(1, 0, 2)
    size = np.abs(V).max(2)
    V[size <= _MODE_LEAK * size.max(1, keepdims=True)] = 0.0
    return V


# ---------------------------------------------------------------------------
# Gram projection
# ---------------------------------------------------------------------------

def gram(basis: Sequence[BasisElement], grid: ExpansionGrid) -> np.ndarray:
    """Gram matrix of pairwise grid L2 inner products (Euclidean on the
    four quaternion components)."""
    M = _values(basis, grid)
    M *= np.sqrt(grid.weights)
    M = M.reshape(len(basis), -1)
    return M @ M.T


class IllConditionedGram(ValueError):
    """Projection refused: the weighted values of a group of elements (the
    elements of one phi mode) are numerically dependent.  ``condition`` is
    the ratio of the largest to the smallest singular value of the group's
    unit-normalised weighted values (``cond(R)`` of their QR factor),
    ``size`` its element count, ``mode`` its phi mode (``None`` for the one
    group of a scattered grid) and ``labels`` its element labels."""

    def __init__(self, message: str, condition: float, size: int,
                 mode: Optional[int] = None, labels: Tuple[str, ...] = ()):
        super().__init__(message)
        self.condition = condition
        self.size = size
        self.mode = mode
        self.labels = labels


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


#: the largest condition number :func:`project` accepts for a group's
#: unit-normalised weighted values
_CONDITION_CAP = 1e12
#: the most bases whose factors :func:`project` keeps per grid
_FACTORS_PER_GRID = 4


def _uniform_phi(grid: ExpansionGrid) -> bool:
    """True on a mesh whose phi nodes are ``2 pi l / K`` and whose weights
    do not vary in phi."""
    if len(grid.shape) != 2:
        return False
    K = grid.shape[1]
    w = grid.weights.reshape(grid.shape)
    return (np.allclose(grid.phi.ravel(), 2.0 * np.pi * np.arange(K) / K, rtol=0.0, atol=1e-13)
            and bool(np.all(w == w[:, :1])))


def _mode_scale(K: int) -> np.ndarray:
    """The factor of each ``rfft`` mode of ``K`` phi nodes over the mode's
    amplitude ``Z``: ``K`` at mode 0 and at the Nyquist mode, ``K / 2``
    elsewhere.  It also weighs the mode in the grid's squared L2 norm."""
    scale = np.full(K // 2 + 1, K / 2.0)
    scale[0] = scale[K // 2 if K % 2 == 0 else 0] = K
    return scale


class _Group(NamedTuple):
    """Elements that :func:`_factorise` solves together."""

    mode: Optional[int]  # their phi mode, None for the one group of the full values
    elements: np.ndarray  # their places in the basis
    parts: np.ndarray    # the parts in which one of them is nonzero


class _Factors(NamedTuple):
    """What :func:`project` keeps of a (basis, grid) pair
    (:func:`_factorise`): the field's transform and weight, and the factors
    of every group, stacked and padded to the most rows and elements of
    any group.

    The field ``(4, nodes)`` is relaid as ``(nodes, 4)`` (on a mesh ``(P,
    4K)``, the ``K`` azimuths of each meridian node together) and weighted
    per node; on a mesh the ``transform`` (:func:`_phi_modes`) then takes
    it to its phi modes.  The flat result, with a zero slot appended, is
    the weighted field."""

    transform: Optional[np.ndarray]  # the phi-mode matrix on a mesh, else None
    weight: np.ndarray   # (P or nodes, 1, 1): the square roots of the node weights
    groups: Tuple[_Group, ...]
    gather: np.ndarray   # (groups, rows): where each b is in the weighted field (padding: zero slot)
    U: np.ndarray        # (groups, rows, elements): left singular vectors, zero padded
    C: np.ndarray        # (groups, elements, elements): V diag(1/s) / d, zero padded
    scatter: np.ndarray  # each basis element's place in the flat (groups * elements) solution
    rest: np.ndarray     # the entries of the weighted field that no group fits


def _factor(A: np.ndarray, mode: Optional[int], elements: np.ndarray,
            basis) -> Tuple[np.ndarray, np.ndarray]:
    """One SVD ``U diag(s) V^T`` of a group's weighted values ``A``
    (``(elements, parts, points)``, scaled in place to unit columns by
    their norms ``d``): ``U`` and ``C = V diag(1/s) / d``, which takes ``U^T
    b`` to the coefficients.  Raises :class:`IllConditionedGram` when
    ``s_max / s_min`` exceeds :data:`_CONDITION_CAP`."""
    n = len(A)
    d = np.sqrt(np.einsum("ijk,ijk->i", A, A))
    cond = math.inf
    if np.all(d > 0):
        A /= d[:, None, None]
        U, s, Vt = np.linalg.svd(A.reshape(n, -1).T, full_matrices=False)
        if len(s) == n and s[-1] > 0:
            cond = float(s[0] / s[-1])
    if not cond <= _CONDITION_CAP:
        labels = tuple(basis[i].label() for i in elements)
        raise IllConditionedGram(
            f"{n} elements of {'one group' if mode is None else f'phi mode {mode}'} "
            f"({', '.join(labels)}) have cond(R) {cond:.3g} (cap {_CONDITION_CAP:.3g}); "
            "refine the grid or shrink the basis", cond, n, mode, labels)
    return U, Vt.T / s / d[:, None]


def _factorise(basis: Tuple[BasisElement, ...], grid: ExpansionGrid) -> _Factors:
    """The factors of a basis on a grid.  Where the grid has uniform phi
    nodes (:func:`_uniform_phi`), one group per phi mode (:func:`_mode`):
    its elements, and the parts in which one of them is nonzero on the
    meridian values (:func:`_meridian_values`), evaluated and factored one
    mode at a time.  Else one group of every element and nonzero component
    on the full values.  The groups' factors are then stacked, ``U`` and
    ``C`` zero padded to the most rows and elements of any group, and the
    gather and the rest laid out in the weighted field's order (see
    :class:`_Factors`)."""
    groups, factored = [], []
    if not _uniform_phi(grid):
        V = _values(basis, grid)
        parts = np.flatnonzero(V.any(axis=(0, 2)))
        groups.append(_Group(None, np.arange(len(basis)), parts))
        weight = np.sqrt(grid.weights)
        factored.append(_factor(V[:, parts] * weight, None, groups[0].elements, basis))
        transform = None
        # the entry of each (part, node, mode) in the weighted field, laid out (node, part)
        entry = np.arange(4 * len(grid)).reshape(-1, 4, 1).transpose(1, 0, 2)
    else:
        P, K = grid.shape
        modes = np.array([_mode(el) for el in basis])
        by_mode = [(k, np.flatnonzero(modes == k)) for k in np.unique(modes).tolist()]
        for k, group in by_mode:
            if 2 * k >= K:
                raise ValueError(f"{basis[group[0]].label()} has phi mode {k}, which "
                                 f"aliases on K = {K} phi nodes (modes must be below K/2)")
        weight = np.sqrt(grid.weights.reshape(P, K)[:, 0])
        sw = weight[:, None] * np.sqrt(_mode_scale(K))
        for k, group in by_mode:
            V = _meridian_values([basis[i] for i in group], k, grid)
            parts = np.flatnonzero(V.any(axis=(0, 2)))
            groups.append(_Group(k, group, parts))
            factored.append(_factor(V[:, parts] * sw[:, k], k, group, basis))
        transform = _phi_modes(K)
        # laid out (meridian node, mode, part)
        entry = np.arange(P * transform.shape[1]).reshape(P, -1, 8).transpose(2, 0, 1)
    del V  # not kept: free it before the stacked factors are formed
    n = max(len(g.elements) for g in groups)
    U = np.zeros((len(groups), max(len(u) for u, _ in factored), n))
    C = np.zeros((len(groups), n, n))
    gather = np.full(U.shape[:2], entry.size)
    scatter = np.empty(len(basis), dtype=np.intp)
    for i, (g, (u, c)) in enumerate(zip(groups, factored)):
        m = len(g.elements)
        U[i, :len(u), :m], C[i, :m, :m] = u, c
        rows = entry[g.parts, :, g.mode or 0].ravel()
        gather[i, :len(rows)] = rows
        scatter[g.elements] = i * n + np.arange(m)
    fitted = np.zeros(entry.size + 1, dtype=bool)
    fitted[gather] = True
    return _Factors(transform, weight[:, None, None], tuple(groups), gather, U, C, scatter,
                    np.flatnonzero(~fitted[:-1]))


#: held while a grid's ``factors`` is read or changed, so that dropping the
#: oldest basis never interleaves with another thread's insert
_FACTORS_LOCK = threading.Lock()


def _factors(basis: Tuple[BasisElement, ...], grid: ExpansionGrid) -> _Factors:
    """The factors of a basis on a grid, kept from an earlier call or made
    by :func:`_factorise`; a refusal raises before anything is kept.  The
    grid keeps them (``grid.factors``), for at most
    :data:`_FACTORS_PER_GRID` bases, the oldest dropped first."""
    with _FACTORS_LOCK:
        factors = grid.factors.get(basis)
    if factors is None:
        factors = _factorise(basis, grid)
        with _FACTORS_LOCK:
            kept = grid.factors
            while basis not in kept and len(kept) >= _FACTORS_PER_GRID:
                del kept[next(iter(kept))]
            factors = kept.setdefault(basis, factors)
    return factors


def _apply(factors: _Factors, F: np.ndarray) -> Tuple[np.ndarray, float]:
    """The coefficients and residual norm of the field ``F`` (``(4,
    points)``) against the factors, in a fixed chain of products for any
    number of groups: one weighted relayout, on a mesh one product with
    the phi-mode matrix, one gather of every group's ``b``, and the batched
    products ``U^T b``, ``U (U^T b)`` and the coefficients ``C (U^T b)``.
    The residual is the vectors ``b - U U^T b`` and every entry no group
    fits, summed directly, never as a difference of norms."""
    M, w = factors.transform, factors.weight
    B = np.empty((F.size if M is None else len(w) * M.shape[1]) + 1)
    B[-1] = 0.0
    X = B[:-1] if M is None else np.empty(F.size)
    np.multiply(F.reshape(4, len(w), -1).transpose(1, 0, 2), w, out=X.reshape(len(w), 4, -1))
    if M is not None:
        np.matmul(X.reshape(len(w), -1), M, out=B[:-1].reshape(len(w), -1))
    b = B[factors.gather][..., None]
    ub = np.matmul(factors.U.transpose(0, 2, 1), b)
    r = b - np.matmul(factors.U, ub)
    rest = B[factors.rest]
    x = np.matmul(factors.C, ub)
    return x.ravel()[factors.scatter], math.sqrt(float(np.vdot(r, r) + rest @ rest))


def project(
    f,
    basis: Sequence[BasisElement],
    grid: ExpansionGrid,
) -> Tuple[SeriesExpansion, float]:
    """Least-squares projection of a field onto a finite basis.

    ``f`` may be a field (see :func:`monogenics.field_values`), a
    :class:`SeriesExpansion`, a :class:`BasisElement`, or a values array
    of shape (4, npts).  Returns the coefficient series and the L2
    residual norm on the grid.  A field that is not finite on every node
    raises ``ValueError``.

    Each element lies in one phi Fourier mode of the frame ``(1, e_rho,
    e_phi, e3)``, a rule of its index (:func:`_mode`).  So on a mesh with
    uniform phi nodes and phi-independent weights (as from
    :func:`~toroharm.geometry.sample_grid`) the problem splits exactly by
    mode: one SVD per mode, of the elements' unit-normalised meridian
    values (:func:`_meridian_values`, read from their values at two
    azimuths per mode, never on the full mesh), against the field's phi
    modes (:func:`_phi_modes`).  A basis mode at or above ``K / 2`` for
    ``K`` phi nodes aliases and raises ``ValueError``.  Any other grid is
    solved as one group on the full values.  Refuses (raising
    :class:`IllConditionedGram`) when the ratio of the extreme singular
    values of a group exceeds :data:`_CONDITION_CAP`, and raises
    ``ValueError`` on an empty basis.

    The factors depend on the basis and the grid alone: they are made once
    (:func:`_factorise`) and kept on the grid for its last
    :data:`_FACTORS_PER_GRID` bases; its arrays are read-only, so they
    cannot drift from its factors.  Each call transforms and weighs the
    field and applies every group's factors in a few batched products
    (:func:`_apply`), with no solve.  Refusals are not kept.
    """
    basis = tuple(basis)
    if not basis:
        raise ValueError("cannot project onto an empty basis")
    factors, F = _factors(basis, grid), _field_on_grid(f, grid)
    if not np.isfinite(F).all():
        bad = np.count_nonzero(~np.isfinite(F).all(0))
        raise ValueError(f"the field is not finite on {bad} of the grid's {len(grid)} nodes")
    coeffs, residual = _apply(factors, F)
    return make_series(zip(basis, coeffs.tolist())), residual


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
