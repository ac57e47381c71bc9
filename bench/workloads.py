"""The benchmark's workloads.

A workload is built from a seed.  It holds one *pass*: a fixed list of
operations over the seeded inputs.  A run repeats whole passes, so every
run of a workload does the same work in the same proportions, whatever its
length.  The seed draws the inputs inside fixed shapes (index degrees and
orders, point bands) that keep the cost of a pass the same from seed to
seed; see README.md for the make-up of each pass.

The library is always reached through its module objects at call time
(``cli.main``, not a bound ``main``), so that the traced run's rebinding
of public functions sees every call.

Each workload checks the outputs of its operations after the timed part,
against an independent computation (``reference``) or a property the
method must have.  ``check`` returns ``None`` for a correct output and a
one-line reason otherwise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import numpy as np

from toroharm import appell, cli, expansion, geometry, harmonics, monogenics


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a label and a call that returns its output."""

    label: str
    run: Callable[[], object]


def _sign(rng) -> int:
    return 1 if rng.random() < 0.5 else -1


def _char(sign: int) -> str:
    return "+" if sign > 0 else "-"


def _rel_err(got: Sequence[float], want: Sequence, scale: float) -> float:
    return max(abs(float(g) - float(w)) for g, w in zip(got, want)) / scale


# ---------------------------------------------------------------------------
# tabulate: the command-line grid export, one call per operation
# ---------------------------------------------------------------------------

class Tabulate:
    """``toroharm grid-export`` of seeded kinds and indices on a small grid.

    Per pass, three operations each of ``J``, ``W`` and ``I`` and two each of
    ``Istar``, ``T0`` and ``T``: as many operations are cheaper than the
    three ``I`` as dearer, so the median operation time is an ``I`` call.
    The seed draws only what leaves the cost of a pass unchanged: the
    ``I``, ``J`` and ``W`` indices, signs and grids, and the phi-sign ``mu``
    of ``Istar`` and ``T``.  The rest is fixed per operation: the degree,
    order and theta-sign of ``Istar`` and ``T`` set their number of terms
    (a ``T`` with theta-sign ``-`` has up to a fifth more), the grid's
    ``eta0`` sets the length of the backward recurrence, and ``T0`` keeps
    one fixed index per operation like the other dear kinds.

    Every row of every table is checked.  The error is judged relative to
    the largest reference magnitude in the table: the grid's angles sit on
    zeros of the trigonometric factors (``theta = -pi``, ``phi`` a multiple
    of ``pi/2``), where both the output and the reference are round-off, so
    a scale taken from a few rows alone can itself be round-off.
    """

    name = "tabulate"
    GRID = ("--n-eta", "2", "--n-theta", "3", "--n-phi", "4", "--margin", "0.3")
    ROWS = 2 * 3 * 4
    #: error bound, relative to the largest reference magnitude in an
    #: operation's table (measured errors are below 1e-14)
    RTOL = 1e-12
    #: ``eta0`` of the grid of the dear kinds (``Istar``, ``T``, ``T0``); the
    #: cheap ``I``, ``J`` and ``W`` draw theirs from [1.0, 1.2]
    FIXED_ETA0 = 1.1

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        specs = []
        for _ in range(3):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            specs.append(("I", (n, m, _sign(rng), _sign(rng))))
        for n, m in ((2, 1), (4, 3)):
            specs.append(("Istar", (n, m, 1, _sign(rng))))
        for n, m, nu in ((3, 1, 1), (4, 2, -1)):
            specs.append(("T", (n, m, nu, _sign(rng))))
        for m, mu in ((1, 1), (2, -1)):
            specs.append(("T0", (m, mu)))
        for kind in ("J", "J", "J", "W", "W", "W"):
            specs.append((kind, (int(rng.integers(-3, 4)), _sign(rng))))
        self.specs = specs
        self.ops: List[Op] = []
        self.paths: List[Path] = []
        for i, (kind, index) in enumerate(specs):
            path = workdir / f"tabulate-{i}.csv"
            eta0 = (1.0 + 0.2 * float(rng.random()) if kind in ("I", "J", "W")
                    else self.FIXED_ETA0)
            ints = 2 if len(index) == 4 else 1
            argv = (["grid-export", kind] + [str(v) for v in index[:ints]]
                    + [_char(v) for v in index[ints:]]
                    + list(self.GRID) + ["--eta0", repr(eta0), "--output", str(path)])
            self.ops.append(Op(f"{kind}{list(index)}", lambda argv=argv: cli.main(argv)))
            self.paths.append(path)

    def fingerprint(self, i: int, output) -> bytes:
        return bytes([output & 0xFF]) + self.paths[i].read_bytes()

    def check(self, i: int, output) -> Optional[str]:
        import mpmath
        import reference as ref

        if output != 0:
            return f"exit code {output}"
        with open(self.paths[i]) as fh:
            table = list(csv.reader(fh))
        kind, index = self.specs[i]
        n_comp = 1 if kind in ("I", "Istar", "J") else 3
        if len(table) != self.ROWS + 1 or any(len(r) != 6 + n_comp for r in table[1:]):
            return f"table shape {len(table)} rows, expected {self.ROWS + 1}"
        values = np.array(table[1:], dtype=float)
        if not np.all(np.isfinite(values)):
            return "non-finite entries"
        got, want, scales = [], [], []
        with mpmath.workdps(ref.DPS):
            for r in range(self.ROWS):
                x = values[r, :3]
                if kind in ("I", "Istar"):
                    n, m, nu, mu = index
                    eta, theta, phi = ref.toroidal(*(mpmath.mpf(v) for v in x))
                    if kind == "I":
                        w = ref.harmonic(n, m, nu, mu, eta, theta, phi)
                        scale = ref.harmonic_envelope(n, m, eta, theta)
                    else:
                        w, scale = ref.starred(appell.star_matrix(m, n).row(n),
                                               m, nu, mu, eta, theta, phi)
                    w = (w,)
                elif kind == "T":
                    n, m, nu, mu = index
                    w = ref.monogenic_T(appell.star_matrix(m, n - 1).row(n - 1),
                                        n, m, nu, mu, x)
                    scale = max(abs(v) for v in w)
                elif kind == "T0":
                    w = ref.monogenic_T0(*index, x)
                    scale = max(abs(v) for v in w)
                elif kind == "J":
                    w = (ref.planar_J(*index, x[1], x[2]),)
                    scale = abs(mpmath.mpc(x[1], x[2])) ** index[0]
                else:
                    w = ref.planar_W(*index, x[1], x[2])
                    scale = abs(mpmath.mpc(x[1], x[2])) ** index[0]
                got.append(values[r, 6:])
                want.append(w)
                scales.append(float(scale))
        scale = max(scales)
        err = max(_rel_err(g, w, scale) for g, w in zip(got, want))
        if not err <= self.RTOL:
            return f"relative error {err:.3g} > {self.RTOL:g} against mpmath"
        return None


# ---------------------------------------------------------------------------
# grid_project: least-squares projection on a fixed quadrature grid
# ---------------------------------------------------------------------------

class GridProject:
    """``expansion.project`` of seeded targets onto ``basis_A_second(4, 3)``.

    Per pass, two planted series (ten seeded elements with seeded
    coefficients) and one target outside the span: a seeded multiple of
    ``W[-1]^-``, projected onto the ``T``/``T0`` elements alone.
    """

    name = "grid_project"
    PLANTED = 2
    SUPPORT = 10
    #: planted coefficients must come back to this share of the largest one
    COEF_RTOL = 1e-4
    #: planted residuals must be below this share of the target's grid norm
    RESIDUAL_RTOL = 1e-9
    #: the out-of-span target must keep at least this share of its norm
    OUT_OF_SPAN_MIN = 0.1

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        domain = geometry.TorusDomain(1.0)
        self.grid = expansion.ExpansionGrid.from_samples(
            geometry.sample_grid(domain, 8, 14, 14, 0.3))
        self.basis = expansion.basis_A_second(4, 3)
        self.t_only = [el for el in self.basis if el.kind in ("T", "T0")]
        self.targets, self.planted = [], []
        self.ops: List[Op] = []
        for p in range(self.PLANTED):
            coeffs = np.zeros(len(self.basis))
            support = rng.choice(len(self.basis), self.SUPPORT, replace=False)
            coeffs[support] = rng.uniform(0.5, 2.0, self.SUPPORT) * np.where(
                rng.random(self.SUPPORT) < 0.5, -1.0, 1.0)
            target = sum(coeffs[k] * expansion.evaluate_element_grid(self.basis[k], self.grid)
                         for k in support)
            self.planted.append(coeffs)
            self.targets.append(target)
            self.ops.append(Op(f"planted{p}", lambda f=target: expansion.project(
                f, self.basis, self.grid)))
        scale = rng.uniform(0.5, 2.0)
        target = scale * expansion.evaluate_element_grid(expansion.element_W(-1, -1), self.grid)
        self.targets.append(target)
        self.ops.append(Op("W[-1]^- onto T", lambda f=target: expansion.project(
            f, self.t_only, self.grid)))

    def fingerprint(self, i: int, output) -> bytes:
        series, residual = output
        return np.array([c for _, c in series.terms] + [residual]).tobytes()

    def check(self, i: int, output) -> Optional[str]:
        series, residual = output
        norm = float(np.linalg.norm(self.targets[i] * np.sqrt(self.grid.weights)))
        if i >= self.PLANTED:
            if not residual >= self.OUT_OF_SPAN_MIN * norm:
                return f"out-of-span residual {residual:.3g} below {self.OUT_OF_SPAN_MIN} of {norm:.3g}"
            return None
        coeffs = np.array([c for _, c in series.terms])
        err = float(np.max(np.abs(coeffs - self.planted[i])) / np.max(np.abs(self.planted[i])))
        if not err <= self.COEF_RTOL:
            return f"planted coefficients off by {err:.3g} (relative)"
        if not residual <= self.RESIDUAL_RTOL * norm:
            return f"planted residual {residual:.3g} above {self.RESIDUAL_RTOL:g} of {norm:.3g}"
        return None


# ---------------------------------------------------------------------------
# completion: the monogenic completion Psi, one point per operation
# ---------------------------------------------------------------------------

def _source_x0(x0, x1, x2):
    return x0 + 0.0 * x1


def _source_x0x1(x0, x1, x2):
    return x0 * x1


def _source_x0_j2(x0, x1, x2):
    return x0 * (x1 * x1 - x2 * x2)


def _source_cubic(x0, x1, x2):
    return x0 ** 3 - 3.0 * x0 * x1 * x1


class Completion:
    """``monogenics.psi`` of harmonic sources at seeded interior points.

    Per pass, one operation per source, each at its own point.  A point
    has distance ``rho`` to the axis in [0.6, 0.85], its angle about the
    axis in the source's band (degrees) and ``|x0|`` in [0.05, 0.3].  In
    these bands the adaptive Teodorescu quadrature stops at the same level
    (2.36M integrand evaluations) for every point, so the cost of a pass
    does not depend on the seed; elsewhere it takes 4x more or fewer.
    """

    name = "completion"
    ETA0 = 1.0
    TOL = 1e-9
    SOURCES = (("x0", _source_x0, (170, 190)), ("x0*x1", _source_x0x1, (200, 340)),
               ("x0*(x1^2-x2^2)", _source_x0_j2, (20, 70)),
               ("x0^3-3*x0*x1^2", _source_cubic, (20, 150)))
    #: absolute error bound of the closed form for the ``x0`` source
    CLOSED_FORM_ATOL = 1e-8
    #: step and bound of the central-difference ``fueter_bar`` check
    FD_STEP = 1e-4
    FD_ATOL = 1e-6

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.domain = geometry.TorusDomain(self.ETA0)
        self.points = []
        self.ops: List[Op] = []
        for label, f0, (lo, hi) in self.SOURCES:
            rho, ang = rng.uniform(0.6, 0.85), math.radians(rng.uniform(lo, hi))
            x = geometry.CartesianPoint(_sign(rng) * rng.uniform(0.05, 0.3),
                                        rho * math.cos(ang), rho * math.sin(ang))
            self.points.append(x)
            self.ops.append(Op(label, lambda f0=f0, x=x: monogenics.psi(
                f0, self.domain, x, tol=self.TOL)))

    def fingerprint(self, i: int, output) -> bytes:
        return output.as_array().tobytes()

    def check(self, i: int, output) -> Optional[str]:
        label, f0, _ = self.SOURCES[i]
        x = self.points[i]
        if output.a0 != float(f0(x.x0, x.x1, x.x2)):
            return "scalar part differs from the source"
        if label == "x0":
            r_in = self.domain.slice_radii()[0]
            f = 0.5 * (1.0 - r_in ** 2 / (x.x1 ** 2 + x.x2 ** 2))
            err = max(abs(output.a1 - f * x.x1), abs(output.a2 - f * x.x2))
            if not err <= self.CLOSED_FORM_ATOL:
                return f"closed form missed by {err:.3g}"
            return None
        field = monogenics.Psi(f0, self.domain, tol=self.TOL)
        residual = monogenics.fueter_bar(field, x, h=self.FD_STEP).norm()
        if not residual <= self.FD_ATOL:
            return f"fueter_bar residual {residual:.3g} > {self.FD_ATOL:g}"
        return None


# ---------------------------------------------------------------------------
# near_axis: batched evaluation on a fat torus, down to eta = 0.01
# ---------------------------------------------------------------------------

class NearAxis:
    """``eval_I_batch`` / ``eval_T_batch`` on the ``sample_grid`` nodes of
    the fat torus ``eta0 = 0.001`` (margin 0.001, 12 x 14 x 14 nodes, eta
    from about 0.011 to 4.7).

    Per pass, four ``I`` and four ``T`` operations with seeded indices.
    Every ``I`` has ``n, m >= 1`` and every ``T`` needs orders ``m + 1 >= 1``,
    so each operation runs two backward-recurrence columns over the whole
    array, whose length is set by the point nearest the axis.
    """

    name = "near_axis"
    ETA0 = MARGIN = 0.001
    SHAPE = (12, 14, 14)
    #: (upper eta of the band, relative error bound); the bound follows the
    #: loss of digits in ``cosh(eta) - 1`` near the axis
    BANDS = ((0.03, 2e-11), (0.3, 1e-12), (math.inf, 1e-13))
    NODES_PER_BAND = 2

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        samples = geometry.sample_grid(geometry.TorusDomain(self.ETA0), *self.SHAPE, self.MARGIN)
        pts = np.array([(p.x0, p.x1, p.x2) for p, _ in samples])
        self.eta, self.theta, self.phi = geometry.toroidal_arrays(pts[:, 0], pts[:, 1], pts[:, 2])
        self.specs = []
        for _ in range(4):
            self.specs.append(("I", harmonics.HarmonicIndex(
                int(rng.integers(1, 9)), int(rng.integers(1, 5)), _sign(rng), _sign(rng))))
        for _ in range(4):
            n, m = int(rng.integers(2, 7)), int(rng.integers(0, 4))
            self.specs.append(("T", harmonics.HarmonicIndex(
                n, m, _sign(rng), _sign(rng) if m else 1)))
        self.nodes = []
        lo = 0.0
        for hi, _ in self.BANDS:
            band = np.flatnonzero((self.eta >= lo) & (self.eta < hi))
            lo = hi
            self.nodes.append(rng.choice(band, self.NODES_PER_BAND, replace=False))
        self.nodes = np.concatenate(self.nodes)
        # T is checked term by term through its exact tables (tabulate checks
        # the tables themselves against numerical derivatives)
        self.tables = [
            [[(t.index.n, t.index.m, t.index.nu, t.index.mu, t.coefficient) for t in table]
             for table in monogenics.t_term_tables(idx.n, idx.m, idx.nu, idx.mu)]
            if kind == "T" else None for kind, idx in self.specs]
        self.ops: List[Op] = []
        for kind, idx in self.specs:
            fn = (lambda idx=idx: harmonics.eval_I_batch(idx, self.eta, self.theta, self.phi)) \
                if kind == "I" else \
                (lambda idx=idx: monogenics.eval_T_batch(idx, self.eta, self.theta, self.phi))
            self.ops.append(Op(f"{kind}{idx}", fn))

    def fingerprint(self, i: int, output) -> bytes:
        return np.ascontiguousarray(output).tobytes()

    def _bound(self, eta: float) -> float:
        return next(tol for hi, tol in self.BANDS if eta < hi)

    def check(self, i: int, output) -> Optional[str]:
        import mpmath
        import reference as ref

        kind, idx = self.specs[i]
        if not np.all(np.isfinite(output)):
            return "non-finite values"
        worst = 0.0
        with mpmath.workdps(ref.DPS):
            for j in self.nodes:
                eta, theta, phi = (mpmath.mpf(float(v[j])) for v in (self.eta, self.theta, self.phi))
                if kind == "I":
                    want = (ref.harmonic(idx.n, idx.m, idx.nu, idx.mu, eta, theta, phi),)
                    got = (output[j],)
                    scale = ref.harmonic_envelope(idx.n, idx.m, eta, theta)
                else:
                    sums = [ref.term_sum(terms, eta, theta, phi) for terms in self.tables[i]]
                    want = [v for v, _ in sums]
                    got = output[:, j]
                    scale = max(e for _, e in sums)
                ratio = _rel_err(got, want, float(scale)) / self._bound(float(eta))
                worst = max(worst, ratio)
        if not worst <= 1.0:
            return f"error {worst:.3g} times its eta-band bound against mpmath"
        return None


WORKLOADS = {cls.name: cls for cls in (Tabulate, GridProject, Completion, NearAxis)}
