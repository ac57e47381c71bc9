"""Command-line harness.

Subcommands:

- ``eval``: print the value of a single basis function at a point, with a
  note on the evaluation path (analytic tables vs quadrature).
- ``coeffs``: dump the exact rational coefficient matrices.
- ``verify``: run named verification suites; exit 0 only if everything
  passes.
- ``grid-export``: sample a basis function on a structured toroidal grid
  and write CSV or JSON suitable for bit-exact round trips.

Configuration precedence is flags > config file > built-in defaults.
Exit codes: 0 success, 1 failed check, golden mismatch or quadrature
that does not settle, 2 usage, configuration, or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .appell import inverse_matrix, star_matrix
from .checks import SUITES, CheckResult
from .expansion import (
    BasisElement,
    ExpansionGrid,
    element_T0,
    element_W,
    evaluate_element,
    evaluate_element_grid,
)
from .geometry import (
    CartesianPoint,
    DegenerateLocusError,
    ToroidalPoint,
    to_cartesian,
)
from .harmonics import kappa, parse_sign
from .monogenics import t_is_zero
from .quadrature import QuadratureError

#: version of the golden, ``coeffs`` and ``grid-export`` JSON documents
SCHEMA_VERSION = 1

#: the most nodes a ``grid-export`` writes: it holds about 1 kB per node
#: at its peak (the row strings and the element values)
_MAX_NODES = 10**6

_DEFAULT_CONFIG = {
    "eta0": 1.0,
    "tolerances": {},
    "grid": {"n_eta": 8, "n_theta": 14, "n_phi": 14, "margin": 0.3},
    "output": None,
    "format": "csv",
}

#: config keys that only some subcommands read; the flags of the same
#: names exist on those subcommands only
_KEY_READERS = {
    "eta0": ("grid-export",),
    "grid": ("grid-export",),
    "output": ("coeffs", "grid-export"),
    "format": ("coeffs", "grid-export"),
}


@dataclass
class RunConfig:
    """Resolved runtime configuration; the defaults are ``_DEFAULT_CONFIG``."""

    eta0: float
    tolerances: Dict[str, float]
    grid: Dict[str, float]
    output: Optional[str]
    format: str

    def __post_init__(self) -> None:
        if not (_is_number(self.eta0) and self.eta0 > 0):
            raise ValueError(f"eta0 must be a positive number, got {self.eta0!r}")
        for k, v in self.tolerances.items():
            if not (_is_number(v) and v > 0):
                raise ValueError(f"tolerance {k!r} must be a positive number, got {v!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.format!r}")
        if not (self.output is None or isinstance(self.output, str)):
            raise ValueError(f"output must be a path, got {self.output!r}")
        for k, v in self.grid.items():
            if k not in _DEFAULT_CONFIG["grid"]:
                raise ValueError(f"unknown grid key {k!r}")
            count = k != "margin"
            if not _is_number(v, int if count else (int, float)):
                raise ValueError(f"grid {k!r} must be {'an integer' if count else 'a number'}, "
                                 f"got {v!r}")
        g = self.grid
        if min(g["n_eta"], g["n_theta"], g["n_phi"]) < 1:
            raise ValueError("grid counts must be positive")
        nodes = g["n_eta"] * g["n_theta"] * g["n_phi"]
        if nodes > _MAX_NODES:
            raise ValueError(f"the grid has {nodes} nodes; grid-export writes at most {_MAX_NODES}")
        if not g["margin"] >= 0:
            raise ValueError(f"margin must be nonnegative, got {g['margin']}")


def _is_number(v, kind=(int, float)) -> bool:
    """Whether a JSON value is a number (of ``kind``); JSON's true and
    false are not."""
    return isinstance(v, kind) and not isinstance(v, bool)


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


def _check_tol_names(cfg: RunConfig, read) -> None:
    """Reject tolerance names, from ``--tol`` or the config file, that no
    check of this run reads."""
    unread = sorted(set(cfg.tolerances) - set(read))
    if unread:
        valid = ", ".join(repr(n) for n in sorted(read)) or "none"
        raise UsageError(f"tolerance names {unread} are read by no check of this run; "
                         f"valid names: {valid}")


def _read_json(path: str, what: str) -> dict:
    """The JSON object that the ``what`` file at ``path`` holds."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise UsageError(f"cannot read {what} file {path}: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"{what} file must hold a JSON object")
    return data


def _load_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, optional config file, and command-line flags."""
    merged = {k: dict(v) if isinstance(v, dict) else v for k, v in _DEFAULT_CONFIG.items()}
    if args.config:
        for key, val in _read_json(args.config, "config").items():
            if key not in merged:
                raise UsageError(f"unknown config key {key!r}")
            readers = _KEY_READERS.get(key)
            if readers and args.command not in readers:
                raise UsageError(
                    f"config key {key!r} is read only by {' and '.join(readers)}")
            if isinstance(merged[key], dict):
                if not isinstance(val, dict):
                    raise UsageError(f"config key {key!r} must hold a JSON object")
                merged[key].update(val)
            else:
                merged[key] = val
    # a flag, where its subcommand has it, overrides the setting of its name
    flags = vars(args)
    for settings in (merged, merged["grid"]):
        for key in settings:
            if flags.get(key) is not None:
                settings[key] = flags[key]
    for spec in args.tol or []:
        name, _, val = spec.partition("=")
        if not _ or not name:
            raise UsageError(f"--tol expects NAME=VALUE, got {spec!r}")
        try:
            merged["tolerances"][name] = float(val)
        except ValueError:
            raise UsageError(f"--tol value for {name!r} is not a number: {val!r}")
    try:
        return RunConfig(**merged)
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

#: CLI kind -> (basis-element kind, number of index arguments, rows of the
#: element's (4, npts) values that are printed, provenance)
_KINDS = {
    "I": ("I", 4, slice(0, 1), "analytic (radial recurrences and trig)"),
    "Istar": ("ISTAR", 4, slice(0, 1), "analytic (exact star coefficients)"),
    "T": ("T", 4, slice(0, 3), "analytic (derivative coefficient tables)"),
    "T0": ("T0", 2, slice(0, 3),
           "quadrature (x0-line integrals, Gauss-Legendre doubled from 8 nodes "
           "to round-off)"),
    "W": ("W", 2, slice(0, 3), "analytic (planar powers)"),
    # J_m^sign is the e1 part of W_m^sign
    "J": ("W", 2, slice(1, 2), "analytic (planar power)"),
}


def _element(kind: str, index: Sequence[str]) -> Tuple[BasisElement, slice, str]:
    """The basis element that a CLI kind and its index arguments name (T's
    identically zero slots allowed), its printed rows and its provenance."""
    el_kind, n_args, rows, provenance = _KINDS[kind]
    if len(index) != n_args:
        raise UsageError(f"kind {kind} takes {n_args} index arguments")
    try:
        if n_args == 2:
            make = element_T0 if el_kind == "T0" else element_W
            el = make(int(index[0]), index[1])
        else:
            el = BasisElement(el_kind, int(index[0]), int(index[1]),
                              parse_sign(index[2]), parse_sign(index[3]),
                              allow_excluded=True)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad index for kind {kind}: {exc}")
    if el.kind == "T" and t_is_zero(el.n, el.m, el.nu, el.mu):
        provenance += "; identically zero slot"
    return el, rows, provenance


def _parse_point(args: argparse.Namespace) -> CartesianPoint:
    have_tor = args.eta is not None or args.theta is not None or args.phi is not None
    have_cart = args.x is not None
    if have_tor and have_cart:
        raise UsageError("give either --eta/--theta/--phi or --x, not both")
    if have_cart:
        return CartesianPoint(*args.x)
    if have_tor:
        if args.eta is None:
            raise UsageError("--theta/--phi need --eta as well")
        try:
            return to_cartesian(ToroidalPoint(args.eta, args.theta or 0.0, args.phi or 0.0))
        except ValueError as exc:  # eta <= 0, or the coordinates overflow
            raise UsageError(f"bad toroidal point: {exc}")
    raise UsageError("no evaluation point given (use --eta ... or --x ...)")


def _normalize(values: np.ndarray) -> np.ndarray:
    """Collapse negative zeros so output text is stable."""
    return values + 0.0


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    el, rows, provenance = _element(args.kind, args.index)
    if args.update_golden and not args.golden:
        raise UsageError("--update-golden needs --golden PATH")

    golden = None
    if args.golden and not args.update_golden:
        golden = _read_json(args.golden, "golden")
        if golden.get("schema_version") != SCHEMA_VERSION:
            raise UsageError("golden file schema version mismatch")
        point, ref = golden.get("point"), golden.get("values")
        if not (isinstance(point, list) and len(point) == 3 and isinstance(ref, list)
                and all(map(_is_number, point + ref))):
            raise UsageError("golden file must hold a 'point' of three numbers "
                             "and a list of numbers as 'values'")
        x = CartesianPoint(*point)
    else:
        x = _parse_point(args)
    _check_tol_names(cfg, ["golden"] if golden is not None else [])

    try:
        values = _normalize(evaluate_element(el, x).as_array()[rows]).tolist()
    except DegenerateLocusError as exc:
        raise UsageError(str(exc))
    print(" ".join(repr(v) for v in values))
    print(f"# kind={args.kind} index={' '.join(args.index)} "
          f"point=({x.x0!r}, {x.x1!r}, {x.x2!r})")
    print(f"# provenance: {provenance}")

    if args.update_golden:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": args.kind,
            "index": list(args.index),
            "point": [x.x0, x.x1, x.x2],
            "values": values,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.golden)
        print(f"# golden file written: {args.golden}")
        return 0

    if golden is not None:
        tol = cfg.tolerances.get("golden", 1e-10)
        if len(ref) != len(values) or any(
                abs(a - b) > tol for a, b in zip(values, ref)):
            print(f"# golden MISMATCH vs {args.golden} (tol {tol:g})")
            return 1
        print(f"# golden match vs {args.golden} (tol {tol:g})")
    return 0


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

def cmd_coeffs(args: argparse.Namespace, cfg: RunConfig) -> int:
    _check_tol_names(cfg, [])
    m, n_max = args.m, args.n_max
    if m < 0 or n_max < 0:
        raise UsageError("m and n_max must be nonnegative")
    star = star_matrix(m, n_max)
    inv = inverse_matrix(m, n_max)

    if cfg.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "m": m,
            "n_max": n_max,
            "star": [[str(c) for c in star.row(n)] for n in range(n_max + 1)],
            "inverse": [[str(c) for c in inv.row(n)] for n in range(n_max + 1)],
            "kappa": {
                str(n): [str(kappa(k, m, n)) for k in (n - 1, n, n + 1)]
                for n in range(1, n_max + 1)
            },
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg.output)
        return 0

    lines = [f"# exact coefficients, m={m}, n_max={n_max}"]
    lines.append("# star matrix rows (i*_{n,m}^k, k = 0..n)")
    for n in range(n_max + 1):
        lines.append("star," + str(n) + "," + ", ".join(str(c) for c in star.row(n)))
    lines.append("# inverse rows (i_{n,m}^k, k = 0..n)")
    for n in range(n_max + 1):
        lines.append("inverse," + str(n) + "," + ", ".join(str(c) for c in inv.row(n)))
    lines.append("# kappa rows (targets n-1, n, n+1)")
    for n in range(1, n_max + 1):
        lines.append("kappa," + str(n) + ","
                     + ", ".join(str(kappa(k, m, n)) for k in (n - 1, n, n + 1)))
    _emit("\n".join(lines) + "\n", cfg.output)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    names = args.suite or sorted(SUITES)
    for name in names:
        if name not in SUITES:
            raise UsageError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")

    all_ok = True
    read = []
    for name in names:
        print(f"== suite {name} ==")
        for r in SUITES[name]():
            read.append(r.name)
            if r.name in cfg.tolerances:
                tol = cfg.tolerances[r.name]
                r = CheckResult(r.name, r.residual <= tol, r.residual, tol,
                                r.detail + " [tolerance overridden]")
            print("  " + r.line())
            all_ok &= r.passed
    # check names are known only once their suites have run
    _check_tol_names(cfg, read)
    print("verify: " + ("ALL PASS" if all_ok else "FAILURES PRESENT"))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# grid-export
# ---------------------------------------------------------------------------

def cmd_grid_export(args: argparse.Namespace, cfg: RunConfig) -> int:
    el, rows, _ = _element(args.kind, args.index)
    _check_tol_names(cfg, [])
    g, eta0 = cfg.grid, cfg.eta0
    etas = eta0 + g["margin"] * eta0 + np.linspace(0.0, 2.0, g["n_eta"])
    thetas = np.linspace(-np.pi, np.pi, g["n_theta"], endpoint=False)
    phis = np.linspace(0.0, 2.0 * np.pi, g["n_phi"], endpoint=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        grid = ExpansionGrid.mesh(etas, thetas, phis)
    if not np.all(np.isfinite((grid.x0, grid.x1, grid.x2))):
        raise UsageError(f"the Cartesian coordinates overflow on this grid (eta from {etas[0]:g})")
    if np.any((grid.meridian[0] == 0.0) & (grid.meridian[1] == 1.0)):
        raise UsageError(f"grid points round onto the limit circle (eta up to {etas[-1]:g})")
    values = _normalize(evaluate_element_grid(el, grid)[rows])
    comp_names = ["value"] if len(values) == 1 else ["a0", "a1", "a2"]
    columns = ["x0", "x1", "x2", "eta", "theta", "phi"] + comp_names

    lines = _csv_rows(grid.meridian[0], etas, thetas, phis, (grid.x1, grid.x2), values,
                      ", " if cfg.format == "json" else ",")
    if cfg.format == "json":
        head = json.dumps({"schema_version": SCHEMA_VERSION, "kind": args.kind,
                           "index": list(args.index), "columns": columns})
        # JSON spells the non-finite floats NaN and Infinity; no finite
        # float's repr holds "nan" or "inf"
        body = "], [".join(lines).replace("nan", "NaN").replace("inf", "Infinity")
        text = head[:-1] + ', "rows": [[' + body + "]]}"
    else:
        text = ",".join(columns) + "\n" + "\n".join(lines)
    _emit(text + "\n", cfg.output)
    return 0


def _csv_rows(x0, etas, thetas, phis, x12, values, sep: str):
    """The rows ``x0,x1,x2,eta,theta,phi,values...`` of a mesh, ordered
    eta-major, then theta, then phi, each a string of the row's numbers
    as their ``repr`` joined by ``sep``.

    ``x0`` (one per meridian node), ``eta``, ``theta`` and ``phi`` repeat
    across rows, so each distinct one is formatted once; only ``x12`` and
    ``values`` (``(components, nodes)``) are formatted per node."""
    def text(a):
        return list(map(repr, a.ravel().tolist()))

    n_phi, theta_text = len(phis), text(thetas)
    lead = [s for s in text(x0) for _ in range(n_phi)]
    mid = [s for s in (e + sep + t for e in text(etas) for t in theta_text)
           for _ in range(n_phi)]
    x1, x2, *comps = (map(repr, a.ravel().tolist()) for a in (*x12, *values))
    return map(sep.join, zip(lead, x1, x2, mid, text(phis) * x0.size, *comps))


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="override a named tolerance")
    # the flags read only by coeffs and grid-export
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write results to this path instead of stdout")
    output.add_argument("--format", choices=("csv", "json"), help="output format")

    parser = argparse.ArgumentParser(
        prog="toroharm",
        description="Toroidal harmonics and monogenic function toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate one basis function at a point")
    p.add_argument("kind", choices=sorted(_KINDS))
    p.add_argument("index", nargs="*", help="index arguments, e.g. n m + -")
    p.add_argument("--eta", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--x", type=float, nargs=3, metavar=("X0", "X1", "X2"))
    p.add_argument("--golden", help="golden file to compare against (or write)")
    p.add_argument("--update-golden", action="store_true",
                   help="regenerate the golden file (never done implicitly)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("coeffs", parents=[common, output],
                       help="dump exact rational coefficient tables")
    p.add_argument("m", type=int)
    p.add_argument("n_max", type=int)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", parents=[common],
                       help="run verification suites")
    p.add_argument("suite", nargs="*",
                   help=f"suites to run (default: all of {sorted(SUITES)})")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grid-export", parents=[common, output],
                       help="sample a function on a structured grid and export")
    p.add_argument("kind", choices=sorted(_KINDS))
    p.add_argument("index", nargs="*")
    p.add_argument("--eta0", type=float, help="inner boundary parameter of the solid torus")
    p.add_argument("--n-eta", type=int)
    p.add_argument("--n-theta", type=int)
    p.add_argument("--n-phi", type=int)
    p.add_argument("--margin", type=float,
                   help="nonnegative fraction of eta0; the grid starts at "
                        "eta = eta0 * (1 + margin)")
    p.set_defaults(func=cmd_grid_export)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.func(args, cfg)
    except (UsageError, QuadratureError) as exc:  # the latter a numerical failure
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
