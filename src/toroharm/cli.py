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
Exit codes: 0 success, 1 failed check or golden mismatch, 2 usage,
configuration, or I/O error.
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
    TorusDomain,
    ToroidalPoint,
    to_cartesian,
)
from .harmonics import kappa, parse_sign
from .monogenics import t_is_zero

#: version of the golden, ``coeffs`` and ``grid-export`` JSON documents
SCHEMA_VERSION = 1

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
        if not self.eta0 > 0:
            raise ValueError("eta0 must be positive")
        for k, v in self.tolerances.items():
            if not v > 0:
                raise ValueError(f"tolerance {k!r} must be positive, got {v}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.format!r}")


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


def _load_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, optional config file, and command-line flags."""
    merged = json.loads(json.dumps(_DEFAULT_CONFIG))  # deep copy
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
        for key, val in data.items():
            if key not in merged:
                raise UsageError(f"unknown config key {key!r}")
            readers = _KEY_READERS.get(key)
            if readers and args.command not in readers:
                raise UsageError(
                    f"config key {key!r} is read only by {' and '.join(readers)}")
            if isinstance(merged[key], dict):
                merged[key].update(val)
            else:
                merged[key] = val
    for key in ("eta0", "output", "format"):  # flags of some subcommands only
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
    for spec in args.tol or []:
        name, _, val = spec.partition("=")
        if not _ or not name:
            raise UsageError(f"--tol expects NAME=VALUE, got {spec!r}")
        try:
            merged["tolerances"][name] = float(val)
        except ValueError:
            raise UsageError(f"--tol value for {name!r} is not a number: {val!r}")
    try:
        return RunConfig(
            eta0=float(merged["eta0"]),
            tolerances={k: float(v) for k, v in merged["tolerances"].items()},
            grid=merged["grid"],
            output=merged["output"],
            format=merged["format"],
        )
    except (TypeError, ValueError) as exc:
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

    golden = None
    if args.golden and not args.update_golden:
        try:
            with open(args.golden) as fh:
                golden = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read golden file {args.golden}: {exc}")
        if golden.get("schema_version") != SCHEMA_VERSION:
            raise UsageError("golden file schema version mismatch")
        x = CartesianPoint(*golden["point"])
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
        if not args.golden:
            raise UsageError("--update-golden needs --golden PATH")
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": args.kind,
            "index": list(args.index),
            "point": [x.x0, x.x1, x.x2],
            "values": values,
        }
        try:
            with open(args.golden, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise UsageError(f"cannot write golden file: {exc}")
        print(f"# golden file written: {args.golden}")
        return 0

    if golden is not None:
        tol = cfg.tolerances.get("golden", 1e-10)
        ref = golden["values"]
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
    g = cfg.grid
    n_eta = args.n_eta if args.n_eta is not None else int(g["n_eta"])
    n_theta = args.n_theta if args.n_theta is not None else int(g["n_theta"])
    n_phi = args.n_phi if args.n_phi is not None else int(g["n_phi"])
    margin = args.margin if args.margin is not None else float(g["margin"])
    if min(n_eta, n_theta, n_phi) < 1:
        raise UsageError("grid counts must be positive")
    if not margin >= 0:
        raise UsageError(f"margin must be nonnegative, got {margin}")
    eta0 = TorusDomain(cfg.eta0).eta0
    etas = eta0 + margin * eta0 + np.linspace(0.0, 2.0, n_eta)
    thetas = np.linspace(-np.pi, np.pi, n_theta, endpoint=False)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        grid = ExpansionGrid.mesh(etas, thetas, phis)
        x = (grid.x0, grid.x1, grid.x2)
    if not np.all(np.isfinite(x)):
        raise UsageError(f"the Cartesian coordinates overflow on this grid (eta from {etas[0]:g})")
    if np.any((grid.meridian[0] == 0.0) & (grid.meridian[1] == 1.0)):
        raise UsageError(f"grid points round onto the limit circle (eta up to {etas[-1]:g})")
    # eta-major ordering, then theta, then phi
    tor = [np.repeat(grid.eta, n_phi), np.repeat(grid.theta, n_phi), np.tile(phis, n_eta * n_theta)]
    values = _normalize(evaluate_element_grid(el, grid)[rows])
    table = np.vstack(list(x) + tor + [values]).T.tolist()
    comp_names = ["value"] if len(values) == 1 else ["a0", "a1", "a2"]
    columns = ["x0", "x1", "x2", "eta", "theta", "phi"] + comp_names

    if cfg.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": args.kind,
            "index": list(args.index),
            "columns": columns,
            "rows": table,
        }
        _emit(json.dumps(payload) + "\n", cfg.output)
    else:
        body = "\n".join(",".join(repr(v) for v in row) for row in table)
        _emit(",".join(columns) + "\n" + body + "\n", cfg.output)
    return 0


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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
