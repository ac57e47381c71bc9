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
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence

import numpy as np

from .appell import eval_I_star_batch, inverse_matrix, star_matrix
from .checks import SUITES, CheckResult
from .expansion import SCHEMA_VERSION
from .geometry import (
    CartesianPoint,
    DegenerateLocusError,
    TorusDomain,
    ToroidalPoint,
    cartesian_arrays,
    to_cartesian,
    to_toroidal,
)
from .harmonics import HarmonicIndex, eval_I_batch, kappa, parse_sign
from .monogenics import eval_T0_batch, eval_T_batch, eval_W_batch, t_is_zero

GOLDEN_SCHEMA = 1

_DEFAULT_CONFIG = {
    "eta0": 1.0,
    "tolerances": {},
    "grid": {"n_eta": 8, "n_theta": 14, "n_phi": 14, "margin": 0.3},
    "output": None,
    "format": "csv",
}


@dataclass
class RunConfig:
    """Resolved runtime configuration."""

    eta0: float = 1.0
    tolerances: Dict[str, float] = field(default_factory=dict)
    grid: Dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_CONFIG["grid"]))
    output: Optional[str] = None
    format: str = "csv"

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
            if isinstance(merged[key], dict):
                merged[key].update(val)
            else:
                merged[key] = val
    if getattr(args, "eta0", None) is not None:  # a grid-export flag
        merged["eta0"] = args.eta0
    for spec in args.tol or []:
        name, _, val = spec.partition("=")
        if not _ or not name:
            raise UsageError(f"--tol expects NAME=VALUE, got {spec!r}")
        try:
            merged["tolerances"][name] = float(val)
        except ValueError:
            raise UsageError(f"--tol value for {name!r} is not a number: {val!r}")
    if args.output is not None:
        merged["output"] = args.output
    if args.format is not None:
        merged["format"] = args.format
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

_KIND_INDEX_ARGS = {"I": 4, "Istar": 4, "T": 4, "J": 2, "W": 2, "T0": 2}


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
        return to_cartesian(ToroidalPoint(args.eta, args.theta or 0.0, args.phi or 0.0))
    raise UsageError("no evaluation point given (use --eta ... or --x ...)")


def _eval_values(kind: str, index: Sequence[str], x, tor):
    """Values of one basis function on 1-D coordinate arrays, given as
    Cartesian ``x = (x0, x1, x2)`` and toroidal ``tor = (eta, theta, phi)``
    (``None`` is fine for the planar kinds J and W).

    Returns (array of shape (components, npts), provenance string).
    """
    try:
        if kind in ("I", "Istar", "T"):
            n, m = int(index[0]), int(index[1])
            nu, mu = parse_sign(index[2]), parse_sign(index[3])
            idx = HarmonicIndex(n, m, nu, mu)
        elif kind in ("J", "W"):
            m, sgn = int(index[0]), parse_sign(index[1])
        else:  # T0
            m, mu = int(index[0]), parse_sign(index[1])
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad index for kind {kind}: {exc}")

    if kind in ("J", "W"):
        try:
            w = eval_W_batch(m, sgn, x[1], x[2])
        except DegenerateLocusError as exc:
            raise UsageError(str(exc))
        if kind == "J":  # J_m^sign is the e1 part of W_m^sign
            return w[1:2], "analytic (planar power)"
        return w, "analytic (planar powers)"
    if not np.all(np.cosh(tor[0]) > 1.0):
        raise UsageError("point so near the x0-axis that cosh(eta) rounds to 1")
    if kind == "I":
        return eval_I_batch(idx, *tor)[None], "analytic (radial recurrences and trig)"
    if kind == "Istar":
        return eval_I_star_batch(idx, *tor)[None], "analytic (exact star coefficients)"
    if kind == "T":
        prov = "analytic (derivative coefficient tables)"
        if t_is_zero(idx.n, idx.m, idx.nu, idx.mu):
            prov += "; identically zero slot"
        return eval_T_batch(idx, *tor), prov
    return eval_T0_batch(m, mu, *x), "quadrature (96-node Gauss-Legendre line integrals)"


def _normalize(values: np.ndarray) -> np.ndarray:
    """Collapse negative zeros so output text is stable."""
    return values + 0.0


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    if len(args.index) != _KIND_INDEX_ARGS[args.kind]:
        raise UsageError(
            f"kind {args.kind} takes {_KIND_INDEX_ARGS[args.kind]} index arguments")

    golden = None
    if args.golden and not args.update_golden:
        try:
            with open(args.golden) as fh:
                golden = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read golden file {args.golden}: {exc}")
        if golden.get("schema_version") != GOLDEN_SCHEMA:
            raise UsageError("golden file schema version mismatch")
        x = CartesianPoint(*golden["point"])
    else:
        x = _parse_point(args)

    tor = None
    if args.kind not in ("J", "W"):
        try:
            p = to_toroidal(x)
        except DegenerateLocusError as exc:
            raise UsageError(str(exc))
        tor = ([p.eta], [p.theta], [p.phi])
    values, provenance = _eval_values(args.kind, args.index, ([x.x0], [x.x1], [x.x2]), tor)
    values = _normalize(values[:, 0]).tolist()
    print(" ".join(repr(v) for v in values))
    print(f"# kind={args.kind} index={' '.join(args.index)} "
          f"point=({x.x0!r}, {x.x1!r}, {x.x2!r})")
    print(f"# provenance: {provenance}")

    if args.update_golden:
        if not args.golden:
            raise UsageError("--update-golden needs --golden PATH")
        payload = {
            "schema_version": GOLDEN_SCHEMA,
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

def _frac(x: Fraction) -> str:
    return str(x)


def cmd_coeffs(args: argparse.Namespace, cfg: RunConfig) -> int:
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
            "star": [[_frac(c) for c in star.row(n)] for n in range(n_max + 1)],
            "inverse": [[_frac(c) for c in inv.row(n)] for n in range(n_max + 1)],
            "kappa": {
                str(n): [_frac(kappa(k, m, n)) for k in (n - 1, n, n + 1)]
                for n in range(1, n_max + 1)
            },
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg.output)
        return 0

    lines = [f"# exact coefficients, m={m}, n_max={n_max}"]
    lines.append("# star matrix rows (i*_{n,m}^k, k = 0..n)")
    for n in range(n_max + 1):
        lines.append("star," + str(n) + "," + ", ".join(_frac(c) for c in star.row(n)))
    lines.append("# inverse rows (i_{n,m}^k, k = 0..n)")
    for n in range(n_max + 1):
        lines.append("inverse," + str(n) + "," + ", ".join(_frac(c) for c in inv.row(n)))
    lines.append("# kappa rows (targets n-1, n, n+1)")
    for n in range(1, n_max + 1):
        lines.append("kappa," + str(n) + ","
                     + ", ".join(_frac(kappa(k, m, n)) for k in (n - 1, n, n + 1)))
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
    for name in names:
        print(f"== suite {name} ==")
        for r in SUITES[name]():
            if r.name in cfg.tolerances:
                tol = cfg.tolerances[r.name]
                r = CheckResult(r.name, r.residual <= tol, r.residual, tol,
                                r.detail + " [tolerance overridden]")
            print("  " + r.line())
            all_ok &= r.passed
    print("verify: " + ("ALL PASS" if all_ok else "FAILURES PRESENT"))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# grid-export
# ---------------------------------------------------------------------------

def cmd_grid_export(args: argparse.Namespace, cfg: RunConfig) -> int:
    if len(args.index) != _KIND_INDEX_ARGS[args.kind]:
        raise UsageError(
            f"kind {args.kind} takes {_KIND_INDEX_ARGS[args.kind]} index arguments")
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
    # eta-major ordering, then theta, then phi
    tor = [c.ravel() for c in np.meshgrid(etas, thetas, phis, indexing="ij")]
    x = cartesian_arrays(*tor)
    values, _ = _eval_values(args.kind, args.index, x, tor)
    table = np.vstack(list(x) + tor + [_normalize(values)]).T.tolist()
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

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="override a named tolerance")
    common.add_argument("--output", help="write results to this path instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), help="output format")

    parser = argparse.ArgumentParser(
        prog="toroharm",
        description="Toroidal harmonics and monogenic function toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate one basis function at a point")
    p.add_argument("kind", choices=sorted(_KIND_INDEX_ARGS))
    p.add_argument("index", nargs="*", help="index arguments, e.g. n m + -")
    p.add_argument("--eta", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--x", type=float, nargs=3, metavar=("X0", "X1", "X2"))
    p.add_argument("--golden", help="golden file to compare against (or write)")
    p.add_argument("--update-golden", action="store_true",
                   help="regenerate the golden file (never done implicitly)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("coeffs", parents=[common],
                       help="dump exact rational coefficient tables")
    p.add_argument("m", type=int)
    p.add_argument("n_max", type=int)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", parents=[common],
                       help="run verification suites")
    p.add_argument("suite", nargs="*",
                   help=f"suites to run (default: all of {sorted(SUITES)})")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grid-export", parents=[common],
                       help="sample a function on a structured grid and export")
    p.add_argument("kind", choices=sorted(_KIND_INDEX_ARGS))
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
