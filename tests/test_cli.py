import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
from numpy.testing import assert_allclose

import pytest

from toroharm.cli import main
from toroharm.special_functions import q_half_grid

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_I_seed_value(capsys):
    code, out, _ = run(capsys, "eval", "I", "0", "0", "+", "+",
                       "--eta", "1", "--theta", "1.5707963", "--phi", "0")
    assert code == 0
    t = math.cosh(1.0)
    ref = math.sqrt(t - math.cos(1.5707963)) * float(
        q_half_grid(0, 0, np.array([math.acosh(t)]))[0, 0, 0])
    assert_allclose(float(out.splitlines()[0]), ref, rtol=1e-12)
    assert "provenance" in out


def test_eval_W_unit(capsys):
    code, out, _ = run(capsys, "eval", "W", "0", "+", "--x", "0", "1", "0")
    assert code == 0
    assert out.splitlines()[0].split() == ["0.0", "1.0", "0.0"]


def test_eval_rejects_bad_index(capsys):
    code, _, err = run(capsys, "eval", "I", "0", "--eta", "1")
    assert code == 2
    assert "index" in err


def test_eval_rejects_degenerate_point(capsys):
    code, _, err = run(capsys, "eval", "I", "0", "0", "+", "+",
                       "--x", "0", "1", "0")
    assert code == 2


def test_coeffs_contains_examples(capsys):
    code, out, _ = run(capsys, "coeffs", "0", "2")
    assert code == 0
    assert "1/3, -4/3, 1" in out
    code, out, _ = run(capsys, "coeffs", "1", "2")
    assert "-5/4, 2, -3/4" in out


def test_coeffs_diagonal_is_one(capsys):
    code, out, _ = run(capsys, "coeffs", "2", "4", "--format", "json")
    data = json.loads(out)
    for n, row in enumerate(data["star"]):
        assert row[n] == "1"
    assert data["schema_version"] == 1


def test_golden_round_trip(tmp_path, capsys):
    golden = tmp_path / "golden.json"
    code, out, _ = run(capsys, "eval", "T", "2", "1", "+", "-",
                       "--eta", "1.4", "--theta", "0.8", "--phi", "0.5",
                       "--golden", str(golden), "--update-golden")
    assert code == 0 and golden.exists()
    # comparison run pulls the point from the file and matches
    code, out, _ = run(capsys, "eval", "T", "2", "1", "+", "-",
                       "--golden", str(golden))
    assert code == 0
    assert "golden match" in out
    # corrupting the stored values is detected
    data = json.loads(golden.read_text())
    data["values"][0] += 1.0
    golden.write_text(json.dumps(data))
    code, out, _ = run(capsys, "eval", "T", "2", "1", "+", "-",
                       "--golden", str(golden))
    assert code == 1
    assert "MISMATCH" in out


def test_checked_in_golden_zero_slot(capsys):
    # the degree-1 cosine monogenic is the zero function; its stored
    # regression value is identically zero
    golden = GOLDENS / "eval_T_1_0_pp.json"
    code, out, _ = run(capsys, "eval", "T", "1", "0", "+", "+",
                       "--golden", str(golden))
    assert code == 0
    assert out.splitlines()[0].split() == ["0.0", "0.0", "0.0"]
    assert "golden match" in out


@pytest.mark.parametrize("name", [
    "eval_I_3_2_pm.json", "eval_Istar_3_1_mp.json", "eval_J_2_m.json",
    "eval_W_-1_p.json", "eval_T_2_1_pm.json", "eval_T0_1_p.json",
])
def test_checked_in_golden_per_kind(capsys, name):
    # one nonzero regression value per kind, at an interior point where no
    # trigonometric factor vanishes
    golden = GOLDENS / name
    data = json.loads(golden.read_text())
    assert any(v != 0.0 for v in data["values"])
    code, out, _ = run(capsys, "eval", data["kind"], *data["index"],
                       "--golden", str(golden), "--tol", "golden=1e-13")
    assert code == 0, out
    assert "golden match" in out


def test_grid_export_csv_round_trip(tmp_path, capsys):
    path = tmp_path / "w.csv"
    code, _, _ = run(capsys, "grid-export", "W", "0", "+",
                     "--n-eta", "4", "--n-theta", "4", "--n-phi", "4",
                     "--output", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("x0,x1,x2,eta,theta,phi")
    assert len(lines) == 1 + 64
    for line in lines[1:]:
        vals = line.split(",")
        assert float(vals[7]) == 1.0  # e1 component of W_0^+
    # re-export reproduces the file bit-exactly
    path2 = tmp_path / "w2.csv"
    run(capsys, "grid-export", "W", "0", "+",
        "--n-eta", "4", "--n-theta", "4", "--n-phi", "4",
        "--output", str(path2))
    assert path.read_text() == path2.read_text()


def test_grid_export_eta_major_and_phi_independence(capsys, tmp_path):
    path = tmp_path / "i.json"
    code, _, _ = run(capsys, "grid-export", "I", "0", "0", "+", "+",
                     "--n-eta", "3", "--n-theta", "3", "--n-phi", "5",
                     "--format", "json", "--output", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["schema_version"] == 1
    rows = data["rows"]
    etas = [r[3] for r in rows]
    assert etas == sorted(etas)  # eta-major ordering
    for i in range(0, len(rows), 5):  # phi-independent at m = 0
        assert len({r[6] for r in rows[i:i + 5]}) == 1


def test_verify_suite_and_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "expansions")
    assert code == 0
    assert "ALL PASS" in out
    # config file tolerance override can force a failure; flags beat file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"tolerances": {"expansion of 1 over harmonics": 1e-20}}))
    code, out, _ = run(capsys, "verify", "expansions", "--config", str(cfg))
    assert code == 1
    code, out, _ = run(capsys, "verify", "expansions", "--config", str(cfg),
                       "--tol", "expansion of 1 over harmonics=1e-6")
    assert code == 0


def test_verify_rejects_unread_tol_name(capsys, tmp_path):
    # check names are known once the suites have run; the error lists them.
    # Names from the config file are checked like those of --tol
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"nosuch": 1e-3}}))
    for source in (("--tol", "nosuch=1e-3"), ("--config", str(cfg))):
        code, _, err = run(capsys, "verify", "coh", *source)
        assert code == 2
        assert "'nosuch'" in err and "'radius independence of the coefficient'" in err


def test_unknown_suite_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_bad_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _, err = run(capsys, "verify", "expansions", "--config", str(cfg))
    assert code == 2


def test_config_depths_key_is_unknown(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depths": {"expansion": 40}}))
    code, _, err = run(capsys, "verify", "expansions", "--config", str(cfg))
    assert code == 2
    assert "unknown config key 'depths'" in err


def test_eval_near_axis_matches_mpmath(capsys):
    # cosh(1e-9) rounds to 1, but the radial functions take eta itself
    code, out, _ = run(capsys, "eval", "I", "0", "0", "+", "+",
                       "--eta", "1e-9", "--theta", "0.5", "--phi", "0")
    assert code == 0
    x0, x1, x2 = (mp.mpf(v) for v in
                  out.splitlines()[1].split("point=(")[1].rstrip(")").split(", "))
    with mp.workdps(30):
        rho = mp.hypot(x1, x2)
        far, near = (rho + 1) ** 2 + x0**2, (rho - 1) ** 2 + x0**2
        t = (far + near) / (2 * mp.sqrt(far * near))  # cosh(eta)
        cos_theta = (rho**2 + x0**2 - 1) / mp.sqrt(far * near)
        ref = mp.sqrt(t - cos_theta) * mp.re(mp.legenq(-mp.mpf(1) / 2, 0, t, type=3))
    assert_allclose(float(out.split()[0]), float(ref), rtol=1e-13)


@pytest.mark.parametrize("argv", [
    # negative planar powers on the axis
    ("eval", "J", "-1", "+", "--x", "1", "0", "0"),
    ("eval", "W", "-2", "-", "--x", "0.5", "0", "0"),
    # a margin below -1 would label rows with negative eta
    ("grid-export", "I", "1", "0", "+", "+", "--n-eta", "2", "--n-theta", "2",
     "--n-phi", "2", "--margin", "-1.5"),
    # an explicit zero count is an error, not a fall-back to the config value
    ("grid-export", "I", "0", "0", "+", "+", "--n-eta", "0", "--n-theta", "1", "--n-phi", "1"),
    ("grid-export", "I", "0", "0", "+", "+", "--n-eta", "1", "--n-theta", "0", "--n-phi", "1"),
    ("grid-export", "I", "0", "0", "+", "+", "--n-eta", "1", "--n-theta", "1", "--n-phi", "0"),
    # a tolerance that no check of the run reads
    ("eval", "I", "0", "0", "+", "+", "--eta", "1", "--tol", "nosuch=1e-3"),
    # grid-export's config keys given to another subcommand
    ("eval", "W", "1", "+", "--x", "0.1", "0.9", "0.2", "--config", {"eta0": 7}),
    # output keys given to a subcommand that writes no file
    ("eval", "W", "1", "+", "--x", "0.1", "0.9", "0.2", "--config", {"format": "json"}),
    ("verify", "coh", "--config", {"output": "v.txt"}),
    # indices that name no T or T0 element
    ("eval", "T0", "-1", "+", "--eta", "1", "--theta", "0.3", "--phi", "0.2"),
    ("eval", "T", "0", "0", "+", "+", "--eta", "1", "--theta", "0.3", "--phi", "0.2"),
    ("grid-export", "T0", "-2", "+", "--n-eta", "1", "--n-theta", "1", "--n-phi", "1"),
    # cosh(eta) overflows
    ("eval", "I", "0", "0", "+", "+", "--eta", "800", "--theta", "0.5", "--phi", "0"),
    ("grid-export", "I", "0", "0", "+", "+", "--eta0", "800", "--n-eta", "1",
     "--n-theta", "2", "--n-phi", "1"),
    # a config-file tolerance that no check of the run reads
    ("eval", "I", "0", "0", "+", "+", "--eta", "1", "--config", {"tolerances": {"nosuch": 1e-3}}),
])
def test_input_errors_exit_2_with_one_line(capsys, tmp_path, argv):
    argv = list(argv)
    for i, a in enumerate(argv):
        if isinstance(a, dict):  # the contents of a config file
            path = tmp_path / "config.json"
            path.write_text(json.dumps(a))
            argv[i] = str(path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unsettled_quadrature_exits_1_with_one_line(capsys):
    # next to the limit circle (x0 = 5e-324, the least subnormal) the T0
    # line integrands are NaN: a numerical failure, not a usage error
    code, out, err = run(capsys, "eval", "T0", "1", "+", "--eta", "745", "--theta", "0.7",
                         "--phi", "0.4")
    assert code == 1
    assert out == ""
    assert err.startswith("error: x0 line rule") and err.count("\n") == 1


def test_unsettled_quadrature_is_one_line_under_warnings_as_errors():
    # the same failure with every warning an error, as CI runs the CLI: a
    # node on the limit circle is a NaN integrand, not a RuntimeWarning
    import toroharm

    src = str(Path(toroharm.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-W", "error", "-m", "toroharm.cli", "eval", "T0",
                          "1", "+", "--eta", "745", "--theta", "0.7", "--phi", "0.4"],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: x0 line rule") and out.stderr.count("\n") == 1


def test_eta0_is_a_grid_export_flag(capsys):
    # only grid-export reads eta0; elsewhere the flag is unknown
    with pytest.raises(SystemExit) as exc:
        main(["verify", "coh", "--eta0", "7"])
    assert exc.value.code == 2
    assert "--eta0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("eval", "W", "0", "+", "--x", "0", "1", "0", "--output", "o.txt"),
    ("eval", "W", "0", "+", "--x", "0", "1", "0", "--format", "json"),
    ("verify", "coh", "--output", "v.txt"),
    ("verify", "coh", "--format", "json"),
])
def test_output_and_format_are_coeffs_and_grid_export_flags(capsys, argv):
    # eval and verify write no file and have one format; the flags are unknown
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("first,second", [("grid-export", "eval"), ("eval", "grid-export")])
def test_parser_is_built_once_and_keeps_no_state(first, second, tmp_path, capsys):
    # main reuses one parser; each namespace holds its own command's options
    # and defaults, and a command's output does not depend on what ran before
    from toroharm import cli

    argv = {"grid-export": ["grid-export", "T0", "1", "-", "--n-eta", "2", "--n-theta", "2",
                            "--n-phi", "3", "--eta0", "1.2", "--format", "json"],
            "eval": ["eval", "T", "2", "1", "-", "+", "--eta", "1.3", "--theta", "0.4",
                     "--phi", "0.2"]}
    fresh = cli._build_parser.__wrapped__()
    alone = {}
    for name in (second, first):
        alone[name] = run(capsys, *argv[name])
    for name in (first, second):
        assert run(capsys, *argv[name]) == alone[name]
        assert cli._build_parser() is cli._build_parser()
        assert vars(cli._build_parser().parse_args(argv[name])) == vars(fresh.parse_args(argv[name]))
    assert not hasattr(cli._build_parser().parse_args(argv["eval"]), "n_eta")
    assert not hasattr(cli._build_parser().parse_args(argv["grid-export"]), "golden")


def test_import_loads_no_scipy():
    # this test session imports scipy itself (the elliptic reference), so a
    # fresh interpreter shows what the library loads
    import toroharm

    code = ("import sys, toroharm, toroharm.cli, toroharm.checks; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(toroharm.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"
