import json
import math
from pathlib import Path

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
        q_half_grid(0, 0, np.array([t]))[0, 0, 0])
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


@pytest.mark.parametrize("argv", [
    # cosh(1e-9) rounds to 1, where the radial functions are undefined
    ("eval", "I", "0", "0", "+", "+", "--eta", "1e-9", "--theta", "0.5", "--phi", "0"),
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
])
def test_input_errors_exit_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eta0_is_a_grid_export_flag(capsys):
    # only grid-export reads eta0; elsewhere the flag is unknown
    with pytest.raises(SystemExit) as exc:
        main(["verify", "coh", "--eta0", "7"])
    assert exc.value.code == 2
    assert "--eta0" in capsys.readouterr().err
