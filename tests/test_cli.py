"""Golden CLI invocations and the exit-code contract."""

import json

import numpy as np
import pytest

import numrad.cli as cli
from numrad.bounds import InequalityReport
from numrad.extremal import shift2
from numrad.io import save_matrix


@pytest.fixture()
def s2_file(tmp_path):
    path = tmp_path / "s2.json"
    save_matrix(path, shift2())
    return path


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


# ------------------------------------------------------------------ compute


def test_compute_shift2(s2_file, tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = run_cli("compute", s2_file, "--out", out)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    w = float(lines[0].removeprefix("w="))
    nrm = float(lines[1].removeprefix("norm="))
    assert abs(w - 0.5) <= 1e-9
    assert abs(nrm - 1.0) <= 1e-12
    assert out.read_text().startswith("theta,re,im,support\n")


def test_compute_default_csv_path(s2_file, capsys):
    assert run_cli("compute", s2_file, "--grid", "64") == 0
    capsys.readouterr()
    assert (s2_file.parent / (s2_file.name + ".boundary.csv")).exists()


def test_compute_grid_sets_boundary_samples_only(tmp_path, capsys):
    # An 8-angle --grid once also seeded the radius, and this matrix's w
    # came out 3% low.
    a = np.random.default_rng(59).standard_normal((3, 3)) + 1j * np.random.default_rng(
        [59, 1]
    ).standard_normal((3, 3))
    path = tmp_path / "m.json"
    save_matrix(path, a)
    printed = []
    for grid in ("8", "512"):
        assert run_cli("compute", path, "--grid", grid, "--out", tmp_path / f"b{grid}.csv") == 0
        printed.append(capsys.readouterr().out.splitlines()[0])
    assert printed[0] == printed[1]
    assert len((tmp_path / "b8.csv").read_text().splitlines()) == 9


# ------------------------------------------------------------------- verify


def test_verify_failing_cert_exits_zero(s2_file, capsys):
    code = run_cli("verify", s2_file, "--lambda", "1,0", "--r", "1")
    assert code == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(reports) == 6
    assert all(not rep["hypothesis_ok"] for rep in reports)


def test_verify_disk_and_sector_together(s2_file, capsys):
    code = run_cli(
        "verify", s2_file, "--lambda", "1,0", "--r", "2",
        "--phi", "2,0", "--varphi", "0.5,0", "--order",
    )
    assert code == 0
    ids = [json.loads(line)["inequality_id"] for line in capsys.readouterr().out.splitlines()]
    assert "T2_2" in ids and "C2_7" in ids and "R4_9" in ids


def test_verify_auto(s2_file, capsys):
    code = run_cli("verify", s2_file, "--auto")
    assert code == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert reports  # auto certificate produced some reports
    assert all(rep["slack"] >= -1e-8 for rep in reports if rep["hypothesis_ok"])


def test_verify_rho_flag(s2_file, capsys):
    code = run_cli("verify", s2_file, "--lambda", "0.5,0", "--r", "1.3", "--rho", "0")
    assert code == 0
    by_id = {json.loads(line)["inequality_id"]: json.loads(line)
             for line in capsys.readouterr().out.splitlines()}
    assert by_id["C2_13"]["hypothesis_ok"]


def test_verify_negative_slack_exits_one(s2_file, monkeypatch, capsys):
    bogus = InequalityReport(
        inequality_id="T2_2", hypothesis_ok=True, diagnostic="forged", lhs=1.0,
        rhs=0.0, slack=-1.0, w=0.5, norm=1.0,
    )
    monkeypatch.setattr(cli, "verify_all", lambda *a, **k: [bogus])
    code = run_cli("verify", s2_file, "--lambda", "1,0", "--r", "2")
    capsys.readouterr()
    assert code == 1


# ---------------------------------------------------------------- exit codes


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run_cli("compute", bad) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_schema_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "entries": [[[0, 0]]]}))
    assert run_cli("compute", bad) == 2
    capsys.readouterr()


def test_missing_file_exits_two(tmp_path, capsys):
    assert run_cli("compute", tmp_path / "nope.json") == 2
    capsys.readouterr()


def test_bad_complex_syntax_exits_two(s2_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", s2_file, "--lambda", "abc", "--r", "1")
    assert exc.value.code == 2
    capsys.readouterr()


def test_lambda_without_radius_exits_two(s2_file, capsys):
    assert run_cli("verify", s2_file, "--lambda", "1,0") == 2
    capsys.readouterr()


def test_verify_without_certificates_exits_two(s2_file, capsys):
    assert run_cli("verify", s2_file) == 2
    capsys.readouterr()


def test_bad_certificate_values_exit_two(s2_file, capsys):
    assert run_cli("verify", s2_file, "--lambda", "0,0", "--r", "1") == 2
    assert run_cli("verify", s2_file, "--lambda", "1,0", "--r", "-1") == 2
    capsys.readouterr()


# -------------------------------------------------------------------- sweep


def sweep_lines(capsys):
    return json.loads(capsys.readouterr().out)


def test_sweep_disk_deterministic(capsys):
    args = ["sweep", "--ensemble", "disk", "--n", "3", "--trials", "25",
            "--seed", "7", "--lambda", "1,0", "--r", "0.5"]
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    second = capsys.readouterr().out
    assert first == second
    agg = json.loads(first)
    assert agg["trials"] == 25
    assert agg["slack_violations"] == 0
    assert agg["inequalities"]["T2_2"]["evaluated"] == 25
    assert agg["inequalities"]["T2_2"]["hypothesis_failures"] == 0
    assert agg["inequalities"]["T2_2"]["min_slack"] >= -1e-8


def test_sweep_segment(capsys):
    code = run_cli("sweep", "--ensemble", "segment", "--n", "3", "--trials", "10",
                   "--seed", "1", "--m", "1", "--M", "4")
    assert code == 0
    agg = sweep_lines(capsys)
    assert agg["params"] == {"m": 1.0, "M": 4.0}
    assert "R4_9" in agg["inequalities"]
    assert agg["slack_violations"] == 0


def test_sweep_ginibre_counts_hypothesis_failures(capsys):
    code = run_cli("sweep", "--ensemble", "ginibre", "--n", "4", "--trials", "10",
                   "--seed", "3", "--lambda", "1,0", "--r", "0.1")
    assert code == 0
    agg = sweep_lines(capsys)
    # a tight disk around 1 rarely holds for a random unit-norm matrix
    assert agg["inequalities"]["T2_2"]["hypothesis_failures"] > 0


def test_sweep_nilpotent(capsys):
    code = run_cli("sweep", "--ensemble", "nilpotent", "--n", "4", "--trials", "10",
                   "--seed", "3", "--lambda", "1,0", "--r", "2")
    assert code == 0
    agg = sweep_lines(capsys)
    assert agg["inequalities"]["T2_2"]["evaluated"] == 10


def test_sweep_requires_ensemble_params(capsys):
    assert run_cli("sweep", "--ensemble", "disk", "--n", "3", "--trials", "5",
                   "--seed", "1") == 2
    assert run_cli("sweep", "--ensemble", "segment", "--n", "3", "--trials", "5",
                   "--seed", "1", "--lambda", "1,0", "--r", "1") == 2
    capsys.readouterr()


def test_sweep_exit_one_on_violation(monkeypatch, capsys):
    bogus = InequalityReport(
        inequality_id="T2_2", hypothesis_ok=True, diagnostic="forged", lhs=1.0,
        rhs=0.0, slack=-1.0, w=0.5, norm=1.0,
    )
    monkeypatch.setattr(cli, "verify_all", lambda *a, **k: [bogus])
    code = run_cli("sweep", "--ensemble", "disk", "--n", "2", "--trials", "2",
                   "--seed", "1", "--lambda", "1,0", "--r", "0.5")
    capsys.readouterr()
    assert code == 1


# ------------------------------------------------------------------- search


def test_search_problem(capsys):
    code = run_cli("search", "--problem", "--n", "2", "--iters", "50", "--seed", "7")
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["score"] >= 0
    assert obj["violations"]["nilpotency"] == 0
    assert obj["candidate"]["n"] == 2


def test_search_equality_deterministic(capsys):
    code = run_cli("search", "--equality", "--n", "3", "--iters", "50", "--seed", "9")
    assert code == 0
    first = capsys.readouterr().out
    assert run_cli("search", "--equality", "--n", "3", "--iters", "50", "--seed", "9") == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["lambda"] == [1.0, 0.0]


# --------------------------------------------------------------------- plot


def test_plot_svg(s2_file, tmp_path, capsys):
    out = tmp_path / "w.svg"
    assert run_cli("plot", s2_file, "--out", out, "--grid", "64") == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.startswith("<svg")
    assert "polygon" in text


# ----------------------------------------------------------- entry points


def test_module_is_executable(s2_file):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "numrad", "compute", str(s2_file), "--out",
         str(s2_file.parent / "out.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("w=")


# --------------------------------------------------------------- round trip


def test_matrix_roundtrip_through_cli_files(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_matrix(p1, a)
    from numrad.io import load_matrix

    save_matrix(p2, load_matrix(p1))
    assert p1.read_text() == p2.read_text()
