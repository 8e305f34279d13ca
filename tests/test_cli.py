"""Golden CLI invocations and the exit-code contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import numrad.cli as cli
from numrad import bounds
from numrad.bounds import (
    ACCRETIVE,
    OPERATOR_ORDER,
    SLACK_TOL,
    DiskCertificate,
    InequalityReport,
    SectorPair,
    verify_all,
)
from numrad.extremal import (
    gen_disk_instance,
    gen_nilpotent_instance,
    gen_segment_instance,
    ginibre,
    shift2,
)
from numrad.io import load_matrix, reports_to_jsonl, save_matrix
from numrad.linalg import operator_norm
from test_bounds import dense_kinds, full_grid_lambda
from test_numrange import count_calls


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


def test_verify_auto_prints_the_full_grid_certificate_reports(tmp_path, capsys):
    path = tmp_path / "a.json"
    save_matrix(path, dense_kinds(37)[0])
    a = load_matrix(path)
    assert run_cli("verify", path, "--auto") == 0
    assert capsys.readouterr().out == reports_to_jsonl(verify_all(a, [full_grid_lambda(a)]))


@pytest.mark.parametrize("scale", [1e-30, 1e150])
def test_verify_auto_certificate_passes_its_own_check_at_extreme_scales(tmp_path, scale, capsys):
    a, _ = gen_disk_instance(1.5 + 0.5j, 0.3, 4, 0)
    path = tmp_path / "a.json"
    save_matrix(path, scale * a)
    assert run_cli("verify", path, "--auto") == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert reports[0]["inequality_id"] == "T2_2"
    assert len(reports) == 6
    assert all(rep["hypothesis_ok"] for rep in reports)


def test_verify_beyond_the_report_range_exits_two(tmp_path, capsys):
    # Above ||A|| of about 1.3e154 the degree-2 sides (norm^2, r^2) exceed the
    # double range. verify prints every report, with those sides inf, and
    # exits 2: that is input beyond what the reports can hold, not a bound
    # violation (exit 1).
    a, _ = gen_disk_instance(1.5 + 0.5j, 0.3, 4, 0)
    path = tmp_path / "a.json"
    save_matrix(path, 1e155 * a)
    assert run_cli("verify", path, "--auto") == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert "beyond the range the report formulas support" in err
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 6 and all(rep["hypothesis_ok"] for rep in reports)


def test_verify_segment_pair_at_small_scale_exits_zero(tmp_path, capsys):
    # Unscaled, R4_9 divided by an underflowed sqrt(m M) = 0 and the command
    # crashed with exit 1, the code of a bound violation.
    a, _ = gen_segment_instance(1.0, 4.0, 4, 3)
    path = tmp_path / "a.json"
    save_matrix(path, 2.0**-540 * a)
    m, M = repr(2.0**-540), repr(2.0**-538)
    assert run_cli("verify", path, "--phi", M, "--varphi", m, "--order") == 0
    ids = [json.loads(line)["inequality_id"] for line in capsys.readouterr().out.splitlines()]
    assert ids == ["C2_7", "C3_6", "C3_7", "C4_6", "R4_9", "R4_10", "R4_11", "R4_12"]


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


def test_rho_without_disk_exits_two(s2_file, capsys):
    assert run_cli("verify", s2_file, "--auto", "--rho", "0.3") == 2
    assert "--rho" in capsys.readouterr().err


def test_order_without_sector_exits_two(s2_file, capsys):
    assert run_cli("verify", s2_file, "--auto", "--order") == 2
    assert "--order" in capsys.readouterr().err


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
    assert capsys.readouterr().err == "error: ensemble 'disk' requires --lambda\n"
    assert run_cli("sweep", "--ensemble", "segment", "--n", "3", "--trials", "5",
                   "--seed", "1", "--lambda", "1,0", "--r", "1") == 2
    assert capsys.readouterr().err == "error: ensemble 'segment' requires --m\n"
    assert run_cli("sweep", "--ensemble", "ginibre", "--n", "3", "--trials", "5",
                   "--seed", "1", "--lambda", "1,0") == 2
    assert capsys.readouterr().err == "error: ensemble 'ginibre' requires --r\n"
    for ensemble, cert in (("segment", DiskCertificate(1, 1)), ("segment", SectorPair(2 + 1j, 1)),
                           ("nilpotent", SectorPair.from_segment(1, 4))):
        with pytest.raises(ValueError, match="needs a"):
            cli.SweepConfig(ensemble=ensemble, n=3, trials=5, seed=1, cert=cert)


def test_sweep_echoes_the_certificate_it_verifies(capsys):
    # A flag that the ensemble ignores is not echoed (it once crashed the echo).
    assert run_cli("sweep", "--ensemble", "disk", "--n", "2", "--trials", "2", "--seed", "1",
                   "--lambda", "1,0.5", "--r", "0.5", "--m", "1") == 0
    assert sweep_lines(capsys)["params"] == {"lambda": [1.0, 0.5], "r": 0.5}
    assert run_cli("sweep", "--ensemble", "segment", "--n", "2", "--trials", "2", "--seed", "1",
                   "--m", "1", "--M", "4", "--r", "0.5") == 0
    assert sweep_lines(capsys)["params"] == {"m": 1.0, "M": 4.0}


def forge_slack(monkeypatch, iid, scaled_slack):
    """Make row iid of the bound table hold with this slack on the scaled operands."""
    rows = tuple(row._replace(rhs=lambda v, lhs=row.lhs: lhs(v) + scaled_slack) if row.iid == iid else row
                 for row in bounds.ROWS)
    monkeypatch.setattr(bounds, "ROWS", rows)


def test_sweep_exit_one_on_violation(monkeypatch, capsys):
    # The sweep reads the bound table, not verify_all's reports: forge a row.
    forge_slack(monkeypatch, "T2_2", -1.0)
    code = run_cli("sweep", "--ensemble", "disk", "--n", "2", "--trials", "2",
                   "--seed", "1", "--lambda", "1,0", "--r", "0.5")
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("k", [-500, 0, 500])
def test_violations_are_flagged_relative_to_scale(k, tmp_path, monkeypatch, capsys):
    # On the scaled operands T2_2 falls short by 2 SLACK_TOL and E2_4 by
    # SLACK_TOL / 2, so T2_2 is a violation at every scale and E2_4 at none.
    # An absolute tolerance flagged neither at 2^-500 and both at 2^500.
    forge_slack(monkeypatch, "T2_2", -2 * SLACK_TOL)
    forge_slack(monkeypatch, "E2_4", -SLACK_TOL / 2)
    s = 2.0**k
    t, cert = gen_disk_instance(1 + 0.5j, 0.4, 4, 0)
    reps = verify_all(s * t, [DiskCertificate(s * cert.lam, s * cert.r)])
    assert [rep.inequality_id for rep in reps if rep.violated] == ["T2_2"]
    path = tmp_path / "a.json"
    save_matrix(path, s * t)
    assert run_cli("verify", path, "--lambda", f"{s!r},{s / 2!r}", "--r", repr(s * 0.4)) == 1
    cfg = cli.SweepConfig(ensemble="disk", n=4, trials=3, seed=1,
                          cert=DiskCertificate(s * (1 + 0.5j), s * 0.4))
    aggregate, code = cli.run_sweep(cfg)
    assert (aggregate["slack_violations"], code) == (3, 1)
    capsys.readouterr()


SWEEP_CERTS = {
    "disk": DiskCertificate(1 + 0.5j, 0.4),
    "segment": SectorPair.from_segment(1.0, 3.0),
    "ginibre": DiskCertificate(0.5, 1.2),
    "nilpotent": DiskCertificate(0.5, 1.2),
}


def one_trial_draw(cfg, seed):
    """(matrix, certificate) of one trial, drawn through the public generators with an int seed."""
    cert = cfg.cert
    if cfg.ensemble == "disk":
        return gen_disk_instance(cert.lam, cert.r, cfg.n, seed)
    if cfg.ensemble == "segment":
        return gen_segment_instance(*cert.segment(), cfg.n, seed)
    if cfg.ensemble == "ginibre":
        g = ginibre(cfg.n, np.random.default_rng(seed))
        return g / operator_norm(g), cert
    return gen_nilpotent_instance(cfg.n, seed), cert


def one_trial_at_a_time(cfg):
    """(inequalities table, violations) of cfg from one verify_all(t, [cert]) per trial."""
    seeds = np.random.default_rng(cfg.seed).integers(0, 2**63, size=cfg.trials, dtype=np.uint64)
    evaluated, failures, slacks, violations = {}, {}, {}, 0
    for seed in seeds:
        t, cert = one_trial_draw(cfg, int(seed))
        for rep in verify_all(t, [cert]):
            iid = rep.inequality_id
            evaluated[iid] = evaluated.get(iid, 0) + 1
            failures.setdefault(iid, 0)
            slacks.setdefault(iid, [])
            if rep.hypothesis_ok:
                slacks[iid].append(rep.slack)
                violations += rep.violated
            else:
                failures[iid] += 1
    table = {
        iid: {
            "evaluated": evaluated[iid],
            "hypothesis_failures": failures[iid],
            "min_slack": float(np.min(slacks[iid])) if slacks[iid] else None,
            "median_slack": float(np.median(slacks[iid])) if slacks[iid] else None,
        }
        for iid in evaluated
    }
    return table, violations


@pytest.mark.parametrize("ensemble", cli.ENSEMBLES)
def test_chunked_sweep_is_bit_identical_to_one_trial_at_a_time(ensemble):
    for trials in (1, 64, 65):
        cfg = cli.SweepConfig(ensemble=ensemble, n=4, trials=trials, seed=trials + 5,
                              cert=SWEEP_CERTS[ensemble])
        aggregate, code = cli.run_sweep(cfg)
        table, violations = one_trial_at_a_time(cfg)
        assert list(aggregate["inequalities"]) == list(table)
        assert aggregate["inequalities"] == table
        assert aggregate["slack_violations"] == violations == code == 0


@pytest.mark.parametrize("ensemble", cli.ENSEMBLES)
def test_sweep_lapack_calls_grow_with_chunks_not_trials(ensemble, monkeypatch):
    # The verification's LAPACK calls grow with the chunks of 64 trials, not
    # with the trials: at most 32 per chunk, where one check per trial would
    # alone make 64. The second chunk may take a Newton step or a level-set
    # test more than the first, so its count is bounded, not compared. Each
    # trial is one generator call, which normalises its draw with at most
    # one call of its own.
    calls = count_calls(monkeypatch, "eigvalsh", "eigh", "eigvals")
    draw_calls = []
    draw = cli._draw

    def counted_draw(cfg, seeds):
        before = len(calls)
        stack = draw(cfg, seeds)
        draw_calls.append(len(calls) - before)
        return stack

    monkeypatch.setattr(cli, "_draw", counted_draw)
    for trials in (64, 128):
        calls.clear()
        draw_calls.clear()
        cli.run_sweep(cli.SweepConfig(ensemble=ensemble, n=4, trials=trials, seed=3,
                                      cert=SWEEP_CERTS[ensemble]))
        assert sum(draw_calls) <= trials
        assert len(calls) - sum(draw_calls) <= 32 * (trials // 64)


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


# ------------------------------------------------------------- the parser


def test_one_parser_serves_every_call_without_leaking_state(s2_file, monkeypatch, capsys):
    # build_parser is cached, so one parser object parses every main() call
    # of a process. A flag or default of one call must not reach the next:
    # each argv parses to what a freshly built parser gives it, and the
    # second verify, without --order, reports an accretive sector pair.
    assert cli.build_parser() is cli.build_parser()
    fresh = cli.build_parser.__wrapped__
    sector = ["verify", str(s2_file), "--phi", "2,0", "--varphi", "0.5,0"]
    ordered, accretive = sector + ["--order"], sector
    bad = ["verify", str(s2_file), "--phi", "2,zero", "--varphi", "0.5,0"]
    good = ["verify", str(s2_file), "--lambda", "1,0", "--r", "2"]
    outputs = []
    for argv in (ordered, accretive, bad, good):
        if argv is bad:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
        else:
            assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
        assert vars(cli.build_parser().parse_args(accretive)) == vars(fresh().parse_args(accretive))
        assert vars(cli.build_parser().parse_args(good)) == vars(fresh().parse_args(good))
    a = load_matrix(s2_file)
    assert outputs[0] == reports_to_jsonl(verify_all(a, [SectorPair(2, 0.5, OPERATOR_ORDER)]))
    assert outputs[1] == reports_to_jsonl(verify_all(a, [SectorPair(2, 0.5, ACCRETIVE)]))
    assert outputs[0] != outputs[1]
    assert outputs[2] == ""
    assert outputs[3] == reports_to_jsonl(verify_all(a, [DiskCertificate(lam=1, r=2)]))
    # A command rebound after the parser was built, as the benchmark's tracer
    # rebinds them, is the one that runs.
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.order) or 0)
    assert cli.main(ordered) == 0
    assert seen == [True]


# ----------------------------------------------------------- entry points


def run_module(*argv):
    """`python -m numrad argv` in a fresh process, with its output captured as text."""
    # pytest's pythonpath setting does not reach a subprocess, so src/ is
    # put on its PYTHONPATH: the test then runs from a bare checkout too.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "numrad", *map(str, argv)],
                          capture_output=True, text=True, env=env)


def test_module_is_executable(s2_file):
    proc = run_module("compute", s2_file, "--out", s2_file.parent / "out.csv")
    assert proc.returncode == 0
    assert proc.stdout.startswith("w=")


def test_verify_stderr_is_only_its_error_line_at_2_540(tmp_path):
    # The sector check's minimum eigenvalue, about 2^1080, is inf; scaling it
    # back once printed numpy's overflow warning ahead of the error line.
    a, _ = gen_segment_instance(1.0, 4.0, 4, 3)
    s = 2.0**540
    path = tmp_path / "a.json"
    save_matrix(path, s * a)
    proc = run_module("verify", path, "--phi", f"{4 * s!r},{0.001 * s!r}", "--varphi", repr(s))
    assert proc.returncode == 2
    assert proc.stderr == ("error: the norm is beyond the range the report formulas support "
                           "(a side of a passing bound exceeds the double range)\n")
    assert [json.loads(line)["inequality_id"] for line in proc.stdout.splitlines()] == [
        "C2_7", "C3_6", "C3_7", "C4_6"]


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
