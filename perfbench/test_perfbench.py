"""Tests of the benchmark itself: seeded inputs, the tracer, the output checks.

Run with `python -m pytest perfbench -q` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    from numrad import cli

    return cli


def _snapshot():
    modules = [m for k, m in sys.modules.items() if k == "numrad" or k.startswith("numrad.")]
    return {(m.__name__, k): v for m in modules + [np.linalg] for k, v in vars(m).items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_bit_identical_for_the_same_seed(workload, tmp_path):
    runs = []
    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
        seed = 7 if sub != "c" else 8
        ops = [workloads.make_op(workload, seed, i, tmp_path / sub) for i in range(4)]
        argv = [[arg.replace(str(tmp_path / sub), "") for arg in call] for op in ops for call in op.calls]
        files = [p.read_bytes() for p in sorted((tmp_path / sub).iterdir())]
        runs.append((argv, files))
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


def test_dense_matrices_are_bit_identical_and_cover_every_kind():
    kinds = set()
    for i in range(8):
        a, kind, phi, varphi = workloads.dense_matrix(3, i)
        b, *rest = workloads.dense_matrix(3, i)
        assert a.tobytes() == b.tobytes() and rest == [kind, phi, varphi]
        kinds.add(kind)
    assert kinds == set(workloads.DENSE_KINDS)


def test_tracer_rebinds_every_import_site_and_restores_it(cli, tmp_path):
    before = _snapshot()
    with Tracer() as tracer:
        originals = {id(v) for (_, _, v) in tracer._restore}
        leftover = [key for key, v in _snapshot().items() if id(v) in originals]
        sites = {f"{m.__name__.rsplit('.', 1)[-1]}.{attr}" for m, attr, _ in tracer._restore}
        run.measure(cli, "search", 1, tmp_path, 0, count=1)
    assert not leftover
    assert {"bounds.operator_norm", "cli.verify_all", "cli.range_summary", "cli.write_boundary_csv",
            "linalg.eigvalsh", "linalg.eigh"} <= sites
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.spans and all(span is not None for span in tracer.spans)


def test_self_times_account_for_the_traced_wall_time(cli, tmp_path):
    with Tracer() as tracer:
        records = run.measure(cli, "dense", 2, tmp_path, 0, count=1)
        records += run.measure(cli, "sweep", 2, tmp_path, 0, count=1)
    wall = sum(r.seconds for r in records)
    m = layer_metrics(tracer, wall)
    layer_self = sum(m[f"{layer}.self_s"][0] for layer in ("cli", "io", "bounds", "numrange",
                                                           "extremal", "linalg", "lapack"))
    share = m["trace.unaccounted_share"][0]
    print(f"unaccounted share of traced wall time: {share:.2e}")
    assert layer_self == pytest.approx(wall * (1 - share), rel=1e-9)
    assert 0 <= share < 0.05
    # Only numrad's own calls become spans; the yardstick's eigvalsh is never traced.
    assert {tracer.names[s[0]] for s in tracer.spans if s[1] == -1} == {"cli.main"}
    assert m["bounds.optimize_lambda.calls"][0] == 1
    assert m["numrange.numerical_range_boundary.calls"][0] == 1
    assert m["extremal.gen.calls"][0] == workloads.SWEEP_TRIALS * 4


def test_checks_pass_on_real_outputs_and_catch_a_wrong_radius(cli, tmp_path):
    records = run.measure(cli, "dense", 5, tmp_path, 0, count=1)
    assert run.check_records(records) == []
    op, obs = records[0].op, records[0].obs
    (code, out), verify, supports = obs
    w = float(out.split()[0].split("=")[1])
    bad = [(code, out.replace(f"w={w:.17g}", f"w={w * (1 - 1e-8):.17g}")), verify, supports]
    assert any("reference sweep" in p for p in workloads.check(op, bad))
