"""Seeded inputs, CLI operations and output checks of the numrad benchmark.

Every operation is a list of `numrad` command lines run in-process through
`numrad.cli.main`. Inputs depend only on (workload seed, operation index), so
the same seed gives the same inputs. The checks run after the timed loop and
never inside a traced pass.

Workloads, and why each was chosen:

* sweep: `numrad sweep` over the disk, segment, ginibre and nilpotent
  ensembles at n = 4, one call per ensemble per operation. Many tiny
  matrices, so time goes to per-call overhead in the radius refinement and to
  repeated hypothesis checks; the ginibre and nilpotent draws fail their
  fixed certificate, which exercises the failure-report path.
* search: `numrad search --equality` and `--problem` at n = 2, 3, 4. All time
  is the per-trial loop of extremal and operator_norm; it never reaches
  numrange or bounds, so it is the control for radius and bounds changes.
* dense: `numrad compute` then `numrad verify --auto --phi --varphi` on one
  n = 32 matrix file per operation, cycling through Ginibre, Hermitian,
  square-zero and disk-concentrated matrices. LAPACK-bound: the grid
  eigen-sweep, the eigenvector boundary and optimize_lambda's coarse grid.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "search", "dense")

SWEEP_N = 4
SWEEP_TRIALS = 30
# Certificate flags per ensemble; ginibre and nilpotent draws are tested
# against a fixed disk certificate that many of them fail.
SWEEP_FLAGS = {
    "disk": ["--lambda=1,0.5", "--r=0.4"],
    "segment": ["--m=1", "--M=3"],
    "ginibre": ["--lambda=0.5,0", "--r=1.2"],
    "nilpotent": ["--lambda=0.5,0", "--r=1.2"],
}
SEARCH_SIZES = (2, 3, 4)
SEARCH_ITERS = 400
DENSE_N = 32
DENSE_KINDS = ("ginibre", "hermitian", "square_zero", "disk")

# Index of the warm-up operation; measured operations count up from 0.
WARMUP_INDEX = 1 << 30

# Relative tolerance of the ordering checks w <= norm <= 2w and
# max(support) <= w, which hold exactly in exact arithmetic.
ORDER_RTOL = 1e-12
# Agreement of w with the reference sweep and between commands.
RADIUS_RTOL = 1e-10
SLACK_TOL = 1e-8
# disk_excess is recomputed through a different Gram product than the
# search's batched one, so the two agree only to the eigensolver's backward
# error, taken as 64 eps times the Gram norm bound (1 + |lambda|)^2.
EXCESS_RTOL = 64 * np.finfo(float).eps


@dataclass
class Op:
    workload: str
    index: int
    calls: list
    items: int
    data: dict = field(default_factory=dict)


def _seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def _cplx(z: complex) -> str:
    return f"{float(z.real)!r},{float(z.imag)!r}"


def dense_matrix(seed: int, index: int):
    """(A, kind, phi, varphi) of one dense operation.

    The disk-concentrated kind gets a sector pair whose disk contains W(A),
    so its sector hypothesis holds; the other kinds share a fixed pair.
    """
    rng = np.random.default_rng([seed, 3, index])
    n = DENSE_N
    kind = DENSE_KINDS[index % len(DENSE_KINDS)]
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    phi, varphi = 1.0 + 0.5j, 0.5 - 0.25j
    if kind == "ginibre":
        a = g
    elif kind == "hermitian":
        a = 0.5 * (g + g.conj().T)
    elif kind == "square_zero":
        a = np.zeros((n, n), dtype=complex)
        a[n // 2 :, : n // 2] = g[n // 2 :, : n // 2]
    else:
        lam = complex(rng.uniform(1.0, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        eps = rng.uniform(0.05, 0.2) * abs(lam)
        a = lam * np.eye(n) + eps * g / np.linalg.norm(g, 2)
        u = np.exp(1j * rng.uniform(0, 2 * np.pi))
        phi, varphi = lam + 1.5 * eps * u, lam - 1.5 * eps * u
    return a, kind, phi, varphi


def write_matrix(path: Path, a: np.ndarray) -> None:
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in a]
    path.write_text(json.dumps({"n": int(a.shape[0]), "entries": entries}) + "\n")


def make_op(workload: str, seed: int, index: int, workdir: Path) -> Op:
    """Build operation `index` of a workload, writing any input files it needs."""
    if workload == "sweep":
        calls = [
            ["sweep", f"--ensemble={ens}", f"--n={SWEEP_N}", f"--trials={SWEEP_TRIALS}",
             f"--seed={_seed(seed, 1, index, k)}", *flags]
            for k, (ens, flags) in enumerate(SWEEP_FLAGS.items())
        ]
        return Op(workload, index, calls, SWEEP_TRIALS * len(calls), {"ensembles": list(SWEEP_FLAGS)})
    if workload == "search":
        calls = [
            ["search", mode, f"--n={n}", f"--iters={SEARCH_ITERS}", f"--seed={_seed(seed, 2, index, k)}"]
            for k, (mode, n) in enumerate(
                (mode, n) for mode in ("--equality", "--problem") for n in SEARCH_SIZES
            )
        ]
        return Op(workload, index, calls, SEARCH_ITERS * len(calls))
    if workload == "dense":
        a, kind, phi, varphi = dense_matrix(seed, index)
        matrix = workdir / f"m{index}.json"
        boundary = workdir / f"m{index}.csv"
        write_matrix(matrix, a)
        calls = [
            ["compute", str(matrix), f"--out={boundary}"],
            ["verify", str(matrix), "--auto", f"--phi={_cplx(phi)}", f"--varphi={_cplx(varphi)}"],
        ]
        return Op(workload, index, calls, 1, {"a": a, "kind": kind, "matrix": matrix, "boundary": boundary})
    raise ValueError(f"unknown workload {workload!r}")


def run_cli(cli, argv: list) -> tuple[int, str]:
    """One in-process `numrad` command; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def observe(op: Op, results: list) -> list:
    """Keep what the checks need from an operation and delete its files."""
    if op.workload != "dense":
        return results
    boundary, matrix = op.data["boundary"], op.data["matrix"]
    supports = None
    if boundary.exists():
        rows = boundary.read_text().splitlines()[1:]
        supports = [float(row.rsplit(",", 1)[1]) for row in rows]
        boundary.unlink()
    matrix.unlink(missing_ok=True)
    return results + [supports]


def check(op: Op, obs: list) -> list:
    """Problems found in one operation's outputs; empty when they are correct."""
    return {"sweep": _check_sweep, "search": _check_search, "dense": _check_dense}[op.workload](op, obs)


def _check_sweep(op: Op, obs: list) -> list:
    problems = []
    for ens, (code, out) in zip(op.data["ensembles"], obs):
        if code != 0:
            problems.append(f"sweep {ens}: exit code {code}")
            continue
        agg = json.loads(out)
        if agg["trials"] != SWEEP_TRIALS or agg["slack_violations"] != 0:
            problems.append(f"sweep {ens}: trials {agg['trials']}, violations {agg['slack_violations']}")
        for iid, rec in agg["inequalities"].items():
            if rec["evaluated"] != SWEEP_TRIALS:
                problems.append(f"sweep {ens} {iid}: evaluated {rec['evaluated']}")
            if ens in ("disk", "segment") and rec["hypothesis_failures"]:
                problems.append(f"sweep {ens} {iid}: {rec['hypothesis_failures']} hypothesis failures")
    return problems


def _check_search(op: Op, obs: list) -> list:
    from numrad.extremal import candidate_violations
    from numrad.io import obj_to_matrix

    problems = []
    for argv, (code, out) in zip(op.calls, obs):
        if code != 0:
            problems.append(f"{' '.join(argv)}: exit code {code}")
            continue
        res = json.loads(out)
        v = res["violations"]
        lam = complex(*res["lambda"])
        norm_dev, nilpotency, excess = candidate_violations(obj_to_matrix(res["candidate"]), lam)
        if (norm_dev, nilpotency) != (v["norm_dev"], v["nilpotency"]):
            problems.append(f"{' '.join(argv)}: norm_dev/nilpotency do not recompute identically")
        if abs(excess - v["disk_excess"]) > EXCESS_RTOL * (1 + abs(lam)) ** 2:
            problems.append(f"{' '.join(argv)}: disk_excess {v['disk_excess']!r} != {excess!r}")
        if res["score"] != max(v.values()):
            problems.append(f"{' '.join(argv)}: score is not the worst violation")
    return problems


def _check_dense(op: Op, obs: list) -> list:
    (c_code, c_out), (v_code, v_out), supports = obs
    kind = op.data["kind"]
    if c_code != 0 or v_code != 0 or supports is None:
        return [f"dense {kind}: exit codes {c_code}, {v_code}, boundary written: {supports is not None}"]
    vals = dict(line.split("=", 1) for line in c_out.split())
    w, norm = float(vals["w"]), float(vals["norm"])
    problems = []
    if not (w <= norm * (1 + ORDER_RTOL) and norm <= 2 * w * (1 + ORDER_RTOL)):
        problems.append(f"dense {kind}: w={w!r}, norm={norm!r} break w <= norm <= 2w")
    if max(supports) > w * (1 + ORDER_RTOL):
        problems.append(f"dense {kind}: boundary support {max(supports)!r} exceeds w={w!r}")
    ref = reference_radius(op.data["a"])
    if abs(w - ref) > RADIUS_RTOL * ref:
        problems.append(f"dense {kind}: w={w!r} differs from the reference sweep {ref!r}")
    reports = [json.loads(line) for line in v_out.splitlines()]
    by_id = {rep["inequality_id"]: rep for rep in reports}
    if any(abs(rep["w"] - w) > RADIUS_RTOL * w for rep in reports):
        problems.append(f"dense {kind}: verify and compute disagree on w")
    if not by_id.get("T2_2", {}).get("hypothesis_ok"):
        problems.append(f"dense {kind}: the --auto disk certificate fails its own check")
    if kind == "disk" and not by_id.get("C2_7", {}).get("hypothesis_ok"):
        problems.append(f"dense {kind}: the sector pair around lambda fails its check")
    for rep in reports:
        scale = max(1.0, abs(rep["lhs"]), abs(rep["rhs"]))
        if rep["hypothesis_ok"] and rep["slack"] < -SLACK_TOL * scale:
            problems.append(f"dense {kind}: {rep['inequality_id']} slack {rep['slack']!r}")
    return problems


def _hermitian_parts(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    ph = np.exp(1j * thetas)[:, None, None]
    return 0.5 * (ph * a + np.conj(ph) * a.conj().T)


def reference_radius(a: np.ndarray, grid: int = 1024, peaks: int = 4) -> float:
    """w(A) by a support-function grid and Newton polish, using numpy only.

    Independent of numrad's sweep and golden section: the best `peaks` local
    maxima of the 1024-angle grid are polished by Newton steps on the top
    eigenvalue lambda(theta), whose derivatives come from first and second
    order perturbation theory (H' = i(e^{it} A - e^{-it} A*)/2, H'' = -H).
    Every evaluated lambda(theta) is attained, so the result is the largest
    of them.
    """
    step = 2 * np.pi / grid
    thetas = np.arange(grid) * step
    sup = np.concatenate(
        [np.linalg.eigvalsh(_hermitian_parts(a, chunk))[:, -1] for chunk in np.array_split(thetas, 8)]
    )
    is_peak = (sup >= np.roll(sup, 1)) & (sup >= np.roll(sup, -1))
    starts = np.flatnonzero(is_peak)
    starts = starts[np.argsort(sup[starts])[::-1][:peaks]]
    best = float(sup.max())
    scale = max(best, 1e-300)
    for k in starts:
        t = float(thetas[k])
        for _ in range(50):
            vals, vecs = np.linalg.eigh(_hermitian_parts(a, np.array([t]))[0])
            best = max(best, float(vals[-1]))
            x = vecs[:, -1]
            ph = np.exp(1j * t)
            hx = 0.5j * (ph * (a @ x) - np.conj(ph) * (a.conj().T @ x))
            d1 = float(np.real(np.vdot(x, hx)))
            gaps = np.maximum(vals[-1] - vals[:-1], 1e-300)
            d2 = -float(vals[-1]) + 2.0 * float(np.sum(np.abs(vecs[:, :-1].conj().T @ hx) ** 2 / gaps))
            if d2 > -1e-12 * scale:
                break
            move = float(np.clip(-d1 / d2, -step, step))
            t += move
            if abs(move) < 1e-14:
                break
    return best
