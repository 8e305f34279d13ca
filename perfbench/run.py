"""numrad benchmark: one workload, one process, in-process CLI calls.

    python3 perfbench/run.py --workload {sweep,search,dense} --seed N --seconds S --trace {0,1}

Run from the root of a numrad checkout; the package is imported from its
src/ directory. With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of a traced pass over the operations an untraced pass has just run. Lines
before it are a readable summary and the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from workloads import Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One process with single-threaded BLAS: at these matrix sizes a second
# OpenBLAS thread made compute and verify slower, and it ties the timings to
# whatever else runs on the other core.
BLAS_THREADS = 1
# p75 needs ten samples beyond it.
MIN_OPS = 40
MAX_SECONDS = 150.0
SETUP_REPEATS = 5
# setup_s is reported in seconds at this yardstick time (its typical time on
# a 2-core Xeon VM): each set-up is divided by the yardstick time measured in
# the same fresh process, so that drift in machine speed cancels.
REFERENCE_CAL_S = 0.015


def _pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup(workload: str, seed: int, workdir: Path):
    """Import numrad and run the workload's warm-up operation; returns numrad.cli.

    numpy, and with it numrad, is imported here and not at the top of this
    file, so that the BLAS thread settings made before take effect.
    """
    import workloads
    from numrad import cli

    op = workloads.make_op(workload, seed, workloads.WARMUP_INDEX, workdir)
    for argv in op.calls:
        code, _ = workloads.run_cli(cli, argv)
        if code != 0:
            raise RuntimeError(f"warm-up `numrad {' '.join(argv)}` exited with {code}")
    workloads.observe(op, [])
    return cli


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up, yardstick) seconds of SETUP_REPEATS fresh interpreters, each run to completion."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        setup_s, cal_s = map(float, done.stdout.split()[-2:])
        times.append((setup_s, cal_s))
    return times


@dataclass
class Record:
    """One operation: its call times, each call's time in yardstick units, and its outputs."""

    op: Op
    times: list
    rels: list
    obs: list
    error: str | None

    @property
    def seconds(self) -> float:
        return sum(self.times)

    @property
    def rel(self) -> float:
        return sum(self.rels)


def measure(cli, workload: str, seed: int, workdir: Path, seconds: float, *, min_ops: int = 1,
            count: int | None = None) -> list[Record]:
    """Run operations 0, 1, ... for `seconds` (at least `min_ops` of them) or exactly `count`.

    Only the CLI calls are timed; building inputs and keeping outputs is not.
    The yardstick runs between calls; each call's time is also kept in units
    of the mean of the yardstick runs just before and after it.
    """
    import workloads
    from yardstick import Yardstick

    stick = Yardstick()
    records = []
    start = time.perf_counter()
    cal = stick.seconds()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if count is not None:
            if index >= count:
                break
        elif (elapsed >= seconds and index >= min_ops) or elapsed >= MAX_SECONDS:
            break
        op = workloads.make_op(workload, seed, index, workdir)
        times, rels, results, error = [], [], [], None
        try:
            for argv in op.calls:
                t0 = time.perf_counter()
                results.append(workloads.run_cli(cli, argv))
                times.append(time.perf_counter() - t0)
                cal_after = stick.seconds()
                rels.append(times[-1] / ((cal + cal_after) / 2))
                cal = cal_after
        except Exception:
            error = traceback.format_exc(limit=3)
        records.append(Record(op, times, rels, workloads.observe(op, results), error))
        index += 1
    return records


def check_records(records: list[Record]) -> list[str]:
    """One line per failed operation; an operation fails on an error or a failed check."""
    import workloads

    failures = []
    for rec in records:
        if rec.error is None:
            try:
                problems = workloads.check(rec.op, rec.obs)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        else:
            problems = [rec.error]
        if problems:
            failures.append(f"op {rec.op.index}: " + "; ".join(problems))
    return failures


def quartiles(values: list[float]) -> tuple[float, float]:
    return statistics.median(values), statistics.quantiles(values, n=4)[2]


def end_to_end(args, cli, workdir: Path):
    setups = setup_seconds(args.workload, args.seed)
    records = measure(cli, args.workload, args.seed, workdir, args.seconds, min_ops=MIN_OPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = [r for r in records if r.error is None]
    items = sum(r.op.items for r in ok)
    p50, p75 = quartiles([r.rel for r in ok])
    metrics = {
        "setup_s": (statistics.median(s / cal * REFERENCE_CAL_S for s, cal in setups), "s"),
        "items_per_cal": (items / sum(r.rel for r in ok), "1/cal"),
        "op_p50_cal": (p50, "cal"),
        "op_p75_cal": (p75, "cal"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw50, raw75 = quartiles([1e3 * r.seconds for r in ok])
    notes = [
        f"operations timed: {len(ok)}; raw set-up runs: {', '.join(f'{s:.3f}' for s, _ in setups)} s",
        f"yardstick: 1 cal = {1e3 * sum(r.seconds for r in ok) / sum(r.rel for r in ok):.2f} ms on average",
        f"raw: {items / sum(r.seconds for r in ok):.6g} items/s, op p50 {raw50:.2f} ms, p75 {raw75:.2f} ms",
    ]
    if args.workload == "dense":
        for k, name in enumerate(("compute", "verify")):
            c50, c75 = quartiles([r.rels[k] for r in ok])
            m50, m75 = quartiles([1e3 * r.times[k] for r in ok])
            notes.append(f"{name}: p50 {c50:.4g} cal ({m50:.2f} ms), p75 {c75:.4g} cal ({m75:.2f} ms)"
                         f" over {len(ok)} calls")
    return records, metrics, notes


def traced(args, cli, workdir: Path):
    from tracer import Tracer, layer_metrics

    plain = measure(cli, args.workload, args.seed, workdir, args.seconds / 2)
    with Tracer() as tracer:
        traced_records = measure(cli, args.workload, args.seed, workdir, 0, count=len(plain))
    items = sum(r.op.items for r in plain)
    plain_rel = sum(r.rel for r in plain)
    traced_rel = sum(r.rel for r in traced_records)
    metrics = layer_metrics(tracer, sum(r.seconds for r in traced_records))
    metrics["trace.untraced_items_per_cal"] = (items / plain_rel, "1/cal")
    metrics["trace.items_per_cal"] = (items / traced_rel, "1/cal")
    metrics["trace.overhead_ratio"] = (traced_rel / plain_rel, "ratio")
    notes = [f"operations per pass: {len(plain)}"] + baseline_rows(args.workload, metrics)
    return plain + traced_records, metrics, notes


def baseline_rows(workload: str, m: dict) -> list[str]:
    """Per-call means of the traced pass, as rows of the baseline table."""
    rows = {
        "sweep": [("`numerical_radius`, n = 4", "numrange.numerical_radius.mean_ms", "ms"),
                  ("`operator_norm`, n = 4", "linalg.operator_norm.mean_us", "us"),
                  ("`verify_all`, one certificate, n = 4", "bounds.verify_all.mean_ms", "ms")],
        "dense": [("`numerical_radius`, n = 32", "numrange.numerical_radius.mean_ms", "ms"),
                  ("`verify_all`, disk + sector, n = 32", "bounds.verify_all.mean_ms", "ms"),
                  ("`optimize_lambda`, n = 32", "bounds.optimize_lambda.mean_ms", "ms")],
        "search": [("search trial, n = 2..4", "extremal.search.trial_us", "us"),
                   ("`operator_norm`, n = 2..4", "linalg.operator_norm.mean_us", "us")],
    }[workload]
    return [f"| {what} | {m[key][0]:.3g} {unit} |" for what, key, unit in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "search", "dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "numrad" / "__init__.py").is_file():
        print(f"error: no numrad sources under {SRC}; run from a numrad checkout", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path[:0] = [str(HERE), str(SRC)]

    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        workdir = Path(tmp)
        t0 = time.perf_counter()
        cli = setup(args.workload, args.seed, workdir)
        in_process_setup = time.perf_counter() - t0
        if Path(cli.__file__).resolve().parent != (SRC / "numrad").resolve():
            print(f"error: imported numrad from {cli.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        run = traced if args.trace else end_to_end
        records, metrics, notes = run(args, cli, workdir)
        failures = check_records(records)

    print("env " + json.dumps(environment(args)))
    print(f"in-process set-up (import + warm-up): {in_process_setup:.3f} s")
    for line in notes + failures[:20]:
        print(line)
    print(f"failed_frac: {len(failures) / len(records):.6g} ratio ({len(failures)} of {len(records)})")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
