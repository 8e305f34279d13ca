"""Command-line front end.

Subcommands: compute (radius, norm, boundary CSV), verify (slack reports as
JSON lines), sweep (random ensembles with aggregate slack statistics), search
(extremal probes), plot (boundary SVG). Exit codes: 0 on success, 1 when a
passing hypothesis produced a negative slack beyond the relative tolerance
(see `bounds.SLACK_TOL`), 2 on malformed input, and 2 from verify when a side
of a passing bound exceeds the double range (the reports are printed first).
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import (
    ACCRETIVE,
    OPERATOR_ORDER,
    DiskCertificate,
    SectorPair,
    bound_table,
    optimize_lambda,
    verify_all,
)
from .extremal import (
    _disk_stack,
    _ginibre_stack,
    _nilpotent_stack,
    _segment_stack,
    probe_equality_case,
    search_sqrt_disk,
)
from .io import (
    load_matrix,
    reports_to_jsonl,
    search_result_to_obj,
    write_boundary_csv,
    write_boundary_svg,
)
from .numrange import BOUNDARY_GRID, range_summary

ENSEMBLES = ("disk", "segment", "ginibre", "nilpotent")
# Sweep trials drawn and verified together: one draw call and one
# bound_table call per chunk.
_CHUNK = 64


def parse_complex(text: str) -> complex:
    """Parse RE or RE,IM with scientific notation allowed."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")


@dataclass
class SweepConfig:
    """A sweep: trials of one ensemble, each verified against cert.

    disk and segment draws satisfy cert by construction, and cert fixes the
    disk or the real segment they are drawn from; ginibre and nilpotent draws
    are tested against the given disk, so hypothesis failures there are
    expected data.
    """

    ensemble: str
    n: int
    trials: int
    seed: int
    cert: DiskCertificate | SectorPair

    def __post_init__(self):
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if self.n < 1:
            raise ValueError("need n >= 1")
        if self.ensemble == "nilpotent" and self.n < 2:
            raise ValueError("nilpotent ensemble needs n >= 2")
        if self.trials < 1:
            raise ValueError("need trials >= 1")
        if self.ensemble == "segment":
            if not isinstance(self.cert, SectorPair) or self.cert.segment() is None:
                raise ValueError("ensemble 'segment' needs a real segment pair")
        elif not isinstance(self.cert, DiskCertificate):
            raise ValueError(f"ensemble {self.ensemble!r} needs a disk certificate")


def _draw(cfg: SweepConfig, seeds) -> np.ndarray:
    """The trial matrices of the configured ensemble, one per seed, as a stack.

    seeds is a list of ints. Each trial draws from default_rng of its seed
    with one ginibre call, in the order of the one-trial generators. The
    chunk is then finished in one pass: one stacked norm call normalises the
    disk, ginibre and nilpotent draws, and one batched QR makes the segment
    draws' unitaries.
    """
    if cfg.ensemble == "disk":
        return _disk_stack(cfg.cert.lam, cfg.cert.r, cfg.n, seeds)
    if cfg.ensemble == "segment":
        return _segment_stack(*cfg.cert.segment(), cfg.n, seeds)
    if cfg.ensemble == "nilpotent":
        return _nilpotent_stack(cfg.n, seeds)
    return _ginibre_stack(cfg.n, seeds)


def run_sweep(cfg: SweepConfig) -> tuple[dict, int]:
    """Run the ensemble and aggregate per-identifier slack statistics.

    Trial i is drawn from its own seed. The trials are drawn and verified in
    chunks of _CHUNK, with one _draw and one bound_table call per chunk, and
    the table's row arrays are aggregated as they are. Every drawn matrix
    equals its one-trial generator's, and every row entry the report that
    verify_all gives its trial alone.
    """
    trial_seeds = np.random.default_rng(cfg.seed).integers(
        0, 2**63, size=cfg.trials, dtype=np.uint64
    )
    chunks = [bound_table(_draw(cfg, trial_seeds[i:i + _CHUNK].tolist()), cfg.cert)
              for i in range(0, cfg.trials, _CHUNK)]
    rows, violations = [], 0
    for parts in zip(*chunks):
        defined, ok, slack, violated = (
            np.concatenate(c) for c in zip(*((b.defined, b.ok, b.slack, b.violated) for b in parts))
        )
        if defined.any():
            rows.append((int(np.argmax(defined)), parts[0].iid, defined, ok, slack[defined & ok].tolist()))
            violations += int(np.count_nonzero(defined & violated))
    table = {}
    # statistics.median gives np.median's value on finite slacks, at a tenth
    # of its cost on a few dozen (about 2 ms more on 10^4). Identifiers are
    # listed by the first trial that has them; the stable sort keeps the
    # canonical order among identifiers that first appear in the same trial.
    for _, iid, defined, ok, slacks in sorted(rows, key=lambda row: row[0]):
        table[iid] = {
            "evaluated": int(np.count_nonzero(defined)),
            "hypothesis_failures": int(np.count_nonzero(defined & ~ok)),
            "min_slack": min(slacks) if slacks else None,
            "median_slack": statistics.median(slacks) if slacks else None,
        }
    c = cfg.cert
    params = (dict(zip(("m", "M"), c.segment())) if cfg.ensemble == "segment"
              else {"lambda": [c.lam.real, c.lam.imag], "r": c.r})
    aggregate = {
        "ensemble": cfg.ensemble,
        "n": cfg.n,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "params": params,
        "inequalities": table,
        "slack_violations": violations,
    }
    return aggregate, (1 if violations else 0)


def cmd_compute(args) -> int:
    a = load_matrix(args.matrix)
    summary = range_summary(a, n_theta=args.grid)
    print(f"w={summary.radius:.17g}")
    print(f"norm={summary.norm:.17g}")
    out = args.out
    if out is None:
        out = str(args.matrix) + ".boundary.csv"
    write_boundary_csv(out, summary.boundary)
    print(f"boundary csv: {out}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    a = load_matrix(args.matrix)
    certs = []
    if args.auto:
        certs.append(optimize_lambda(a))
    if args.lam is not None or args.r is not None:
        if args.lam is None or args.r is None:
            raise ValueError("--lambda and --r must be given together")
        certs.append(DiskCertificate(lam=args.lam, r=args.r, rho=args.rho))
    elif args.rho is not None:
        raise ValueError("--rho needs --lambda and --r")
    if (args.phi is None) != (args.varphi is None):
        raise ValueError("--phi and --varphi must be given together")
    if args.phi is not None:
        mode = OPERATOR_ORDER if args.order else ACCRETIVE
        certs.append(SectorPair(phi=args.phi, varphi=args.varphi, mode=mode))
    elif args.order:
        raise ValueError("--order needs --phi and --varphi")
    if not certs:
        raise ValueError("nothing to verify: pass --auto, --lambda/--r, or --phi/--varphi")
    reports = verify_all(a, certs)
    sys.stdout.write(reports_to_jsonl(reports))
    if any(rep.violated for rep in reports):
        return 1
    if not all(np.isfinite([rep.lhs, rep.rhs]).all() for rep in reports if rep.hypothesis_ok):
        raise OverflowError("a side of a passing bound exceeds the double range")
    return 0


def cmd_sweep(args) -> int:
    segment = args.ensemble == "segment"
    flags = (("--m", args.m), ("--M", args.M)) if segment else (("--lambda", args.lam), ("--r", args.r))
    for flag, value in flags:
        if value is None:
            raise ValueError(f"ensemble {args.ensemble!r} requires {flag}")
    cert = SectorPair.from_segment(args.m, args.M) if segment else DiskCertificate(lam=args.lam, r=args.r)
    cfg = SweepConfig(ensemble=args.ensemble, n=args.n, trials=args.trials, seed=args.seed, cert=cert)
    aggregate, code = run_sweep(cfg)
    print(json.dumps(aggregate, indent=2))
    return code


def cmd_search(args) -> int:
    if args.equality:
        res = probe_equality_case(args.n, args.iters, args.seed)
    else:
        res = search_sqrt_disk(args.n, args.iters, args.seed)
    print(json.dumps(search_result_to_obj(res), indent=2))
    return 0


def cmd_plot(args) -> int:
    a = load_matrix(args.matrix)
    summary = range_summary(a, n_theta=args.grid)
    write_boundary_svg(args.out, summary)
    print(f"svg: {args.out}", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `numrad` argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="numrad",
        description="Numerical range, numerical radius, and reverse bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="radius, norm, and boundary CSV of a matrix")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--grid", type=int, default=BOUNDARY_GRID,
                   help=f"boundary angles in the CSV (default {BOUNDARY_GRID})")
    p.add_argument("--out", default=None, help="boundary CSV path (default <matrix>.boundary.csv)")

    p = sub.add_parser("verify", help="evaluate the reverse bounds for given certificates")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--auto", action="store_true", help="fit a disk certificate first")
    p.add_argument("--lambda", dest="lam", type=parse_complex, default=None, metavar="RE,IM")
    p.add_argument("--r", type=float, default=None, help="disk radius")
    p.add_argument("--rho", type=float, default=None, help="claimed radius gap")
    p.add_argument("--phi", type=parse_complex, default=None, metavar="RE,IM")
    p.add_argument("--varphi", type=parse_complex, default=None, metavar="RE,IM")
    p.add_argument("--order", action="store_true", help="sector pair in operator-order mode")

    p = sub.add_parser("sweep", help="random ensemble sweep with aggregate slack stats")
    p.add_argument("--ensemble", choices=ENSEMBLES, required=True)
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=parse_complex, default=None, metavar="RE,IM")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--M", type=float, default=None)

    p = sub.add_parser("search", help="extremal random searches")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--problem", action="store_true", help="sqrt-disk feasibility search")
    group.add_argument("--equality", action="store_true", help="unit-disk equality probe")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("plot", help="SVG plot of the boundary with w and norm circles")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--grid", type=int, default=BOUNDARY_GRID,
                   help=f"boundary angles (default {BOUNDARY_GRID})")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Looked up per call, not stored in the cached parser, so a command
        # rebound after the parser was built (a tracer, a test) still runs.
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: the norm is beyond the range the report formulas support ({exc})",
              file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
