"""Command-line front end.

Subcommands: compute (radius, norm, boundary CSV), verify (slack reports as
JSON lines), sweep (random ensembles with aggregate slack statistics), search
(extremal probes), plot (boundary SVG). Exit codes: 0 on success, 1 when a
passing hypothesis produced a negative slack beyond tolerance, 2 on malformed
input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    ACCRETIVE,
    OPERATOR_ORDER,
    SLACK_TOL,
    DiskCertificate,
    SectorPair,
    optimize_lambda,
    verify_all,
)
from .extremal import (
    gen_disk_instance,
    gen_nilpotent_instance,
    gen_segment_instance,
    ginibre,
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
from .linalg import operator_norm
from .numrange import range_summary

ENSEMBLES = ("disk", "segment", "ginibre", "nilpotent")


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
    ensemble: str
    n: int
    trials: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if self.n < 1:
            raise ValueError("need n >= 1")
        if self.ensemble == "nilpotent" and self.n < 2:
            raise ValueError("nilpotent ensemble needs n >= 2")
        if self.trials < 1:
            raise ValueError("need trials >= 1")
        need = ("m", "M") if self.ensemble == "segment" else ("lam", "r")
        for key in need:
            if self.params.get(key) is None:
                flag = {"lam": "--lambda", "r": "--r", "m": "--m", "M": "--M"}[key]
                raise ValueError(f"ensemble {self.ensemble!r} requires {flag}")


def _sweep_instance(cfg: SweepConfig, seed: int):
    """One (matrix, certificate) draw for the configured ensemble.

    disk and segment instances satisfy their hypotheses by construction;
    ginibre and nilpotent draws are tested against the fixed user-supplied
    disk certificate, so hypothesis failures there are expected data.
    """
    p = cfg.params
    if cfg.ensemble == "disk":
        return gen_disk_instance(p["lam"], p["r"], cfg.n, seed)
    if cfg.ensemble == "segment":
        return gen_segment_instance(p["m"], p["M"], cfg.n, seed)
    cert = DiskCertificate(lam=p["lam"], r=p["r"])
    if cfg.ensemble == "ginibre":
        g = ginibre(cfg.n, np.random.default_rng(seed))
        return g / operator_norm(g), cert
    t = gen_nilpotent_instance(cfg.n, seed)
    return t, cert


def run_sweep(cfg: SweepConfig) -> tuple[dict, int]:
    """Run the ensemble and aggregate per-identifier slack statistics."""
    trial_seeds = np.random.default_rng(cfg.seed).integers(
        0, 2**63, size=cfg.trials, dtype=np.uint64
    )
    stats: dict[str, dict] = {}
    violations = 0
    for i in range(cfg.trials):
        t, cert = _sweep_instance(cfg, int(trial_seeds[i]))
        for rep in verify_all(t, [cert]):
            rec = stats.setdefault(
                rep.inequality_id,
                {"evaluated": 0, "hypothesis_failures": 0, "slacks": []},
            )
            rec["evaluated"] += 1
            if rep.hypothesis_ok:
                rec["slacks"].append(rep.slack)
                if rep.slack < -SLACK_TOL:
                    violations += 1
            else:
                rec["hypothesis_failures"] += 1
    table = {}
    for iid, rec in stats.items():
        slacks = rec["slacks"]
        table[iid] = {
            "evaluated": rec["evaluated"],
            "hypothesis_failures": rec["hypothesis_failures"],
            "min_slack": float(np.min(slacks)) if slacks else None,
            "median_slack": float(np.median(slacks)) if slacks else None,
        }
    params: dict = {}
    if cfg.params.get("lam") is not None:
        lam = complex(cfg.params["lam"])
        params["lambda"] = [lam.real, lam.imag]
        params["r"] = float(cfg.params["r"])
    if cfg.params.get("m") is not None:
        params["m"] = float(cfg.params["m"])
        params["M"] = float(cfg.params["M"])
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
    if (args.phi is None) != (args.varphi is None):
        raise ValueError("--phi and --varphi must be given together")
    if args.phi is not None:
        mode = OPERATOR_ORDER if args.order else ACCRETIVE
        certs.append(SectorPair(phi=args.phi, varphi=args.varphi, mode=mode))
    if not certs:
        raise ValueError("nothing to verify: pass --auto, --lambda/--r, or --phi/--varphi")
    reports = verify_all(a, certs)
    sys.stdout.write(reports_to_jsonl(reports))
    bad = any(rep.hypothesis_ok and rep.slack < -SLACK_TOL for rep in reports)
    return 1 if bad else 0


def cmd_sweep(args) -> int:
    params = {"lam": args.lam, "r": args.r, "m": args.m, "M": args.M}
    cfg = SweepConfig(
        ensemble=args.ensemble, n=args.n, trials=args.trials, seed=args.seed, params=params
    )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numrad",
        description="Numerical range, numerical radius, and reverse bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="radius, norm, and boundary CSV of a matrix")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--grid", type=int, default=512, help="boundary angles in the CSV (default 512)")
    p.add_argument("--out", default=None, help="boundary CSV path (default <matrix>.boundary.csv)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="evaluate the reverse bounds for given certificates")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--auto", action="store_true", help="fit a disk certificate first")
    p.add_argument("--lambda", dest="lam", type=parse_complex, default=None, metavar="RE,IM")
    p.add_argument("--r", type=float, default=None, help="disk radius")
    p.add_argument("--rho", type=float, default=None, help="claimed radius gap")
    p.add_argument("--phi", type=parse_complex, default=None, metavar="RE,IM")
    p.add_argument("--varphi", type=parse_complex, default=None, metavar="RE,IM")
    p.add_argument("--order", action="store_true", help="sector pair in operator-order mode")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="random ensemble sweep with aggregate slack stats")
    p.add_argument("--ensemble", choices=ENSEMBLES, required=True)
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=parse_complex, default=None, metavar="RE,IM")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--M", type=float, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("search", help="extremal random searches")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--problem", action="store_true", help="sqrt-disk feasibility search")
    group.add_argument("--equality", action="store_true", help="unit-disk equality probe")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("plot", help="SVG plot of the boundary with w and norm circles")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--grid", type=int, default=512, help="boundary angles (default 512)")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
