#!/usr/bin/env python3
"""Ensemble sweeps: slack statistics over thousands of random instances.

The bounds are theorems, so on every instance whose hypothesis holds the
slack must be nonnegative; a sweep that finds a negative slack beyond
tolerance has found an implementation bug, not new mathematics. This script
runs two small sweeps through the same machinery the CLI uses and prints the
aggregates. The equivalent CLI calls:

    numrad sweep --ensemble disk --n 4 --trials 2000 --seed 7 --lambda 1,0 --r 0.5
    numrad sweep --ensemble segment --n 4 --trials 1000 --seed 7 --m 1 --M 4
"""

import json

from numrad import DiskCertificate, SectorPair
from numrad.cli import SweepConfig, run_sweep

for cfg in (
    SweepConfig(ensemble="disk", n=4, trials=2000, seed=7, cert=DiskCertificate(lam=1.0, r=0.5)),
    SweepConfig(ensemble="segment", n=4, trials=1000, seed=7, cert=SectorPair.from_segment(1.0, 4.0)),
    # random unit-norm matrices against a fixed certificate: most draws fail
    # the hypothesis, and the aggregate records exactly how many
    SweepConfig(ensemble="ginibre", n=4, trials=500, seed=7, cert=DiskCertificate(lam=1.0, r=0.5)),
):
    aggregate, exit_code = run_sweep(cfg)
    print(f"=== {cfg.ensemble} ensemble, {cfg.trials} trials ===")
    print(json.dumps(aggregate["inequalities"], indent=2))
    print(f"slack violations: {aggregate['slack_violations']} (exit code {exit_code})\n")
