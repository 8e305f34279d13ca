#!/usr/bin/env python3
"""Numerical range basics: boundary, radius, and norm for a few matrices.

The numerical range W(A) is the set of Rayleigh quotients <Ax, x> over unit
vectors. This script sweeps its boundary for a handful of small matrices,
prints the radius w(A) and the operator norm, and writes a CSV and an SVG of
the nicest one. Run as `python demos/01_range_and_radius.py`.
"""

import numpy as np

from numrad import (
    numerical_radius,
    numerical_radius_oracle,
    operator_norm,
    range_summary,
    shift2,
)
from numrad.io import write_boundary_csv, write_boundary_svg

rng = np.random.default_rng(1)

cases = {
    "identity (W = {1})": np.eye(2),
    "diag(0, 1) (W = segment [0, 1])": np.diag([0.0, 1.0]),
    "two-dimensional shift (W = disk of radius 1/2)": shift2(),
    "random 4x4": rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
}

print("matrix                                            w(A)      ||A||    ||A||/w")
print("-" * 78)
for name, a in cases.items():
    w = numerical_radius(a)
    nrm = operator_norm(a)
    print(f"{name:48s}  {w:8.5f}  {nrm:8.5f}  {nrm / w:7.4f}")

# w <= ||A|| <= 2w for every matrix; the shift attains the right end.
s = shift2()
print()
print("the shift attains ||A|| = 2 w(A):", operator_norm(s), "=", 2 * numerical_radius(s))

# A quick cross-check of the radius: the oracle takes the best random Rayleigh
# quotients and refines them by a few ascent steps. Each is |<Ax, x>| of a
# unit vector, so it can only ever fall below the radius, and it comes close.
a = cases["random 4x4"]
lower = numerical_radius_oracle(a, 200_000, seed=0)
print(f"sampling lower bound {lower:.6f} <= certified radius {numerical_radius(a):.6f}")

# Boundary export: CSV of (theta, boundary point, support value) plus an SVG
# with the boundary polygon and the two reference circles.
summary = range_summary(a, n_theta=256)
write_boundary_csv("range_boundary.csv", summary.boundary)
write_boundary_svg("range_boundary.svg", summary)
print("wrote range_boundary.csv and range_boundary.svg")
