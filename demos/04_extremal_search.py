#!/usr/bin/env python3
"""Extremal searches around operators with orthogonal ranges.

A matrix with range(T) orthogonal to range(T*), equivalently T^2 = 0, has
w(T) = ||T||/2, the extreme of the radius-norm equivalence. The shift S2 is
the golden example. Two random searches probe how far such unit-norm
operators can push two disk constraints:

* the sqrt-disk search wants ||T - lambda I|| <= sqrt(lambda);
* the equality probe fixes lambda = 1 and wants ||T - I|| <= 1, the
  configuration where the disk gap bound would be attained with equality.

Both report the smallest violation score found (score 0 would exhibit a
feasible operator). For every T with T^2 = 0,
||T - lambda I|| = (||T|| + sqrt(||T||^2 + 4 |lambda|^2)) / 2, so no feasible
operator exists: a unit-norm candidate's sqrt-disk excess is at least 1/2,
at lambda = 1/2, and its equality-probe excess is (1 + sqrt(5))/2 - 1.
"""

import numpy as np

from numrad import (
    candidate_violations,
    numerical_radius,
    operator_norm,
    orthogonal_ranges_check,
    probe_equality_case,
    search_sqrt_disk,
    shift2,
)

s = shift2()
print("S2 has orthogonal ranges:", orthogonal_ranges_check(s))
print(f"w(S2) = {numerical_radius(s):.6f} = ||S2||/2 = {operator_norm(s) / 2:.6f}")

norm_dev, nilpotency, excess = candidate_violations(s, 1.0)
print(f"\nS2 against the unit disk at lambda = 1:")
print(f"  | ||T|| - 1 | = {norm_dev:.3g}, ||T^2|| = {nilpotency:.3g}, "
      f"||T - I|| - 1 = {excess:.6f}")
print(f"  (closed form: sqrt((3 + sqrt(5))/2) - 1 = {np.sqrt((3 + np.sqrt(5)) / 2) - 1:.6f})")

for n in (2, 3, 4):
    res = search_sqrt_disk(n, iters=20_000, seed=11)
    print(f"\nsqrt-disk search, n = {n}: best score {res.score:.6f} at lambda = {res.lam.real:.4f}")

print()
for n in (2, 3, 4):
    res = probe_equality_case(n, iters=20_000, seed=11)
    print(f"equality probe,   n = {n}: best score {res.score:.6f}")

print(
    "\nBoth searches bottom out at their closed forms: 0.5 at lambda = 0.5 and "
    "0.618, the S2 value. Every square-zero T has "
    "||T - lambda I|| = (||T|| + sqrt(||T||^2 + 4|lambda|^2))/2, so no "
    "feasible operator exists (excess >= 1/2)."
)
