"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings. Every tolerance is asserted exactly as stated; stated runtime
budgets are asserted as well. Master seeds are fixed so the whole suite is
deterministic.
"""

import time

import numpy as np
import pytest

from numrad.bounds import (
    DiskCertificate,
    SectorPair,
    eval_disk_bound,
    eval_disk_gap_weighted,
    eval_radius_ratio,
    eval_sector_gap,
    eval_sector_gap_weighted,
    eval_sector_ratio,
    eval_segment_bounds,
    sector_to_disk,
)
from numrad.extremal import (
    candidate_violations,
    gen_disk_instance,
    gen_nilpotent_instance,
    gen_segment_instance,
    probe_equality_case,
    shift2,
)
from numrad.linalg import hermitian_eigen, operator_norm
from numrad.numrange import (
    is_convex_polyline,
    numerical_radius,
    numerical_radius_oracle,
    numerical_range_boundary,
)

SLACK_TOL = 1e-8
SQRT3_HALF = np.sqrt(3.0) / 2.0


def _line(num, ok, detail):
    msg = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(msg)
    return msg


def rand_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_c01_golden_shift():
    t0 = time.perf_counter()
    s = shift2()
    w = numerical_radius(s)
    nrm = operator_norm(s)
    dt = time.perf_counter() - t0
    ok = abs(w - 0.5) <= 1e-9 and abs(nrm - 1.0) <= 1e-12 and dt < 1.0
    msg = _line(1, ok, f"w={w:.12g} (0.5 +- 1e-9), norm={nrm:.12g} (1 +- 1e-12), {dt:.2f}s")
    assert ok, msg


def test_c02_norm_equivalence_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    trials = 10_000
    bad = 0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        a = rand_matrix(rng, n)
        w = numerical_radius(a)
        nrm = operator_norm(a)
        if not (w <= nrm + 1e-9 and nrm <= 2.0 * w + 1e-9):
            bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 60.0
    msg = _line(2, ok, f"sandwich held in {trials - bad}/{trials} trials, {dt:.1f}s (budget 60s)")
    assert ok, msg


def test_c03_oracle_equivalence():
    # The oracle refines its best uniform draws by two monotone ascent steps
    # of |<Ax, x>| on the unit sphere; its value stays the Rayleigh quotient
    # of an explicit unit vector, so it can only fall short of the radius.
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    trials = 200
    worst_gap = 0.0
    above = 0
    for trial in range(trials):
        n = int(rng.integers(1, 4))
        a = rand_matrix(rng, n)
        a /= operator_norm(a)
        w = numerical_radius(a)
        lower = numerical_radius_oracle(a, 10**6, seed=trial)
        if lower > w + 1e-9:
            above += 1
        worst_gap = max(worst_gap, w - lower)
    dt = time.perf_counter() - t0
    ok = above == 0 and worst_gap <= 1e-3 and dt < 120.0
    msg = _line(
        3,
        ok,
        f"max gap {worst_gap:.3e} (tol 1e-3), oracle above radius in {above} trials, "
        f"{dt:.1f}s (budget 120s)",
    )
    assert ok, msg


def test_c04_disk_bound_soundness_sweep():
    t0 = time.perf_counter()
    master = np.random.default_rng(4)
    combos = [(amp, r) for amp in (0.5, 1.0, 2.0) for r in (0.1, 0.5, None)]
    per_combo = 1112  # 9 combos -> 10008 instances
    bad = 0
    total = 0
    for amp, r_fixed in combos:
        r = 0.9 * amp if r_fixed is None else r_fixed
        for _ in range(per_combo):
            lam = amp * np.exp(2j * np.pi * master.uniform())
            t, cert = gen_disk_instance(lam, r, 4, int(master.integers(2**63)))
            w = numerical_radius(t)
            nrm = operator_norm(t)
            for rep in eval_disk_bound(t, cert, w=w, norm=nrm):
                total += 1
                if not rep.hypothesis_ok or rep.slack < -SLACK_TOL:
                    bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 120.0
    msg = _line(4, ok, f"{total} disk-gap reports, {bad} violations, {dt:.1f}s (budget 120s)")
    assert ok, msg


def test_c05_sector_disk_consistency():
    t0 = time.perf_counter()
    master = np.random.default_rng(5)
    worst_rhs = 0.0
    worst_id = 0.0
    for _ in range(1000):
        m = float(master.uniform(0.2, 1.5))
        big = m + float(master.uniform(0.05, 2.0))
        a, s = gen_segment_instance(m, big, 2, int(master.integers(2**63)))
        ph = np.exp(1j * master.uniform(0.0, 2.0 * np.pi))
        a2 = ph * a
        s2 = SectorPair(phi=ph * s.phi, varphi=ph * s.varphi, mode=s.mode)
        w = numerical_radius(a2)
        nrm = operator_norm(a2)
        rep_sector = eval_sector_gap(a2, s2, w=w, norm=nrm)
        cert = sector_to_disk(s2)
        rep_disk, _ = eval_disk_bound(a2, cert, w=w, norm=nrm)
        worst_rhs = max(worst_rhs, abs(rep_sector.rhs - rep_disk.rhs))
        identity_dev = abs(
            (abs(cert.lam) ** 2 - cert.r**2) - (s2.phi * np.conj(s2.varphi)).real
        )
        worst_id = max(worst_id, identity_dev)
    dt = time.perf_counter() - t0
    ok = worst_rhs <= 1e-12 and worst_id <= 1e-12
    msg = _line(
        5,
        ok,
        f"rhs route deviation {worst_rhs:.2e}, center-radius identity deviation "
        f"{worst_id:.2e} (tol 1e-12 each), {dt:.1f}s",
    )
    assert ok, msg


def test_c06_ratio_and_weighted_soundness():
    t0 = time.perf_counter()
    master = np.random.default_rng(6)
    bad = 0
    flag_bad = 0
    total = 0

    combos = [
        (0.5, 0.1), (0.5, 0.45), (1.0, 0.1), (1.0, 0.5),
        (1.0, 0.9), (2.0, 0.1), (2.0, 0.5), (2.0, 1.8),
    ]
    for amp, r in combos:  # 8 combos x 1250 = 10^4 disk instances
        for _ in range(1250):
            lam = amp * np.exp(2j * np.pi * master.uniform())
            t, cert = gen_disk_instance(lam, r, 4, int(master.integers(2**63)))
            w = numerical_radius(t)
            nrm = operator_norm(t)
            rep_root, rep_sq = eval_radius_ratio(t, cert, w=w, norm=nrm)
            rep_wt = eval_disk_gap_weighted(t, cert, w=w, norm=nrm)
            expected_flag = cert.r <= SQRT3_HALF * abs(cert.lam)
            for rep in (rep_root, rep_sq, rep_wt):
                total += 1
                if not rep.hypothesis_ok or rep.slack < -SLACK_TOL:
                    bad += 1
            if rep_root.refinement_flag != expected_flag or rep_sq.refinement_flag != expected_flag:
                flag_bad += 1

    for _ in range(10_000):  # sector instances, rotated to complex pairs
        m = float(master.uniform(0.2, 1.5))
        big = m + float(master.uniform(0.05, 2.5))
        a, s = gen_segment_instance(m, big, 4, int(master.integers(2**63)))
        ph = np.exp(1j * master.uniform(0.0, 2.0 * np.pi))
        a2 = ph * a
        s2 = SectorPair(phi=ph * s.phi, varphi=ph * s.varphi, mode=s.mode)
        w = numerical_radius(a2)
        nrm = operator_norm(a2)
        rep_root, rep_sq = eval_sector_ratio(a2, s2, w=w, norm=nrm)
        rep_wt = eval_sector_gap_weighted(a2, s2, w=w, norm=nrm)
        expected_flag = abs(s2.phi - s2.varphi) <= SQRT3_HALF * abs(s2.phi + s2.varphi)
        for rep in (rep_root, rep_sq, rep_wt):
            total += 1
            if not rep.hypothesis_ok or rep.slack < -SLACK_TOL:
                bad += 1
        if rep_root.refinement_flag != expected_flag or rep_sq.refinement_flag != expected_flag:
            flag_bad += 1

    dt = time.perf_counter() - t0
    ok = bad == 0 and flag_bad == 0
    msg = _line(
        6,
        ok,
        f"{total} ratio/weighted reports, {bad} slack violations, "
        f"{flag_bad} refinement-flag mismatches, {dt:.1f}s",
    )
    assert ok, msg


def test_c07_segment_bounds_on_1_4():
    t0 = time.perf_counter()
    master = np.random.default_rng(7)
    bad = 0
    rhs_exact = True
    lhs_dev = 0.0
    for _ in range(1000):
        a, s = gen_segment_instance(1.0, 4.0, 4, int(master.integers(2**63)))
        w = numerical_radius(a)
        nrm = operator_norm(a)
        reps = {rep.inequality_id: rep for rep in eval_segment_bounds(a, s, w=w, norm=nrm)}
        if reps["R4_9"].rhs != 1.25 or reps["R4_12"].rhs != 0.45:
            rhs_exact = False
        lhs_dev = max(
            lhs_dev,
            abs(reps["R4_9"].lhs - 1.0),
            abs(reps["R4_10"].lhs),
            abs(reps["R4_11"].lhs),
            abs(reps["R4_12"].lhs),
        )
        for rep in reps.values():
            if not rep.hypothesis_ok or rep.slack < -SLACK_TOL:
                bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and rhs_exact and lhs_dev <= 1e-9
    msg = _line(
        7,
        ok,
        f"rhs exact (1.25, 0.45): {rhs_exact}, max deviation of Hermitian lhs "
        f"{lhs_dev:.2e} (tol 1e-9), {bad} violations, {dt:.1f}s",
    )
    assert ok, msg


def test_c08_half_norm_for_square_zero():
    t0 = time.perf_counter()
    master = np.random.default_rng(8)
    trials = 1000
    bad = 0
    for _ in range(trials):
        n = int(master.integers(2, 7))
        t = gen_nilpotent_instance(n, int(master.integers(2**63)))
        if abs(numerical_radius(t) - 0.5 * operator_norm(t)) > 1e-8:
            bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0
    msg = _line(8, ok, f"|w - norm/2| <= 1e-8 in {trials - bad}/{trials} trials, {dt:.1f}s")
    assert ok, msg


def test_c09_selfadjoint_and_convexity():
    t0 = time.perf_counter()
    master = np.random.default_rng(9)
    bad_imag = 0
    bad_radius = 0
    bad_convex = 0
    for _ in range(1000):
        n = int(master.integers(2, 7))
        g = rand_matrix(master, n)
        a = 0.5 * (g + g.conj().T)
        b = numerical_range_boundary(a, 64)
        if np.max(np.abs(b.points.imag)) > 1e-9:
            bad_imag += 1
        vals = hermitian_eigen(a).values
        expected = max(abs(vals[0]), abs(vals[-1]))
        if abs(numerical_radius(a) - expected) > 1e-9:
            bad_radius += 1
    for _ in range(1000):
        n = int(master.integers(2, 7))
        b = numerical_range_boundary(rand_matrix(master, n), 64)
        if not is_convex_polyline(b.points, tol=1e-9):
            bad_convex += 1
    dt = time.perf_counter() - t0
    ok = bad_imag == 0 and bad_radius == 0 and bad_convex == 0
    msg = _line(
        9,
        ok,
        f"Hermitian: {bad_imag} imag, {bad_radius} radius mismatches; "
        f"general: {bad_convex} non-convex boundaries; {dt:.1f}s",
    )
    assert ok, msg


def test_c10_equality_probe():
    t0 = time.perf_counter()
    scores = {}
    deterministic = True
    for n in (2, 3, 4):
        r1 = probe_equality_case(n, 100_000, seed=7)
        r2 = probe_equality_case(n, 100_000, seed=7)
        same = (
            np.array_equal(r1.candidate, r2.candidate)
            and r1.lam == r2.lam
            and (r1.norm_dev, r1.nilpotency, r1.disk_excess)
            == (r2.norm_dev, r2.nilpotency, r2.disk_excess)
        )
        deterministic = deterministic and same
        scores[n] = r1.score
    # closed-form baseline: the squared singular values of S2 - I are
    # (3 +- sqrt(5)) / 2, so the distance overshoot is sqrt((3+sqrt(5))/2) - 1
    _, _, s2_excess = candidate_violations(shift2(), 1.0)
    baseline = float(np.sqrt((3.0 + np.sqrt(5.0)) / 2.0) - 1.0)
    base_ok = abs(s2_excess - baseline) <= 1e-3 and abs(s2_excess - 0.618) <= 1e-3
    dt = time.perf_counter() - t0
    ok = deterministic and base_ok
    msg = _line(
        10,
        ok,
        f"deterministic per seed: {deterministic}; S2 baseline excess {s2_excess:.6f} "
        f"(oracle {baseline:.6f} +- 1e-3); best scores "
        + ", ".join(f"n={n}: {s:.4f}" for n, s in scores.items())
        + f"; {dt:.1f}s",
    )
    assert ok, msg
