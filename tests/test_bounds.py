"""Certificate checks, bound evaluators, and their consistency identities."""

import numpy as np
import pytest

from numrad import bounds
from numrad.bounds import (
    ACCRETIVE,
    OPERATOR_ORDER,
    DiskCertificate,
    DegenerateSector,
    InvalidInterval,
    InvalidRho,
    InvalidSector,
    SectorPair,
    ZeroOperator,
    check_disk,
    check_sector_hypothesis,
    eval_disk_bound,
    eval_disk_gap_weighted,
    eval_radius_ratio,
    eval_sector_gap,
    eval_sector_gap_weighted,
    eval_sector_ratio,
    eval_segment_bounds,
    optimize_lambda,
    ROWS,
    bound_table,
    sector_to_disk,
    verify_all,
)
from numrad.extremal import (
    gen_disk_instance,
    gen_nilpotent_instance,
    gen_segment_instance,
    ginibre,
    shift2,
)
from numrad.linalg import as_matrix, operator_norm, pow2_scaled, shifted_norms
from numrad.numrange import SEED_GRID, numerical_radius

ROW_IDS = [row.iid for row in ROWS]


def svd2_max(m):
    """Largest singular value of a 2x2 matrix from the characteristic
    polynomial of M*M (quadratic formula), independent of the LAPACK path."""
    g = m.conj().T @ m
    tr = g[0, 0].real + g[1, 1].real
    det = (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real
    disc = max(tr * tr / 4.0 - det, 0.0)
    return float(np.sqrt(tr / 2.0 + np.sqrt(disc)))


def rand_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ------------------------------------------------------------- certificates


def test_certificate_validation():
    with pytest.raises(ValueError):
        DiskCertificate(lam=0.0, r=1.0)
    with pytest.raises(ValueError):
        DiskCertificate(lam=1.0, r=0.0)
    with pytest.raises(ValueError):
        DiskCertificate(lam=1.0, r=-2.0)
    with pytest.raises(InvalidRho):
        DiskCertificate(lam=1.0, r=1.0, rho=-0.1)
    cert = DiskCertificate(lam=1 + 2j, r=0.5, rho=0.25)
    assert cert.lam == 1 + 2j and cert.r == 0.5 and cert.rho == 0.25


def test_sector_pair_modes_and_segment():
    with pytest.raises(ValueError):
        SectorPair(phi=1.0, varphi=2.0, mode="bogus")
    s = SectorPair.from_segment(1.0, 4.0)
    assert s.mode == OPERATOR_ORDER
    assert s.segment() == (1.0, 4.0)
    assert SectorPair(phi=1 + 1j, varphi=1 - 1j).segment() is None
    assert SectorPair.from_segment(1e-13, 4e-13).segment() == (1e-13, 4e-13)


# --------------------------------------------------------------- check_disk


def test_check_disk_trivial_center():
    ok, measured = check_disk(2.0 * np.eye(3), DiskCertificate(lam=2.0, r=0.1))
    assert ok and measured <= 1e-12


def test_check_disk_shift2_tight_fails():
    ok, measured = check_disk(shift2(), DiskCertificate(lam=1.0, r=1.0))
    assert not ok
    assert abs(measured - svd2_max(shift2() - np.eye(2))) <= 1e-12
    assert abs(measured - 1.618033988749895) <= 1e-9


def test_check_disk_shift2_loose_passes():
    ok, _ = check_disk(shift2(), DiskCertificate(lam=1.0, r=2.0))
    assert ok


def test_check_disk_tolerance_is_relative_to_r():
    # ||T - lambda I|| = 1e-12 ||S - I|| = 1.6e-12 is 16 r: the disk fails at
    # every scale, and no report resting on it claims its hypothesis.
    cert = DiskCertificate(lam=1e-12, r=1e-13)
    ok, measured = check_disk(1e-12 * shift2(), cert)
    assert not ok and measured > 16 * cert.r
    reports = verify_all(1e-12 * shift2(), [cert])
    assert len(reports) == 6 and not any(rep.hypothesis_ok for rep in reports)
    for scale in (1.0, 1e-12, 1e-150, 1e150):
        assert check_disk(scale * shift2(), DiskCertificate(lam=scale, r=1.62 * scale))[0]
        assert not check_disk(scale * shift2(), DiskCertificate(lam=scale, r=1.61 * scale))[0]


# ------------------------------------------------------------ sector checks


def test_sector_hypothesis_endpoints_annihilate():
    s = SectorPair(phi=2.0, varphi=1.0, mode=OPERATOR_ORDER)
    ok, min_eig = check_sector_hypothesis(np.diag([1.0, 2.0]), s)
    assert ok and abs(min_eig) <= 1e-12


def test_sector_hypothesis_spectrum_outside_fails():
    s = SectorPair(phi=2.0, varphi=1.0)
    ok, min_eig = check_sector_hypothesis(np.diag([0.0, 3.0]), s)
    assert not ok
    assert abs(min_eig - (-2.0)) <= 1e-12


def test_sector_hypothesis_constructed_segment():
    for seed in range(5):
        a, s = gen_segment_instance(1.0, 4.0, 5, seed)
        ok, min_eig = check_sector_hypothesis(a, s)
        assert ok and min_eig >= -1e-9


def test_sector_order_mode_rejects_nonnormal():
    # accretive holds but B is far from self-adjoint
    rng = np.random.default_rng(0)
    a = np.diag([1.0, 2.0]) + 0.05 * rand_matrix(rng, 2)
    s_acc = SectorPair(phi=4.0, varphi=0.1, mode=ACCRETIVE)
    s_ord = SectorPair(phi=4.0, varphi=0.1, mode=OPERATOR_ORDER)
    assert check_sector_hypothesis(a, s_acc)[0]
    assert not check_sector_hypothesis(a, s_ord)[0]


@pytest.mark.parametrize("mode", [ACCRETIVE, OPERATOR_ORDER])
def test_sector_hypothesis_verdict_is_scale_invariant(mode):
    # Unit scale: min eig -0.24 fails; at 1e-6 it is -2.4e-13, which only a
    # tolerance relative to the operands also rejects.
    outside = np.array([[1.0, 0.5], [0.0, 1.5]])
    inside, _ = gen_segment_instance(1.0, 4.0, 3, 0)
    for a, m, M, verdict in ((outside, 0.9, 1.6, False), (inside, 1.0, 4.0, True)):
        for scale in (1.0, 1e-6, 1e-150):
            s = SectorPair(scale * M, scale * m, mode)
            assert check_sector_hypothesis(scale * a, s)[0] is verdict


@pytest.mark.parametrize("k", [511, -511, -540, 600, -600])
def test_sector_hypothesis_is_exact_at_extreme_scales(k):
    # Unscaled, B overflows to inf near 2^511 (the Frobenius tolerance too)
    # and underflows to 0 near 2^-540, which passed the failing pair; at
    # 2^600 eigvalsh did not converge. Past 2^511 the scaled-back minimum
    # eigenvalue is +-inf or 0, but it is still 2^(2k) times the unit one.
    a, _ = gen_segment_instance(1.0, 4.0, 4, 3)
    s = 2.0**k
    with np.errstate(over="ignore"):
        for (m, M), verdict in (((2.0, 3.0), False), ((1.0, 4.0), True)):
            ok, unit = check_sector_hypothesis(a, SectorPair.from_segment(m, M))
            assert ok is verdict
            pair = SectorPair.from_segment(s * m, s * M)
            assert check_sector_hypothesis(s * a, pair) == (verdict, float(np.ldexp(unit, 2 * k)))
            stack = np.array([s * a, a, a / s])
            oks, values = check_sector_hypothesis(stack, pair)
            assert oks[0] == verdict
            assert list(zip(oks.tolist(), values.tolist())) == [
                check_sector_hypothesis(t, pair) for t in stack
            ]


def test_sector_to_disk():
    c = sector_to_disk(SectorPair(phi=2.0, varphi=1.0))
    assert c.lam == 1.5 and c.r == 0.5
    c = sector_to_disk(SectorPair(phi=1 + 1j, varphi=1 - 1j))
    assert c.lam == 1.0 and abs(c.r - 1.0) <= 1e-15
    c = sector_to_disk(SectorPair.from_segment(1.0, 4.0))
    assert c.lam == 2.5 and c.r == 1.5
    with pytest.raises(DegenerateSector):
        sector_to_disk(SectorPair(phi=1.0, varphi=1.0))
    with pytest.raises(DegenerateSector):
        sector_to_disk(SectorPair(phi=1.0, varphi=-1.0))


# ---------------------------------------------------------- disk evaluators


def test_disk_bound_scalar_matrix():
    rep_gap, rep_sq = eval_disk_bound(np.eye(2), DiskCertificate(lam=1.0, r=0.1))
    assert rep_gap.hypothesis_ok
    assert abs(rep_gap.lhs) <= 1e-12
    assert abs(rep_gap.rhs - 0.005) <= 1e-15
    assert rep_sq.slack >= 0


def test_disk_bound_shift2():
    rep_gap, rep_sq = eval_disk_bound(shift2(), DiskCertificate(lam=1.0, r=2.0))
    assert rep_gap.hypothesis_ok
    assert abs(rep_gap.lhs - 0.5) <= 1e-9
    assert abs(rep_gap.rhs - 2.0) <= 1e-15
    assert abs(rep_sq.lhs - 2.0) <= 1e-9
    assert abs(rep_sq.rhs - 5.0) <= 1e-9


def test_disk_bound_failed_hypothesis_is_data():
    rep_gap, rep_sq = eval_disk_bound(shift2(), DiskCertificate(lam=1.0, r=1.0))
    assert not rep_gap.hypothesis_ok and not rep_sq.hypothesis_ok
    assert "hypothesis failed" in rep_gap.diagnostic


def gap_squared(t, cert):
    """The C2_13 or R2_15 report of a disk certificate."""
    (rep,) = [rep for rep in verify_all(t, [cert]) if rep.inequality_id in ("C2_13", "R2_15")]
    return rep


def test_gap_squared_scalar_matrix():
    rep = gap_squared(np.eye(2), DiskCertificate(lam=1.0, r=0.3, rho=0.0))
    assert rep.inequality_id == "C2_13"
    assert rep.hypothesis_ok
    assert abs(rep.lhs) <= 1e-12
    assert abs(rep.rhs - 0.09) <= 1e-15


def test_gap_squared_shift2_center_at_radius():
    # center |lambda| = w(S2) = 0.5; measured distance is the certified radius
    r = operator_norm(shift2() - 0.5 * np.eye(2))
    assert abs(r - svd2_max(shift2() - 0.5 * np.eye(2))) <= 1e-12
    rep = gap_squared(shift2(), DiskCertificate(lam=0.5, r=r + 1e-12, rho=0.0))
    assert rep.hypothesis_ok
    assert abs(rep.lhs - 0.75) <= 1e-9
    assert rep.slack >= 0
    # auto mode recognizes the coincidence and reports the special case
    auto = gap_squared(shift2(), DiskCertificate(lam=0.5, r=r + 1e-12))
    assert auto.inequality_id == "R2_15"
    assert abs(auto.rhs - (r + 1e-12) ** 2) <= 1e-15


def test_gap_squared_overclaimed_rho_fails():
    rep = gap_squared(np.eye(2), DiskCertificate(lam=2.0, r=1.5, rho=1.5))
    assert not rep.hypothesis_ok  # | |lambda| - w | = 1 < claimed 1.5


@pytest.mark.parametrize("scale", [1e-12, 1e-150, 1e150])
def test_rho_and_center_coincidence_tolerances_are_relative(scale):
    # | |lambda| - w(S2) | is 0.5 |lambda| at every scale, so auto rho is
    # C2_13 and a claimed rho holds below that gap and fails above it; at
    # |lambda| = w = 0.5 |lambda| auto rho is the special case R2_15.
    t = scale * shift2()
    for lam, rho, iid, ok in [
        (1.0, None, "C2_13", True),
        (1.0, 0.4, "C2_13", True),
        (1.0, 0.6, "C2_13", False),
        (0.5, None, "R2_15", True),
    ]:
        cert = DiskCertificate(lam=lam * scale, r=2.0 * scale, rho=None if rho is None else rho * scale)
        rep = gap_squared(t, cert)
        assert (rep.inequality_id, rep.hypothesis_ok) == (iid, ok), (lam, rho)
        if rho is not None and not ok:
            assert "claimed rho" in rep.diagnostic


def test_gap_squared_auto_rho_away_from_center():
    rep = gap_squared(np.eye(2), DiskCertificate(lam=2.0, r=1.5))
    assert rep.inequality_id == "C2_13"
    assert rep.hypothesis_ok
    assert abs(rep.rhs - (1.5**2 - 1.0)) <= 1e-9


def test_radius_ratio_identity():
    rep_root, rep_sq = eval_radius_ratio(np.eye(2), DiskCertificate(lam=1.0, r=0.5))
    assert rep_root.hypothesis_ok
    assert abs(rep_root.lhs - np.sqrt(0.75)) <= 1e-15
    assert abs(rep_root.rhs - 1.0) <= 1e-9
    assert rep_root.refinement_flag is True
    assert rep_sq.slack >= 0


def test_radius_ratio_constructed_perturbation():
    rng = np.random.default_rng(1)
    c = ginibre(3, rng)
    c /= operator_norm(c)
    t = np.eye(3) + 0.1 * c
    rep_root, rep_sq = eval_radius_ratio(t, DiskCertificate(lam=1.0, r=0.1))
    assert rep_root.hypothesis_ok
    assert rep_root.slack >= -1e-8
    assert rep_sq.slack >= -1e-8


def test_radius_ratio_needs_center_larger_than_radius():
    rep_root, _ = eval_radius_ratio(np.eye(2), DiskCertificate(lam=1.0, r=1.0))
    assert not rep_root.hypothesis_ok


def test_radius_ratio_zero_operator_raises():
    with pytest.raises(ZeroOperator):
        eval_radius_ratio(np.zeros((2, 2)), DiskCertificate(lam=1.0, r=0.5))


def test_refinement_flag_threshold_is_exact():
    lam = 2.0
    r_at = lam * np.sqrt(3.0) / 2.0
    rep, _ = eval_radius_ratio(np.eye(2), DiskCertificate(lam=lam, r=r_at))
    assert rep.refinement_flag is True
    rep, _ = eval_radius_ratio(np.eye(2), DiskCertificate(lam=lam, r=np.nextafter(r_at, 4.0)))
    assert rep.refinement_flag is False


def test_weighted_gap_scalar_matrix():
    rep = eval_disk_gap_weighted(3.0 * np.eye(2), DiskCertificate(lam=3.0, r=0.5))
    assert rep.hypothesis_ok
    assert abs(rep.lhs) <= 1e-9
    assert rep.rhs >= 0


def test_weighted_gap_constructed_perturbation():
    rng = np.random.default_rng(2)
    c = ginibre(3, rng)
    c /= operator_norm(c)
    rep = eval_disk_gap_weighted(np.eye(3) + 0.3 * c, DiskCertificate(lam=1.0, r=0.3))
    assert rep.hypothesis_ok
    assert rep.slack >= -1e-8


def test_weighted_gap_requires_center_larger_than_radius():
    rep = eval_disk_gap_weighted(shift2(), DiskCertificate(lam=1.0, r=2.0))
    assert not rep.hypothesis_ok


# -------------------------------------------------------- sector evaluators


def test_sector_gap_diagonal():
    rep = eval_sector_gap(np.diag([1.0, 2.0]), SectorPair(phi=2.0, varphi=1.0, mode=OPERATOR_ORDER))
    assert rep.hypothesis_ok
    assert abs(rep.lhs) <= 1e-9
    assert abs(rep.rhs - 1.0 / 12.0) <= 1e-15


def test_sector_gap_segment_14():
    rep = eval_sector_gap(np.diag([1.0, 4.0]), SectorPair.from_segment(1.0, 4.0))
    assert rep.hypothesis_ok
    assert abs(rep.rhs - 0.45) <= 1e-15


def test_sector_gap_random_segment_instances():
    for seed in range(5):
        a, s = gen_segment_instance(1.0, 4.0, 4, seed)
        rep = eval_sector_gap(a, s)
        assert rep.hypothesis_ok
        assert rep.slack >= -1e-8


def test_sector_ratio_diagonal_cases():
    rep_root, rep_sq = eval_sector_ratio(
        np.diag([1.0, 4.0]), SectorPair.from_segment(1.0, 4.0)
    )
    assert rep_root.hypothesis_ok
    assert abs(rep_root.lhs - 0.8) <= 1e-15
    assert abs(rep_root.rhs - 1.0) <= 1e-9
    assert rep_sq.slack >= -1e-8

    rep_root, _ = eval_sector_ratio(
        np.diag([1.0, 2.0]), SectorPair(phi=2.0, varphi=1.0, mode=OPERATOR_ORDER)
    )
    assert abs(rep_root.lhs - 2.0 * np.sqrt(2.0) / 3.0) <= 1e-15


def test_sector_ratio_invalid_sector():
    with pytest.raises(InvalidSector):
        eval_sector_ratio(np.eye(2), SectorPair(phi=-1.0, varphi=1.0))


def test_sector_weighted_gap():
    rep = eval_sector_gap_weighted(np.diag([1.0, 4.0]), SectorPair.from_segment(1.0, 4.0))
    assert rep.hypothesis_ok
    assert abs(rep.lhs) <= 1e-8
    assert abs(rep.rhs - 4.0) <= 1e-9

    rep = eval_sector_gap_weighted(np.diag([1.0, 2.0]), SectorPair.from_segment(1.0, 2.0))
    assert abs(rep.rhs - (3.0 - 2.0 * np.sqrt(2.0)) * 2.0) <= 1e-9

    for seed in range(3):
        a, s = gen_segment_instance(0.5, 3.0, 4, seed)
        rep = eval_sector_gap_weighted(a, s)
        assert rep.hypothesis_ok and rep.slack >= -1e-8


def test_segment_bounds_diagonal():
    reps = eval_segment_bounds(np.diag([1.0, 4.0]), SectorPair.from_segment(1.0, 4.0))
    by_id = {rep.inequality_id: rep for rep in reps}
    assert set(by_id) == {"R4_9", "R4_10", "R4_11", "R4_12"}
    assert abs(by_id["R4_9"].lhs - 1.0) <= 1e-9
    assert by_id["R4_9"].rhs == 1.25
    assert by_id["R4_12"].rhs == 0.45
    assert all(rep.hypothesis_ok and rep.slack >= -1e-8 for rep in reps)


def test_segment_bounds_accretive_nonnormal():
    # Hermitian core with interior spectrum plus a small non-normal bump;
    # the margin keeps the accretivity hypothesis intact.
    rng = np.random.default_rng(3)
    a, _ = gen_segment_instance(1.5, 3.5, 4, 11)
    k = ginibre(4, rng)
    a = a + 0.02 * k / operator_norm(k)
    s = SectorPair(4.0, 1.0, ACCRETIVE)
    ok, _ = check_sector_hypothesis(a, s)
    assert ok
    reps = eval_segment_bounds(a, s)
    assert all(rep.hypothesis_ok for rep in reps)
    assert all(rep.slack >= -1e-8 for rep in reps)


def test_segment_bounds_invalid_intervals():
    with pytest.raises(InvalidInterval):
        eval_segment_bounds(np.eye(2), SectorPair.from_segment(-1.0, 4.0))
    with pytest.raises(InvalidInterval):
        eval_segment_bounds(np.eye(2), SectorPair(phi=1.0, varphi=4.0))  # M < m
    with pytest.raises(InvalidInterval):
        eval_segment_bounds(np.eye(2), SectorPair(phi=1 + 1j, varphi=1 - 1j))


def test_evaluators_raise_for_undefined_bounds():
    zero = np.zeros((2, 2))
    seg = SectorPair.from_segment(1.0, 4.0)
    opposite = SectorPair(phi=-1.0, varphi=1.0)
    for fn, a, cert, exc in [
        (eval_disk_gap_weighted, zero, DiskCertificate(lam=1.0, r=0.5), ZeroOperator),
        (eval_sector_ratio, zero, seg, ZeroOperator),
        (eval_sector_ratio, zero, opposite, InvalidSector),
        (eval_sector_gap_weighted, np.eye(2), opposite, InvalidSector),
        (eval_segment_bounds, zero, seg, ZeroOperator),
        (eval_segment_bounds, zero, SectorPair.from_segment(-1.0, 4.0), InvalidInterval),
    ]:
        with pytest.raises(exc):
            fn(a, cert)
    assert eval_sector_gap_weighted(zero, seg).inequality_id == "C4_6"


# ------------------------------------------------------------- verify_all


def test_verify_all_routing_disk():
    reps = verify_all(np.eye(2), [DiskCertificate(lam=1.0, r=0.5)])
    # |lambda| coincides with w here, so the squared-gap report lands on the
    # special case R2_15 instead of C2_13
    assert [rep.inequality_id for rep in reps] == ["T2_2", "E2_4", "R2_15", "T3_2", "R3_5", "T4_2"]
    reps = verify_all(np.eye(2), [DiskCertificate(lam=2.0, r=1.5)])
    assert [rep.inequality_id for rep in reps] == ["T2_2", "E2_4", "C2_13", "T3_2", "R3_5", "T4_2"]
    assert all(rep.hypothesis_ok for rep in reps)
    assert all(rep.slack >= -1e-8 for rep in reps)


def test_verify_all_empty():
    assert verify_all(np.eye(2), []) == []


def test_verify_all_failing_cert_reports_everything():
    reps = verify_all(shift2(), [DiskCertificate(lam=1.0, r=1.0)])
    assert len(reps) == 6
    assert all(not rep.hypothesis_ok for rep in reps)


def test_verify_all_sector_routing_and_order():
    a, s = gen_segment_instance(1.0, 4.0, 3, 0)
    reps = verify_all(a, [s, sector_to_disk(s)])
    ids = [rep.inequality_id for rep in reps]
    assert ids == sorted(ids, key=lambda i: ["T2_2", "E2_4", "C2_7", "C2_13", "R2_15",
                                             "T3_2", "R3_5", "C3_6", "C3_7", "T4_2",
                                             "C4_6", "R4_9", "R4_10", "R4_11", "R4_12"].index(i))
    assert {"C2_7", "C3_6", "C3_7", "C4_6", "R4_9", "R4_10", "R4_11", "R4_12"} <= set(ids)
    assert all(rep.slack >= -1e-8 for rep in reps if rep.hypothesis_ok)


def test_verify_all_zero_operator_skips_ratios():
    reps = verify_all(np.zeros((2, 2)), [DiskCertificate(lam=1.0, r=0.5)])
    ids = {rep.inequality_id for rep in reps}
    assert "T3_2" not in ids and "T4_2" not in ids
    assert "T2_2" in ids


def test_verify_all_zero_operator_keeps_c4_6():
    # C4_6 has no zero-norm precondition, unlike the ratio and segment bounds.
    reps = verify_all(np.zeros((2, 2)), [SectorPair.from_segment(1, 4)])
    assert [rep.inequality_id for rep in reps] == ["C2_7", "C4_6"]


@pytest.mark.parametrize("scale", [1e-15, 1e-150])
def test_verify_all_identifiers_are_scale_invariant(scale):
    a, _ = gen_segment_instance(1.0, 4.0, 3, 0)
    for t, cert, count in [
        (np.eye(2), DiskCertificate(lam=1.0, r=0.5), 6),
        (a, SectorPair.from_segment(1.0, 4.0), 8),
        # Not a real segment at any scale: only C2_7 is defined.
        (np.eye(2), SectorPair(phi=1 + 1j, varphi=1 - 1j), 1),
    ]:
        if isinstance(cert, DiskCertificate):
            small = DiskCertificate(lam=scale * cert.lam, r=scale * cert.r)
        else:
            small = SectorPair(scale * cert.phi, scale * cert.varphi, cert.mode)
        ids = [rep.inequality_id for rep in verify_all(t, [cert])]
        assert [rep.inequality_id for rep in verify_all(scale * t, [small])] == ids
        assert len(ids) == count


def test_verify_all_checks_each_hypothesis_once(monkeypatch):
    calls = []
    for name in ("check_disk", "check_sector_hypothesis"):
        checker = getattr(bounds, name)
        monkeypatch.setattr(
            bounds, name, lambda *args, _name=name, _fn=checker: calls.append(_name) or _fn(*args)
        )
    a, s = gen_segment_instance(1.0, 4.0, 3, 0)
    reps = verify_all(a, [s, sector_to_disk(s)])
    assert len(reps) == 14
    assert sorted(calls) == ["check_disk", "check_sector_hypothesis"]
    calls.clear()
    stack = np.array([a, 2.0 * a, a])
    rows = bound_table(stack, s) + bound_table(stack, sector_to_disk(s))
    assert sorted(calls) == ["check_disk", "check_sector_hypothesis"]
    assert sorted(row_entries(rows, 2), key=lambda e: ROW_IDS.index(e[0])) == report_entries(reps)


# Certificates of every kind: one that the disk draws pass, one with a rho,
# one that fails everywhere, a segment pair in both sector modes, a complex
# accretive pair and a degenerate pair.
STACK_CERTS = [
    DiskCertificate(lam=1 + 0.5j, r=0.4),
    DiskCertificate(lam=0.5, r=1.2, rho=0.1),
    DiskCertificate(lam=3.0, r=0.1),
    SectorPair.from_segment(1.0, 3.0),
    SectorPair(3.0, 1.0, ACCRETIVE),
    SectorPair(phi=2 + 1j, varphi=0.5 - 1j),
    SectorPair(phi=1.0, varphi=-1.0),
]


def mixed_stack(n, k):
    """A draw of every sweep ensemble, a zero matrix, and two of them scaled by 2^k."""
    g = ginibre(n, np.random.default_rng(60 + n))
    mats = [gen_disk_instance(1 + 0.5j, 0.4, n, 1)[0], gen_segment_instance(1.0, 3.0, n, 2)[0],
            g / operator_norm(g), np.zeros((n, n), dtype=complex)]
    if n >= 2:
        mats.append(gen_nilpotent_instance(n, 3))
    return np.array(mats + [mats[0] * 2.0**k, mats[2] * 2.0**k])


def row_entries(rows, i):
    """Entry i of each row that is defined there, as the fields of its report."""
    return [(b.iid, bool(b.ok[i]), float(b.lhs[i]), float(b.rhs[i]), float(b.slack[i]),
             float(b.scaled_slack[i]), bool(b.violated[i]), b.flag) for b in rows if b.defined[i]]


def report_entries(reps):
    return [(r.inequality_id, r.hypothesis_ok, r.lhs, r.rhs, r.slack, r.scaled_slack, r.violated,
             r.refinement_flag) for r in reps]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_stacked_verify_all_equals_one_matrix_at_a_time(n):
    # The stacked entry is bound_table; verify_all takes one matrix. At 2^600
    # the degree-2 sides (norm^2 and the like) are inf, alone as in a stack.
    for k in (-600, 600):
        stack = mixed_stack(n, k)
        for cert in STACK_CERTS:
            rows = bound_table(stack, cert)
            first = bound_table(stack[:1], cert)
            assert row_entries(first, 0) == row_entries(rows, 0)
            for i, t in enumerate(stack):
                assert row_entries(rows, i) == report_entries(verify_all(t, [cert]))
        for t in stack:
            reps = verify_all(t, STACK_CERTS)
            assert reps == sorted((rep for cert in STACK_CERTS for rep in verify_all(t, [cert])),
                                  key=lambda rep: ROW_IDS.index(rep.inequality_id))
            assert all(type(rep.w) is float and type(rep.norm) is float for rep in reps)
            assert verify_all(t, []) == []
        with pytest.raises(ValueError):
            verify_all(stack, STACK_CERTS)


@pytest.mark.parametrize("k", [600, -600])
def test_stacked_checks_equal_one_matrix_at_a_time(k):
    stack = mixed_stack(4, k)
    checks = [(check_disk, cert) for cert in STACK_CERTS[:3]]
    checks += [(check_sector_hypothesis, pair) for pair in STACK_CERTS[3:]]
    for check, cert in checks:
        # At 2^600 a sector check's minimum eigenvalue, about 2^1200, is inf.
        ok, value = check(stack, cert)
        alone = [check(t, cert) for t in stack]
        assert ok.shape == value.shape == (len(stack),)
        assert all(type(o) is bool and type(v) is float for o, v in alone)
        assert list(zip(ok.tolist(), value.tolist())) == alone
        assert not ok.all()


def test_stacked_table_rows_are_the_reports_of_each_matrix():
    stack = mixed_stack(4, -600)
    for cert in STACK_CERTS:
        rows = bound_table(stack, cert)
        assert [b.iid for b in rows] == sorted((b.iid for b in rows), key=ROW_IDS.index)
        for i, t in enumerate(stack):
            assert row_entries(rows, i) == report_entries(verify_all(t, [cert]))
            assert not any(b.violated[i] for b in rows if b.defined[i])


# --------------------------------------------- extreme scales (pow2-scaled table)


def test_segment_bounds_at_small_scale():
    # Unscaled, sqrt(m * M) underflowed to 0 at 2^-540 and R4_9 divided by it.
    a, _ = gen_segment_instance(1.0, 4.0, 4, 3)
    unit = verify_all(a, [SectorPair.from_segment(1.0, 4.0)])
    s = 2.0**-540
    reps = verify_all(s * a, [SectorPair.from_segment(s, 4 * s)])
    assert [rep.inequality_id for rep in reps] == [rep.inequality_id for rep in unit]
    assert len(reps) == 8 and all(rep.hypothesis_ok and not rep.violated for rep in reps)
    by_id = {rep.inequality_id: rep for rep in reps}
    for rep in unit:
        if rep.inequality_id == "R4_9":  # degree 0
            assert by_id["R4_9"].rhs == rep.rhs == 1.25


@pytest.mark.parametrize("k", [-540, -300, 0, 300, 540])
def test_sector_identifiers_do_not_depend_on_scale(k):
    # Unscaled, Re(phi conj(varphi)) underflowed to 0 at 2^-540, which dropped
    # C3_6, C3_7 and C4_6 as an invalid sector without a word.
    a, _ = gen_segment_instance(1.0, 4.0, 4, 3)
    s = 2.0**k
    # The check's minimum eigenvalue at 2^540 is inf, and no warning.
    reps = verify_all(s * a, [SectorPair((4 + 0.001j) * s, s)])
    assert [rep.inequality_id for rep in reps] == ["C2_7", "C3_6", "C3_7", "C4_6"]


def test_reports_survive_norms_near_the_top_of_the_double_range():
    # Unscaled, r**2 raised OverflowError at ||A|| of about 1e154 and every
    # report was lost; now each side that exceeds the double range is inf.
    t, _ = gen_disk_instance(2.5, 2.0, 4, 0)
    unit = verify_all(t, [DiskCertificate(2.5, 2.0)])
    reps = verify_all(1e154 * t, [DiskCertificate(2.5e154, 2e154)])
    assert [(rep.inequality_id, rep.hypothesis_ok) for rep in reps] == [
        (rep.inequality_id, rep.hypothesis_ok) for rep in unit
    ]
    by_id = {rep.inequality_id: rep for rep in reps}
    assert by_id["E2_4"].rhs == np.inf and by_id["T2_2"].rhs == pytest.approx(8e153, rel=1e-15)
    assert by_id["T3_2"].lhs == pytest.approx(0.6, rel=1e-15)
    assert not any(rep.violated for rep in reps)


# ------------------------------------------------------ consistency checks


def test_sector_gap_matches_disk_route():
    rng = np.random.default_rng(4)
    for seed in range(10):
        a, s = gen_segment_instance(0.8, 3.0, 3, seed)
        # rotate to a genuinely complex pair; the hypothesis is invariant
        ph = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        a2 = ph * a
        s2 = SectorPair(phi=ph * s.phi, varphi=ph * s.varphi, mode=s.mode)
        w = numerical_radius(a2)
        nrm = operator_norm(a2)
        rep_sector = eval_sector_gap(a2, s2, w=w, norm=nrm)
        rep_disk, _ = eval_disk_bound(a2, sector_to_disk(s2), w=w, norm=nrm)
        assert rep_sector.lhs == rep_disk.lhs
        assert abs(rep_sector.rhs - rep_disk.rhs) <= 1e-12
        assert rep_sector.hypothesis_ok and rep_disk.hypothesis_ok


def test_sector_disk_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        phi = complex(rng.standard_normal(), rng.standard_normal())
        varphi = complex(rng.standard_normal(), rng.standard_normal())
        if phi in (varphi, -varphi):
            continue
        cert = sector_to_disk(SectorPair(phi=phi, varphi=varphi))
        lhs = abs(cert.lam) ** 2 - cert.r**2
        assert abs(lhs - (phi * np.conj(varphi)).real) <= 1e-12


def test_gap_chain_identity():
    # T2_2 slack equals (E2_4 slack + (norm - |lambda|)^2) / (2 |lambda|)
    for seed in range(10):
        t, cert = gen_disk_instance(1.0 + 0.5j, 0.4, 4, seed)
        rep_gap, rep_sq = eval_disk_bound(t, cert)
        alam = abs(cert.lam)
        derived = (rep_sq.slack + (rep_gap.norm - alam) ** 2) / (2.0 * alam)
        assert abs(rep_gap.slack - derived) <= 1e-9
        assert rep_sq.slack >= -1e-8 and rep_gap.slack >= -1e-8


def test_rhs_monotone_in_radius():
    t, _ = gen_disk_instance(2.0, 0.1, 3, 0)
    w = numerical_radius(t)
    nrm = operator_norm(t)
    last = {"T2_2": -np.inf, "R3_5": -np.inf, "T4_2": -np.inf}
    for r in np.linspace(0.1, 1.9, 10):
        cert = DiskCertificate(lam=2.0, r=float(r))
        rep_gap, _ = eval_disk_bound(t, cert, w=w, norm=nrm)
        _, rep_sq = eval_radius_ratio(t, cert, w=w, norm=nrm)
        rep_wt = eval_disk_gap_weighted(t, cert, w=w, norm=nrm)
        for rep in (rep_gap, rep_sq, rep_wt):
            assert rep.rhs >= last[rep.inequality_id]
            last[rep.inequality_id] = rep.rhs


def test_soundness_mini_sweep():
    violations = 0
    for seed in range(40):
        t, cert = gen_disk_instance(1.0, 0.5, 3, seed)
        for rep in verify_all(t, [cert]):
            if rep.hypothesis_ok and rep.slack < -1e-8:
                violations += 1
    for seed in range(40):
        a, s = gen_segment_instance(0.5, 2.5, 3, seed)
        for rep in verify_all(a, [s]):
            if rep.hypothesis_ok and rep.slack < -1e-8:
                violations += 1
    assert violations == 0


# ---------------------------------------------------------- optimize_lambda


def test_optimize_lambda_two_point_spectrum():
    # for a diagonal matrix the distance is max_i |d_i - lambda|, whose
    # minimizer over {0, 1} is the midpoint (smallest enclosing disk)
    cert = optimize_lambda(np.diag([0.0, 1.0]))
    assert abs(cert.lam - 0.5) <= 1e-6
    assert abs(cert.r - 0.5) <= 1e-6
    ok, _ = check_disk(np.diag([0.0, 1.0]), cert)
    assert ok


def test_optimize_lambda_scalar_matrix():
    cert = optimize_lambda(0.7 * np.eye(3))
    assert abs(cert.lam - 0.7) <= 1e-6
    assert cert.r <= 1e-6
    assert cert.lam != 0


def test_optimize_lambda_shift2_no_worse_than_origin():
    cert = optimize_lambda(shift2())
    baseline = operator_norm(shift2())  # distance at the origin
    assert cert.r <= baseline + 1e-6
    assert cert.lam != 0
    ok, _ = check_disk(shift2(), cert)
    assert ok


def test_optimize_lambda_is_exactly_scale_equivariant():
    t, _ = gen_disk_instance(1.5 + 0.5j, 0.3, 4, 0)
    cert = optimize_lambda(t)
    for k in (1, -1, 300, -300, 1000, -1000):
        scaled = np.ldexp(t.real, k) + 1j * np.ldexp(t.imag, k)
        got = optimize_lambda(scaled)
        assert got.lam == complex(np.ldexp(cert.lam.real, k), np.ldexp(cert.lam.imag, k))
        assert got.r == np.ldexp(cert.r, k)
        assert check_disk(scaled, got)[0]


def dense_kinds(seed, n=32):
    """One matrix of each kind perfbench's dense workload cycles through:
    Ginibre, Hermitian, square-zero and disk-concentrated."""
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    square_zero = np.zeros((n, n), dtype=complex)
    square_zero[n // 2 :, : n // 2] = g[n // 2 :, : n // 2]
    disk = (1.5 - 0.8j) * np.eye(n) + 0.1 * g / np.linalg.norm(g, 2)
    return [g, 0.5 * (g + g.conj().T), square_zero, disk]


def small_matrices(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return [g, g + g.conj().T, np.triu(g), 0.7 * np.eye(n) + 1e-9 * g]


LAMBDA_MATRICES = [
    *dense_kinds(31),
    *(a for seed in range(6) for a in small_matrices(seed)),
    np.zeros((3, 3)),
]


def lambda_grid(t):
    """(candidates, cap) of optimize_lambda's seed grid for a pow2-scaled T."""
    cap = 2.0 * operator_norm(t) or 1e-6
    xs = np.linspace(-cap, cap, 32)
    re, im = np.meshgrid(xs, xs)
    cand = (re + 1j * im).ravel()
    return cand[np.abs(cand) <= cap], cap


def full_grid_lambda(t):
    """optimize_lambda measuring every grid candidate: the reference for the pruned grid."""
    t, e = pow2_scaled(as_matrix(t))
    cand, cap = lambda_grid(t)
    vals = shifted_norms(t, cand)
    k = int(np.argmin(vals))
    lam, best = complex(cand[k]), float(vals[k])
    step = 2.0 * cap / 31
    while step > 1e-8:
        moves = np.array([lam + step, lam - step, lam + 1j * step, lam - 1j * step])
        mv = shifted_norms(t, moves)
        j = int(np.argmin(mv))
        if mv[j] < best and moves[j] != 0:
            lam, best = complex(moves[j]), float(mv[j])
        else:
            step *= 0.5
    lam = complex(np.ldexp(lam.real, e), np.ldexp(lam.imag, e))
    return DiskCertificate(lam=lam, r=float(np.ldexp(best + 1e-9, e)))


@pytest.mark.parametrize("a", LAMBDA_MATRICES)
def test_optimize_lambda_is_bit_identical_to_the_full_grid(a, monkeypatch):
    sizes = []

    def recording(t, lams):
        sizes.append(len(lams))
        return shifted_norms(t, lams)

    monkeypatch.setattr(bounds, "shifted_norms", recording)
    cert = optimize_lambda(a)
    ref = full_grid_lambda(a)
    assert (cert.lam, cert.r) == (ref.lam, ref.r)
    # The support-line bound prunes all but a few of the ~740 grid candidates.
    assert max(sizes) <= 64


@pytest.mark.parametrize("a", LAMBDA_MATRICES)
def test_support_line_bound_never_exceeds_the_norm(a):
    t, _ = pow2_scaled(as_matrix(a))
    cand, cap = lambda_grid(t)
    ph = np.exp(1j * np.arange(SEED_GRID) * (2.0 * np.pi / SEED_GRID))
    h = np.linalg.eigvalsh(0.5 * (ph[:, None, None] * t + ph.conj()[:, None, None] * t.conj().T))
    lb = (h[:, -1] - (cand[:, None] * ph).real).max(axis=1)
    # Rounding only: far below optimize_lambda's pruning margin.
    assert np.all(lb <= shifted_norms(t, cand) + 16 * np.finfo(float).eps * cap)
