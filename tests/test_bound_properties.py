"""Property tests of the bound table, drawn with hypothesis.

Every report must be equivariant under 2^k scaling of the matrix and the
certificate, invariant under a unitary change of basis, under the adjoint
(with the certificate conjugated) and under a rotation e^{i alpha} A (with
the certificate rotated), and a row of the stacked table must hold exactly
what verify_all reports for its matrix alone. A sector pair and its
equivalent disk must get one verdict. The examples are derandomized, so a
run is reproducible and writes no example database.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from numrad.bounds import (ACCRETIVE, DISK_TOL, DiskCertificate, SectorPair, bound_table, check_disk,
                           check_sector_hypothesis, sector_to_disk, verify_all)
from numrad.extremal import gen_disk_instance, gen_segment_instance, ginibre, random_unitary
from numrad.linalg import operator_norm
from test_bounds import report_entries, row_entries

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
DEGREE = {"T2_2": 1, "E2_4": 2, "C2_7": 1, "C2_13": 2, "R2_15": 2, "T3_2": 0, "R3_5": 2, "C3_6": 0,
          "C3_7": 2, "T4_2": 2, "C4_6": 2, "R4_9": 0, "R4_10": 1, "R4_11": 2, "R4_12": 1}
KINDS = ("disk", "disk_rho", "ginibre", "segment", "sector")


def instance(kind, n, seed):
    """(matrix, certificate) of one kind: the sweep ensembles, a claimed rho and a complex pair."""
    g = ginibre(n, np.random.default_rng(seed))
    g = g / operator_norm(g)
    if kind == "disk":
        return gen_disk_instance(1 + 0.5j, 0.4, n, seed)
    if kind == "disk_rho":
        return gen_disk_instance(1 + 0.5j, 0.4, n, seed)[0], DiskCertificate(1 + 0.5j, 0.4, rho=0.05)
    if kind == "ginibre":
        return g, DiskCertificate(0.5, 1.2)
    if kind == "segment":
        return gen_segment_instance(1.0, 3.0, n, seed)
    return 2.0 * np.eye(n) + 0.8 * g, SectorPair(3.0 + 0.5j, 1.0 - 0.5j, ACCRETIVE)


def transformed(cert, f):
    """cert with its center or endpoints mapped by f and its lengths by |f(1)|."""
    if isinstance(cert, DiskCertificate):
        s = abs(f(1.0))
        return DiskCertificate(f(cert.lam), s * cert.r, None if cert.rho is None else s * cert.rho)
    return SectorPair(f(cert.phi), f(cert.varphi), cert.mode)


def assert_close(reps, ref, rtol, unit=lambda rep, x: x):
    """Same identifiers, verdicts and flags; each side and slack, mapped back by unit, within
    rtol of max(|lhs|, |rhs|) of the reference report."""
    assert [(r.inequality_id, r.hypothesis_ok, r.refinement_flag, r.violated) for r in reps] == [
        (r.inequality_id, r.hypothesis_ok, r.refinement_flag, r.violated) for r in ref
    ]
    for rep, want in zip(reps, ref):
        scale = max(abs(want.lhs), abs(want.rhs))
        for got, exp in ((rep.lhs, want.lhs), (rep.rhs, want.rhs), (rep.slack, want.slack)):
            assert abs(unit(rep, got) - exp) <= rtol * scale, (rep.inequality_id, got, exp)


kinds = st.sampled_from(KINDS)
sizes = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)


@SETTINGS
@given(kinds, sizes, seeds, st.integers(-500, 500))
def test_reports_are_equivariant_under_powers_of_two(kind, n, seed, k):
    t, cert = instance(kind, n, seed)
    s = 2.0**k
    reps = verify_all(s * t, [transformed(cert, lambda z: s * z)])
    ref = verify_all(t, [cert])
    assert_close(reps, ref, 1e-12, lambda rep, x: np.ldexp(x, -DEGREE[rep.inequality_id] * k))


@SETTINGS
@given(kinds, st.integers(2, 4), seeds)
def test_reports_are_invariant_under_a_unitary_change_of_basis(kind, n, seed):
    t, cert = instance(kind, n, seed)
    u = random_unitary(n, np.random.default_rng([seed, 1]))
    assert_close(verify_all(u @ t @ u.conj().T, [cert]), verify_all(t, [cert]), 1e-12)


@SETTINGS
@given(kinds, sizes, seeds)
def test_reports_are_invariant_under_the_adjoint(kind, n, seed):
    t, cert = instance(kind, n, seed)
    assert_close(verify_all(t.conj().T, [transformed(cert, np.conj)]), verify_all(t, [cert]), 1e-12)


@SETTINGS
@given(st.sampled_from(("disk", "disk_rho", "ginibre", "sector")), sizes, seeds, st.floats(0, 2 * np.pi))
def test_reports_are_invariant_under_a_rotation(kind, n, seed, alpha):
    # A rotated real segment is no segment, so R4_9..R4_12 would vanish.
    t, cert = instance(kind, n, seed)
    ph = np.exp(1j * alpha)
    assert_close(verify_all(ph * t, [transformed(cert, lambda z: ph * z)]), verify_all(t, [cert]), 1e-12)


@SETTINGS
@given(kinds, st.lists(st.tuples(kinds, seeds, st.integers(-600, 600)), min_size=1, max_size=5), sizes)
def test_stacked_table_rows_equal_verify_all_on_each_matrix(cert_kind, draws, n):
    cert = instance(cert_kind, n, 0)[1]
    stack = np.array([2.0**k * instance(kind, n, seed)[0] for kind, seed, k in draws])
    rows = bound_table(stack, cert)
    for i, t in enumerate(stack):
        assert row_entries(rows, i) == report_entries(verify_all(t, [cert]))


@settings(SETTINGS, max_examples=300)
@given(sizes, seeds, st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0), st.floats(0.01, 10.0),
       st.floats(0.0, 2 * np.pi), st.floats(-13.0, -5.0), st.booleans(), st.sampled_from((-300, 0, 300)))
def test_a_sector_pair_and_its_disk_get_one_verdict(n, seed, lam, d, angle, log_gap, outside, k):
    # The pair lam +- d e^{i angle}, and A with ||A - lambda I|| within
    # 1e-13..1e-5 of r on either side: across the tolerance band of the disk
    # check, the sector check is the disk check.
    pair = SectorPair(lam + d * np.exp(1j * angle), lam - d * np.exp(1j * angle), ACCRETIVE)
    disk = sector_to_disk(pair)
    g = ginibre(n, np.random.default_rng(seed))
    rel = 1.0 + (10.0**log_gap if outside else -(10.0**log_gap))
    s = 2.0**k
    t = s * (disk.lam * np.eye(n) + rel * disk.r * (g / operator_norm(g)))
    pair = SectorPair(s * pair.phi, s * pair.varphi, ACCRETIVE)
    assert check_sector_hypothesis(t, pair)[0] == check_disk(t, sector_to_disk(pair))[0]


def test_a_pair_and_its_disk_get_one_verdict_at_the_exact_edge():
    # numpy's complex abs takes |phi - varphi| one ulp below Python's, which
    # sector_to_disk uses. A - lambda I = c E12 has norm exactly c, the disk's
    # edge r (1 + DISK_TOL), so a sector check with the other modulus fails.
    pair = SectorPair(1.01 + 0.9j, 1 - 0.09j, ACCRETIVE)
    assert float(np.abs(np.complex128(pair.phi - pair.varphi))) != abs(pair.phi - pair.varphi)
    disk = sector_to_disk(pair)
    c = disk.r * (1.0 + DISK_TOL)
    a = disk.lam * np.eye(2, dtype=complex)
    a[0, 1] = c
    assert check_disk(a, disk) == (True, c)
    assert check_sector_hypothesis(a, pair)[0] is True
