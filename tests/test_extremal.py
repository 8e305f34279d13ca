"""Generators, golden operators, and the extremal searches."""

import numpy as np
import pytest

from numrad.bounds import OPERATOR_ORDER, check_disk, check_sector_hypothesis
from numrad.extremal import (
    candidate_violations,
    gen_disk_instance,
    gen_nilpotent_instance,
    gen_segment_instance,
    ginibre,
    orthogonal_ranges_check,
    probe_equality_case,
    random_unitary,
    search_sqrt_disk,
    shift2,
)
from numrad.extremal import _CHUNK, _LAMBDA_GRID, SearchResult, _disk_instance
from numrad.linalg import hermitian_eigen, operator_norm, shifted_norms
from numrad.numrange import numerical_radius

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0  # ||S2 - I|| in closed form


# ------------------------------------------------------------------- shift2


def test_shift2_entries():
    assert np.array_equal(shift2(), np.array([[0, 0], [1, 0]], dtype=complex))


def test_shift2_square_zero_and_norms():
    s = shift2()
    assert np.array_equal(s @ s, np.zeros((2, 2)))
    assert operator_norm(s) == 1.0
    assert abs(numerical_radius(s) - 0.5) <= 1e-9


# ---------------------------------------------------- orthogonal_ranges_check


def test_orthogonal_ranges():
    assert orthogonal_ranges_check(shift2())
    assert not orthogonal_ranges_check(np.eye(2))
    assert orthogonal_ranges_check(np.array([[0.0, 3.7], [0.0, 0.0]]))
    # relative to the scale of T: T^2 = 1e-12 [[1, 2], [0, 1]] is not zero
    assert not orthogonal_ranges_check(1e-6 * np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert orthogonal_ranges_check(1e150 * shift2())
    assert orthogonal_ranges_check(1e-150 * shift2())


def test_half_norm_property_for_square_zero():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n = int(rng.integers(2, 7))
        t = gen_nilpotent_instance(n, trial)
        assert orthogonal_ranges_check(t)
        assert abs(numerical_radius(t) - 0.5 * operator_norm(t)) <= 1e-8


# -------------------------------------------------------------- random bits


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(1)
    u = random_unitary(5, rng)
    assert np.linalg.norm(u.conj().T @ u - np.eye(5)) <= 1e-12


def test_ginibre_shape_and_spread():
    rng = np.random.default_rng(2)
    g = ginibre(50, rng)
    assert g.shape == (50, 50)
    assert 0.5 <= np.std(g.real) <= 1.5


# ------------------------------------------------------------ disk instances


def test_disk_instance_passes_check():
    for seed in range(10):
        t, cert = gen_disk_instance(1.0 + 1.0j, 0.7, 4, seed)
        ok, measured = check_disk(t, cert)
        assert ok
        assert measured <= 0.7 + 1e-9


def test_disk_instance_with_zero_mix_is_scalar():
    rng = np.random.default_rng(3)
    c = ginibre(3, rng)
    c /= operator_norm(c)
    t = _disk_instance(2.0 + 0j, 0.5, c, 0.0)
    assert np.array_equal(t, 2.0 * np.eye(3))


def test_disk_instance_deterministic():
    t1, _ = gen_disk_instance(1.0, 0.5, 4, 123)
    t2, _ = gen_disk_instance(1.0, 0.5, 4, 123)
    t3, _ = gen_disk_instance(1.0, 0.5, 4, 124)
    assert np.array_equal(t1, t2)
    assert not np.array_equal(t1, t3)


def test_disk_instance_validation():
    with pytest.raises(ValueError):
        gen_disk_instance(0.0, 0.5, 3, 0)
    with pytest.raises(ValueError):
        gen_disk_instance(1.0, 0.0, 3, 0)


# --------------------------------------------------------- segment instances


def test_segment_instance_identity_case():
    a, s = gen_segment_instance(1.0, 1.0, 3, 7)
    assert np.allclose(a, np.eye(3), atol=1e-12)
    assert s.segment() == (1.0, 1.0)


def test_segment_instance_hypothesis_and_spectrum():
    for seed in range(10):
        a, s = gen_segment_instance(1.0, 4.0, 5, seed)
        assert s.mode == OPERATOR_ORDER
        ok, min_eig = check_sector_hypothesis(a, s)
        assert ok and min_eig >= -1e-9
        vals = hermitian_eigen(a).values
        assert vals[0] <= 4.0 + 1e-9
        assert vals[-1] >= 1.0 - 1e-9


def test_segment_instance_deterministic():
    a1, _ = gen_segment_instance(1.0, 4.0, 4, 9)
    a2, _ = gen_segment_instance(1.0, 4.0, 4, 9)
    assert np.array_equal(a1, a2)


# --------------------------------------------------------- nilpotent instances


def test_nilpotent_instance_square_zero_unit_norm():
    for seed in range(10):
        t = gen_nilpotent_instance(5, seed)
        assert np.array_equal(t @ t, np.zeros((5, 5)))
        assert abs(operator_norm(t) - 1.0) <= 1e-12


def test_nilpotent_instance_needs_n2():
    with pytest.raises(ValueError):
        gen_nilpotent_instance(1, 0)


# ------------------------------------------------------------------ searches


def test_candidate_violations_shift2():
    norm_dev, nilpotency, excess = candidate_violations(shift2(), 1.0)
    assert norm_dev == 0.0
    assert nilpotency == 0.0
    assert abs(excess - (GOLDEN - 1.0)) <= 1e-9


def test_candidate_violations_small_scale_tradeoff():
    # shrinking the candidate drives ||T - I|| toward 1 but costs the unit
    # norm one for one, so the score cannot be squeezed this way
    for t in (0.5, 0.1, 0.01):
        norm_dev, nilpotency, excess = candidate_violations(t * shift2(), 1.0)
        assert abs(norm_dev - (1.0 - t)) <= 1e-12
        assert nilpotency == 0.0
        assert excess <= t  # ||tS - I|| <= 1 + t by the triangle inequality
        assert max(norm_dev, nilpotency, excess) >= 1.0 - t - 1e-12


def test_search_deterministic_and_structured():
    r1 = search_sqrt_disk(3, 50, seed=5)
    r2 = search_sqrt_disk(3, 50, seed=5)
    assert np.array_equal(r1.candidate, r2.candidate)
    assert r1.lam == r2.lam
    assert r1.score == r2.score
    assert r1.nilpotency == 0.0
    assert r1.norm_dev <= 1e-12
    assert r1.lam.real in _LAMBDA_GRID
    assert r1.score >= 0.0


def test_search_score_non_increasing_in_iters():
    scores = [search_sqrt_disk(3, iters, seed=11).score for iters in (20, 60, 120)]
    assert scores[0] >= scores[1] >= scores[2]


def test_probe_equality_deterministic():
    r1 = probe_equality_case(2, 200, seed=3)
    r2 = probe_equality_case(2, 200, seed=3)
    assert np.array_equal(r1.candidate, r2.candidate)
    assert r1.lam == 1.0
    assert r1.score == r2.score
    # tiny-norm limit keeps ||T - I|| <= 1 but costs the unit norm, so the
    # probe's score stays bounded away from zero at n = 2
    assert r1.score > 0.1


def test_probe_best_dominates_raw_shift():
    # the probe may rescale the block; its best score never exceeds the raw
    # S2 score for the same trial budget
    res = probe_equality_case(2, 500, seed=1)
    _, _, s2_excess = candidate_violations(shift2(), 1.0)
    assert res.score <= s2_excess + 1e-12


def _search_one_trial_at_a_time(n, iters, seed, lam_values, allowed):
    """Reference loop: one generator, one norm call per quantity and one
    strict comparison per trial, which the chunked search matches bit for
    bit."""
    best = None
    for trial in range(iters):
        rng = np.random.default_rng([seed, trial])
        k = int(rng.integers(1, n))
        t = np.zeros((n, n), dtype=complex)
        t[k:, :k] = rng.standard_normal((n - k, k)) + 1j * rng.standard_normal((n - k, k))
        nrm = operator_norm(t)
        if nrm == 0.0:
            continue
        t /= nrm
        excess = np.maximum(0.0, shifted_norms(t, lam_values) - allowed)
        j = int(np.argmin(excess))
        res = SearchResult(
            candidate=t,
            lam=complex(lam_values[j]),
            norm_dev=abs(operator_norm(t) - 1.0),
            nilpotency=operator_norm(t @ t),
            disk_excess=float(excess[j]),
        )
        if best is None or res.score < best.score:
            best = res
    return best


@pytest.mark.parametrize("equality", [False, True], ids=["sqrt_disk", "equality"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_chunked_search_is_bit_identical_to_one_trial_at_a_time(equality, n):
    # n = 2 equality covers ties: every 2x2 candidate is unitarily similar to
    # S2, so the scores tie up to roundoff and only the earliest-trial rule
    # picks the same bytes
    if equality:
        lam_values, allowed = np.array([1.0]), np.ones(1)
    else:
        lam_values, allowed = _LAMBDA_GRID, np.sqrt(_LAMBDA_GRID)
    for iters in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3):
        if equality:
            got = probe_equality_case(n, iters, seed=17)
        else:
            got = search_sqrt_disk(n, iters, seed=17)
        want = _search_one_trial_at_a_time(n, iters, 17, lam_values, allowed)
        assert got.candidate.tobytes() == want.candidate.tobytes()
        assert got.lam == want.lam
        assert got.norm_dev == want.norm_dev
        assert got.nilpotency == want.nilpotency
        assert got.disk_excess == want.disk_excess
        assert got.candidate.flags.owndata


def test_search_validation():
    with pytest.raises(ValueError):
        search_sqrt_disk(1, 10, seed=0)
    with pytest.raises(ValueError):
        search_sqrt_disk(2, 0, seed=0)
