"""Generators, golden operators, and the extremal searches."""

import warnings

import numpy as np
import pytest

from numrad import extremal
from numrad.bounds import OPERATOR_ORDER, DiskCertificate, SectorPair, check_disk, check_sector_hypothesis
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
from numrad.extremal import (
    _CHUNK,
    SearchResult,
    _draw,
    _rngs,
    _seed_words,
    _stacks,
)
from numrad.linalg import _spectral_norms, hermitian_eigen, operator_norm, shifted_norms
from numrad.numrange import numerical_radius

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0  # ||S2 - I|| in closed form
# The 25 log-spaced centers that the sqrt-disk search once scanned on every
# trial. The reference search below still scans them, so the chunked search,
# which measures only the middle one, is checked against the full scan.
_LAMBDA_GRID = np.geomspace(0.0625, 4.0, 25)


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
    # 2^k T is tested as T: ||T^2||_F neither underflows to 0, which passed
    # 1e-150 I, nor overflows with a warning, as it did at 1e150 I
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (-540, -498, 498, 540):
            assert not orthogonal_ranges_check(2.0**k * np.eye(2))
            assert orthogonal_ranges_check(2.0**k * shift2())
            assert not orthogonal_ranges_check(2.0**k * 1e-6 * np.array([[1.0, 1.0], [0.0, 1.0]]))


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


class ZeroMix(np.random.Generator):
    """A seed's generator whose mix u = uniform() is 0."""

    def uniform(self):
        return 0.0


def test_disk_instance_with_zero_mix_is_scalar():
    t = _draw("disk", DiskCertificate(2.0 + 0j, 0.5), 3, [ZeroMix(np.random.PCG64(3))])[0]
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


# ---------------------------------------------------------- stacked draws


def _complex_normal(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def one_trial(ensemble, n, seed):
    """One sweep draw by the per-trial formulas the generators used before stacking."""
    rng = np.random.default_rng(seed)
    if ensemble == "disk":
        g = _complex_normal((n, n), rng)
        c = g / operator_norm(g)
        u = float(rng.uniform())
        return (1 + 0.5j) * np.eye(n, dtype=complex) + (u * 0.4) * c
    if ensemble == "segment":
        d = rng.uniform(1.0, 3.0, size=n)
        q, r = np.linalg.qr(_complex_normal((n, n), rng))
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        a = (u * d) @ u.conj().T
        return 0.5 * (a + a.conj().T)
    if ensemble == "ginibre":
        g = _complex_normal((n, n), rng)
        return g / operator_norm(g)
    t = np.zeros((n, n), dtype=complex)
    k = int(rng.integers(1, n))
    t[k:, :k] = _complex_normal((n - k, k), rng)
    return t / operator_norm(t)


STACKED = {
    "disk": (DiskCertificate(1 + 0.5j, 0.4), lambda n, seed: gen_disk_instance(1 + 0.5j, 0.4, n, seed)[0]),
    "segment": (SectorPair.from_segment(1.0, 3.0),
                lambda n, seed: gen_segment_instance(1.0, 3.0, n, seed)[0]),
    "ginibre": (None, lambda n, seed: one_trial("ginibre", n, seed)),
    "nilpotent": (None, gen_nilpotent_instance),
}


@pytest.mark.parametrize("ensemble", list(STACKED))
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_stacked_draws_equal_the_public_generators_bit_for_bit(ensemble, n):
    # A chunk's stack is drawn in one pass (one stacked norm call, one batched
    # QR), yet each matrix keeps the bytes its one-trial generator gives it,
    # and the bytes of the per-trial formulas of the unstacked generators.
    if ensemble == "nilpotent" and n == 1:
        return
    cert, public = STACKED[ensemble]
    for chunk in (1, 64, 65):
        seeds = np.random.default_rng([n, chunk]).integers(0, 2**63, size=chunk, dtype=np.uint64)
        seeds = [int(s) for s in seeds]
        got = _draw(ensemble, cert, n, [np.random.default_rng(s) for s in seeds])
        assert got.shape == (chunk, n, n)
        assert got.tobytes() == np.array([public(n, s) for s in seeds]).tobytes()
        assert got.tobytes() == np.array([one_trial(ensemble, n, s) for s in seeds]).tobytes()


def test_ginibre_block_draws_the_stream_of_the_old_fill_formula():
    for rows in range(1, 8):
        for cols in range(1, 8):
            new, old = np.random.default_rng([rows, cols]), np.random.default_rng([rows, cols])
            block = ginibre((rows, cols), new)
            assert block.shape == (rows, cols)
            assert block.tobytes() == _complex_normal((rows, cols), old).tobytes()
            assert new.random() == old.random()
    for n in (3, np.int64(3)):
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        assert ginibre(n, rng).tobytes() == _complex_normal((3, 3), ref).tobytes()


# ------------------------------------------------------- chunked generators


def assert_same_generators(got, entropies):
    assert len(got) == len(entropies)
    for rng, entropy in zip(got, entropies):
        assert rng.bit_generator.state == np.random.default_rng(entropy).bit_generator.state


def test_chunk_generators_equal_default_rng_on_random_seeds():
    seeds = np.random.default_rng(1901).integers(0, 2**64, size=2000, dtype=np.uint64)
    got = _rngs((), seeds)
    assert_same_generators(got, seeds.tolist())
    # the streams, not only the states, are numpy's
    want = np.random.default_rng(int(seeds[0])).standard_normal(5)
    assert got[0].standard_normal(5).tobytes() == want.tobytes()


def test_chunk_generators_equal_default_rng_on_edge_seeds():
    # rows of 1 and 2 words in one chunk, zero-padded to the pool of 4: a row
    # hashes its padding as SeedSequence hashes its missing words
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
    assert [len(_seed_words(seed)) for seed in seeds] == [1, 1, 1, 2, 2, 2]
    assert_same_generators(_rngs((), np.array(seeds, np.uint64)), seeds)


@pytest.mark.parametrize("seed", [0, 7, 2**40, 2**100 + 1, 2**128 + 1])
def test_trial_generators_equal_default_rng_of_seed_and_trial(seed):
    # heads of 1, 1, 2, 4 and 5 words; 2^100 + 1 and 2^128 + 1 take their
    # rows through SeedSequence's loop past the pool, with one more word for
    # a one-word trial than for 2^32, which has two
    trials = [0, 63, 64, 2**32 - 1, 2**32]
    got = _rngs(_seed_words(seed), np.array(trials, np.uint64))
    assert_same_generators(got, [[seed, trial] for trial in trials])


def test_seed_words_reject_a_negative_seed():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _seed_words(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng([-1, 0])
    assert _seed_words(2**64) == [0, 0, 1]


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


@pytest.mark.parametrize("n", range(2, 9))
def test_every_square_zero_candidate_has_the_closed_form_shifted_norm(n):
    # For T^2 = 0, ||T - lambda I|| = (||T|| + sqrt(||T||^2 + 4|lambda|^2))/2
    # (see the extremal module docstring). Checked on every trial of ten
    # search chunks at every center of the old sqrt-disk grid, within the
    # (n + 2)^2 eps of a computed norm's rounding (see numrange._norm_bound).
    # So each trial's measured excess over sqrt(lambda) is least at the
    # grid's middle point, the search's one center, with the runner-up at
    # least 1e-3 behind (0.0049 in closed form, at index 11), and measuring
    # that center alone gives the same bits. Each trial's norm_dev is within
    # the 2 (n + 2)^2 eps that lets the search skip it (see extremal._search).
    tol = (n + 2) ** 2 * np.finfo(float).eps
    assert extremal._CENTER == _LAMBDA_GRID[12]
    for ts in _stacks("nilpotent", None, n, _seed_words(0), np.arange(10 * _CHUNK)):
        norm = _spectral_norms(ts)[:, None]
        assert np.all(np.abs(norm - 1.0) <= 2.0 * tol)
        closed = 0.5 * (norm + np.sqrt(norm**2 + 4.0 * _LAMBDA_GRID**2))
        measured = shifted_norms(ts, _LAMBDA_GRID)
        assert np.all(np.abs(measured - closed) <= tol * closed)
        excess = measured - np.sqrt(_LAMBDA_GRID)
        assert np.all(np.argmin(excess, axis=1) == 12)
        assert np.all(np.sort(excess, axis=1)[:, 1] - excess[:, 12] >= 1e-3)
        assert measured[:, 12].tobytes() == shifted_norms(ts, [extremal._CENTER])[:, 0].tobytes()


def test_the_sqrt_disk_search_measures_one_center_per_trial(monkeypatch):
    # Per trial: the norm that normalises the draw and ||T - lambda I|| at
    # the one center, then ||T|| of the winner alone. T^2 is exactly zero
    # and skips the eigensolver.
    matrices = []
    eigvalsh = np.linalg.eigvalsh

    def counting(h):
        matrices.append(int(np.prod(np.shape(h)[:-2])))
        return eigvalsh(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    search_sqrt_disk(3, 64, 1)
    assert sum(matrices) == 2 * 64 + 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_search_finds_its_closed_form_score(n):
    # A unit-norm square-zero candidate's excess is the same for every draw:
    # (1 + sqrt(1 + 4 lambda^2))/2 - sqrt(lambda), least (1/2) at the grid's
    # lambda = 1/2 (to 1 ulp), and (1 + sqrt(5))/2 - 1 in the equality
    # probe. So no feasible operator exists, and each best score is its
    # closed form.
    tol = (n + 2) ** 2 * np.finfo(float).eps
    excess = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * _LAMBDA_GRID**2)) - np.sqrt(_LAMBDA_GRID)
    assert np.argmin(excess) == 12 and abs(excess[12] - 0.5) <= np.finfo(float).eps
    best = search_sqrt_disk(n, 2000, seed=7)
    assert best.lam == _LAMBDA_GRID[12] and abs(best.score - excess[12]) <= tol
    assert abs(probe_equality_case(n, 2000, seed=7).score - (GOLDEN - 1.0)) <= tol


@pytest.mark.parametrize("search", [search_sqrt_disk, probe_equality_case])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_candidate_violations_recompute_a_search_result_bit_for_bit(search, n):
    # candidate_violations is the one-candidate case of the search's own
    # measure, so a result's fields recompute from its candidate and center
    for seed in range(6):
        res = search(n, 40, seed)
        got = candidate_violations(res.candidate, res.lam)
        assert got == (res.norm_dev, res.nilpotency, res.disk_excess)


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_chunk_within_the_norm_dev_bound_falls_back_to_its_norm_dev(n):
    # With an allowed radius of 10 every excess is 0, so the least score of
    # every chunk is within norm_dev's rounding bound and the argmin falls to
    # norm_dev: the chunk measures it and still picks the reference's trial.
    for iters in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3):
        got = extremal._search(n, iters, 17, 1.0, 10.0)
        want = _search_one_trial_at_a_time(n, iters, 17, np.array([1.0]), np.array([10.0]))
        assert got.candidate.tobytes() == want.candidate.tobytes()
        assert got.lam == want.lam
        assert got.norm_dev == want.norm_dev
        assert got.nilpotency == want.nilpotency == 0.0
        assert got.disk_excess == want.disk_excess == 0.0


def test_search_validation():
    with pytest.raises(ValueError):
        search_sqrt_disk(1, 10, seed=0)
    with pytest.raises(ValueError):
        search_sqrt_disk(2, 0, seed=0)
