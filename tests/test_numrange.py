"""Numerical range and radius tests.

The sampling oracle (a guaranteed lower bound on the radius) and fine
support-function sweeps cross-validate the certified radius; geometric
invariants of the range are checked on random ensembles.
"""

import numpy as np
import pytest

from numrad.extremal import (
    gen_disk_instance,
    gen_nilpotent_instance,
    gen_segment_instance,
    ginibre,
    random_unitary,
    shift2,
)
from numrad.linalg import hermitian_eigen, operator_norm
from numrad.numrange import (
    _ORACLE_CHUNK,
    _SEED_ANGLES,
    LEVEL_RTOL,
    SEED_GRID,
    _seed_supports,
    is_convex_polyline,
    numerical_radius,
    numerical_radius_oracle,
    numerical_range_boundary,
    range_summary,
)


def rand_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_hermitian(rng, n):
    g = rand_matrix(rng, n)
    return 0.5 * (g + g.conj().T)


def support_values(a, thetas):
    """Support function samples: top eigenvalue of H(theta) for each theta."""
    ph = np.exp(1j * np.asarray(thetas, dtype=float))[:, None, None]
    return np.linalg.eigvalsh(0.5 * (ph * a + ph.conj() * a.conj().T))[:, -1]


# ----------------------------------------------------------------- boundary


def test_boundary_identity_collapses_to_one():
    b = numerical_range_boundary(np.eye(2), 16)
    assert np.allclose(b.points, 1.0, atol=1e-12)
    # support function of the single point {1} is cos(theta)
    assert np.allclose(b.supports, np.cos(b.thetas), atol=1e-12)


def test_boundary_diag01_is_real_segment():
    b = numerical_range_boundary(np.diag([0.0, 1.0]), 32)
    assert np.max(np.abs(b.points.imag)) <= 1e-12
    assert np.all(b.points.real >= -1e-9)
    assert np.all(b.points.real <= 1.0 + 1e-9)


def test_boundary_shift2_is_half_circle():
    b = numerical_range_boundary(shift2(), 64)
    assert np.max(np.abs(np.abs(b.points) - 0.5)) <= 1e-8
    # sampling oracle confirms the radius-0.5 disk
    lower = numerical_radius_oracle(shift2(), 10**6, seed=0)
    assert 0.499 <= lower <= 0.5 + 1e-9


def test_boundary_support_consistency():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        a = rand_matrix(rng, n)
        b = numerical_range_boundary(a, 48)
        proj = (np.exp(1j * b.thetas) * b.points).real
        assert np.max(np.abs(proj - b.supports)) <= 1e-9


def full_boundary_sweep(a, n_theta):
    """(supports, points) from one eigh per angle, the top eigenpair of each."""
    ph = np.exp(1j * np.arange(n_theta) * (2.0 * np.pi / n_theta))[:, None, None]
    vals, vecs = np.linalg.eigh(0.5 * (ph * a + ph.conj() * a.conj().T))
    x = vecs[:, :, -1]
    return vals[:, -1], np.einsum("ki,ij,kj->k", x.conj(), a, x)


def boundary_matrices():
    rng = np.random.default_rng(23)
    g = rand_matrix(rng, 32)
    square_zero = np.zeros((8, 8), dtype=complex)
    square_zero[4:, :4] = g[:4, :4]
    mats = [g, 0.5 * (g + g.conj().T), square_zero, np.triu(g[:5, :5]), np.eye(3), np.zeros((2, 2))]
    return mats + [1e-150 * g[:4, :4], 1e150 * g[:4, :4]] + [rand_matrix(rng, n) for n in (1, 2, 3, 6)]


@pytest.mark.parametrize("n_theta", [8, 48, 512])
def test_half_angle_boundary_matches_the_full_sweep(n_theta):
    for a in boundary_matrices():
        b = numerical_range_boundary(a, n_theta)
        supports, _ = full_boundary_sweep(a, n_theta)
        scale = np.abs(a).max()
        assert np.array_equal(b.thetas, np.arange(n_theta) * (2.0 * np.pi / n_theta))
        assert np.max(np.abs(b.supports - supports)) <= 1e-13 * scale
        proj = (np.exp(1j * b.thetas) * b.points).real
        assert np.max(np.abs(proj - b.supports)) <= 1e-13 * scale


@pytest.mark.parametrize("n_theta", [9, 65])
def test_odd_boundary_is_the_full_sweep(n_theta):
    for a in boundary_matrices():
        b = numerical_range_boundary(a, n_theta)
        supports, points = full_boundary_sweep(a, n_theta)
        assert np.array_equal(b.supports, supports)
        assert np.array_equal(b.points, points)


def test_boundary_needs_eight_angles():
    with pytest.raises(ValueError):
        numerical_range_boundary(np.eye(2), 7)


# ------------------------------------------------------------------ radius


def test_radius_identity():
    assert abs(numerical_radius(np.eye(2)) - 1.0) <= 1e-12


def test_radius_shift2_is_half():
    assert abs(numerical_radius(shift2()) - 0.5) <= 1e-9


def test_radius_upper_shift_with_oracle():
    a = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    w = numerical_radius(a)
    assert abs(w - 1.0) <= 1e-9
    lower = numerical_radius_oracle(a, 10**6, seed=5)
    assert lower <= w + 1e-9
    assert w - lower <= 1e-4


def test_radius_matches_support_maximum():
    rng = np.random.default_rng(8)
    a = rand_matrix(rng, 4)
    w = numerical_radius(a)
    fine = support_values(a, np.linspace(0.0, 2.0 * np.pi, 20001))
    assert w >= fine.max() - 1e-9
    assert w <= fine.max() + 1e-6


def fine_radius(a):
    """Max of support_values by a 4096-angle sweep, then two zoomed sweeps
    of 2001 angles around each of the 3 best coarse angles."""
    thetas = np.arange(4096) * (2.0 * np.pi / 4096)
    vals = support_values(a, thetas)
    best = float(vals.max())
    half = np.pi / 4096
    for t in thetas[np.argsort(-vals)[:3]]:
        h = half
        for _ in range(2):
            zoom = t + np.linspace(-h, h, 2001)
            zv = support_values(a, zoom)
            t, h = zoom[int(np.argmax(zv))], h / 1000
            best = max(best, float(zv.max()))
    return best


def sweep_ensemble_draws(count):
    """(ensemble, matrix) pairs from the four sweep ensembles, n = 1..6."""
    for s in range(count):
        n = 1 + s % 6
        yield "disk", gen_disk_instance(1 + 0.5j, 0.4, n, s)[0]
        yield "segment", gen_segment_instance(1.0, 3.0, n, s)[0]
        yield "ginibre", ginibre(n, np.random.default_rng([s, 7]))
        if n >= 2:
            yield "nilpotent", gen_nilpotent_instance(n, s)


def test_radius_matches_fine_sweep_and_certifies_its_level():
    for ensemble, a in sweep_ensemble_draws(30):
        w = numerical_radius(a)
        ref = fine_radius(a)
        level = w * (1.0 + LEVEL_RTOL)
        assert abs(w - ref) <= 1e-12 * ref, ensemble
        assert ref <= level <= ref * (1.0 + 1e-11), ensemble


def test_half_grid_seed_supports_match_every_angle():
    rng = np.random.default_rng(71)
    g = rand_matrix(rng, 5)
    mats = [g, rand_hermitian(rng, 4), gen_nilpotent_instance(6, 2), np.array([[3.0 - 4.0j]]),
            g * 2.0**1000, g * 2.0**-1000]
    ph = np.exp(1j * _SEED_ANGLES)[:, None, None]
    for a in mats:
        a = a.astype(complex)
        sup, half = _seed_supports(a[None], a.conj()[None])
        full = np.linalg.eigvalsh(0.5 * (ph * a + ph.conj() * a.conj().T))[:, -1]
        assert sup.shape == (1, SEED_GRID) and half.shape == (1, SEED_GRID // 2, *a.shape)
        # Eigensolver roundoff of two eigenproblems: a few n eps max |a_ij|.
        assert np.all(np.abs(sup[0] - full) <= 4 * len(a) * np.finfo(float).eps * np.abs(a).max())
        # The first half is the full sweep's own eigenproblem, bit for bit.
        assert sup[0, : SEED_GRID // 2].tolist() == full[: SEED_GRID // 2].tolist()


def count_calls(monkeypatch, *names):
    calls = []
    for name in names:
        orig = getattr(np.linalg, name)

        def counted(*args, _orig=orig, **kwargs):
            calls.append(1)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_radius_of_square_zero_stops_newton_at_once(seed, monkeypatch):
    # W(T) of a square-zero T is the disk of radius ||T||/2 about 0, so the
    # support function is flat: one grid sweep, one Newton evaluation that
    # sees f'' ~ 0, and one level-set midpoint sweep.
    t = gen_nilpotent_instance(2 + seed, seed)
    calls = count_calls(monkeypatch, "eigvalsh", "eigh")
    w = numerical_radius(t)
    assert len(calls) <= 3
    assert abs(w - 0.5 * operator_norm(t)) <= 1e-12 * w


@pytest.mark.parametrize("spectrum", [(2.0, -2.0, 0.5), (1.0, -3.0, 0.2), (3.0, -1.0, 2.9)])
def test_radius_of_hermitian_with_antipodal_maxima(spectrum):
    # A Hermitian support function peaks at theta = 0 (lambda_max) and at pi
    # (-lambda_min); with |lambda_min| = lambda_max both are global maxima.
    u = random_unitary(3, np.random.default_rng(21))
    a = (u * np.array(spectrum)) @ u.conj().T
    a = 0.5 * (a + a.conj().T)
    expected = max(abs(x) for x in spectrum)
    assert abs(numerical_radius(a) - expected) <= 1e-12 * expected


def test_radius_of_one_by_one_and_zero():
    assert abs(numerical_radius([[3.0 - 4.0j]]) - 5.0) <= 5e-12
    assert numerical_radius(np.zeros((3, 3))) == 0.0
    # W(A) = {a11}: the radius is |a11| itself, alone or in a stack.
    assert numerical_radius(np.array([[[3.0 - 4.0j]], [[5.0 + 12.0j]]])).tolist() == [5.0, 13.0]


def test_radius_is_exact_under_power_of_two_scaling():
    for n in (1, 3, 5):
        a = rand_matrix(np.random.default_rng(22 + n), n)
        w = numerical_radius(a)
        for k in (-1000, -1, 1, 1000):
            assert numerical_radius(a * 2.0**k) == w * 2.0**k


# A disk-ensemble draw (the benchmark sweep's certificate, at n = 8) whose
# first level-set test finds a midpoint above the level, so it takes a second
# test; 1 of 1800 sweep-ensemble draws does.
SECOND_TEST_DRAW = (1 + 0.5j, 0.4, 8, 8259052251863090370)
# Seed of a unit-norm Ginibre draw at n = 8 with a midpoint value between its
# attained value and the level: its radius changes if a neighbour's second
# test lets it take that value.
NEAR_LEVEL_SEED = 3619294208156778375


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_stacked_radius_is_bit_identical_to_one_matrix_at_a_time(n, monkeypatch):
    rng = np.random.default_rng(40 + n)
    mats = [gen_disk_instance(1 + 0.5j, 0.4, n, 1)[0], gen_segment_instance(1.0, 3.0, n, 2)[0],
            ginibre(n, rng), rand_matrix(rng, n), np.zeros((n, n), dtype=complex)]
    if n >= 2:
        mats.append(gen_nilpotent_instance(n, 3))
    if n == 8:
        g = ginibre(n, np.random.default_rng(NEAR_LEVEL_SEED))
        mats += [g / operator_norm(g), gen_disk_instance(*SECOND_TEST_DRAW)[0]]
    mats += [mats[0] * 2.0**600, mats[3] * 2.0**-600]
    stack = np.array(mats)
    alone = [numerical_radius(a) for a in mats]
    assert all(type(w) is float for w in alone)

    w = numerical_radius(stack)
    assert w.shape == (len(mats),)
    assert w.tolist() == alone
    assert numerical_radius(stack[::-1]).tolist() == alone[::-1]
    grid = numerical_radius(np.array([stack, stack[::-1]]).reshape(2, 1, len(mats), n, n))
    assert grid.shape == (2, 1, len(mats))
    assert grid[0, 0].tolist() == alone and grid[1, 0].tolist() == alone[::-1]
    assert alone[4] == 0.0
    assert alone[-2] == alone[0] * 2.0**600 and alone[-1] == alone[3] * 2.0**-600
    if n == 8:
        tests = count_calls(monkeypatch, "eigvals")
        numerical_radius(mats[-3])
        assert len(tests) == 2


def test_stacked_radius_of_empty_and_one_matrix_stacks():
    a = rand_matrix(np.random.default_rng(44), 3)
    assert numerical_radius(a[None]).shape == (1,)
    assert numerical_radius(a[None])[0] == numerical_radius(a)
    assert numerical_radius(np.zeros((0, 3, 3))).shape == (0,)
    with pytest.raises(ValueError):
        numerical_radius(np.zeros((2, 3, 4)))


# ------------------------------------------------------------------- oracle


def test_oracle_identity_attains_everywhere():
    assert abs(numerical_radius_oracle(np.eye(2), 100, seed=9) - 1.0) <= 1e-12


def test_oracle_zero_operator():
    assert numerical_radius_oracle(np.zeros((2, 2)), 100, seed=0) == 0.0


def test_oracle_is_deterministic_per_seed():
    rng = np.random.default_rng(10)
    a = rand_matrix(rng, 3)
    x = numerical_radius_oracle(a, 5000, seed=42)
    y = numerical_radius_oracle(a, 5000, seed=42)
    z = numerical_radius_oracle(a, 5000, seed=43)
    assert x == y
    assert x != z


def test_oracle_rejects_zero_samples():
    with pytest.raises(ValueError):
        numerical_radius_oracle(np.eye(2), 0, seed=0)


def test_oracle_never_exceeds_radius():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 7))
        a = rand_matrix(rng, n)
        assert numerical_radius_oracle(a, 20_000, seed=trial) <= numerical_radius(a) + 1e-9


def test_oracle_refines_worst_acceptance_draw():
    # Trial 15 of acceptance criterion c03: a unit-norm 3x3 matrix whose best
    # of a million plain draws falls 1.39e-3 short of the radius.
    rng = np.random.default_rng(20260810)
    for _ in range(16):
        n = int(rng.integers(1, 4))
        a = rand_matrix(rng, n)
        a /= operator_norm(a)
    assert n == 3
    w = numerical_radius(a)
    lower = numerical_radius_oracle(a, 10**6, seed=15)

    draws = np.random.default_rng(15)
    plain = 0.0
    for start in range(0, 10**6, _ORACLE_CHUNK):
        m = min(_ORACLE_CHUNK, 10**6 - start)
        x = draws.standard_normal((m, 3)) + 1j * draws.standard_normal((m, 3))
        x /= np.linalg.norm(x, axis=1)[:, None]
        plain = max(plain, float(np.abs(np.einsum("bi,ij,bj->b", x.conj(), a, x)).max()))

    assert w - plain > 1e-3
    assert plain <= lower <= w + 1e-9
    assert w - lower <= 1e-3


@pytest.mark.parametrize("n", [1, 3])
def test_oracle_is_exact_under_power_of_two_scaling(n):
    a = rand_matrix(np.random.default_rng(13), n)
    base = numerical_radius_oracle(a, 5000, seed=3)
    for k in (-1000, 1000):
        assert numerical_radius_oracle(a * 2.0**k, 5000, seed=3) == base * 2.0**k


# -------------------------------------------------------------- invariants


def test_sandwich_bounds():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        a = rand_matrix(rng, n)
        w = numerical_radius(a)
        nrm = operator_norm(a)
        assert w <= nrm + 1e-9
        assert nrm <= 2.0 * w + 1e-9


def test_adjoint_symmetry_of_radius():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = rand_matrix(rng, int(rng.integers(2, 6)))
        assert abs(numerical_radius(a.conj().T) - numerical_radius(a)) <= 1e-9


def test_unitary_invariance_of_radius():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = rand_matrix(rng, n)
        u = random_unitary(n, rng)
        assert abs(numerical_radius(u.conj().T @ a @ u) - numerical_radius(a)) <= 1e-8


def test_affine_boundary_transform():
    # alpha + beta * A rotates the range by the phase of beta; with the phase
    # equal to a whole number of grid steps the boundary reindexes cyclically.
    rng = np.random.default_rng(15)
    a = rand_matrix(rng, 4)
    n_theta = 64
    alpha = 0.3 - 0.2j
    beta = 0.7j  # phase pi/2 = 16 grid steps
    b0 = numerical_range_boundary(a, n_theta)
    b1 = numerical_range_boundary(alpha * np.eye(4) + beta * a, n_theta)
    expected = alpha + beta * np.roll(b0.points, -16)
    assert np.max(np.abs(b1.points - expected)) <= 1e-8


def test_radius_scaling():
    rng = np.random.default_rng(16)
    a = rand_matrix(rng, 3)
    for beta in (2.0, -0.5, 0.3 + 1.1j):
        assert abs(numerical_radius(beta * a) - abs(beta) * numerical_radius(a)) <= 1e-9


def test_hermitian_range_is_real_with_radius_max_abs_spectrum():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = rand_hermitian(rng, n)
        vals = hermitian_eigen(a).values
        expected = max(abs(vals[0]), abs(vals[-1]))
        assert abs(numerical_radius(a) - expected) <= 1e-9
        b = numerical_range_boundary(a, 64)
        assert np.max(np.abs(b.points.imag)) <= 1e-9


def test_spectral_inclusion_on_triangular():
    # Eigenvalues of a triangular matrix are its diagonal; each must satisfy
    # every supporting half-plane inequality of the computed range.
    rng = np.random.default_rng(18)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = np.triu(rand_matrix(rng, n))
        b = numerical_range_boundary(a, 128)
        for lam in np.diagonal(a):
            margins = (np.exp(1j * b.thetas) * lam).real - b.supports
            assert np.max(margins) <= 1e-7


def test_boundary_polygon_is_convex():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        b = numerical_range_boundary(rand_matrix(rng, n), 96)
        assert is_convex_polyline(b.points, tol=1e-9)


def test_cross_products_detect_nonconvex():
    square = np.array([0, 1, 1 + 1j, 0.5 + 0.2j, 1j], dtype=complex)
    assert not is_convex_polyline(square)


def test_boundary_points_inside_radius():
    rng = np.random.default_rng(20)
    for _ in range(10):
        a = rand_matrix(rng, int(rng.integers(2, 6)))
        s = range_summary(a, n_theta=64)
        assert np.max(np.abs(s.boundary.points)) <= s.radius + 1e-9
        assert s.radius <= s.norm + 1e-9
        assert s.norm <= 2.0 * s.radius + 1e-9
