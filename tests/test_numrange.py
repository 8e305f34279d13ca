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
from numrad.linalg import adjoint, hermitian_eigen, operator_norm
from numrad.numrange import (
    _ORACLE_CHUNK,
    LEVEL_RTOL,
    is_convex_polyline,
    numerical_radius,
    numerical_radius_oracle,
    numerical_range_boundary,
    polygon_cross_products,
    range_summary,
    rotated_hermitian_part,
    support_values,
)


def rand_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_hermitian(rng, n):
    g = rand_matrix(rng, n)
    return 0.5 * (g + g.conj().T)


# -------------------------------------------------------- rotated_hermitian_part


def test_rotated_part_of_hermitian_at_zero_is_identity_map():
    rng = np.random.default_rng(0)
    a = rand_hermitian(rng, 3)
    assert np.array_equal(rotated_hermitian_part(a, 0.0), a)


def test_rotated_part_of_shift2():
    expected = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    assert np.allclose(rotated_hermitian_part(shift2(), 0.0), expected, atol=0)


def test_rotated_part_at_pi_flips_sign():
    rng = np.random.default_rng(1)
    a = rand_matrix(rng, 4)
    lhs = rotated_hermitian_part(a, np.pi)
    rhs = rotated_hermitian_part(-a, 0.0)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_rotated_part_is_hermitian():
    rng = np.random.default_rng(2)
    a = rand_matrix(rng, 5)
    h = rotated_hermitian_part(a, 0.73)
    assert np.linalg.norm(h - h.conj().T) <= 1e-14


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


def count_eigensolves(monkeypatch):
    calls = []
    for name in ("eigvalsh", "eigh"):
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
    calls = count_eigensolves(monkeypatch)
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


def test_radius_is_exact_under_power_of_two_scaling():
    for n in (1, 3, 5):
        a = rand_matrix(np.random.default_rng(22 + n), n)
        w = numerical_radius(a)
        for k in (-1000, -1, 1, 1000):
            assert numerical_radius(a * 2.0**k) == w * 2.0**k


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
        assert abs(numerical_radius(adjoint(a)) - numerical_radius(a)) <= 1e-9


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
    c = polygon_cross_products(square)
    assert not (np.all(c >= -1e-9) or np.all(c <= 1e-9))


def test_boundary_points_inside_radius():
    rng = np.random.default_rng(20)
    for _ in range(10):
        a = rand_matrix(rng, int(rng.integers(2, 6)))
        s = range_summary(a, n_theta=64)
        assert np.max(np.abs(s.boundary.points)) <= s.radius + 1e-9
        assert s.radius <= s.norm + 1e-9
        assert s.norm <= 2.0 * s.radius + 1e-9
