"""Numerical range and radius tests.

The sampling oracle (a guaranteed lower bound on the radius) and fine
support-function sweeps cross-validate the certified radius; geometric
invariants of the range are checked on random ensembles.
"""

import itertools
import math
import warnings
from decimal import Decimal, localcontext

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
from numrad.linalg import _eigh, hermitian_eigen, operator_norm, pow2_scaled
from numrad.numrange import (
    _ORACLE_CHUNK,
    _SEED_ANGLES,
    LEVEL_RTOL,
    SEED_GRID,
    _ascend,
    _factors,
    _rises,
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
    # The sweep of A scaled to a largest entry in [1/2, 1), scaled back, as
    # the boundary itself scales.
    for a in boundary_matrices():
        b = numerical_range_boundary(a, n_theta)
        scaled, e = pow2_scaled(a.astype(complex))
        supports, points = full_boundary_sweep(scaled, n_theta)
        assert np.array_equal(b.supports, np.ldexp(supports, e))
        assert np.array_equal(b.points, points * 2.0**e)


@pytest.mark.parametrize("n_theta", [64, 65])
def test_boundary_is_exact_under_power_of_two_scaling(n_theta):
    # Beyond about 1e+-146 LAPACK's eigh rescales H(theta) by a factor that
    # is not a power of two; the boundary's own pow2 scaling keeps it exact.
    rng = np.random.default_rng(48)
    for n in (2, 3, 4, 5, 6, 7, 8) * 6:
        a = rand_matrix(rng, n)
        b = numerical_range_boundary(a, n_theta)
        for k in (400, 498, -498, 540, -540):
            bk = numerical_range_boundary(a * 2.0**k, n_theta)
            assert np.array_equal(bk.supports, np.ldexp(b.supports, k))
            assert np.array_equal(bk.points, b.points * 2.0**k)


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
    of 2001 angles around the best angle and around every coarse local
    maximum that its grid error could lift to the best value.

    A peak lies within one grid spacing of a local maximum of the grid, and
    rises above it by less than the drop to the lower neighbour (a quarter
    of it on a parabola), so the zoom spans one spacing on each side. A drop
    at the rounding level, as on the flat support function of a square-zero
    matrix, leaves nothing to zoom.
    """
    h = 2.0 * np.pi / 4096
    thetas = np.arange(4096) * h
    vals = support_values(a, thetas)
    best = float(vals.max())
    prev, nxt = np.roll(vals, 1), np.roll(vals, -1)
    drop = np.maximum(vals - prev, vals - nxt)
    rounding = 16 * a.shape[-1] * np.finfo(float).eps * abs(best)
    peaks = (vals >= prev) & (vals >= nxt) & (vals + drop >= best) & (drop > rounding)
    for t in thetas[np.union1d(np.flatnonzero(peaks), [np.argmax(vals)])]:
        w = h
        for _ in range(2):
            zoom = t + np.linspace(-w, w, 2001)
            zv = support_values(a, zoom)
            t, w = zoom[int(np.argmax(zv))], w / 1000
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

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_radius_of_square_zero_stops_newton_at_once(seed, monkeypatch):
    # W(T) of a square-zero T is the disk of radius ||T||/2 about 0, so the
    # support function is flat: the probe's f(0) and f(pi) already meet the
    # norm sweep's bound, which certifies the radius before any seed grid or
    # Newton evaluation.
    t = gen_nilpotent_instance(2 + seed, seed)
    calls = count_calls(monkeypatch, "eigvalsh", "eigh")
    w = numerical_radius(t)
    assert calls == ["eigvalsh", "eigvalsh"]
    assert abs(w - 0.5 * operator_norm(t)) <= 1e-12 * w


def normaloid_and_square_zero(n, rng):
    """(A, w(A)) for a Hermitian, a normal and a square-zero A of order n."""
    g = rand_matrix(rng, n)
    herm = 0.5 * (g + g.conj().T)
    d = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    u = random_unitary(n, rng)
    square_zero = gen_nilpotent_instance(n, int(rng.integers(1 << 30)))
    return [(herm, np.abs(np.linalg.eigvalsh(herm)).max()), ((u * d) @ u.conj().T, np.abs(d).max()),
            (square_zero, 0.5 * operator_norm(square_zero))]


def probe_certified(n, rng):
    """(A, w(A)) for Hermitian A with lambda_max > -lambda_min, with
    -lambda_min > lambda_max and with a double top eigenvalue, and for a
    square-zero A: the probe's f(0) or f(pi) is w(A), and the norm bound
    meets it."""
    herm = rand_hermitian(rng, n)
    u = random_unitary(n, rng)
    spec = rng.uniform(-1.0, 1.0, n)
    spec[:2] = 2.0, 2.0
    double = 0.5 * ((u * spec) @ u.conj().T + ((u * spec) @ u.conj().T).conj().T)
    square_zero = gen_nilpotent_instance(n, int(rng.integers(1 << 30)))
    cases = [(h, np.abs(np.linalg.eigvalsh(h)).max()) for h in (herm, -herm, double)]
    return cases + [(square_zero, 0.5 * operator_norm(square_zero))]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 32])
def test_probe_certified_radii_take_one_eigvalsh_besides_the_norm_bounds(n, monkeypatch):
    # The probe's eigvalsh of H(0) and the norm bound's eigvalsh decide these
    # matrices, alone or stacked: no seed grid, Newton step, level-set solve
    # or midpoint. w is max |lambda| or ||T||/2 to the eigensolvers' rounding.
    cases = probe_certified(n, np.random.default_rng(90 + n))
    calls = count_calls(monkeypatch, "eigvalsh", "eigh", "eigvals", "solve", "cholesky")
    alone = []
    for a, expected in cases:
        before = len(calls)
        alone.append(numerical_radius(a))
        assert calls[before:] == ["eigvalsh", "eigvalsh"]
        assert abs(alone[-1] - expected) <= (n + 2) ** 2 * np.finfo(float).eps * expected
    before = len(calls)
    assert numerical_radius(np.array([a for a, _ in cases])).tolist() == alone
    assert calls[before:] == ["eigvalsh", "eigvalsh"]


def mixed_radius_stack(n):
    """A zero matrix, Hermitian H with -lambda_min > lambda_max, a square-zero
    matrix, e^{i phi} H, a Ginibre and a disk draw: the probe certifies the
    first three, the last three take the seed grid."""
    rng = np.random.default_rng(80 + n)
    u = random_unitary(n, rng)
    spec = np.linspace(-3.0, 1.0, n)
    h = (u * spec) @ u.conj().T
    h = 0.5 * (h + h.conj().T)
    return np.array([np.zeros((n, n), dtype=complex), h, gen_nilpotent_instance(n, 5), np.exp(0.7j) * h,
                     ginibre(n, rng), gen_disk_instance(1 + 0.5j, 0.4, n, 6)[0]])


@pytest.mark.parametrize("n", [2, 4, 8])
def test_mixed_stack_radii_are_the_one_matrix_radii_in_any_order(n):
    stack = mixed_radius_stack(n)
    alone = [numerical_radius(a) for a in stack]
    assert repr(alone[0]) == "0.0"
    orders = itertools.permutations(range(len(stack))) if n == 2 else (
        np.random.default_rng(n).permutation(len(stack)) for _ in range(24))
    for order in map(list, orders):
        w = numerical_radius(stack[order])
        assert w.tolist() == [alone[i] for i in order]
        assert not np.signbit(w).any()


@pytest.mark.parametrize("n", [4, 32])
def test_normaloid_and_square_zero_radii_take_no_level_set_test(n, monkeypatch):
    # w = ||A|| (Hermitian, normal) and w = ||A||/2 (A^2 = 0) meet Kittaneh's
    # bound, so it certifies the attained value: no solve, no eigvals.
    cases = normaloid_and_square_zero(n, np.random.default_rng(50 + n))
    calls = count_calls(monkeypatch, "eigvals", "solve")
    for a, expected in cases:
        assert abs(numerical_radius(a) - expected) <= 1e-12 * expected
    stacked = numerical_radius(np.array([a for a, _ in cases]))
    assert stacked.tolist() == [numerical_radius(a) for a, _ in cases]
    assert calls == []


def test_radius_near_the_norm_bound_margin_matches_fine_sweep(monkeypatch):
    # A normal or Hermitian A plus s G. With a simple top eigenvalue,
    # ||A|| - w(A) is of order s^2, so at s = 1e-7 the bound U sits near the
    # certified level: some draws are certified by it and some take the
    # level-set test. Either way the radius is the fine sweep's. The normal
    # base also comes with unit-modulus eigenvalues, the same G added: every
    # eigenvalue is then a peak of nearly the height of the highest, and at
    # n = 8, s = 1e-7 the highest lies between two coarse angles, half a
    # grid spacing from the nearer one.
    rng = np.random.default_rng(61)
    tests = count_calls(monkeypatch, "eigvals")
    certified = []
    for n, scale in [(n, s) for n in (4, 8) for s in (1e-13, 1e-7, 1e-6)]:
        u = random_unitary(n, rng)
        d = rng.uniform(0.5, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        normal = (u * d) @ u.conj().T
        unit = (u * (d / np.abs(d))) @ u.conj().T
        herm = (u * rng.uniform(-1.0, 1.0, n)) @ u.conj().T
        g = [scale * rand_matrix(rng, n) for _ in range(2)]
        for a in (normal + g[0], unit + g[0], herm + g[1]):
            before = len(tests)
            w = numerical_radius(a)
            ref = fine_radius(a)
            assert abs(w - ref) <= 1e-12 * ref
            assert ref <= w * (1.0 + LEVEL_RTOL)
            certified.append(len(tests) == before)
    assert any(certified) and not all(certified)


@pytest.mark.parametrize("n", [2, 4, 32])
def test_zero_matrices_take_no_level_set_test(n, monkeypatch):
    # Kittaneh's bound of a zero matrix is 0, so no level above it is left
    # to test: the stack leaves before any solve, eigvals or midpoint.
    calls = count_calls(monkeypatch, "eigvals", "solve", "cholesky")
    w = numerical_radius(np.zeros((3, n, n), dtype=complex))
    assert calls == []
    assert w.tolist() == [0.0, 0.0, 0.0] and not np.signbit(w).any()
    assert repr(numerical_radius(np.zeros((n, n)))) == "0.0"


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


def test_radius_of_one_by_one_is_correctly_rounded():
    # |a11| rounded once, against a 60-digit square root; numpy's hypot is
    # 1 ulp off on 114 of these 25000 values.
    rng = np.random.default_rng(0)
    z = rng.standard_normal(25000) + 1j * rng.standard_normal(25000)
    with localcontext() as ctx:
        ctx.prec = 60
        exact = [float((Decimal(x.real) ** 2 + Decimal(x.imag) ** 2).sqrt()) for x in z.tolist()]
    assert numerical_radius(z[:, None, None]).tolist() == exact
    assert numerical_radius(z[7:8, None]) == exact[7]


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


def test_second_test_draw_takes_its_second_test_through_the_cholesky_fallback(monkeypatch):
    # Its first test has a midpoint above the level: the Cholesky of
    # r I - H(mid) fails, eigvalsh finds that value, and Newton restarts.
    raised = []
    cholesky = np.linalg.cholesky

    def counted(m):
        try:
            return cholesky(m)
        except np.linalg.LinAlgError:
            raised.append(len(m))
            raise

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    tests = count_calls(monkeypatch, "eigvals")
    numerical_radius(gen_disk_instance(*SECOND_TEST_DRAW)[0])
    assert len(tests) == 2 and raised


def _rises_one_matrix_at_a_time(h, level, owner):
    """Reference for `_rises` after its batched `cholesky` fails: each matrix
    factorises its own midpoints, and those of the matrices that fail take
    one `eigvalsh` call together."""
    shifted = level[:, None, None] * np.eye(h.shape[-1]) - h
    p = np.concatenate([np.flatnonzero(owner == k) for k in np.unique(owner)
                        if not _factors(shifted[owner == k])])
    vals = _eigh(h[p])[:, -1]
    up = vals > level[p]
    return p[up], vals[up]


@pytest.mark.parametrize("failing", [[0], [18], [36], [0, 18, 36], list(range(37)), list(range(0, 37, 2)),
                                     list(range(20)), list(range(5, 37)), [1, 2, 3, 17, 18, 30, 31]],
                         ids=["start", "middle", "end", "three", "all", "alternate", "prefix", "suffix", "runs"])
def test_rises_bisects_to_the_matrices_that_fail_their_cholesky(failing, monkeypatch):
    # 37 matrices with 1 to 4 midpoints each. A failing matrix has one
    # midpoint whose level is below its top eigenvalue; every other level is
    # well above. The bisection finds the same midpoints and values as a
    # factorisation per matrix, bit for bit, in about 2 k log2(G) calls.
    rng = np.random.default_rng(25)
    owner = np.repeat(np.arange(37), rng.integers(1, 5, size=37))
    g = rng.standard_normal((len(owner), 4, 4)) + 1j * rng.standard_normal((len(owner), 4, 4))
    h = 0.5 * (g + g.conj().swapaxes(-1, -2))
    top = np.linalg.eigvalsh(h)[:, -1]
    level = top + 0.5
    first = np.searchsorted(owner, failing)
    level[first] = top[first] - 0.5
    want = _rises_one_matrix_at_a_time(h, level, owner)
    calls = count_calls(monkeypatch, "cholesky")
    got = _rises(h, level, owner)
    assert got[0].tolist() == want[0].tolist() == first.tolist()
    assert got[1].tobytes() == want[1].tobytes()
    assert len(calls) <= 1 + 2 * len(failing) * math.ceil(math.log2(37))


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


def test_ascent_is_monotone_from_its_starts_to_the_radius():
    # Seeded A of n = 1..6, then the identity, the zero matrix and a diagonal
    # A started from its eigenvectors: there the gradient Hx - <Hx, x>x is
    # exactly zero.
    rng = np.random.default_rng(31)

    def starts(n):
        x = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        return x / np.linalg.norm(x, axis=1)[:, None]

    cases = [(rand_matrix(rng, n), starts(n)) for n in range(1, 7)]
    cases += [(np.eye(3, dtype=complex), starts(3)), (np.zeros((3, 3), dtype=complex), starts(3)),
              (np.diag([3.0, -1.0, 2.0]).astype(complex), np.eye(3, dtype=complex))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, (a, x) in enumerate(cases):
            values = [_ascend(a, x, steps) for steps in range(5)]
            assert values == sorted(values)
            if 1 <= k <= 5:  # the seeded A of n >= 2 gain in the first step
                assert values[1] > values[0]
            assert values[0] == np.abs(np.einsum("bi,bi->b", x.conj(), x @ a.T)).max()
            assert values[-1] <= numerical_radius(a) * (1 + 1e-12)


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
