"""Matrix kernel tests, cross-checked against closed forms and power iteration."""

import warnings

import numpy as np
import pytest

from numrad.linalg import (
    DimensionMismatch,
    NotHermitian,
    add,
    adjoint,
    as_matrix,
    hermitian_eigen,
    identity,
    matmul,
    operator_norm,
    scale,
    shift,
    shifted_norms,
)
from numrad.numrange import numerical_radius


def rand_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_hermitian(rng, n):
    g = rand_matrix(rng, n)
    return 0.5 * (g + g.conj().T)


def eig2_hermitian(a):
    """Quadratic-formula eigenvalues of a 2x2 Hermitian matrix, descending."""
    p = a[0, 0].real
    q = a[1, 1].real
    mid = 0.5 * (p + q)
    rad = np.sqrt((0.5 * (p - q)) ** 2 + abs(a[0, 1]) ** 2)
    return mid + rad, mid - rad


def power_iteration_norm(a, steps=10_000):
    """Independent spectral-norm estimate: power iteration on A*A."""
    m = a.conj().T @ a
    v = np.ones(a.shape[0], dtype=complex)
    v /= np.linalg.norm(v)
    for _ in range(steps):
        v = m @ v
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        v /= nv
    return float(np.sqrt((v.conj() @ m @ v).real))


# ---------------------------------------------------------------- validation


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        as_matrix(np.zeros(4))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0], [0, 0]])
    with pytest.raises(ValueError):
        as_matrix([[0, 1j * np.inf], [0, 0]])


# ------------------------------------------------------------------- adjoint


def test_adjoint_identity():
    assert np.array_equal(adjoint(identity(2)), identity(2))


def test_adjoint_real_shift():
    assert np.array_equal(adjoint([[0, 0], [1, 0]]), np.array([[0, 1], [0, 0]], dtype=complex))


def test_adjoint_conjugates_1x1():
    assert adjoint([[1j]])[0, 0] == -1j


def test_adjoint_involution_exact():
    rng = np.random.default_rng(3)
    a = rand_matrix(rng, 5)
    assert np.array_equal(adjoint(adjoint(a)), a)


# ------------------------------------------------------------- arithmetic ops


def test_shift_by_zero_is_identity_map():
    rng = np.random.default_rng(4)
    a = rand_matrix(rng, 3)
    assert np.array_equal(shift(a, 0.0), a)


def test_identity_is_neutral_for_matmul():
    rng = np.random.default_rng(5)
    a = rand_matrix(rng, 3)
    assert np.allclose(matmul(identity(3), a), a, atol=0)


def test_shift2_squares_to_zero():
    s = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.array_equal(matmul(s, s), np.zeros((2, 2)))


def test_scale_and_add():
    a = np.array([[1, 0], [0, 1]], dtype=complex)
    assert np.array_equal(add(a, scale(-1, a)), np.zeros((2, 2)))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        add(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        matmul(np.zeros((2, 2)), np.zeros((3, 3)))


# ------------------------------------------------------------ hermitian_eigen


def test_eigen_diagonal():
    res = hermitian_eigen(np.diag([2.0, 1.0]))
    assert np.allclose(res.values, [2.0, 1.0], atol=0)


def test_eigen_pauli_x():
    res = hermitian_eigen(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(res.values, [1.0, -1.0], atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_eigen_2x2_matches_quadratic_formula(seed):
    rng = np.random.default_rng(seed)
    a = rand_hermitian(rng, 2)
    res = hermitian_eigen(a)
    hi, lo = eig2_hermitian(a)
    assert abs(res.values[0] - hi) <= 1e-12
    assert abs(res.values[1] - lo) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_eigen_residual_and_orthonormality(n):
    rng = np.random.default_rng(100 + n)
    a = rand_hermitian(rng, n)
    res = hermitian_eigen(a)
    fro = np.linalg.norm(a)
    for i in range(n):
        v = res.vectors[:, i]
        assert np.linalg.norm(a @ v - res.values[i] * v) <= 1e-10 * fro
    gram = res.vectors.conj().T @ res.vectors
    assert np.linalg.norm(gram - np.eye(n)) <= 1e-10
    assert np.all(np.diff(res.values) <= 0)


def test_eigen_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigen([[0, 0], [1, 0]])


def test_eigen_rejects_small_nonhermitian():
    # Asymmetry is judged relative to the matrix's own Frobenius norm, so a
    # tiny matrix is no more Hermitian than the same matrix at unit scale.
    with pytest.raises(NotHermitian):
        hermitian_eigen(1e-12 * np.array([[1, 1], [0, 1]], dtype=complex))


def test_eigen_accepts_tiny_asymmetry():
    a = np.array([[1.0, 1e-12], [0.0, 1.0]], dtype=complex)
    res = hermitian_eigen(a)
    assert res.values.shape == (2,)


# -------------------------------------------------------------- operator_norm


def test_norm_identity():
    assert operator_norm(identity(2)) == 1.0


def test_norm_single_unit_entry():
    assert operator_norm([[0, 0], [1, 0]]) == 1.0


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_norm_matches_power_iteration(seed):
    rng = np.random.default_rng(seed)
    a = rand_matrix(rng, 3)
    assert abs(operator_norm(a) - power_iteration_norm(a)) <= 1e-8


def test_norm_of_adjoint_equals_norm():
    rng = np.random.default_rng(21)
    for n in (2, 4, 7):
        a = rand_matrix(rng, n)
        assert abs(operator_norm(adjoint(a)) - operator_norm(a)) <= 1e-10


def test_hermitian_norm_is_max_abs_eigenvalue():
    rng = np.random.default_rng(22)
    for n in (2, 3, 6):
        a = rand_hermitian(rng, n)
        res = hermitian_eigen(a)
        assert abs(operator_norm(a) - max(abs(res.values[0]), abs(res.values[-1]))) <= 1e-10


@pytest.mark.parametrize("scale_", [1e-170, 1e-150, 1e150, 1e160])
def test_norm_sandwich_holds_at_extreme_scales(scale_):
    a = scale_ * np.array([[1, 2], [0, 1j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nrm = operator_norm(a)
        w = numerical_radius(a)
    assert w > 0.0
    assert w <= nrm * (1 + 1e-12)
    assert nrm <= 2.0 * w * (1 + 1e-12)
    assert abs(nrm / scale_ - operator_norm([[1, 2], [0, 1j]])) <= 1e-12 * nrm / scale_


def test_norm_of_zero_matrix():
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_shifted_norms_match_one_norm_per_shift():
    rng = np.random.default_rng(23)
    for n in (1, 3, 5):
        t = rand_matrix(rng, n)
        lams = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        expected = [operator_norm(shift(t, lam)) for lam in lams]
        assert np.allclose(shifted_norms(t, lams), expected, rtol=1e-13, atol=0.0)
