"""Matrix kernel tests, cross-checked against closed forms and power iteration."""

import ast
import pathlib
import warnings

import numpy as np
import pytest

import numrad
from numrad.bounds import DiskCertificate, SectorPair, check_disk, check_sector_hypothesis, optimize_lambda, verify_all
from numrad.extremal import search_sqrt_disk
from numrad.linalg import (
    NoConvergence,
    NotHermitian,
    as_matrix,
    hermitian_eigen,
    operator_norm,
    pow2_scaled,
    shifted_norms,
)
from numrad.linalg import _ldexp, _spectral_norms
from numrad.numrange import numerical_radius, numerical_radius_oracle, numerical_range_boundary


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
    assert operator_norm(np.eye(2, dtype=complex)) == 1.0


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
        assert abs(operator_norm(a.conj().T) - operator_norm(a)) <= 1e-10


def test_hermitian_norm_is_max_abs_eigenvalue():
    rng = np.random.default_rng(22)
    for n in (2, 3, 6):
        a = rand_hermitian(rng, n)
        res = hermitian_eigen(a)
        assert abs(operator_norm(a) - max(abs(res.values[0]), abs(res.values[-1]))) <= 1e-10


@pytest.mark.parametrize("scale_", [1e-170, 1e-150, 1e150, 1e160])
def test_norm_sandwich_holds_at_extreme_scales(scale_):
    a = scale_ * np.array([[1, 2], [0, 1j]])
    lams = np.array([0.0, 1.0, 1j, -0.5 + 2j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nrm = operator_norm(a)
        w = numerical_radius(a)
        shifted = shifted_norms(a, scale_ * lams)
    assert w > 0.0
    assert w <= nrm * (1 + 1e-12)
    assert nrm <= 2.0 * w * (1 + 1e-12)
    assert abs(nrm / scale_ - operator_norm([[1, 2], [0, 1j]])) <= 1e-12 * nrm / scale_
    unit = shifted_norms(np.array([[1, 2], [0, 1j]], dtype=complex), lams)
    assert np.all(np.abs(shifted - scale_ * unit) <= 1e-15 * scale_ * unit)


def test_norm_of_zero_matrix():
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_shifted_norms_match_one_norm_per_shift():
    rng = np.random.default_rng(23)
    for scale_ in (1.0, 1e-170, 1e-150, 1e150, 1e160):
        for n in (1, 3, 5):
            t = scale_ * rand_matrix(rng, n)
            lams = scale_ * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                norms = shifted_norms(t, lams)
                expected = [operator_norm(t - lam * np.eye(n)) for lam in lams]
            assert np.allclose(norms, expected, rtol=1e-13, atol=0.0)


def test_shifted_norms_of_a_stack_match_one_matrix_at_a_time():
    rng = np.random.default_rng(29)
    lams = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for n in (1, 3, 5):
        stack = np.stack([rand_matrix(rng, n) for _ in range(9)])
        norms = shifted_norms(stack, lams)
        assert norms.shape == (9, len(lams))
        for i in range(len(stack)):
            single = shifted_norms(stack[i], lams)
            assert single.shape == (len(lams),)
            assert norms[i].tobytes() == single.tobytes()


def test_stacked_norms_scale_each_matrix_on_its_own():
    # S*S of a 2^-600 matrix underflows next to O(1) neighbours unless the
    # scaling guard decides for each matrix on its own.
    rng = np.random.default_rng(30)
    for n in (1, 3):
        a = rand_matrix(rng, n)
        for k in (-600, 600):
            stack = np.array([a, a * 2.0**k, np.zeros((n, n)), a])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                norms = _spectral_norms(stack)
            alone = [operator_norm(m) for m in stack]
            assert norms.tolist() == alone
            assert alone[1] == alone[0] * 2.0**k


def test_pow2_scaling_is_exact_in_the_sign_of_zero():
    # x + 1j y turns a -0.0 real part into +0.0; each part is scaled on its own.
    a = np.array([[complex(-0.0, 1.0), complex(-0.0, -0.0)], [complex(1.0, -0.0), 2.0]])
    scaled, e = pow2_scaled(a)
    assert e == 2
    assert scaled.tolist() == (a / 4).tolist()
    assert np.array_equal(np.signbit(scaled.real), np.signbit(a.real))
    assert np.array_equal(np.signbit(scaled.imag), np.signbit(a.imag))
    back = _ldexp(scaled, np.full((2, 2), e))
    assert np.array_equal(np.signbit(back.view(float)), np.signbit(a.view(float)))


# ------------------------------------------------------- one eigen kernel

_G = np.stack([rand_matrix(np.random.default_rng(41 + i), 3) for i in range(3)])
# Each public entry, called on a 3 x 3 Ginibre matrix (or a stack of three),
# with the Hermitian routines of numpy.linalg it reaches.
_EIGEN_ENTRIES = {
    "numerical_radius": (lambda: numerical_radius(_G[0]), ("eigh", "eigvalsh")),
    "numerical_radius_stack": (lambda: numerical_radius(_G), ("eigh", "eigvalsh")),
    "numerical_range_boundary": (lambda: numerical_range_boundary(_G[0], 16), ("eigh",)),
    "numerical_radius_oracle": (lambda: numerical_radius_oracle(_G[0], 100, 1), ("eigh",)),
    "operator_norm": (lambda: operator_norm(_G[0]), ("eigvalsh",)),
    "shifted_norms": (lambda: shifted_norms(_G[0], [1.0, 2j]), ("eigvalsh",)),
    "hermitian_eigen": (lambda: hermitian_eigen(_G[0] + _G[0].conj().T), ("eigh",)),
    "check_disk": (lambda: check_disk(_G[0], DiskCertificate(lam=1.0, r=5.0)), ("eigvalsh",)),
    "check_sector_hypothesis": (lambda: check_sector_hypothesis(_G[0], SectorPair(phi=3.0, varphi=-1.0)),
                                ("eigvalsh",)),
    "optimize_lambda": (lambda: optimize_lambda(_G[0]), ("eigh", "eigvalsh")),
    "verify_all": (lambda: verify_all(_G[0], [DiskCertificate(lam=1.0, r=5.0)]), ("eigh", "eigvalsh")),
    "search_sqrt_disk": (lambda: search_sqrt_disk(3, 5, 1), ("eigvalsh",)),
}


@pytest.mark.parametrize("entry, routine", [
    (entry, routine) for entry, (_, routines) in _EIGEN_ENTRIES.items() for routine in routines
])
def test_every_eigensolver_failure_raises_no_convergence(entry, routine, monkeypatch):
    # A LAPACK failure of either Hermitian routine surfaces as one error,
    # NoConvergence, from every public entry that reaches it; never as
    # numpy's LinAlgError.
    calls = []

    def fail(*args, **kwargs):
        calls.append(1)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(NoConvergence, match="did not converge"):
        _EIGEN_ENTRIES[entry][0]()
    assert calls


def test_only_the_kernel_names_numpys_hermitian_eigensolvers():
    # Every Hermitian eigensolve goes through linalg._eigh, so a new direct
    # call of np.linalg.eigh or eigvalsh elsewhere in the package fails here.
    names = {"eigh", "eigvalsh"}
    found = []
    for path in sorted(pathlib.Path(numrad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}
        for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            scope.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                assert not names & {alias.name for alias in node.names}, path.name
            if isinstance(node, ast.Attribute) and node.attr in names:
                found.append((path.name, scope.get(id(node))))
    assert found and set(found) == {("linalg.py", "_eigh")}
