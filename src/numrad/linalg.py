"""Dense complex matrix kernels.

Everything downstream reduces to two operations on small dense matrices:
a Hermitian eigendecomposition and the operator (spectral) norm. Both are
backed by LAPACK through numpy, through the one Hermitian kernel `_eigh`,
and are deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotHermitian",
    "NoConvergence",
    "HermitianEigen",
    "as_matrix",
    "hermitian_eigen",
    "operator_norm",
]

# Relative Frobenius tolerance for the Hermitian precondition. Inputs are
# constructed rather than measured, so near-misses are not symmetrized
# silently; the caller must pass a genuinely Hermitian matrix.
HERMITIAN_RTOL = 1e-10
# Range of the squared Frobenius norm f of S in which S*S is formed and
# solved unscaled. Inside it no entry of S*S overflows, underflowed products
# are negligible against its top eigenvalue (at least f/n), and LAPACK makes
# none of its own rescalings, whose factors are not powers of two: zheevd's
# when the largest entry of S*S, which is in [f/n, f], leaves [2^-485, 2^485],
# and dsterf's when the largest entry of its tridiagonal matrix, which is in
# [f/(n sqrt(3n)), f] (it has at most 3n - 2 entries and the Frobenius norm
# of S*S), is below 2^-405. So for n up to 2^16 every norm scales exactly by
# the power of two that scales S.
_GRAM_MIN = 2.0**-380
_GRAM_MAX = 2.0**380


class NotHermitian(ValueError):
    """Matrix is not Hermitian to the required tolerance."""


class NoConvergence(RuntimeError):
    """The eigensolver failed to converge."""


def _eigh(h: np.ndarray, vectors: bool = False):
    """Eigenvalues, ascending, of a Hermitian matrix or of each matrix of a
    stack (..., n, n): `eigvalsh`, or with vectors=True `eigh`'s (values, vectors).

    Every Hermitian eigensolve of the package goes through here, so a LAPACK
    failure always surfaces as NoConvergence. The routine is looked up in
    numpy.linalg at each call, so a wrapper bound there (a tracer, a test's
    counter) sees every call.

    Backward-error model, used by every rounding margin that cites it: LAPACK's
    Hermitian solvers are backward stable, and the computed eigenvalues are
    taken to be exact for a Hermitian perturbation of H of norm at most
    n^2 u ||H||, with u = eps/2: a generous form of the p(n) u of Householder
    tridiagonalisation (Higham 2002). The computed eigenvectors are
    orthonormal to within n^2 u.
    """
    try:
        return (np.linalg.eigh if vectors else np.linalg.eigvalsh)(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex ndarray and validate it.

    Rejects non-square shapes, empty matrices, and non-finite entries.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix with n >= 1, got shape {m.shape}")
    return _as_stack(m)


def _as_stack(a) -> np.ndarray:
    """`as_matrix` for a square matrix or a stack of them, shape (..., n, n)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError(f"expected a square matrix with n >= 1, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    values are real and sorted descending; vectors holds the matching
    orthonormal eigenvectors as columns, so a @ vectors[:, i] equals
    values[i] * vectors[:, i] up to roundoff.
    """

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eigen(a) -> HermitianEigen:
    """Full eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when the asymmetry exceeds HERMITIAN_RTOL relative to
    the Frobenius norm, and NoConvergence when the LAPACK kernel fails.
    """
    a = as_matrix(a)
    fro = float(np.linalg.norm(a))
    dev = float(np.linalg.norm(a - a.conj().T))
    if dev > HERMITIAN_RTOL * fro:
        raise NotHermitian(f"asymmetry {dev:.3e} exceeds {HERMITIAN_RTOL:g} * {fro:.3e}")
    vals, vecs = _eigh(a, vectors=True)
    return HermitianEigen(values=vals[::-1].copy(), vectors=vecs[:, ::-1].copy())


def pow2_scaled(a: np.ndarray):
    """(A 2^-e, e) with the largest entry modulus of A 2^-e in [1/2, 1).

    Each matrix of a stack (..., n, n) is scaled by its own power of two, and
    e then has shape a.shape[:-2]. Scaling by a power of two is exact, so
    results computed from the scaled matrix scale back exactly, and nothing
    built from it can over- or underflow at desk sizes. A zero matrix comes
    back unchanged with e = 0.
    """
    e = np.frexp(np.abs(a).max(axis=(-2, -1)))[1]
    return _ldexp(a, -e[..., None, None]), e


def _ldexp(z, e):
    """z 2^e for complex z, exact in each part and its sign (x + 1j y loses a -0.0 x)."""
    return np.ldexp(np.stack([np.real(z), np.imag(z)], -1), e[..., None]).view(complex)[..., 0]


def _spectral_norms(s: np.ndarray):
    """Spectral norms of a matrix, or of each matrix in a stack (..., m, n).

    Each norm is the sqrt of the top eigenvalue of S*S. The product S*S is
    exactly Hermitian in floating point, so the values-only Hermitian kernel
    applies directly. Squaring costs a few digits near the bottom of the
    spectrum but is harmless for the top singular value. The squared
    Frobenius norm of S brackets that top eigenvalue within a factor n; when
    it leaves [_GRAM_MIN, _GRAM_MAX], S*S could under- or overflow, or LAPACK
    rescale it inexactly, and S is first scaled by a power of two (see
    `pow2_scaled`). So the norm of 2^k S is exactly 2^k times that of S. For
    a stack, that test and the scaling are made for each matrix on its own,
    so a norm does not depend on its neighbours. An all-zero input skips the eigensolver:
    the searches measure an exactly zero T^2 on every trial.
    """
    e = 0
    v = np.ascontiguousarray(s).view(float)
    v = v.reshape(*s.shape[:-2], v.shape[-2] * v.shape[-1])
    fro2 = np.einsum("...i,...i->...", v, v)
    if not (_GRAM_MIN <= fro2.min(initial=np.inf) and fro2.max(initial=0.0) <= _GRAM_MAX):
        if not s.any():
            return np.zeros(s.shape[:-2])
        out = (fro2 < _GRAM_MIN) | (fro2 > _GRAM_MAX)
        scaled, e = pow2_scaled(s)
        s = np.where(out[..., None, None], scaled, s)
        e = np.where(out, e, 0)
    top = _eigh(s.conj().swapaxes(-1, -2) @ s)[..., -1]
    return np.ldexp(np.sqrt(np.maximum(top, 0.0)), e)


def operator_norm(a) -> float:
    """Spectral norm, the largest singular value.

    A is scaled by a power of two first when A*A could under- or overflow or
    LAPACK rescale it, so the norm stays accurate from 1e-170 to 1e160 and
    beyond, and the norm of 2^k A is exactly 2^k times that of A.
    """
    return float(_spectral_norms(as_matrix(a)))


def shifted_norms(t: np.ndarray, lams) -> np.ndarray:
    """Spectral norms ||T - lam I|| of a square complex ndarray T, one per lam.

    T may also be a stack (..., n, n); the result then has shape
    (..., len(lams)). One batched Hermitian sweep over the Gram matrices of
    the shifted stack, with the scaling guard of `_spectral_norms`.
    """
    lams = np.asarray(lams, dtype=complex)
    return _spectral_norms(t[..., None, :, :] - lams[:, None, None] * np.eye(t.shape[-1]))
