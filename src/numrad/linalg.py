"""Dense complex matrix kernels.

Everything downstream reduces to two operations on small dense matrices:
a Hermitian eigendecomposition and the operator (spectral) norm. Both are
backed by LAPACK through numpy and are deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotHermitian",
    "NoConvergence",
    "HermitianEigen",
    "as_matrix",
    "adjoint",
    "shift",
    "hermitian_eigen",
    "operator_norm",
]

# Relative Frobenius tolerance for the Hermitian precondition. Inputs are
# constructed rather than measured, so near-misses are not symmetrized
# silently; the caller must pass a genuinely Hermitian matrix.
HERMITIAN_RTOL = 1e-10
# Range of the squared Frobenius norm in which A*A is formed unscaled: inside
# it no entry of A*A overflows, and underflowed products are negligible
# against its top eigenvalue, which is at least 1/n of the squared norm.
_GRAM_MIN = 2.0**-900
_GRAM_MAX = 2.0**900


class NotHermitian(ValueError):
    """Matrix is not Hermitian to the required tolerance."""


class NoConvergence(RuntimeError):
    """The eigensolver failed to converge."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex ndarray and validate it.

    Rejects non-square shapes, empty matrices, and non-finite entries.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix with n >= 1, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(a) -> np.ndarray:
    """Conjugate transpose. An involution: adjoint(adjoint(a)) == a exactly."""
    return as_matrix(a).conj().T


def shift(a, lam) -> np.ndarray:
    """A - lam * I."""
    a = as_matrix(a)
    return a - complex(lam) * np.eye(a.shape[0], dtype=complex)


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
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return HermitianEigen(values=vals[::-1].copy(), vectors=vecs[:, ::-1].copy())


def pow2_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(A 2^-e, e) with the largest entry modulus of A 2^-e in [1/2, 1).

    Scaling by a power of two is exact, so results computed from the scaled
    matrix scale back exactly, and nothing built from it can over- or
    underflow at desk sizes. The zero matrix comes back unchanged with e = 0.
    """
    e = int(np.frexp(np.abs(a).max())[1])
    return np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e), e


def operator_norm(a) -> float:
    """Spectral norm, the largest singular value.

    Computed as sqrt of the top eigenvalue of A*A. The product A*A is exactly
    Hermitian in floating point, so the values-only Hermitian kernel applies
    directly. Squaring costs a few digits near the bottom of the spectrum but
    is harmless for the top singular value. The squared Frobenius norm
    brackets that top eigenvalue within a factor n; when it leaves
    [_GRAM_MIN, _GRAM_MAX], A*A would under- or overflow, and A is first
    scaled by a power of two (see `pow2_scaled`).
    """
    a = as_matrix(a)
    e = 0
    fro2 = float(np.vdot(a, a).real)
    if not _GRAM_MIN <= fro2 <= _GRAM_MAX:
        if not a.any():
            return 0.0
        a, e = pow2_scaled(a)
    try:
        top = float(np.linalg.eigvalsh(a.conj().T @ a)[-1])
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return float(np.ldexp(np.sqrt(max(top, 0.0)), e))


def shifted_norms(t: np.ndarray, lams) -> np.ndarray:
    """Spectral norms ||T - lam I|| of a square complex ndarray T, one per lam.

    One batched Hermitian sweep over the Gram matrices of the shifted stack;
    no scaling, so meant for matrices of moderate size entries.
    """
    lams = np.asarray(lams, dtype=complex)
    stack = t - lams[:, None, None] * np.eye(t.shape[0])
    gram = stack.conj().swapaxes(-1, -2) @ stack
    return np.sqrt(np.clip(np.linalg.eigvalsh(gram)[:, -1], 0.0, None))
