"""Numerical range boundary, numerical radius, and a sampling cross-check.

The numerical range W(A) of a square complex matrix A is the set of Rayleigh
quotients <Ax, x> over unit vectors x; it is a convex, compact subset of the
plane. Its support function in direction theta is the top eigenvalue of the
rotated Hermitian part

    H(theta) = (e^{i theta} A + e^{-i theta} A*) / 2,

because Re(e^{i theta} <Ax, x>) = <H(theta) x, x>. Two consequences drive
this module: the boundary of W(A) is traced by the Rayleigh quotients of the
top eigenvectors of H(theta), and the numerical radius w(A) = max |W(A)|
equals max over theta of the top eigenvalue of H(theta). Everything therefore
reduces to Hermitian eigenproblems: the boundary is swept over a theta grid,
and the radius is found by Newton steps on that top eigenvalue and certified
by a level-set test, which finds every angle where a given level is an
eigenvalue of H(theta) (see `numerical_radius`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import NoConvergence, _as_stack, _eigh, _ldexp, _spectral_norms, as_matrix, operator_norm, pow2_scaled

__all__ = [
    "Boundary",
    "RangeSummary",
    "numerical_range_boundary",
    "numerical_radius",
    "numerical_radius_oracle",
    "range_summary",
    "is_convex_polyline",
]

# Default number of boundary angles in range_summary.
BOUNDARY_GRID = 512
# Radius seed grid: its local maxima start Newton. The level-set test, not
# this grid, finds the global basin, so the grid can be coarse. It is even,
# so that its second half is its first half turned by pi (see _seed_supports).
SEED_GRID = 16
_SEED_ANGLES = np.arange(SEED_GRID) * (2.0 * np.pi / SEED_GRID)
# The radius is certified at the level r = L (1 + LEVEL_RTOL) above the
# attained value L: well above eigensolver roundoff, so a converged L passes.
LEVEL_RTOL = 1e-12
_EPS = np.finfo(float).eps
# Newton stops where f'' > -_FLAT * L, as on the flat support function of a
# square-zero matrix, where f'' is roundoff. Below this curvature f varies by
# less than about LEVEL_RTOL * L, so the seed grid's best value already lies
# within the certified level.
_FLAT = 1e-12
_NEWTON_STARTS = 4
_NEWTON_STEPS = 8
# Crossing gaps narrower than this (radians) hold no midpoint that matters.
_MIN_GAP = 1e-9
# Each failed test raises L by a factor of at least 1 + LEVEL_RTOL; in
# practice one or two tests suffice, so this only guards against a loop.
_MAX_TESTS = 32

_ORACLE_CHUNK = 1 << 16
# Refinement of the oracle's best draws. Two steps bring the worst gap on the
# acceptance ensemble to about 5e-5; more steps converge every start to the
# same local maximum, and results for different seeds then agree to roundoff.
_ORACLE_STARTS = 4
_ORACLE_STEPS = 2


def _hermitian_stack(a: np.ndarray, ac: np.ndarray, owner: np.ndarray, thetas) -> np.ndarray:
    """H(theta) of matrix owner[p] of the stack a at angle thetas[p], for each p.

    ac holds the conjugates of a. H is formed in place in the gathered
    copies: at n = 32, forming it in fresh arrays made a 63-midpoint sweep
    0.5 ms slower than broadcasting one A over the angles.
    """
    ph = np.exp(1j * thetas)[:, None, None]
    h = a.take(owner, axis=0)
    g = ac.take(owner, axis=0).swapaxes(-1, -2)
    np.multiply(ph, h, out=h)
    np.multiply(np.conj(ph), g, out=g)
    return np.multiply(0.5, np.add(h, g, out=h), out=h)


def _seed_supports(a: np.ndarray, ac: np.ndarray):
    """Support values of each matrix of the stack a (B, n, n) at the
    _SEED_ANGLES, shape (B, SEED_GRID), and its H(theta) at the first half of
    them, shape (B, SEED_GRID // 2, n, n).

    Since H(theta + pi) = -H(theta), one eigvalsh over the first half gives
    both: angle k + SEED_GRID / 2 takes -lambda_min of angle k. Those values
    agree with a sweep of every angle to eigensolver roundoff, not bit for bit.
    """
    count, n, half = a.shape[0], a.shape[-1], SEED_GRID // 2
    pairs = np.arange(count).repeat(half), np.tile(_SEED_ANGLES[:half], count)
    stack = _hermitian_stack(a, ac, *pairs).reshape(count, half, n, n)
    vals = _eigh(stack)
    return np.concatenate([vals[..., -1], -vals[..., 0]], axis=1), stack


class Boundary(NamedTuple):
    """Sampled boundary of the numerical range.

    For each grid angle theta: the Rayleigh quotient <Ax, x> of a top
    eigenvector x of H(theta), and the support value (top eigenvalue). When
    the top eigenvalue is degenerate any top eigenvector is accepted, so a
    flat face contributes one of its points.
    """

    thetas: np.ndarray
    points: np.ndarray
    supports: np.ndarray


@dataclass(frozen=True)
class RangeSummary:
    radius: float
    norm: float
    boundary: Boundary


def numerical_range_boundary(a, n_theta: int) -> Boundary:
    """Sample the boundary of W(A) at n_theta uniform angles over [0, 2 pi).

    Re(e^{i theta} point) equals the support value at each angle up to
    eigensolver roundoff. Since H(theta + pi) = -H(theta), an even n_theta
    takes one eigendecomposition per angle of the first half: the angle
    k + n_theta/2 gets the bottom eigenpair of angle k, with support
    -lambda_min. Those supports agree with a full sweep to eigensolver
    roundoff, not bit for bit; an odd n_theta sweeps every angle.

    The sweep runs on A scaled by a power of two to a largest entry in
    [1/2, 1) (see `pow2_scaled`), and points and supports are scaled back
    exactly, so the boundary of 2^k A is 2^k times that of A.
    """
    a = as_matrix(a)
    n_theta = int(n_theta)
    if n_theta < 8:
        raise ValueError(f"need at least 8 boundary angles, got {n_theta}")
    thetas = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    m = n_theta // 2 if n_theta % 2 == 0 else n_theta
    a, e = pow2_scaled(a)
    vals, vecs = _eigh(_hermitian_stack(a[None], a.conj()[None], [0] * m, thetas[:m]), vectors=True)
    supports, x = vals[:, -1], vecs[:, :, -1]
    if m < n_theta:
        supports = np.concatenate([supports, -vals[:, 0]])
        x = np.concatenate([x, vecs[:, :, 0]])
    points = np.einsum("ki,ij,kj->k", x.conj(), a, x)
    return Boundary(thetas=thetas, points=_ldexp(points, e), supports=np.ldexp(supports, e))


def _polish(a: np.ndarray, ac: np.ndarray, owner: np.ndarray, thetas: np.ndarray,
            best: np.ndarray) -> None:
    """Raise best[k] to the largest top eigenvalue of H(theta) of matrix k met
    in Newton steps from each pair (owner k, angle theta) of the stack a.

    The derivatives of the top eigenvalue f(theta) of H(theta), with top
    eigenpair (f, x), come from first and second order perturbation theory:
    f' = <H' x, x> with H' = i (e^{i theta} A - e^{-i theta} A*) / 2, and
    f'' = -f + 2 sum_j |<H' x, v_j>|^2 / (f - lambda_j) over the other
    eigenpairs (lambda_j, v_j), since H'' = -H. A pair keeps stepping while
    f'' is clearly negative and the Newton model still promises a gain above
    roundoff at its matrix's best; a flat support function (f'' ~ 0) stops
    at once. Steps are capped at one seed-grid spacing, and every evaluated
    f is attained. Each pair takes its products with A and A* as mat-vecs of
    its own: one product over all live pairs would switch from gemv to gemm
    when two or more are live, and its last bits with it.
    """
    floor = a.shape[-1] * _EPS
    cap = 2.0 * np.pi / SEED_GRID
    for _ in range(_NEWTON_STEPS):
        if thetas.size == 0:
            break
        ph = np.exp(1j * thetas)[:, None, None]
        vals, vecs = _eigh(_hermitian_stack(a, ac, owner, thetas), vectors=True)
        np.maximum.at(best, owner, vals[:, -1])
        x = vecs[:, None, :, -1]
        ax = x @ a.take(owner, axis=0).swapaxes(-1, -2)
        hx = 0.5j * (ph * ax - ph.conj() * (x @ ac.take(owner, axis=0)))
        c = (vecs.conj().swapaxes(-1, -2) @ hx.swapaxes(-1, -2))[:, :, 0]
        d1 = c[:, -1].real
        gaps = np.maximum(vals[:, -1:] - vals[:, :-1], floor)
        d2 = -vals[:, -1] + 2.0 * (np.abs(c[:, :-1]) ** 2 / gaps).sum(axis=1)
        top = best[owner]
        go = (d2 < -_FLAT * top) & (d1 * d1 > -2.0 * d2 * _EPS * top)
        owner, thetas = owner[go], thetas[go] + np.clip(-d1[go] / d2[go], -cap, cap)


def _starts(owner: np.ndarray, thetas: np.ndarray, vals: np.ndarray):
    """(owner, angle) of the _NEWTON_STARTS largest values of each owner.

    The first _NEWTON_STARTS of a stable descending sort of each owner's
    values: largest first, equal values in index order.
    """
    order = np.lexsort((-vals, owner))
    owner = owner[order]
    keep = np.arange(owner.size) - np.searchsorted(owner, owner) < _NEWTON_STARTS
    return owner[keep], thetas[order][keep]


def _norm_bound(a: np.ndarray) -> np.ndarray:
    """An upper bound on (||A|| + ||A^2||^(1/2)) / 2, so on w(A), for each
    matrix of the stack a (B, n, n), whose largest entries are in [1/2, 1).

    w(A) <= (||A|| + ||A^2||^(1/2)) / 2 is Kittaneh's bound (Studia Math. 158,
    2003): equality holds for normaloid A (w = ||A||, as for Hermitian and
    normal A) and for A^2 = 0 (w = ||A||/2). Both norms come from one
    `_spectral_norms` call over the stack [A; fl(AA)]. Rounding margin, with
    u = eps/2 and g = (n + 2) u / (1 - (n + 2) u), the bound for a complex
    inner product of length n (Higham 2002, section 3.6):

    - Gram product: |fl(S*S) - S*S| <= g |S|*|S| entrywise, so its 2-norm
      error is at most g ||S||_F^2 <= n g ||S||^2.
    - Eigensolver: the computed top eigenvalue of fl(S*S) is taken to be
      exact for a perturbation of norm at most n^2 u ||fl(S*S)|| (see `_eigh`).
    - So a computed squared norm is below the true one by at most
      (n g + n^2 u) ||S||^2 <= 2 (n + 2)^2 u ||S||^2, and a computed norm,
      after the square root and its rounding, by about (n + 2)^2 u ||S||.
    - Product: |fl(AA) - A^2| <= g |A||A| entrywise, so
      ||A^2|| <= ||fl(AA)|| + g F with F = || |A||A| ||_F, which is 0 when
      A^2 = 0 by its zero pattern, as for a square-zero block matrix.

    With N1, N2 the computed norms of A and fl(AA), the bound is
    (N1 + sqrt(N2 + 2 g F)) / 2 times 1 + 2 (n + 2)^2 eps = 1 + 4 (n + 2)^2 u:
    four times a norm's relative error, which also covers the rounding of F
    and of these few operations.
    The factor is below LEVEL_RTOL up to n = 45 (5.1e-13 at n = 32).
    Entries below 1 keep every product in range.
    """
    n = a.shape[-1]
    g = (n + 2) * _EPS / 2 / (1 - (n + 2) * _EPS / 2)
    n1, n2 = _spectral_norms(np.concatenate([a, a @ a])).reshape(2, -1)
    mag = np.abs(a)
    mag2 = mag @ mag
    f = np.sqrt(np.einsum("bij,bij->b", mag2, mag2))
    return 0.5 * (n1 + np.sqrt(n2 + 2.0 * g * f)) * (1.0 + 2.0 * (n + 2) ** 2 * _EPS)


def _factors(m: np.ndarray) -> bool:
    """True when `cholesky` factorises every matrix of the stack m."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _rises(h: np.ndarray, level: np.ndarray, owner: np.ndarray):
    """(p, value) for each midpoint p whose H, h[p], has its top eigenvalue
    above level[p]; owner[p], sorted, names p's matrix.

    A Cholesky factorisation of level I - H that succeeds proves, up to its
    backward error, that no eigenvalue of H is above the level: the same
    kind of guarantee as the eigensolver's. One batched `cholesky` decides
    the usual case, in which no midpoint is above its level. When it raises,
    each matrix factorises its own midpoints again, and only the matrices
    that fail take `eigvalsh` values of their midpoints. So a matrix's
    verdict depends only on its own midpoints, as it would alone.
    """
    shifted = level[:, None, None] * np.eye(h.shape[-1]) - h
    if _factors(shifted):
        return owner[:0], level[:0]
    mats = np.split(shifted, np.flatnonzero(np.diff(owner)) + 1)
    p = np.flatnonzero(np.concatenate([np.full(len(m), not _factors(m)) for m in mats]))
    vals = _eigh(h[p])[:, -1]
    up = vals > level[p]
    return p[up], vals[up]


def numerical_radius(a):
    """Numerical radius w(A) = max over theta of the top eigenvalue f(theta) of H(theta).

    A is one matrix or a stack (..., n, n): one matrix gives a float, a stack
    an array of shape a.shape[:-2]. Each matrix of a stack takes the steps it
    would take alone, and each LAPACK call is batched over the stack; every
    step acts on each matrix on its own, so a radius does not depend on its
    neighbours in the stack, to the last bit.

    Certified level-set iteration (He & Watson 1997; Mengi & Overton 2005),
    which certifies the level r = L (1 + LEVEL_RTOL) above the attained L:

    1. The local maxima of f on a SEED_GRID-angle grid (see
       `_seed_supports`) start Newton steps (see `_polish`); L is the
       largest f met, attained at an explicit angle, so L <= w(A).
    2. Norm bound: w(A) <= U, Kittaneh's (||A|| + ||A^2||^(1/2)) / 2 with a
       rounding margin (see `_norm_bound`). A matrix with r >= U is certified
       with no level-set test. The bound is exact for normaloid A, such as
       Hermitian or normal A, and for A^2 = 0, the two ends of
       ||A||/2 <= w(A) <= ||A||; its margin is below LEVEL_RTOL for n <= 45.
    3. Level-set test at r for the other matrices. With
       theta = phi + 2 atan(t), (1 + t^2)(H(theta) - r I) is the Hermitian
       quadratic P(t) = t^2 (H(psi) - r I) - 2 t H'(psi) - (H(psi) + r I),
       where psi = phi + pi is the grid minimum of f; at an angle of the
       grid's second half, H(psi) is taken as -H(psi - pi). So r is an
       eigenvalue of H(theta) exactly when det P(t) = 0, and the leading
       coefficient is negative definite because f(psi) <= L < r: its inverse
       and the eigenvalues of the 2n x 2n companion matrix give every
       crossing.
    4. Between consecutive crossings f - r keeps one sign, so its sign at
       their midpoints decides it on the whole circle: a Cholesky
       factorisation of r I - H(mid) that succeeds shows f(mid) <= r, and
       `eigvalsh` gives f(mid) only where it fails (see `_rises`). No
       midpoint above r certifies w(A) <= r; otherwise Newton restarts from
       the midpoints above r, and the test repeats at the raised L for the
       matrices that had such a midpoint.

    Every companion eigenvalue counts as a crossing at the angle of its real
    part, so a real root that roundoff moved off the axis is still seen;
    extra angles only split an interval further. Midpoints of gaps narrower
    than _MIN_GAP, such as the two angles of a conjugate pair, are skipped,
    and so is the gap through psi, where f < r.
    The iteration runs on each matrix scaled by its own power of two (exact),
    and returns L. A zero matrix has L = U = 0, so step 2 certifies it before
    the level-set solve, which would be singular for it. A 1 x 1 matrix
    skips the iteration: its radius is |a11|, since W(A) = {a11}.
    """
    a = _as_stack(a)
    shape, n = a.shape[:-2], a.shape[-1]
    if n == 1:
        # math.hypot per entry: it rounds |a11| correctly, where numpy's hypot
        # and abs can be 1 ulp off (abs by the array's layout, so by its stack).
        w = np.array([math.hypot(z.real, z.imag) for z in a.ravel().tolist()]).reshape(shape)
        return float(w) if not shape else w
    a, e = pow2_scaled(a.reshape(-1, n, n))
    ac = a.conj()
    sup, stack = _seed_supports(a, ac)
    ring = np.concatenate([sup[:, -1:], sup, sup[:, :1]], axis=1)
    owner, k = np.nonzero((sup >= ring[:, :-2]) & (sup >= ring[:, 2:]))
    best = sup.max(axis=1)
    _polish(a, ac, *_starts(owner, _SEED_ANGLES[k], sup[owner, k]), best)
    live = np.flatnonzero(best * (1.0 + LEVEL_RTOL) < _norm_bound(a))

    k = np.argmin(sup, axis=1)
    psi = _SEED_ANGLES[k]
    half = stack.shape[1]
    h = stack[np.arange(len(a)), k % half] * np.where(k < half, 1.0, -1.0)[:, None, None]
    ah = ac.swapaxes(-1, -2)
    dh = 0.5j * (np.exp(1j * psi)[:, None, None] * a - np.exp(-1j * psi)[:, None, None] * ah)
    eye = np.eye(n)
    for _ in range(_MAX_TESTS):
        if not live.size:
            break
        r = best[live] * (1.0 + LEVEL_RTOL)
        ri = r[:, None, None] * eye
        comp = np.zeros((live.size, 2 * n, 2 * n), dtype=complex)
        comp[:, :n, n:] = eye
        rhs = np.concatenate([h[live] + ri, 2.0 * dh[live]], axis=-1)
        comp[:, n:] = np.linalg.solve(h[live] - ri, rhs)
        cross = np.sort(2.0 * np.arctan(np.linalg.eigvals(comp).real), axis=1)
        i, j = np.nonzero(np.diff(cross, axis=1) > _MIN_GAP)
        owner = live[i]
        mids = psi[owner] + np.pi + 0.5 * (cross[i, j + 1] + cross[i, j])
        up, vals = _rises(_hermitian_stack(a, ac, owner, mids), r[i], owner)
        # A matrix's largest midpoint value is above r when any is. (bincount
        # lists the owners above r: np.unique cost the sweep 1 MB of peak RSS.)
        live = np.flatnonzero(np.bincount(owner[up], minlength=len(a)))
        if live.size:
            np.maximum.at(best, owner[up], vals)
            _polish(a, ac, *_starts(owner[up], mids[up], vals), best)
    if live.size:
        raise NoConvergence(f"numerical radius not certified after {_MAX_TESTS} level-set tests")
    w = np.ldexp(best, e)
    return float(w[0]) if not shape else w.reshape(shape)


def _top(vals: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, equal values in index order.

    The same indices, in the same order, as the first k of a stable sort of
    the values in descending order.
    """
    idx = np.arange(vals.size)
    if vals.size > k:
        kth = np.partition(vals, vals.size - k)[vals.size - k]
        idx = np.flatnonzero(vals >= kth)
    return idx[np.argsort(-vals[idx], kind="stable")[:k]]


def _ascend(a: np.ndarray, x: np.ndarray, steps: int) -> float:
    """Largest |<Ax, x>| met in `steps` monotone ascent steps from each row of x.

    One Rayleigh-Ritz step at a unit vector x with q = <Ax, x>: rotate the
    phase by u = exp(-i arg q), which is conj(q)/|q| and still a unit number
    when q = 0, so that H = (uA + conj(u)A*)/2 has <Hx, x> = |q|. Then move x
    to V z, where V is the orthonormal QR factor of [x, Hx] and z the top
    eigenvector of the 2x2 Hermitian V* H V, from one batched `eigh` over
    the rows. The span of V holds x, so |<Ax', x'>| >= <Hx', x'> >= |q|. QR
    gives an orthonormal V even when Hx is parallel to x, so a zero gradient
    needs no special case.

    The steps run on A scaled by a power of two to a largest entry in
    [1/2, 1): that is exact, and nothing below can over- or underflow.
    """
    a, e = pow2_scaled(a)
    best = 0.0
    for _ in range(steps):
        q = np.einsum("bi,bi->b", x.conj(), x @ a.T)
        best = max(best, float(np.abs(q).max()))
        u = np.exp(-1j * np.angle(q))[:, None, None]
        h = 0.5 * (u * a + u.conj() * a.conj().T)
        v = np.linalg.qr(np.stack([x, (h @ x[..., None])[..., 0]], axis=-1))[0]
        z = _eigh(v.conj().swapaxes(-1, -2) @ h @ v, vectors=True)[1][..., -1:]
        x = (v @ z)[..., 0]
    best = max(best, float(np.abs(np.einsum("bi,bi->b", x.conj(), x @ a.T)).max()))
    return float(np.ldexp(best, e))


def numerical_radius_oracle(a, samples: int, seed: int) -> float:
    """Sampling lower bound on w(A): max |<Ax, x>| over random unit vectors,
    the best of them refined by a few ascent steps.

    Vectors are standard complex Gaussians, whose directions are uniform on
    the unit sphere, drawn from numpy's seeded PCG64 generator. Each draw x
    is scored by its Rayleigh quotient |<Ax, x>| / <x, x>, so only the kept
    draws are normalized. The chunk size is a fixed constant, so the draw
    stream and the result depend only on (a, samples, seed). The best 4
    draws (_ORACLE_STARTS; ties go to the earlier draw) then take 2
    (_ORACLE_STEPS) monotone ascent steps of |<Ax, x>| on the unit sphere
    (see `_ascend`). Each step takes products with A and A*, a QR of two
    columns and a 2x2 Hermitian `eigh` per start, never an n x n
    eigenproblem. The steps are few and fixed, so the value stays a sample
    statistic that depends on the seed.

    The value is the largest |<Ax, x>| met, never below the best draw's.
    Each x is an explicit unit vector and |<Ax, x>| <= w(A) pointwise, so
    the value never exceeds the numerical radius beyond roundoff. A 1 x 1
    matrix draws nothing: every unit vector scores |a11|, since W(A) = {a11},
    and the value is math.hypot of a11, as in `numerical_radius`.
    """
    a = as_matrix(a)
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    n = a.shape[0]
    if n == 1:
        return math.hypot(a[0, 0].real, a[0, 0].imag)
    rng = np.random.default_rng(seed)
    kept_vals, kept_x = [], []
    left = samples
    while left > 0:
        m = min(_ORACLE_CHUNK, left)
        left -= m
        x = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        norm2 = np.einsum("bi,bi->b", x.conj(), x).real
        vals = np.abs(np.einsum("bi,bi->b", x.conj(), x @ a.T)) / norm2
        top = _top(vals, _ORACLE_STARTS)
        kept_vals.append(vals[top])
        kept_x.append(x[top] / np.sqrt(norm2[top])[:, None])
    kept = np.concatenate(kept_vals)
    starts = np.concatenate(kept_x)[_top(kept, _ORACLE_STARTS)]
    return max(float(kept.max()), _ascend(a, starts, _ORACLE_STEPS))


def range_summary(a, n_theta: int = BOUNDARY_GRID) -> RangeSummary:
    """Radius, operator norm, and boundary sampled at n_theta angles.

    n_theta sets the boundary samples only; the radius does not depend on it.
    """
    a = as_matrix(a)
    return RangeSummary(
        radius=numerical_radius(a),
        norm=operator_norm(a),
        boundary=numerical_range_boundary(a, n_theta),
    )


def is_convex_polyline(points, tol: float = 1e-9) -> bool:
    """True when the cross products of consecutive edges of the closed
    polyline share one sign within tol; degenerate edges contribute zeros."""
    z = np.asarray(points, dtype=complex)
    e = np.roll(z, -1) - z
    nxt = np.roll(e, -1)
    c = e.real * nxt.imag - e.imag * nxt.real
    return bool(np.all(c >= -tol) or np.all(c <= tol))
