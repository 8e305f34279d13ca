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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import NoConvergence, as_matrix, operator_norm, pow2_scaled

__all__ = [
    "Boundary",
    "RangeSummary",
    "rotated_hermitian_part",
    "support_values",
    "numerical_range_boundary",
    "numerical_radius",
    "numerical_radius_oracle",
    "range_summary",
    "polygon_cross_products",
    "is_convex_polyline",
]

# Default number of boundary angles in range_summary.
BOUNDARY_GRID = 512
# Radius seed grid: its local maxima start Newton. The level-set test, not
# this grid, finds the global basin, so the grid can be coarse.
SEED_GRID = 16
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


def rotated_hermitian_part(a, theta: float) -> np.ndarray:
    """H(theta) = (e^{i theta} A + e^{-i theta} A*) / 2, Hermitian by construction."""
    a = as_matrix(a)
    ph = np.exp(1j * float(theta))
    return 0.5 * (ph * a + np.conj(ph) * a.conj().T)


def _hermitian_stack(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    ph = np.exp(1j * np.asarray(thetas, dtype=float))
    return 0.5 * (ph[:, None, None] * a + np.conj(ph)[:, None, None] * a.conj().T)


def support_values(a, thetas) -> np.ndarray:
    """Support function samples: top eigenvalue of H(theta) for each theta."""
    a = as_matrix(a)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    return np.linalg.eigvalsh(_hermitian_stack(a, thetas))[:, -1]


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
    eigensolver roundoff.
    """
    a = as_matrix(a)
    n_theta = int(n_theta)
    if n_theta < 8:
        raise ValueError(f"need at least 8 boundary angles, got {n_theta}")
    thetas = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    vals, vecs = np.linalg.eigh(_hermitian_stack(a, thetas))
    x = vecs[:, :, -1]
    points = np.einsum("ki,ij,kj->k", x.conj(), a, x)
    return Boundary(thetas=thetas, points=points, supports=vals[:, -1])


def _polish(a: np.ndarray, thetas: np.ndarray, best: float) -> float:
    """Largest top eigenvalue of H(theta) met in Newton steps from each angle.

    The derivatives of the top eigenvalue f(theta) of H(theta), with top
    eigenpair (f, x), come from first and second order perturbation theory:
    f' = <H' x, x> with H' = i (e^{i theta} A - e^{-i theta} A*) / 2, and
    f'' = -f + 2 sum_j |<H' x, v_j>|^2 / (f - lambda_j) over the other
    eigenpairs (lambda_j, v_j), since H'' = -H. An angle keeps stepping while
    f'' is clearly negative and the Newton model still promises a gain above
    roundoff; a flat support function (f'' ~ 0) stops at once. Steps are
    capped at one seed-grid spacing, and every evaluated f is attained.
    """
    at = a.conj().T
    floor = a.shape[0] * _EPS
    cap = 2.0 * np.pi / SEED_GRID
    for _ in range(_NEWTON_STEPS):
        if thetas.size == 0:
            break
        ph = np.exp(1j * thetas)[:, None]
        vals, vecs = np.linalg.eigh(_hermitian_stack(a, thetas))
        best = max(best, float(vals[:, -1].max()))
        x = vecs[:, :, -1]
        hx = 0.5j * (ph * (x @ a.T) - ph.conj() * (x @ at.T))
        c = (vecs.conj().swapaxes(-1, -2) @ hx[:, :, None])[:, :, 0]
        d1 = c[:, -1].real
        gaps = np.maximum(vals[:, -1:] - vals[:, :-1], floor)
        d2 = -vals[:, -1] + 2.0 * (np.abs(c[:, :-1]) ** 2 / gaps).sum(axis=1)
        go = (d2 < -_FLAT * best) & (d1 * d1 > -2.0 * d2 * _EPS * best)
        thetas = thetas[go] + np.clip(-d1[go] / d2[go], -cap, cap)
    return best


def _starts(thetas: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The angles of the _NEWTON_STARTS largest values, largest first."""
    return thetas[np.argsort(-vals, kind="stable")[:_NEWTON_STARTS]]


def numerical_radius(a) -> float:
    """Numerical radius w(A) = max over theta of the top eigenvalue f(theta) of H(theta).

    Certified level-set iteration (He & Watson 1997; Mengi & Overton 2005):

    1. The local maxima of f on a SEED_GRID-angle grid start Newton steps
       (see `_polish`); L is the largest f met, attained at an explicit
       angle, so L <= w(A).
    2. Level-set test at r = L (1 + LEVEL_RTOL). With theta = phi + 2 atan(t),
       (1 + t^2)(H(theta) - r I) is the Hermitian quadratic
       P(t) = t^2 (H(psi) - r I) - 2 t H'(psi) - (H(psi) + r I), where
       psi = phi + pi is the grid minimum of f. So r is an eigenvalue of
       H(theta) exactly when det P(t) = 0, and the leading coefficient is
       negative definite because f(psi) <= L < r: its inverse and the
       eigenvalues of the 2n x 2n companion matrix give every crossing.
    3. Between consecutive crossings f - r keeps one sign, so one batched
       evaluation at their midpoints decides it on the whole circle. No
       midpoint above r certifies w(A) <= r; otherwise Newton restarts from
       the midpoints above r and the test repeats at the raised L.

    Every companion eigenvalue counts as a crossing at the angle of its real
    part, so a real root that roundoff moved off the axis is still seen;
    extra angles only split an interval further. Midpoints of gaps narrower
    than _MIN_GAP, such as the two angles of a conjugate pair, are skipped,
    and so is the gap through psi, where f < r.
    The iteration runs on A scaled by a power of two (exact), and returns L.
    """
    a = as_matrix(a)
    a, e = pow2_scaled(a)
    if not a.any():
        return 0.0
    n = a.shape[0]
    eye = np.eye(n)
    comp = np.zeros((2 * n, 2 * n), dtype=complex)
    comp[:n, n:] = eye
    grid = np.arange(SEED_GRID) * (2.0 * np.pi / SEED_GRID)
    stack = _hermitian_stack(a, grid)
    sup = np.linalg.eigvalsh(stack)[:, -1]
    ring = np.concatenate([sup[-1:], sup, sup[:1]])
    peak = (sup >= ring[:-2]) & (sup >= ring[2:])
    best = _polish(a, _starts(grid[peak], sup[peak]), float(sup.max()))

    k = int(np.argmin(sup))
    psi, h = grid[k], stack[k]
    dh = 0.5j * (np.exp(1j * psi) * a - np.exp(-1j * psi) * a.conj().T)
    for _ in range(_MAX_TESTS):
        r = best * (1.0 + LEVEL_RTOL)
        comp[n:] = np.linalg.solve(h - r * eye, np.concatenate([h + r * eye, 2.0 * dh], axis=1))
        cross = np.sort(2.0 * np.arctan(np.linalg.eigvals(comp).real))
        wide = np.diff(cross) > _MIN_GAP
        mids = psi + np.pi + 0.5 * (cross[1:] + cross[:-1])[wide]
        vals = np.linalg.eigvalsh(_hermitian_stack(a, mids))[:, -1]
        up = vals > r
        if not up.any():
            return float(np.ldexp(best, e))
        best = _polish(a, _starts(mids[up], vals[up]), max(best, float(vals.max())))
    raise NoConvergence(f"numerical radius not certified after {_MAX_TESTS} level-set tests")


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

    One step at a unit vector x with q = <Ax, x>: rotate the phase by
    u = exp(-i arg q), which is conj(q)/|q| and still a unit number when
    q = 0, so that H = (uA + conj(u)A*)/2 has <Hx, x> = |q|. Then move x to
    the Rayleigh-Ritz maximiser of H on span{x, g}, g = Hx - <Hx, x>x the
    tangent gradient. The span holds x, so |<Ax', x'>| >= <Hx', x'> >= |q|.
    A row whose g or whose new vector is exactly zero stays where it is.

    The steps run on A scaled by a power of two to a largest entry in
    [1/2, 1): that is exact, and no norm below can over- or underflow.
    """
    a, e = pow2_scaled(a)

    def dot(y, z):
        return np.einsum("bi,bi->b", y.conj(), z)

    def unit(y):
        yn = np.linalg.norm(y, axis=1)
        return y / np.where(yn > 0, yn, 1.0)[:, None], yn > 0

    def herm(u, y, ay):
        return 0.5 * (u * ay + u.conj() * (y @ a.conj()))

    best = 0.0
    for _ in range(steps):
        ax = x @ a.T
        q = dot(x, ax)
        best = max(best, float(np.abs(q).max()))
        u = np.exp(-1j * np.angle(q))[:, None]
        hx = herm(u, x, ax)
        h = dot(x, hx).real
        p, moving = unit(hx - h[:, None] * x)
        hp = herm(u, p, p @ a.T)
        # Top eigenvector of the 2x2 Hermitian [[h, b], [conj(b), d]], from
        # the row that avoids cancellation.
        b = dot(x, hp)
        d = dot(p, hp).real
        half = 0.5 * (h - d)
        r = np.hypot(half, np.abs(b))
        upper = half >= 0
        c0 = np.where(upper, half + r, b)
        c1 = np.where(upper, b.conj(), r - half)
        y, nonzero = unit(c0[:, None] * x + c1[:, None] * p)
        x = np.where((moving & nonzero)[:, None], y, x)
    best = max(best, float(np.abs(dot(x, x @ a.T)).max()))
    return float(np.ldexp(best, e))


def numerical_radius_oracle(a, samples: int, seed: int) -> float:
    """Sampling lower bound on w(A): max |<Ax, x>| over random unit vectors,
    the best of them refined by a few ascent steps.

    Vectors are standard complex Gaussians normalized to the unit sphere
    (uniform on the sphere), drawn from numpy's seeded PCG64 generator. The
    chunk size is a fixed constant, so the draw stream and the result depend
    only on (a, samples, seed). The best 4 draws (_ORACLE_STARTS; ties go to
    the earlier draw) then take 2 (_ORACLE_STEPS) monotone ascent steps of
    |<Ax, x>| on the unit sphere (see `_ascend`). The steps use only
    products with A and A* and a 2x2 Hermitian problem per step. They are
    few and fixed, so the value stays a sample statistic that depends on
    the seed.

    The value is the largest |<Ax, x>| met, never below the best draw's.
    Each x is an explicit unit vector and |<Ax, x>| <= w(A) pointwise, so
    the value never exceeds the numerical radius beyond roundoff.
    """
    a = as_matrix(a)
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    rng = np.random.default_rng(seed)
    n = a.shape[0]
    kept_vals, kept_x = [], []
    left = samples
    while left > 0:
        m = min(_ORACLE_CHUNK, left)
        left -= m
        x = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        x /= np.linalg.norm(x, axis=1)[:, None]
        vals = np.abs(np.einsum("bi,ij,bj->b", x.conj(), a, x))
        top = _top(vals, _ORACLE_STARTS)
        kept_vals.append(vals[top])
        kept_x.append(x[top])
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


def polygon_cross_products(points) -> np.ndarray:
    """Cross products of consecutive edges of a closed polyline.

    All entries sharing one sign (within a tolerance) certifies convexity of
    the polyline; degenerate edges contribute zeros.
    """
    z = np.asarray(points, dtype=complex)
    e = np.roll(z, -1) - z
    nxt = np.roll(e, -1)
    return e.real * nxt.imag - e.imag * nxt.real


def is_convex_polyline(points, tol: float = 1e-9) -> bool:
    c = polygon_cross_products(points)
    return bool(np.all(c >= -tol) or np.all(c <= tol))
