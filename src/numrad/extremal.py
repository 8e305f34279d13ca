"""Instance generators, golden operators, and extremal random searches.

Generators manufacture matrices that satisfy a certificate hypothesis by
construction, for ensemble sweeps. The searches probe two questions about
unit-norm operators with orthogonal ranges (equivalently T^2 = 0): how close
||T - lambda I|| can get to sqrt(|lambda|), and how close ||T - I|| can get
to 1. Both have a closed-form answer. For T^2 = 0, range(T) lies in ker(T),
so in the split C^n = ker(T)^perp + ker(T) T is [[0, 0], [B, 0]], and the
SVD of B splits T - lambda I unitarily into 2 x 2 blocks
[[-lambda, 0], [sigma, -lambda]] and 1 x 1 blocks [-lambda]. Hence

    ||T - lambda I|| = (||T|| + sqrt(||T||^2 + 4 |lambda|^2)) / 2

for every square-zero T, whatever its order (Haagerup & de la Harpe 1992
give w(T) = ||T||/2). Every search candidate is square-zero by its zero
pattern, so its disk excess over sqrt(|lambda|) is
(1 + sqrt(1 + 4 |lambda|^2))/2 - sqrt(|lambda|) >= 1/2, with equality at
|lambda| = 1/2, and its excess in the equality probe is (1 + sqrt(5))/2 - 1.
No feasible operator exists; the searches' best scores are these values up
to eigensolver rounding. So each search measures every trial at one center:
1/2 (to one ulp) in the sqrt-disk search and 1 in the equality probe. A
trial measures two norms, ||T^2|| (exactly zero, with no eigensolve) and
||T - lambda I||; norm_dev = | ||T|| - 1 | is the rounding of the draw's
normalisation, below 2 (n + 2)^2 eps, so it cannot decide a score of at
least 1/2 and is measured for the winner alone (see `_search`).

One pipeline draws the trials of the sweep and of the searches: `_stacks`
splits them into chunks of _CHUNK, `_rngs` builds a chunk's generators in
one pass of numpy's SeedSequence hash, trial i's equal to
np.random.default_rng([*head, values[i]]) bit for bit (default_rng(seed) in
the sweep, default_rng([seed, trial]) in a search), and `_draw` draws the
chunk's stack, one `ginibre` call per trial. A one-seed gen_* generator
calls `_draw` with default_rng itself, which is cheaper for one row.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .bounds import DiskCertificate, SectorPair
from .linalg import _spectral_norms, as_matrix, pow2_scaled, shifted_norms

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

# The sqrt-disk search's one center. Every candidate's excess,
# (1 + sqrt(1 + 4 lambda^2))/2 - sqrt(lambda) (see the module docstring), is
# least at lambda = 1/2, so no other center can win a trial. It is one ulp
# below 1/2, the middle point of np.geomspace(0.0625, 4.0, 25), the grid that
# the search scanned before, so that no output moved (see the
# `_LAMBDA_GRID[12]` FOUND line of CHANGES.md).
_CENTER = np.nextafter(0.5, 0.0)
# Trials drawn and measured together by the sweep and the searches: one
# `_rngs` and one `_draw` call per chunk, then one stacked norm or bound_table
# call. At 256 the search's peak memory grew by 13% for a gain within 3%.
_CHUNK = 64
# numpy's SeedSequence (NEP 19): its pool of 32-bit words, the constants of
# its entropy hash and mix, and those of generate_state.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHERS = [[d for d in range(_POOL) if d != s] for s in range(_POOL)]


def shift2() -> np.ndarray:
    """The two-dimensional shift [[0, 0], [1, 0]]: unit norm, square zero."""
    return np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def orthogonal_ranges_check(t) -> bool:
    """True when range(T) is orthogonal to range(T*).

    For matrices this is the same as T^2 = 0: <Tf, T*g> = <T^2 f, g> for all
    f and g, so the ranges are orthogonal exactly when T^2 vanishes. Tested
    relative to the scale of T, as ||T^2||_F <= 1e-10 * ||T||_F^2 on T scaled
    by a power of two, so the verdict for 2^k T is that for T.
    """
    t = pow2_scaled(as_matrix(t))[0]
    sq = float(np.linalg.norm(t @ t))
    return sq <= 1e-10 * float(np.linalg.norm(t)) ** 2


def ginibre(n, rng: np.random.Generator) -> np.ndarray:
    """Matrix of independent standard complex Gaussian entries.

    n x n for an int n, else of the tuple shape n, such as (rows, cols). The
    real parts are drawn first, then the imaginary parts, in one call: a
    Generator's normals come from one sequential stream, so this is the
    stream of one call for each part. The two planes are written into the
    parts of one complex array, which gives the bytes of z[0] + 1j z[1]
    without its two complex temporaries.
    """
    g = np.empty(n if isinstance(n, tuple) else (n, n), complex)
    z = rng.standard_normal((2, *g.shape))
    g.real = z[0]
    g.imag = z[1]
    return g


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre draw with phase fix."""
    return _haar(ginibre(n, rng)[None])[0]


def _haar(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack of Ginibre draws: one batched QR and phase fix."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def gen_disk_instance(lam, r, n, seed) -> tuple[np.ndarray, DiskCertificate]:
    """Random T = lam I + u r C with ||C|| = 1, u uniform in [0, 1).

    ||T - lam I|| = u r <= r, so the returned certificate passes check_disk
    by construction. Deterministic per seed.
    """
    cert = DiskCertificate(lam=lam, r=r)
    return _draw("disk", cert, n, [np.random.default_rng(seed)])[0], cert


def gen_segment_instance(m, M, n, seed) -> tuple[np.ndarray, SectorPair]:
    """Random Hermitian A with spectrum drawn uniformly from [m, M].

    Built as U diag(d) U* for a Haar unitary U, then symmetrized to kill
    roundoff asymmetry. The returned segment pair (varphi, phi) = (m, M)
    passes the operator-order sector check by construction.
    """
    pair = SectorPair.from_segment(m, M)
    return _draw("segment", pair, n, [np.random.default_rng(seed)])[0], pair


def gen_nilpotent_instance(n, seed) -> np.ndarray:
    """Random unit-norm matrix with T^2 = 0.

    A Ginibre block is placed below a random diagonal split, giving a block
    strictly lower triangular matrix whose square vanishes identically (an
    elementwise strictly triangular fill would not square to zero for n > 2).
    """
    return _draw("nilpotent", None, n, [np.random.default_rng(seed)])[0]


def _draw(ensemble, cert, n, rngs) -> np.ndarray:
    """The matrices of a sweep ensemble, one per generator, as a stack (B, n, n).

    disk and segment draw what gen_disk_instance and gen_segment_instance
    draw, for the disk certificate or the real segment pair cert; nilpotent
    what gen_nilpotent_instance draws, and ginibre a unit-norm Ginibre
    matrix, for any cert; the searches draw nilpotent stacks too. Each trial
    draws from its own generator (a chunk's from `_stacks`, a gen_*
    generator's from default_rng) with one ginibre call, in the order of a
    one-trial draw. Drawing each trial's normals with one standard_normal
    call and assembling the chunk's stack once would be faster, but the
    benchmark's tests (perfbench) pin `extremal.gen.calls` to one ginibre
    call per sweep trial, so that stays until the pin does (ROADMAP item
    1). The stack is then finished in one pass: one stacked norm
    call normalises the disk, ginibre and nilpotent draws, and one batched
    QR makes the segment draws' unitaries. So a matrix does not depend on
    the stack it is drawn in.
    """
    n = int(n)
    if ensemble == "segment":
        m, M = cert.segment()
        if not (0 < m <= M) or n < 1:
            raise ValueError("need M >= m > 0 and n >= 1")
        d = np.array([rng.uniform(m, M, size=n) for rng in rngs])
        u = _haar(np.array([ginibre(n, rng) for rng in rngs]))
        a = (u * d[:, None, :]) @ u.conj().swapaxes(-1, -2)
        return 0.5 * (a + a.conj().swapaxes(-1, -2))
    least = 2 if ensemble == "nilpotent" else 1
    if n < least:
        raise ValueError(f"need n >= {least}")
    if ensemble == "nilpotent":
        t = np.zeros((len(rngs), n, n), dtype=complex)
        for ti, rng in zip(t, rngs):
            # integers(1, 2) returns 1 without advancing the stream, so n = 2
            # skips the call
            k = 1 if n == 2 else int(rng.integers(1, n))
            ti[k:, :k] = ginibre((n - k, k), rng)
    else:
        t = np.array([ginibre(n, rng) for rng in rngs])
    t /= _spectral_norms(t)[:, None, None]
    if ensemble != "disk":
        return t
    u = np.array([rng.uniform() for rng in rngs])
    return cert.lam * np.eye(n, dtype=complex) + (u * cert.r)[:, None, None] * t


def _stacks(ensemble, cert, n, head, values):
    """The `_draw` stack of each chunk of _CHUNK trials, trial i drawn from
    default_rng([*head, values[i]]) through one `_rngs` call per chunk."""
    for start in range(0, len(values), _CHUNK):
        yield _draw(ensemble, cert, n, _rngs(head, values[start:start + _CHUNK]))


def _seed_words(seed) -> list[int]:
    """The little-endian 32-bit words SeedSequence takes from the int seed."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    return words


@functools.cache
def _seed_type() -> type:
    """An ISeedSequence that hands PCG64 the words generate_state(4, np.uint64)
    gave. Built on first use: subclassing at import would import numpy.random,
    about 20 ms of a fresh process that draws nothing, such as compute."""

    class Seed(np.random.bit_generator.ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return Seed


def _consts(init, mult, count) -> np.ndarray:
    """init, init mult, init mult^2, ... mod 2^32: the count + 1 hash
    constants of SeedSequence's successive hash calls."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, np.uint32)


def _hashmix(value, xor, mult):
    """SeedSequence's hashmix of value, given its hash constant and the next."""
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    value = x * _MIX_L - y * _MIX_R
    return value ^ (value >> np.uint32(16))


def _rngs(head, values) -> list[np.random.Generator]:
    """np.random.default_rng([*head, v]) for each v of the uint64 array values,
    bit for bit; head is a list of 32-bit words, such as `_seed_words(seed)`.

    Row i of the entropy is head, then the low and (when nonzero) the high
    word of values[i], as SeedSequence splits them. This runs SeedSequence's
    mix_entropy and generate_state(4, np.uint64) once for the chunk, in
    uint32 arithmetic, which wraps mod 2^32 as the reference does. Hash
    constants depend only on how many hash calls came before, so they are
    shared by the rows. A row shorter than the pool hashes 0 for its missing
    words, which are the zeros it is padded with; the words beyond the pool
    are mixed in only where the row has them. Each row's 4 state words then
    seed a PCG64 through `_seed_type`. One row costs several times
    default_rng, but a chunk of 64 costs a fraction of it per trial.
    """
    values = np.asarray(values, np.uint64)
    high = values >> np.uint64(32)
    k = len(head)
    length = k + 1 + (high != 0)
    width = max(k + 2, _POOL)
    words = np.zeros((len(values), width), np.uint32)
    words[:, :k] = head
    words[:, k:k + 2] = np.stack([values, high], axis=-1).astype(np.uint32)
    h = _consts(_INIT_A, _MULT_A, _POOL * width)
    pool = _hashmix(words[:, :_POOL], h[:_POOL], h[1:_POOL + 1])
    c = _POOL
    for src, dst in enumerate(_OTHERS):
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], h[c:c + 3], h[c + 1:c + 4]))
        c += 3
    for src in range(_POOL, width):
        mixed = _mix(pool, _hashmix(words[:, src, None], h[c:c + _POOL], h[c + 1:c + _POOL + 1]))
        pool = np.where((src < length)[:, None], mixed, pool)
        c += _POOL
    g = _consts(_INIT_B, _MULT_B, 2 * _POOL)
    state = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], g[:-1], g[1:])
    state = np.ascontiguousarray(state, "<u4").view("<u8").astype(np.uint64)
    seed = _seed_type()
    return [np.random.Generator(np.random.PCG64(seed(row))) for row in state]



@dataclass(frozen=True)
class SearchResult:
    """Best candidate found by a search, with its violation breakdown.

    norm_dev = | ||T|| - 1 |, nilpotency = ||T^2||, and disk_excess measures
    how far ||T - lambda I|| overshoots the allowed radius. The score is the
    worst of the three; score 0 would mean a feasible operator. norm_dev is
    the rounding of the winner's normalisation alone, below
    2 (n + 2)^2 eps (see `_search`), and is measured for the winner only.
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
    """(norm_dev, nilpotency, disk_excess) of a candidate against sqrt(|lambda|).

    The one-candidate case of the search's measures (see `_violations` and
    `_norm_devs`), so it gives a search result's fields bit for bit.
    """
    lam = complex(lam)
    t = as_matrix(t)[None]
    nilpotency, excess = _violations(t, lam, np.sqrt(abs(lam)))
    return float(_norm_devs(t)[0]), float(nilpotency[0]), float(excess[0])


def _violations(ts: np.ndarray, lam, allowed):
    """(nilpotency, excess) of the stack ts (B, n, n), each of shape (B,):
    ||T^2|| and max(0, ||T - lam I|| - allowed), one stacked norm call each.
    A square-zero T^2 is exactly zero and skips the eigensolver."""
    excess = np.maximum(0.0, shifted_norms(ts, [lam])[:, 0] - allowed)
    return _spectral_norms(ts @ ts), excess


def _norm_devs(ts: np.ndarray) -> np.ndarray:
    """| ||T|| - 1 | for each matrix T of the stack ts (B, n, n)."""
    return np.abs(_spectral_norms(ts) - 1.0)


def _search(n, iters, seed, lam, allowed) -> SearchResult:
    """Random-restart search over unit-norm square-zero candidates.

    Each trial draws from default_rng([seed, trial]) a block strictly lower
    triangular Ginibre candidate normalized to unit norm, and measures its
    disk excess at the one center lam over its allowed radius. Pure restart,
    no local polish: every candidate's excess has the closed form of the
    module docstring, so no refinement could lower it. Trials run through
    `_stacks`, a chunk of _CHUNK at a time. A trial measures two norms, of
    T^2 (exactly zero, so no eigensolve) and of T - lam I, each in one
    stacked call per chunk; norm_dev is measured for the winner alone.

    That is exact. With u = eps/2 and r = (n + 2)^2 u, a computed norm is
    within r + u of the true one, relatively (the Gram product and `_eigh`'s
    backward error, as in numrange's `_norm_bound`). The draw divides by one
    computed norm, which numpy does by multiplying each part by its rounded
    reciprocal, within 2u; that moves the true norm by at most 2 sqrt(n) u.
    The measured ||T|| rounds once more, and |x - 1| is exact near 1. So
    norm_dev <= 2 (r + u) + 2 sqrt(n) u + O(r^2) <= 4 r = 2 (n + 2)^2 eps,
    far below the closed-form excess of every trial (at least 1/2, or
    (1 + sqrt(5))/2 - 1). A chunk whose least score is above that bound
    therefore has score max(nilpotency, excess) on every trial, exactly. A
    chunk whose least score falls within it, as with a large allowed radius,
    measures its norm_dev and takes it into the score. Returns the
    lowest-score result, ties resolved to the earliest trial, equal bit for
    bit to measuring every quantity of every trial one at a time.
    """
    iters = int(iters)
    if iters < 1:
        raise ValueError("need iters >= 1")
    bound = 2.0 * (int(n) + 2) ** 2 * np.finfo(float).eps
    best = best_score = None
    for ts in _stacks("nilpotent", None, n, _seed_words(seed), range(iters)):
        nilpotency, excess = _violations(ts, lam, allowed)
        score = np.maximum(nilpotency, excess)
        if score.min() <= bound:
            score = np.maximum(_norm_devs(ts), score)
        i = int(np.argmin(score))
        if best is None or score[i] < best_score:
            best, best_score = (ts[i].copy(), nilpotency[i], excess[i]), score[i]
    t, nilpotency, excess = best
    norm_dev = float(_norm_devs(t[None])[0])
    return SearchResult(t, complex(lam), norm_dev, float(nilpotency), float(excess))


def search_sqrt_disk(n, iters, seed) -> SearchResult:
    """Search for unit-norm T with T^2 = 0 and ||T - lambda I|| <= sqrt(lambda).

    A score of 0 would exhibit a feasible operator, but none exists: every
    candidate's excess is (1 + sqrt(1 + 4 lambda^2))/2 - sqrt(lambda) >= 1/2
    (see the module docstring), least at lambda = 1/2. So each trial is
    measured at that one center, _CENTER, and the best score is 1/2 up to
    rounding.
    """
    return _search(n, iters, seed, _CENTER, np.sqrt(_CENTER))


def probe_equality_case(n, iters, seed) -> SearchResult:
    """Search for unit-norm T with T^2 = 0 and ||T - I|| <= 1.

    Same scaffold as search_sqrt_disk with the center fixed at 1 and allowed
    radius 1. This is the configuration that would make the disk gap bound
    tight. No feasible operator exists: every candidate has
    ||T - I|| = (1 + sqrt(5))/2 (see the module docstring), the value of the
    shift S2, so the best score is (1 + sqrt(5))/2 - 1 up to rounding.
    """
    return _search(n, iters, seed, 1.0, 1.0)
