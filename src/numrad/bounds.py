"""Certificate checks and slack reports for reverse radius-norm bounds.

The numerical radius w and the operator norm satisfy w <= norm <= 2w for
every matrix. The bounds verified here run the other way: once a matrix is
certified to live in a small disk or sector, the gap between norm and radius
is bounded above. Certificates come in two shapes:

* a disk certificate (lambda, r) claiming ||T - lambda I|| <= r, optionally
  carrying a gap rho with | |lambda| - w(T) | >= rho;
* a sector pair (phi, varphi) claiming that B = (A* - conj(varphi) I)
  (phi I - A) is accretive (Hermitian part positive semidefinite), or in the
  stricter mode self-adjoint and positive semidefinite. With
  lambda = (phi + varphi)/2, d = (phi - varphi)/2 and U = A - lambda I,
  B = (U* + conj(d))(d - U), whose Hermitian part is |d|^2 I - U*U: B is
  accretive exactly when ||A - lambda I|| <= |d|, and self-adjoint exactly
  when conj(d) U is Hermitian. So a sector pair is the disk certificate
  with center (phi + varphi)/2 and radius |phi - varphi|/2 (`sector_to_disk`),
  and its hypothesis is tested as that disk's.

The bounds are one table, `ROWS`: each row gives an identifier, the
certificate kind, the requirements that define it, any hypothesis it adds to
the certificate check, and lhs and rhs as array expressions in w, the norm
and the certificate. Each row is homogeneous of degree d in the matrix (and
certificate) scale: both sides of 2^k T are 2^(d k) times those of T. The
rows are evaluated on operands scaled by one power of two per matrix, 2^-e,
and scaled back by 2^(d e), so no side over- or underflows at any desk
scale. A violation is a passing hypothesis whose slack on the scaled
operands is below -SLACK_TOL: the tolerance is relative.

`bound_table` evaluates a certificate's rows over a stack of matrices at
once, as arrays; sweeps aggregate those arrays. verify_all formats the same
rows as reports for one matrix, and the seven evaluators pick out the
reports they are named for. Each report holds the hypothesis status, both
sides, and the slack rhs - lhs. A failed hypothesis is data, never an
exception, so ensemble sweeps can aggregate failures without aborting. The
rows, by identifier, with their degree d:

    T2_2   1  norm - w <= r^2 / (2 |lambda|)
    E2_4   2  norm^2 + |lambda|^2 <= 2 w |lambda| + r^2
    C2_7   1  norm - w <= |phi - varphi|^2 / (4 |phi + varphi|)
    C2_13  2  norm^2 - w^2 <= r^2 - rho^2
    R2_15  2  norm^2 - w^2 <= r^2            (when |lambda| = w)
    T3_2   0  sqrt(1 - r^2/|lambda|^2) <= w / norm      (needs |lambda| > r)
    R3_5   2  norm^2 - w^2 <= (r^2/|lambda|^2) norm^2
    C3_6   0  2 sqrt(Re(phi conj(varphi))) / |phi + varphi| <= w / norm
    C3_7   2  norm^2 - w^2 <= |(phi - varphi)/(phi + varphi)|^2 norm^2
    T4_2   2  norm^2 - w^2 <= 2 r^2 w / (|lambda| + sqrt(|lambda|^2 - r^2))
    C4_6   2  norm^2 - w^2 <= (|phi + varphi| - 2 sqrt(Re(phi conj(varphi)))) w
    R4_9   0  norm / w <= (M + m) / (2 sqrt(mM))        (real segment 0 < m <= M)
    R4_10  1  norm - w <= ((sqrt(M) - sqrt(m))^2 / (2 sqrt(mM))) w
    R4_11  2  norm^2 - w^2 <= (sqrt(M) - sqrt(m))^2 w
    R4_12  1  norm - w <= (M - m)^2 / (4 (M + m))

T3_2, R3_5, T4_2, C3_6, C3_7 and R4_9..R4_12 are undefined for the zero
operator; C3_6, C3_7 and C4_6 need Re(phi conj(varphi)) > 0. T3_2, R3_5 and
T4_2 add |lambda| > r to the hypothesis, and C2_13 adds a claimed
rho <= | |lambda| - w |.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .linalg import _as_stack, _spectral_norms, as_matrix, operator_norm, pow2_scaled, shifted_norms
from .numrange import _SEED_ANGLES, _seed_supports, numerical_radius

__all__ = [
    "DegenerateSector",
    "InvalidRho",
    "InvalidSector",
    "InvalidInterval",
    "ZeroOperator",
    "DiskCertificate",
    "SectorPair",
    "InequalityReport",
    "ACCRETIVE",
    "OPERATOR_ORDER",
    "SLACK_TOL",
    "check_disk",
    "sector_to_disk",
    "check_sector_hypothesis",
    "eval_disk_bound",
    "eval_sector_gap",
    "eval_radius_ratio",
    "eval_sector_ratio",
    "eval_disk_gap_weighted",
    "eval_sector_gap_weighted",
    "eval_segment_bounds",
    "bound_table",
    "verify_all",
    "optimize_lambda",
]

ACCRETIVE = "accretive"
OPERATOR_ORDER = "operator_order"

# Slack below -SLACK_TOL on a passing hypothesis marks a genuine violation
# (the bounds are theorems). It is relative: it is compared with the slack on
# the pow2-scaled operands of the bound table (see `_violated`).
SLACK_TOL = 1e-8
# Relative to the certified radius r (check_disk, check_sector_hypothesis).
DISK_TOL = 1e-9
# Relative to ||conj(d) (A - lambda I)||_F (check_sector_hypothesis).
SYM_RTOL = 1e-9
# Both relative to |lambda|: the slack allowed on a claimed rho, and the gap
# | |lambda| - w | below which auto-rho mode takes the |lambda| = w case.
RHO_TOL = 1e-9
CENTER_COINCIDENCE_TOL = 1e-9
# r/|lambda| at or below sqrt(3)/2 makes the ratio bounds sharper than the
# universal w >= norm/2.
REFINEMENT_RATIO = np.sqrt(3.0) / 2.0
# optimize_lambda's pruning margin, relative to its grid radius cap = 2 ||T||:
# far above the rounding of the support-line bound and of the measured norms.
_PRUNE_RTOL = 1e-6


class DegenerateSector(ValueError):
    """Sector endpoints coincide or are opposite, so no disk exists."""


class InvalidRho(ValueError):
    """Certificate gap rho is malformed."""


class InvalidSector(ValueError):
    """Sector pair violates Re(phi * conj(varphi)) > 0."""


class InvalidInterval(ValueError):
    """Segment endpoints do not satisfy M >= m > 0 (real)."""


class ZeroOperator(ValueError):
    """The bound is undefined for the zero operator."""


@dataclass(frozen=True)
class DiskCertificate:
    """Claim that ||T - lam * I|| <= r, with an optional radius gap rho.

    rho, when present, additionally claims | |lam| - w(T) | >= rho. Whether
    the claims hold for a given matrix is measured by the checkers; the
    constructor only rejects structurally impossible values.
    """

    lam: complex
    r: float
    rho: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "r", float(self.r))
        if self.lam == 0:
            raise ValueError("certificate center lambda must be nonzero")
        if not self.r > 0:
            raise ValueError(f"certificate radius must be positive, got {self.r!r}")
        if self.rho is not None:
            rho = float(self.rho)
            if not (np.isfinite(rho) and rho >= 0):
                raise InvalidRho(f"rho must be a finite nonnegative real, got {self.rho!r}")
            object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class SectorPair:
    """Endpoint pair (phi, varphi) for the accretivity hypothesis.

    mode selects how B = (A* - conj(varphi) I)(phi I - A) is tested:
    ACCRETIVE requires the Hermitian part of B to be positive semidefinite,
    OPERATOR_ORDER additionally requires B itself to be self-adjoint.
    """

    phi: complex
    varphi: complex
    mode: str = ACCRETIVE

    def __post_init__(self):
        object.__setattr__(self, "phi", complex(self.phi))
        object.__setattr__(self, "varphi", complex(self.varphi))
        if self.mode not in (ACCRETIVE, OPERATOR_ORDER):
            raise ValueError(f"unknown sector mode {self.mode!r}")

    @classmethod
    def from_segment(cls, m: float, M: float) -> "SectorPair":
        """Real specialization: segment [m, M] as varphi = m, phi = M, in OPERATOR_ORDER mode."""
        return cls(phi=complex(M), varphi=complex(m), mode=OPERATOR_ORDER)

    def segment(self) -> tuple[float, float] | None:
        """(m, M) when both endpoints are essentially real, else None.

        Essentially real means an imaginary part of at most 1e-12 times the
        larger endpoint modulus, so the verdict does not depend on scale.
        """
        tol = 1e-12 * max(abs(self.phi), abs(self.varphi))
        if abs(self.phi.imag) <= tol and abs(self.varphi.imag) <= tol:
            return (self.varphi.real, self.phi.real)
        return None

    def is_degenerate(self) -> bool:
        return self.phi == self.varphi or self.phi == -self.varphi


@dataclass(frozen=True)
class InequalityReport:
    """One verified bound on one matrix.

    slack = rhs - lhs; nonnegative slack confirms the bound. When
    hypothesis_ok is False the bound asserts nothing and lhs/rhs are
    diagnostic only (partial terms are clamped where the raw formula would
    leave the reals). w and norm record the radius and operator norm used.
    scaled_slack is the slack on the bound table's pow2-scaled operands,
    slack 2^-(d e), which the violation test reads; a side beyond the double
    range is inf, but its scaled slack is still finite.
    """

    inequality_id: str
    hypothesis_ok: bool
    diagnostic: str
    lhs: float
    rhs: float
    slack: float
    w: float
    norm: float
    refinement_flag: bool | None = None
    scaled_slack: float | None = None

    @property
    def violated(self) -> bool:
        """The violation test on scaled_slack, or on slack for a report made without it."""
        slack = self.slack if self.scaled_slack is None else self.scaled_slack
        return bool(_violated(self.hypothesis_ok, slack))


def _verdicts(t, ok, measured):
    """(bool, float) for one matrix t, the two arrays for a stack."""
    return (bool(ok), float(measured)) if t.ndim == 2 else (ok, measured)


def check_disk(t, cert: DiskCertificate):
    """Measure ||T - lambda I|| and compare against the certified radius.

    T is one matrix, which gives (ok, measured), or a stack (..., n, n), which
    gives two arrays of shape t.shape[:-2] from one `shifted_norms` call. The
    measurement uses the kernel that `optimize_lambda` fits with. It may
    exceed r by the relative DISK_TOL, so the verdict does not depend on scale.
    """
    t = _as_stack(t)
    measured = shifted_norms(t, [cert.lam])[..., 0]
    return _verdicts(t, measured <= cert.r * (1.0 + DISK_TOL), measured)


def sector_to_disk(s: SectorPair) -> DiskCertificate:
    """Equivalent disk certificate: center (phi+varphi)/2, radius |phi-varphi|/2."""
    if s.phi == s.varphi:
        raise DegenerateSector("sector endpoints coincide (disk radius would be 0)")
    if s.phi == -s.varphi:
        raise DegenerateSector("sector endpoints are opposite (disk center would be 0)")
    return DiskCertificate(lam=(s.phi + s.varphi) / 2.0, r=abs(s.phi - s.varphi) / 2.0)


def _ldexp(z, e):
    """z 2^e for complex z, exact in each part and its sign (x + 1j y loses a -0.0 x)."""
    return np.ldexp(np.stack([np.real(z), np.imag(z)], -1), e[..., None]).view(complex)[..., 0]


def check_sector_hypothesis(a, s: SectorPair):
    """Test the sector hypothesis on A as its equivalent disk; returns (ok, min eigenvalue).

    A is one matrix, which gives (bool, float), or a stack (..., n, n), which
    gives two arrays of shape a.shape[:-2] from one `eigvalsh` call.
    With lambda = (phi + varphi)/2, d = (phi - varphi)/2 and U = A - lambda I,
    B = (A* - conj(varphi) I)(phi I - A) = (U* + conj(d))(d - U), so
    Re<Bx, x> = |d|^2 ||x||^2 - ||Ux||^2 and B - B* = 2 (d U* - conj(d) U).
    B is therefore accretive exactly when ||A - lambda I|| <= |d|, the disk of
    `sector_to_disk`: the check measures ||U|| with the kernel of `check_disk`
    and passes at ||U|| <= |d| (1 + DISK_TOL). The reported value is the
    minimum eigenvalue |d|^2 - ||U||^2 of the Hermitian part (B + B*)/2.
    OPERATOR_ORDER mode also requires B to be self-adjoint, that is
    conj(d) U Hermitian to SYM_RTOL relative to its Frobenius norm.
    U and d are formed from A, phi and varphi times the power of two per
    matrix that brings the largest of max|a_ij|, |phi| and |varphi| into
    [1/2, 1), and the minimum eigenvalue is scaled back (to +-inf beyond the
    double range): the verdict is the same at any scale.
    """
    a = _as_stack(a)
    e = np.frexp(np.maximum(np.abs(a).max(axis=(-2, -1)), max(abs(s.phi), abs(s.varphi))))[1]
    a, phi, varphi = (_ldexp(z, -e[..., None, None]) for z in (a, s.phi, s.varphi))
    u, d = a - 0.5 * (phi + varphi) * np.eye(a.shape[-1]), 0.5 * (phi - varphi)
    norm, r = _spectral_norms(u), np.abs(d)[..., 0, 0]
    ok = norm <= r * (1.0 + DISK_TOL)
    if s.mode == OPERATOR_ORDER:
        du = np.conj(d) * u
        asym = np.linalg.norm(du - du.conj().swapaxes(-1, -2), axis=(-2, -1))
        ok &= asym <= SYM_RTOL * np.linalg.norm(du, axis=(-2, -1))
    with np.errstate(over="ignore"):
        return _verdicts(a, ok, np.ldexp(r * r - norm * norm, 2 * e))


# One bound of the table: lhs <= rhs, both functions of the scaled operands v
# (see `_scaled`) and homogeneous of degree d in the matrix. The operands are
# w and n (the norm); for a disk a = |lambda|, r, rho and root =
# sqrt(a^2 - r^2); for a sector pair sp = |phi + varphi|, sd = |phi - varphi|,
# rp = Re(phi conj(varphi)), m and M. needs names the requirements that define
# a report, hyp the hypothesis added to the certificate check, flag whether the
# report carries the refinement flag.
_Row = namedtuple("_Row", "iid kind d lhs rhs needs hyp flag", defaults=((), None, False))


def _gap(v):
    return v.n - v.w


def _sq_gap(v):
    return v.n * v.n - v.w * v.w


def _root_gap(v):
    return (np.sqrt(v.M) - np.sqrt(v.m)) ** 2


_D, _S, _SEC, _SEG = DiskCertificate, SectorPair, ("sector", "nonzero"), ("segment", "nonzero")
# The bounds, in canonical report order.
ROWS = (
    _Row("T2_2", _D, 1, _gap, lambda v: 0.5 * v.r * v.r / v.a),
    _Row("E2_4", _D, 2, lambda v: v.n * v.n + v.a * v.a, lambda v: 2.0 * v.w * v.a + v.r * v.r),
    _Row("C2_7", _S, 1, _gap, lambda v: np.where(v.sp > 0, 0.25 * v.sd * v.sd / v.sp, np.inf)),
    _Row("C2_13", _D, 2, _sq_gap, lambda v: v.r * v.r - v.rho * v.rho, ("apart",), "rho_ok"),
    _Row("R2_15", _D, 2, _sq_gap, lambda v: v.r * v.r, ("coincide",)),
    _Row("T3_2", _D, 0, lambda v: np.sqrt(np.maximum(1.0 - (v.r / v.a) ** 2, 0.0)),
         lambda v: v.w / v.n, ("nonzero",), "center", True),
    _Row("R3_5", _D, 2, _sq_gap, lambda v: (v.r / v.a) ** 2 * (v.n * v.n), ("nonzero",), "center", True),
    _Row("C3_6", _S, 0, lambda v: 2.0 * np.sqrt(v.rp) / v.sp, lambda v: v.w / v.n, _SEC, None, True),
    _Row("C3_7", _S, 2, _sq_gap, lambda v: (v.sd / v.sp) ** 2 * (v.n * v.n), _SEC, None, True),
    _Row("T4_2", _D, 2, _sq_gap, lambda v: 2.0 * v.r * v.r * v.w / (v.a + v.root), ("nonzero",), "center"),
    _Row("C4_6", _S, 2, _sq_gap, lambda v: (v.sp - 2.0 * np.sqrt(v.rp)) * v.w, ("sector",)),
    _Row("R4_9", _S, 0, lambda v: v.n / v.w, lambda v: (v.M + v.m) / (2.0 * np.sqrt(v.m * v.M)), _SEG),
    _Row("R4_10", _S, 1, _gap, lambda v: _root_gap(v) / (2.0 * np.sqrt(v.m * v.M)) * v.w, _SEG),
    _Row("R4_11", _S, 2, _sq_gap, lambda v: _root_gap(v) * v.w, _SEG),
    _Row("R4_12", _S, 1, _gap, lambda v: 0.25 * (v.M - v.m) ** 2 / (v.M + v.m), _SEG),
)
_ID_ORDER = {row.iid: k for k, row in enumerate(ROWS)}
# What an eval_* pick raises for a report that a requirement leaves undefined.
_UNDEFINED = {"segment": InvalidInterval, "sector": InvalidSector, "nonzero": ZeroOperator}

# One row of the table over a stack of B matrices, as (B,) arrays: defined
# marks the matrices that have the report, ok its hypothesis (the certificate
# check and hyp, the row's addition to it). lhs, rhs and slack are scaled back
# to the matrix; scaled_slack is the slack on the scaled operands, which the
# violation test reads. needs maps each requirement to its mask; flag is the
# refinement flag or None.
Bound = namedtuple("Bound", "iid defined ok hyp lhs rhs slack scaled_slack violated needs flag")


def _violated(ok, scaled_slack):
    """The violation test, of table rows and reports alike: a passing
    hypothesis whose slack 2^-(d e) on the scaled operands is below -SLACK_TOL."""
    return ok & (scaled_slack < -SLACK_TOL)


def _scaled(cert, w, norm) -> SimpleNamespace:
    """The operands of cert's rows, times 2^-e with one even e per matrix (v.e).

    2^-e brings the larger of the norm and the certificate's size into
    [1/4, 1), so no row over- or underflows while the two are within about
    2^500 of each other, whatever their scale. Each operation scales exactly
    (for square roots, because e is even): a row's scaled sides are 2^-(d e)
    times what its formulas give on the unscaled operands. The masks that
    rows name as requirements or hypotheses are attributes of v too.
    """
    disk = isinstance(cert, DiskCertificate)
    size = max(abs(cert.lam), cert.r) if disk else max(abs(cert.phi), abs(cert.varphi))
    e = np.frexp(np.maximum(norm, size))[1]
    e += e & 1

    def s(x):
        return np.ldexp(x, -e)

    v = SimpleNamespace(e=e, w=s(w), n=s(norm), always=np.ones(e.shape, bool))
    v.nonzero = v.n != 0
    if disk:
        v.a, v.r = s(abs(cert.lam)), s(cert.r)
        gap = np.abs(v.a - v.w)
        v.coincide = (cert.rho is None) & (gap <= CENTER_COINCIDENCE_TOL * v.a)
        v.apart, v.center = ~v.coincide, v.a > v.r
        v.root = np.sqrt(np.maximum(v.a * v.a - v.r * v.r, 0.0))
        v.rho = gap if cert.rho is None else s(cert.rho)
        v.rho_ok = v.rho <= gap + RHO_TOL * v.a
        v.flag = bool(cert.r / abs(cert.lam) <= REFINEMENT_RATIO)
        return v
    p, q = cert.phi, cert.varphi
    v.sp, v.sd = s(abs(p + q)), s(abs(p - q))
    v.rp = s(p.real) * s(q.real) + s(p.imag) * s(q.imag)
    v.sector = v.rp > 0
    m, M = cert.segment() or (np.nan, np.nan)
    v.segment = v.always & (0 < m <= M)
    v.m, v.M = s(m), s(M)
    v.flag = bool(abs(p - q) <= REFINEMENT_RATIO * abs(p + q))
    return v


def _evaluate(t, cert, w, norm):
    """(check, bounds): cert's check on the stack t (B, n, n) as (ok, value)
    arrays, and its rows of the table; w and norm are the stack's radii and norms."""
    if isinstance(cert, DiskCertificate):
        check = check_disk(t, cert)
    elif not isinstance(cert, SectorPair):
        raise TypeError(f"unsupported certificate type {type(cert).__name__}")
    elif cert.is_degenerate():
        check = np.zeros(len(t), bool), np.full(len(t), np.nan)
    else:
        check = check_sector_hypothesis(t, cert)
    v = _scaled(cert, w, norm)
    bounds = []
    with np.errstate(all="ignore"):  # rows that a requirement leaves undefined may divide by 0
        for row in ROWS:
            if isinstance(cert, row.kind):
                needs = {name: getattr(v, name) for name in row.needs}
                defined = functools.reduce(np.logical_and, needs.values(), v.always)
                hyp = getattr(v, row.hyp or "always")
                ok, lhs, rhs, k = check[0] & hyp, row.lhs(v), row.rhs(v), row.d * v.e
                scaled = rhs - lhs
                bounds.append(Bound(row.iid, defined, ok, hyp, np.ldexp(lhs, k), np.ldexp(rhs, k),
                                    np.ldexp(scaled, k), scaled, _violated(ok, scaled), needs,
                                    v.flag if row.flag else None))
    return check, bounds


def bound_table(t, cert) -> list:
    """The rows of cert's kind over the stack t (B, n, n), as `Bound`s in canonical order.

    One `numerical_radius`, one norm and one hypothesis check for the stack,
    then every row as array expressions over all of it. This is the sweep's
    path: it makes no report objects. Entry i of a row is what `verify_all`
    reports for matrix i alone.
    """
    t = _as_stack(t).reshape(-1, *np.shape(t)[-2:])
    return _evaluate(t, cert, numerical_radius(t), _spectral_norms(t))[1]


def _reports(cert, check, bounds, i, w, norm) -> list:
    """The reports of matrix i of a table: its defined rows, with their diagnostics."""
    ok, value, w, norm = bool(check[0][i]), float(check[1][i]), float(w), float(norm)
    if isinstance(cert, DiskCertificate):
        alam, gap = abs(cert.lam), abs(abs(cert.lam) - w)
        base = f"||T - lambda I|| = {value:.12g} {'<=' if ok else '>'} r = {cert.r:.12g}"
    elif cert.is_degenerate():
        base = "degenerate sector pair (phi equals varphi or -varphi)"
    else:
        mode = "operator order" if cert.mode == OPERATOR_ORDER else "accretivity"
        base = f"sector {mode} check: min eig = {value:.6g}"
    reports = []
    for b in (b for b in bounds if b.defined[i]):
        diag = base
        if b.iid == "R2_15":
            diag += f"; |lambda| = w to {CENTER_COINCIDENCE_TOL:g} |lambda|"
        elif b.iid == "C2_13" and cert.rho is None:
            diag += f"; auto rho = | |lambda| - w | = {gap:.12g}"
        elif b.iid == "C2_13":
            holds = f"rho = {cert.rho:.12g} <=" if b.hyp[i] else f"claimed rho = {cert.rho:.12g} exceeds"
            diag += f"; {holds} | |lambda| - w | = {gap:.12g}"
        elif not b.hyp[i]:
            diag += f"; needs |lambda| > r, got |lambda| = {alam:.12g}, r = {cert.r:.12g}"
        reports.append(InequalityReport(
            b.iid, bool(b.ok[i]), diag if b.ok[i] else diag + " [hypothesis failed]", float(b.lhs[i]),
            float(b.rhs[i]), float(b.slack[i]), w, norm, b.flag, float(b.scaled_slack[i])))
    return reports


def _pick(t, cert, w, norm, *ids):
    """The reports under ids of cert on one matrix, one bare or several as a tuple.

    w and norm are measured unless given. A report that a requirement leaves
    undefined raises that requirement's exception.
    """
    t = as_matrix(t)
    w = np.array([numerical_radius(t) if w is None else w], dtype=float)
    norm = np.array([operator_norm(t) if norm is None else norm], dtype=float)
    check, bounds = _evaluate(t[None], cert, w, norm)
    for b in (b for b in bounds if b.iid in ids):
        for exc in (_UNDEFINED[name] for name, mask in b.needs.items() if not mask[0]):
            raise exc(f"{b.iid}: {exc.__doc__}")
    found = [rep for rep in _reports(cert, check, bounds, 0, w[0], norm[0]) if rep.inequality_id in ids]
    return found[0] if len(found) == 1 else tuple(found)


def eval_disk_bound(t, cert: DiskCertificate, *, w=None, norm=None):
    """Reports T2_2 and E2_4 for a disk certificate.

    Pass precomputed w/norm to skip their recomputation; otherwise both are
    measured here.
    """
    return _pick(t, cert, w, norm, "T2_2", "E2_4")


def eval_sector_gap(a, s: SectorPair, *, w=None, norm=None):
    """Report C2_7: the norm-radius gap bound under the sector hypothesis."""
    return _pick(a, s, w, norm, "C2_7")


def eval_radius_ratio(t, cert: DiskCertificate, *, w=None, norm=None):
    """Reports T3_2 and R3_5: lower bound on w/norm for a small disk.

    Requires |lambda| > r on top of the disk claim; otherwise the hypothesis
    fails and the T3_2 left side is clamped to 0 where the square root would
    leave the reals. The refinement flag records r/|lambda| <= sqrt(3)/2, the
    regime where T3_2 sharpens the universal w >= norm/2.
    """
    return _pick(t, cert, w, norm, "T3_2", "R3_5")


def eval_sector_ratio(a, s: SectorPair, *, w=None, norm=None):
    """Reports C3_6 and C3_7: ratio bounds for a sector pair.

    Raises InvalidSector unless Re(phi * conj(varphi)) > 0, which is exactly
    |center| > radius for the equivalent disk. The refinement flag records
    |phi - varphi| <= sqrt(3)/2 * |phi + varphi|.
    """
    return _pick(a, s, w, norm, "C3_6", "C3_7")


def eval_disk_gap_weighted(t, cert: DiskCertificate, *, w=None, norm=None):
    """Report T4_2: squared-gap bound weighted by the radius.

    Requires |lambda| > r; on hypothesis failure the square root in the
    denominator is clamped to 0 for the diagnostic value.
    """
    return _pick(t, cert, w, norm, "T4_2")


def eval_sector_gap_weighted(a, s: SectorPair, *, w=None, norm=None):
    """Report C4_6: squared-gap bound weighted by w, for a sector pair."""
    return _pick(a, s, w, norm, "C4_6")


def eval_segment_bounds(a, s: SectorPair, *, w=None, norm=None):
    """Reports R4_9 through R4_12 for a real segment pair 0 < m <= M.

    The hypothesis is the sector check for (varphi, phi) = (m, M); R4_9 is a
    ratio bound (lhs = norm/w), the others bound differences.
    """
    return _pick(a, s, w, norm, "R4_9", "R4_10", "R4_11", "R4_12")


def verify_all(t, certs) -> list:
    """Run every applicable evaluator for each certificate on the matrix T.

    The radius and the norm are computed once, and each certificate's table
    (see `bound_table`, the stacked entry) is evaluated once; this function
    only formats its rows as reports. Hypothesis failures are recorded in the
    reports; bounds that are structurally inapplicable to a certificate (zero
    operator, nonpositive Re(phi * conj(varphi)), missing real segment) are
    skipped rather than raised. Reports come back sorted by the canonical
    identifier order, stably over certificates.
    """
    t = as_matrix(t)[None]
    w, norm = numerical_radius(t), _spectral_norms(t)
    reports = (rep for cert in certs
               for rep in _reports(cert, *_evaluate(t, cert, w, norm), 0, w[0], norm[0]))
    return sorted(reports, key=lambda rep: _ID_ORDER[rep.inequality_id])


def optimize_lambda(t) -> DiskCertificate:
    """Search for a center approximately minimizing ||T - lambda I||.

    A 32-point grid over the disk |lambda| <= 2 ||T|| seeds axis-aligned
    coordinate descent with halving steps down to 1e-8. The measured radius
    is padded by 1e-9 so check_disk passes on the returned certificate, and
    the center is kept away from exactly zero so the certificate remains
    usable by the evaluators. The fit runs on T scaled by a power of two
    (see `pow2_scaled`), so the step floor and the pad are relative to the
    largest entry of T, and the certificate of 2^k T is exactly 2^k times
    that of T.

    Only the grid candidates that can hold the minimum are measured. Each
    support line of W(T) bounds the norm from below: with h(theta) the top
    eigenvalue of H(theta) (see `numrange`),
    ||T - lambda I|| >= w(T - lambda I) >= h(theta) - Re(e^{i theta} lambda).
    LB(lambda) is the largest of these over the SEED_GRID angles; u is the
    norm measured at the candidate of smallest LB, so the grid minimum is at
    most u. A candidate with LB > u + _PRUNE_RTOL * cap has a computed norm
    above u, because the rounding of h, of Re(e^{i theta} lambda) and of the
    computed norms is far below that margin (at most eps * cap measured);
    so it is not the grid minimum and does not tie with it. Each norm is
    computed on its own (on the scaled T the guard of `shifted_norms` never
    fires), so the argmin, its tie-break to the first index and the norm
    measured there are bit for bit those of the full grid.
    """
    t, e = pow2_scaled(as_matrix(t))
    cap = 2.0 * operator_norm(t) or 1e-6

    # The grid size is even, so the grid never contains exactly 0.
    xs = np.linspace(-cap, cap, 32)
    re, im = np.meshgrid(xs, xs)
    cand = (re + 1j * im).ravel()
    cand = cand[np.abs(cand) <= cap]
    h = _seed_supports(t[None], t.conj()[None])[0][0]
    lb = (h - (cand[:, None] * np.exp(1j * _SEED_ANGLES)).real).max(axis=1)
    u = float(shifted_norms(t, cand[[np.argmin(lb)]])[0])
    live = np.flatnonzero(lb <= u + _PRUNE_RTOL * cap)
    vals = shifted_norms(t, cand[live])
    k = int(np.argmin(vals))
    lam, best = complex(cand[live[k]]), float(vals[k])

    step = 2.0 * cap / 31
    while step > 1e-8:
        moves = np.array([lam + step, lam - step, lam + 1j * step, lam - 1j * step])
        mv = shifted_norms(t, moves)
        j = int(np.argmin(mv))
        if mv[j] < best and moves[j] != 0:
            lam, best = complex(moves[j]), float(mv[j])
        else:
            step *= 0.5
    lam = complex(np.ldexp(lam.real, e), np.ldexp(lam.imag, e))
    return DiskCertificate(lam=lam, r=float(np.ldexp(best + 1e-9, e)))
