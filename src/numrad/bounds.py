"""Certificate checks and slack reports for reverse radius-norm bounds.

The numerical radius w and the operator norm satisfy w <= norm <= 2w for
every matrix. The bounds verified here run the other way: once a matrix is
certified to live in a small disk or sector, the gap between norm and radius
is bounded above. Certificates come in two shapes:

* a disk certificate (lambda, r) claiming ||T - lambda I|| <= r, optionally
  carrying a gap rho with | |lambda| - w(T) | >= rho;
* a sector pair (phi, varphi) claiming that B = (A* - conj(varphi) I)
  (phi I - A) is accretive (Hermitian part positive semidefinite), or in the
  stricter mode self-adjoint and positive semidefinite. A sector pair is
  equivalent to the disk certificate with center (phi + varphi)/2 and radius
  |phi - varphi|/2.

Each evaluator measures one bound and returns an InequalityReport containing
the hypothesis status, both sides, and the slack rhs - lhs. A failed
hypothesis is data, never an exception, so ensemble sweeps can aggregate
failures without aborting. The verified bounds, by identifier:

    T2_2   norm - w <= r^2 / (2 |lambda|)
    E2_4   norm^2 + |lambda|^2 <= 2 w |lambda| + r^2
    C2_7   norm - w <= |phi - varphi|^2 / (4 |phi + varphi|)
    C2_13  norm^2 - w^2 <= r^2 - rho^2
    R2_15  norm^2 - w^2 <= r^2            (when |lambda| = w)
    T3_2   sqrt(1 - r^2/|lambda|^2) <= w / norm      (needs |lambda| > r)
    R3_5   norm^2 - w^2 <= (r^2/|lambda|^2) norm^2
    C3_6   2 sqrt(Re(phi conj(varphi))) / |phi + varphi| <= w / norm
    C3_7   norm^2 - w^2 <= |(phi - varphi)/(phi + varphi)|^2 norm^2
    T4_2   norm^2 - w^2 <= 2 r^2 w / (|lambda| + sqrt(|lambda|^2 - r^2))
    C4_6   norm^2 - w^2 <= (|phi + varphi| - 2 sqrt(Re(phi conj(varphi)))) w
    R4_9   norm / w <= (M + m) / (2 sqrt(mM))        (real segment 0 < m <= M)
    R4_10  norm - w <= ((sqrt(M) - sqrt(m))^2 / (2 sqrt(mM))) w
    R4_11  norm^2 - w^2 <= (sqrt(M) - sqrt(m))^2 w
    R4_12  norm - w <= (M - m)^2 / (4 (M + m))
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, operator_norm, shift, shifted_norms
from .numrange import numerical_radius

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
    "INEQUALITY_IDS",
    "SLACK_TOL",
    "check_disk",
    "sector_to_disk",
    "check_sector_hypothesis",
    "eval_disk_bound",
    "eval_sector_gap",
    "eval_disk_gap_squared",
    "eval_radius_ratio",
    "eval_sector_ratio",
    "eval_disk_gap_weighted",
    "eval_sector_gap_weighted",
    "eval_segment_bounds",
    "verify_all",
    "optimize_lambda",
]

ACCRETIVE = "accretive"
OPERATOR_ORDER = "operator_order"

# Report identifiers in canonical order (verify_all sorts by this).
INEQUALITY_IDS = (
    "T2_2", "E2_4", "C2_7", "C2_13", "R2_15", "T3_2", "R3_5",
    "C3_6", "C3_7", "T4_2", "C4_6", "R4_9", "R4_10", "R4_11", "R4_12",
)
_ID_ORDER = {iid: k for k, iid in enumerate(INEQUALITY_IDS)}

# Slack below -SLACK_TOL on a passing hypothesis marks a genuine violation
# (the bounds are theorems; instances are O(1)-scaled).
SLACK_TOL = 1e-8
DISK_TOL = 1e-9
PSD_TOL = 1e-9
SYM_RTOL = 1e-9
RHO_TOL = 1e-9
# Auto-rho mode switches to the |lambda| = w special case below this gap.
CENTER_COINCIDENCE_TOL = 1e-9
ZERO_NORM_TOL = 1e-14
# r/|lambda| at or below sqrt(3)/2 makes the ratio bounds sharper than the
# universal w >= norm/2.
REFINEMENT_RATIO = np.sqrt(3.0) / 2.0


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
    def from_segment(cls, m: float, M: float, mode: str = OPERATOR_ORDER) -> "SectorPair":
        """Real specialization: spectrum-style segment [m, M] with varphi = m, phi = M."""
        return cls(phi=complex(M), varphi=complex(m), mode=mode)

    def segment(self) -> tuple[float, float] | None:
        """(m, M) when both endpoints are essentially real, else None."""
        if abs(self.phi.imag) <= 1e-12 and abs(self.varphi.imag) <= 1e-12:
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


def _radius_and_norm(t, w, norm):
    if w is None:
        w = numerical_radius(t)
    if norm is None:
        norm = operator_norm(t)
    return float(w), float(norm)


def _report(iid, ok, diag, lhs, rhs, w, norm, flag=None):
    lhs = float(lhs)
    rhs = float(rhs)
    return InequalityReport(
        inequality_id=iid,
        hypothesis_ok=bool(ok),
        diagnostic=diag,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        w=w,
        norm=norm,
        refinement_flag=flag,
    )


def check_disk(t, cert: DiskCertificate) -> tuple[bool, float]:
    """Measure ||T - lambda I|| and compare against the certified radius."""
    measured = operator_norm(shift(t, cert.lam))
    return measured <= cert.r + DISK_TOL, measured


def sector_to_disk(s: SectorPair) -> DiskCertificate:
    """Equivalent disk certificate: center (phi+varphi)/2, radius |phi-varphi|/2."""
    if s.phi == s.varphi:
        raise DegenerateSector("sector endpoints coincide (disk radius would be 0)")
    if s.phi == -s.varphi:
        raise DegenerateSector("sector endpoints are opposite (disk center would be 0)")
    return DiskCertificate(lam=(s.phi + s.varphi) / 2.0, r=abs(s.phi - s.varphi) / 2.0)


def check_sector_hypothesis(a, s: SectorPair) -> tuple[bool, float]:
    """Test the sector hypothesis on A; returns (ok, min eigenvalue).

    Forms B = (A* - conj(varphi) I)(phi I - A). Accretivity means
    Re<Bx, x> >= 0 for all x, which in finite dimension is exactly positive
    semidefiniteness of the Hermitian part (B + B*)/2; the reported minimum
    eigenvalue is taken there. OPERATOR_ORDER mode additionally requires B to
    be self-adjoint to a relative Frobenius tolerance.
    """
    a = as_matrix(a)
    eye = np.eye(a.shape[0], dtype=complex)
    b = (a.conj().T - np.conj(s.varphi) * eye) @ (s.phi * eye - a)
    herm = 0.5 * (b + b.conj().T)
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    ok = min_eig >= -PSD_TOL
    if s.mode == OPERATOR_ORDER:
        dev = float(np.linalg.norm(b - b.conj().T))
        ok = ok and dev <= SYM_RTOL * max(1.0, float(np.linalg.norm(b)))
    return ok, min_eig


def _disk_diag(ok: bool, measured: float, cert: DiskCertificate, extra: str = "") -> str:
    rel = "<=" if measured <= cert.r + DISK_TOL else ">"
    msg = f"||T - lambda I|| = {measured:.12g} {rel} r = {cert.r:.12g}"
    if extra:
        msg += "; " + extra
    if not ok:
        msg += " [hypothesis failed]"
    return msg


def _sector_diag(a, s: SectorPair) -> tuple[bool, str]:
    if s.is_degenerate():
        return False, "degenerate sector pair (phi equals varphi or -varphi) [hypothesis failed]"
    ok, min_eig = check_sector_hypothesis(a, s)
    mode = "operator order" if s.mode == OPERATOR_ORDER else "accretivity"
    msg = f"sector {mode} check: min eig = {min_eig:.6g}"
    if not ok:
        msg += " [hypothesis failed]"
    return ok, msg


def eval_disk_bound(t, cert: DiskCertificate, *, w=None, norm=None):
    """Reports T2_2 and E2_4 for a disk certificate.

    Pass precomputed w/norm to skip their recomputation (verify_all and the
    sweeps do); otherwise both are measured here.
    """
    t = as_matrix(t)
    w, norm = _radius_and_norm(t, w, norm)
    ok, measured = check_disk(t, cert)
    diag = _disk_diag(ok, measured, cert)
    alam = abs(cert.lam)
    rep_gap = _report("T2_2", ok, diag, norm - w, 0.5 * cert.r**2 / alam, w, norm)
    rep_sq = _report(
        "E2_4", ok, diag, norm**2 + alam**2, 2.0 * w * alam + cert.r**2, w, norm
    )
    return rep_gap, rep_sq


def eval_sector_gap(a, s: SectorPair, *, w=None, norm=None):
    """Report C2_7: the norm-radius gap bound under the sector hypothesis."""
    a = as_matrix(a)
    w, norm = _radius_and_norm(a, w, norm)
    ok, diag = _sector_diag(a, s)
    denom = abs(s.phi + s.varphi)
    rhs = 0.25 * abs(s.phi - s.varphi) ** 2 / denom if denom > 0 else float("inf")
    return _report("C2_7", ok, diag, norm - w, rhs, w, norm)


def eval_disk_gap_squared(t, cert: DiskCertificate, *, w=None, norm=None):
    """Report C2_13 (or R2_15): squared-gap bound with the radius gap rho.

    With an explicit rho the claim | |lambda| - w | >= rho joins the
    hypothesis. Without one, rho is set to the measured | |lambda| - w |;
    when that gap is below CENTER_COINCIDENCE_TOL the report is emitted as
    the special case R2_15 with rhs = r^2.
    """
    t = as_matrix(t)
    w, norm = _radius_and_norm(t, w, norm)
    ok, measured = check_disk(t, cert)
    gap = abs(abs(cert.lam) - w)
    extra = ""
    if cert.rho is None:
        if gap <= CENTER_COINCIDENCE_TOL:
            iid, rho = "R2_15", 0.0
            extra = f"|lambda| = w to {CENTER_COINCIDENCE_TOL:g}"
        else:
            iid, rho = "C2_13", gap
            extra = f"auto rho = | |lambda| - w | = {gap:.12g}"
    else:
        iid, rho = "C2_13", cert.rho
        if rho > gap + RHO_TOL:
            ok = False
            extra = f"claimed rho = {rho:.12g} exceeds | |lambda| - w | = {gap:.12g}"
        else:
            extra = f"rho = {rho:.12g} <= | |lambda| - w | = {gap:.12g}"
    diag = _disk_diag(ok, measured, cert, extra)
    return _report(iid, ok, diag, norm**2 - w**2, cert.r**2 - rho**2, w, norm)


def eval_radius_ratio(t, cert: DiskCertificate, *, w=None, norm=None):
    """Reports T3_2 and R3_5: lower bound on w/norm for a small disk.

    Requires |lambda| > r on top of the disk claim; otherwise the hypothesis
    fails and the T3_2 left side is clamped to 0 where the square root would
    leave the reals. The refinement flag records r/|lambda| <= sqrt(3)/2, the
    regime where T3_2 sharpens the universal w >= norm/2.
    """
    t = as_matrix(t)
    w, norm = _radius_and_norm(t, w, norm)
    if norm <= ZERO_NORM_TOL:
        raise ZeroOperator("ratio bounds are undefined for the zero operator")
    ok, measured = check_disk(t, cert)
    alam = abs(cert.lam)
    extra = ""
    if alam <= cert.r:
        ok = False
        extra = f"needs |lambda| > r, got |lambda| = {alam:.12g}, r = {cert.r:.12g}"
    diag = _disk_diag(ok, measured, cert, extra)
    flag = bool(cert.r / alam <= REFINEMENT_RATIO)
    ratio_sq = 1.0 - (cert.r / alam) ** 2
    lhs_root = float(np.sqrt(ratio_sq)) if ratio_sq > 0 else 0.0
    rep_root = _report("T3_2", ok, diag, lhs_root, w / norm, w, norm, flag)
    rep_sq = _report(
        "R3_5", ok, diag, norm**2 - w**2, (cert.r / alam) ** 2 * norm**2, w, norm, flag
    )
    return rep_root, rep_sq


def eval_sector_ratio(a, s: SectorPair, *, w=None, norm=None):
    """Reports C3_6 and C3_7: ratio bounds for a sector pair.

    Raises InvalidSector unless Re(phi * conj(varphi)) > 0, which is exactly
    |center| > radius for the equivalent disk. The refinement flag records
    |phi - varphi| <= sqrt(3)/2 * |phi + varphi|.
    """
    re_prod = float((s.phi * np.conj(s.varphi)).real)
    if re_prod <= 0:
        raise InvalidSector(
            f"needs Re(phi * conj(varphi)) > 0, got {re_prod:.12g}"
        )
    a = as_matrix(a)
    w, norm = _radius_and_norm(a, w, norm)
    if norm <= ZERO_NORM_TOL:
        raise ZeroOperator("ratio bounds are undefined for the zero operator")
    ok, diag = _sector_diag(a, s)
    ssum = abs(s.phi + s.varphi)
    sdiff = abs(s.phi - s.varphi)
    flag = bool(sdiff <= REFINEMENT_RATIO * ssum)
    rep_root = _report(
        "C3_6", ok, diag, 2.0 * np.sqrt(re_prod) / ssum, w / norm, w, norm, flag
    )
    rep_sq = _report(
        "C3_7", ok, diag, norm**2 - w**2, (sdiff / ssum) ** 2 * norm**2, w, norm, flag
    )
    return rep_root, rep_sq


def eval_disk_gap_weighted(t, cert: DiskCertificate, *, w=None, norm=None):
    """Report T4_2: squared-gap bound weighted by the radius.

    Requires |lambda| > r; on hypothesis failure the square root in the
    denominator is clamped to 0 for the diagnostic value.
    """
    t = as_matrix(t)
    w, norm = _radius_and_norm(t, w, norm)
    if norm <= ZERO_NORM_TOL:
        raise ZeroOperator("the weighted gap bound is undefined for the zero operator")
    ok, measured = check_disk(t, cert)
    alam = abs(cert.lam)
    extra = ""
    if alam <= cert.r:
        ok = False
        extra = f"needs |lambda| > r, got |lambda| = {alam:.12g}, r = {cert.r:.12g}"
    diag = _disk_diag(ok, measured, cert, extra)
    root = float(np.sqrt(max(alam**2 - cert.r**2, 0.0)))
    rhs = 2.0 * cert.r**2 * w / (alam + root)
    return _report("T4_2", ok, diag, norm**2 - w**2, rhs, w, norm)


def eval_sector_gap_weighted(a, s: SectorPair, *, w=None, norm=None):
    """Report C4_6: squared-gap bound weighted by w, for a sector pair."""
    re_prod = float((s.phi * np.conj(s.varphi)).real)
    if re_prod <= 0:
        raise InvalidSector(
            f"needs Re(phi * conj(varphi)) > 0, got {re_prod:.12g}"
        )
    a = as_matrix(a)
    w, norm = _radius_and_norm(a, w, norm)
    ok, diag = _sector_diag(a, s)
    rhs = (abs(s.phi + s.varphi) - 2.0 * np.sqrt(re_prod)) * w
    return _report("C4_6", ok, diag, norm**2 - w**2, rhs, w, norm)


def eval_segment_bounds(a, s: SectorPair, *, w=None, norm=None):
    """Reports R4_9 through R4_12 for a real segment pair 0 < m <= M.

    The hypothesis is the sector check for (varphi, phi) = (m, M); R4_9 is a
    ratio bound (lhs = norm/w), the others bound differences.
    """
    seg = s.segment()
    if seg is None:
        raise InvalidInterval("segment bounds need real endpoints")
    m, M = seg
    if not (0 < m <= M):
        raise InvalidInterval(f"needs M >= m > 0, got m = {m:.12g}, M = {M:.12g}")
    a = as_matrix(a)
    w, norm = _radius_and_norm(a, w, norm)
    if norm <= ZERO_NORM_TOL:
        raise ZeroOperator("segment bounds are undefined for the zero operator")
    ok, diag = _sector_diag(a, s)
    root_mm = float(np.sqrt(m * M))
    droot = (np.sqrt(M) - np.sqrt(m)) ** 2
    return (
        _report("R4_9", ok, diag, norm / w, (M + m) / (2.0 * root_mm), w, norm),
        _report("R4_10", ok, diag, norm - w, droot / (2.0 * root_mm) * w, w, norm),
        _report("R4_11", ok, diag, norm**2 - w**2, droot * w, w, norm),
        _report("R4_12", ok, diag, norm - w, 0.25 * (M - m) ** 2 / (M + m), w, norm),
    )


def verify_all(t, certs, *, w=None, norm=None) -> list[InequalityReport]:
    """Run every applicable evaluator for each certificate.

    The radius and norm are computed once and shared. Hypothesis failures are
    recorded in the reports; evaluators that are structurally inapplicable to
    a certificate (zero operator, nonpositive Re(phi * conj(varphi)), missing
    real segment) are skipped rather than raised. Reports come back sorted by
    the canonical identifier order, stably over certificates.
    """
    t = as_matrix(t)
    w, norm = _radius_and_norm(t, w, norm)
    reports: list[InequalityReport] = []
    for cert in certs:
        if isinstance(cert, DiskCertificate):
            reports.extend(eval_disk_bound(t, cert, w=w, norm=norm))
            reports.append(eval_disk_gap_squared(t, cert, w=w, norm=norm))
            try:
                reports.extend(eval_radius_ratio(t, cert, w=w, norm=norm))
                reports.append(eval_disk_gap_weighted(t, cert, w=w, norm=norm))
            except ZeroOperator:
                pass
        elif isinstance(cert, SectorPair):
            reports.append(eval_sector_gap(t, cert, w=w, norm=norm))
            try:
                reports.extend(eval_sector_ratio(t, cert, w=w, norm=norm))
                reports.append(eval_sector_gap_weighted(t, cert, w=w, norm=norm))
            except (InvalidSector, ZeroOperator):
                pass
            seg = cert.segment()
            if seg is not None and 0 < seg[0] <= seg[1]:
                try:
                    reports.extend(eval_segment_bounds(t, cert, w=w, norm=norm))
                except ZeroOperator:
                    pass
        else:
            raise TypeError(f"unsupported certificate type {type(cert).__name__}")
    reports.sort(key=lambda rep: _ID_ORDER[rep.inequality_id])
    return reports


def optimize_lambda(t, *, coarse: int = 32, step_tol: float = 1e-8, pad: float = 1e-9) -> DiskCertificate:
    """Search for a center approximately minimizing ||T - lambda I||.

    A coarse grid over the disk |lambda| <= 2 ||T|| seeds axis-aligned
    coordinate descent with halving steps down to step_tol. The measured
    radius is padded by `pad` so check_disk passes on the returned
    certificate, and the center is kept away from exactly zero so the
    certificate remains usable by the evaluators.
    """
    t = as_matrix(t)
    big = operator_norm(t)
    cap = 2.0 * big if big > 0 else 1e-6

    # coarse is even, so the grid never contains exactly 0.
    xs = np.linspace(-cap, cap, int(coarse))
    re, im = np.meshgrid(xs, xs)
    cand = (re + 1j * im).ravel()
    cand = cand[np.abs(cand) <= cap]
    vals = shifted_norms(t, cand)
    k = int(np.argmin(vals))
    lam, best = complex(cand[k]), float(vals[k])

    step = 2.0 * cap / (int(coarse) - 1)
    while step > step_tol:
        moves = np.array([lam + step, lam - step, lam + 1j * step, lam - 1j * step])
        mv = shifted_norms(t, moves)
        j = int(np.argmin(mv))
        if mv[j] < best and moves[j] != 0:
            lam, best = complex(moves[j]), float(mv[j])
        else:
            step *= 0.5
    return DiskCertificate(lam=lam, r=best + pad)
