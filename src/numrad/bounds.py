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

verify_all checks each certificate's hypothesis once and reports every bound
resting on it; the seven evaluators pick out the bounds they are named for.
Each report holds the hypothesis status, both sides, and the slack rhs - lhs.
A failed hypothesis is data, never an exception, so ensemble sweeps can
aggregate failures without aborting. The verified bounds, by identifier:

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
    "INEQUALITY_IDS",
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
# Relative to the certified radius r (check_disk).
DISK_TOL = 1e-9
# Relative to ||A* - conj(varphi) I||_F ||phi I - A||_F (check_sector_hypothesis).
PSD_TOL = 1e-9
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
    def from_segment(cls, m: float, M: float, mode: str = OPERATOR_ORDER) -> "SectorPair":
        """Real specialization: spectrum-style segment [m, M] with varphi = m, phi = M."""
        return cls(phi=complex(M), varphi=complex(m), mode=mode)

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


def _report(iid, ok, diag, lhs, rhs, w, norm, flag=None):
    lhs = float(lhs)
    rhs = float(rhs)
    return InequalityReport(
        inequality_id=iid,
        hypothesis_ok=bool(ok),
        diagnostic=diag if ok else diag + " [hypothesis failed]",
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        w=w,
        norm=norm,
        refinement_flag=flag,
    )


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


def check_sector_hypothesis(a, s: SectorPair):
    """Test the sector hypothesis on A; returns (ok, min eigenvalue).

    A is one matrix, which gives (bool, float), or a stack (..., n, n), which
    gives two arrays of shape a.shape[:-2] from one `eigvalsh` call.
    Forms B = (A* - conj(varphi) I)(phi I - A). Accretivity means
    Re<Bx, x> >= 0 for all x, which in finite dimension is exactly positive
    semidefiniteness of the Hermitian part (B + B*)/2; the reported minimum
    eigenvalue is taken there. OPERATOR_ORDER mode additionally requires B to
    be self-adjoint. Both tolerances are relative to the product of the two
    factors' Frobenius norms, which bounds the rounding error in forming B.
    """
    a = _as_stack(a)
    eye = np.eye(a.shape[-1])
    left, right = a.conj().swapaxes(-1, -2) - np.conj(s.varphi) * eye, s.phi * eye - a
    b = left @ right
    bh = b.conj().swapaxes(-1, -2)
    scale = np.linalg.norm(left, axis=(-2, -1)) * np.linalg.norm(right, axis=(-2, -1))
    min_eig = np.linalg.eigvalsh(0.5 * (b + bh))[..., 0]
    ok = min_eig >= -PSD_TOL * scale
    if s.mode == OPERATOR_ORDER:
        ok &= np.linalg.norm(b - bh, axis=(-2, -1)) <= SYM_RTOL * scale
    return _verdicts(a, ok, min_eig)


def _disk_reports(cert: DiskCertificate, ok, measured, w, norm) -> dict:
    """Every disk bound of one certificate on one matrix, given its check_disk result.

    Maps each identifier to its report, or to the exception its evaluator
    raises when the bound is undefined for this matrix and certificate.
    An explicit rho joins the hypothesis of C2_13 as | |lambda| - w | >= rho.
    Without one, rho is the measured | |lambda| - w |; below
    CENTER_COINCIDENCE_TOL |lambda| the report is the special case R2_15,
    rhs = r^2.
    """
    diag = f"||T - lambda I|| = {measured:.12g} {'<=' if ok else '>'} r = {cert.r:.12g}"
    alam, r = abs(cert.lam), cert.r
    gap = abs(alam - w)
    gap_ok = ok
    if cert.rho is None:
        if gap <= CENTER_COINCIDENCE_TOL * alam:
            iid, rho = "R2_15", 0.0
            extra = f"|lambda| = w to {CENTER_COINCIDENCE_TOL:g} |lambda|"
        else:
            iid, rho = "C2_13", gap
            extra = f"auto rho = | |lambda| - w | = {gap:.12g}"
    else:
        iid, rho = "C2_13", cert.rho
        if rho > gap + RHO_TOL * alam:
            gap_ok = False
            extra = f"claimed rho = {rho:.12g} exceeds | |lambda| - w | = {gap:.12g}"
        else:
            extra = f"rho = {rho:.12g} <= | |lambda| - w | = {gap:.12g}"
    reports = {
        "T2_2": _report("T2_2", ok, diag, norm - w, 0.5 * r**2 / alam, w, norm),
        "E2_4": _report("E2_4", ok, diag, norm**2 + alam**2, 2.0 * w * alam + r**2, w, norm),
        iid: _report(iid, gap_ok, f"{diag}; {extra}", norm**2 - w**2, r**2 - rho**2, w, norm),
    }
    if norm == 0:
        zero = ZeroOperator("ratio bounds are undefined for the zero operator")
        weighted = ZeroOperator("the weighted gap bound is undefined for the zero operator")
        return reports | {"T3_2": zero, "R3_5": zero, "T4_2": weighted}
    # The ratio and weighted bounds also need |lambda| > r.
    if alam <= r:
        ok = False
        diag += f"; needs |lambda| > r, got |lambda| = {alam:.12g}, r = {r:.12g}"
    flag = bool(r / alam <= REFINEMENT_RATIO)
    ratio_sq = 1.0 - (r / alam) ** 2
    lhs_root = float(np.sqrt(ratio_sq)) if ratio_sq > 0 else 0.0
    root = float(np.sqrt(max(alam**2 - r**2, 0.0)))
    return reports | {
        "T3_2": _report("T3_2", ok, diag, lhs_root, w / norm, w, norm, flag),
        "R3_5": _report("R3_5", ok, diag, norm**2 - w**2, (r / alam) ** 2 * norm**2, w, norm, flag),
        "T4_2": _report("T4_2", ok, diag, norm**2 - w**2, 2.0 * r**2 * w / (alam + root), w, norm),
    }


def _sector_reports(s: SectorPair, ok, min_eig, w, norm) -> dict:
    """Every sector bound of one pair on one matrix, given its check_sector_hypothesis result.

    A degenerate pair fails its hypothesis and has no check (ok and min_eig
    are ignored). The result maps identifiers as `_disk_reports` does.
    """
    if s.is_degenerate():
        ok, diag = False, "degenerate sector pair (phi equals varphi or -varphi)"
    else:
        mode = "operator order" if s.mode == OPERATOR_ORDER else "accretivity"
        diag = f"sector {mode} check: min eig = {min_eig:.6g}"
    ssum, sdiff = abs(s.phi + s.varphi), abs(s.phi - s.varphi)
    rhs = 0.25 * sdiff**2 / ssum if ssum > 0 else float("inf")
    reports = {"C2_7": _report("C2_7", ok, diag, norm - w, rhs, w, norm)}
    re_prod = float((s.phi * np.conj(s.varphi)).real)
    if re_prod <= 0:
        invalid = InvalidSector(f"needs Re(phi * conj(varphi)) > 0, got {re_prod:.12g}")
        reports.update(dict.fromkeys(("C3_6", "C3_7", "C4_6"), invalid))
    else:
        rhs = (ssum - 2.0 * np.sqrt(re_prod)) * w
        reports["C4_6"] = _report("C4_6", ok, diag, norm**2 - w**2, rhs, w, norm)
        if norm == 0:
            zero = ZeroOperator("ratio bounds are undefined for the zero operator")
            reports.update(C3_6=zero, C3_7=zero)
        else:
            flag = bool(sdiff <= REFINEMENT_RATIO * ssum)
            lhs_root = 2.0 * np.sqrt(re_prod) / ssum
            reports["C3_6"] = _report("C3_6", ok, diag, lhs_root, w / norm, w, norm, flag)
            rhs = (sdiff / ssum) ** 2 * norm**2
            reports["C3_7"] = _report("C3_7", ok, diag, norm**2 - w**2, rhs, w, norm, flag)
    m, M = s.segment() or (None, None)
    if m is None:
        undefined = InvalidInterval("segment bounds need real endpoints")
    elif not (0 < m <= M):
        undefined = InvalidInterval(f"needs M >= m > 0, got m = {m:.12g}, M = {M:.12g}")
    elif norm == 0:
        undefined = ZeroOperator("segment bounds are undefined for the zero operator")
    else:
        root_mm = float(np.sqrt(m * M))
        droot = (np.sqrt(M) - np.sqrt(m)) ** 2
        return reports | {
            "R4_9": _report("R4_9", ok, diag, norm / w, (M + m) / (2.0 * root_mm), w, norm),
            "R4_10": _report("R4_10", ok, diag, norm - w, droot / (2.0 * root_mm) * w, w, norm),
            "R4_11": _report("R4_11", ok, diag, norm**2 - w**2, droot * w, w, norm),
            "R4_12": _report("R4_12", ok, diag, norm - w, 0.25 * (M - m) ** 2 / (M + m), w, norm),
        }
    return reports | dict.fromkeys(("R4_9", "R4_10", "R4_11", "R4_12"), undefined)


def _reports(t, cert, w, norm) -> list[dict]:
    """The report map of one certificate for each matrix of the stack t, shape (B, n, n).

    The hypothesis is checked once for the whole stack; w and norm hold the
    radius and the norm of each matrix.
    """
    if isinstance(cert, DiskCertificate):
        build, checks = _disk_reports, zip(*check_disk(t, cert))
    elif isinstance(cert, SectorPair):
        build = _sector_reports
        checks = ([(False, np.nan)] * len(t) if cert.is_degenerate()
                  else zip(*check_sector_hypothesis(t, cert)))
    else:
        raise TypeError(f"unsupported certificate type {type(cert).__name__}")
    return [build(cert, bool(ok), float(x), float(wi), float(ni))
            for (ok, x), wi, ni in zip(checks, w, norm)]


def _one(t, cert, w, norm) -> dict:
    """The report map of one certificate on one matrix; w and norm are measured unless given."""
    t = as_matrix(t)
    w = numerical_radius(t) if w is None else w
    norm = operator_norm(t) if norm is None else norm
    return _reports(t[None], cert, [w], [norm])[0]


def _pick(reports: dict, *ids):
    """The reports present under ids, one bare or several as a tuple; raises a stored exception."""
    found = [reports[iid] for iid in ids if iid in reports]
    for rep in found:
        if isinstance(rep, Exception):
            raise rep
    return found[0] if len(found) == 1 else tuple(found)


def eval_disk_bound(t, cert: DiskCertificate, *, w=None, norm=None):
    """Reports T2_2 and E2_4 for a disk certificate.

    Pass precomputed w/norm to skip their recomputation; otherwise both are
    measured here.
    """
    return _pick(_one(t, cert, w, norm), "T2_2", "E2_4")


def eval_sector_gap(a, s: SectorPair, *, w=None, norm=None):
    """Report C2_7: the norm-radius gap bound under the sector hypothesis."""
    return _pick(_one(a, s, w, norm), "C2_7")


def eval_radius_ratio(t, cert: DiskCertificate, *, w=None, norm=None):
    """Reports T3_2 and R3_5: lower bound on w/norm for a small disk.

    Requires |lambda| > r on top of the disk claim; otherwise the hypothesis
    fails and the T3_2 left side is clamped to 0 where the square root would
    leave the reals. The refinement flag records r/|lambda| <= sqrt(3)/2, the
    regime where T3_2 sharpens the universal w >= norm/2.
    """
    return _pick(_one(t, cert, w, norm), "T3_2", "R3_5")


def eval_sector_ratio(a, s: SectorPair, *, w=None, norm=None):
    """Reports C3_6 and C3_7: ratio bounds for a sector pair.

    Raises InvalidSector unless Re(phi * conj(varphi)) > 0, which is exactly
    |center| > radius for the equivalent disk. The refinement flag records
    |phi - varphi| <= sqrt(3)/2 * |phi + varphi|.
    """
    return _pick(_one(a, s, w, norm), "C3_6", "C3_7")


def eval_disk_gap_weighted(t, cert: DiskCertificate, *, w=None, norm=None):
    """Report T4_2: squared-gap bound weighted by the radius.

    Requires |lambda| > r; on hypothesis failure the square root in the
    denominator is clamped to 0 for the diagnostic value.
    """
    return _pick(_one(t, cert, w, norm), "T4_2")


def eval_sector_gap_weighted(a, s: SectorPair, *, w=None, norm=None):
    """Report C4_6: squared-gap bound weighted by w, for a sector pair."""
    return _pick(_one(a, s, w, norm), "C4_6")


def eval_segment_bounds(a, s: SectorPair, *, w=None, norm=None):
    """Reports R4_9 through R4_12 for a real segment pair 0 < m <= M.

    The hypothesis is the sector check for (varphi, phi) = (m, M); R4_9 is a
    ratio bound (lhs = norm/w), the others bound differences.
    """
    return _pick(_one(a, s, w, norm), "R4_9", "R4_10", "R4_11", "R4_12")


def verify_all(t, certs) -> list:
    """Run every applicable evaluator for each certificate.

    T is one matrix, which gives one report list, or a stack (..., n, n),
    which gives one report list per matrix, in order; each list equals the
    one its matrix gets alone. The radii and norms of the stack are computed
    once, with one `numerical_radius` and one norm call, and each
    certificate's hypothesis is checked once for the whole stack.
    Hypothesis failures are recorded in the reports; bounds that are
    structurally inapplicable to a certificate (zero operator, nonpositive
    Re(phi * conj(varphi)), missing real segment) are skipped rather than
    raised. Reports come back sorted by the canonical identifier order,
    stably over certificates.
    """
    t = _as_stack(t)
    stack = t.reshape(-1, *t.shape[-2:])
    w, norm = numerical_radius(stack), _spectral_norms(stack)
    maps = [_reports(stack, cert, w, norm) for cert in certs]
    lists = [
        sorted(
            (rep for per_cert in maps for rep in per_cert[i].values()
             if isinstance(rep, InequalityReport)),
            key=lambda rep: _ID_ORDER[rep.inequality_id],
        )
        for i in range(len(stack))
    ]
    return lists[0] if t.ndim == 2 else lists


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
