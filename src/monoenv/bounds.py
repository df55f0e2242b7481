"""Error constants and bound formulas for monomial envelopes, directly evaluable.

Formulas that can overflow (r**n for large n) have log-domain companions, and
cross-family comparisons are done on logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    Domain,
    Monomial,
    ScaleExceeded,
    UnsupportedDomain,
    slopes,
)

BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _require_degree(d: int) -> int:
    if int(d) != d or d < 2:
        raise ValueError(f"degree must be an integer >= 2, got {d!r}")
    return int(d)


def c1(d: int) -> float:
    """Concave-side worst-case constant (1 - 1/d) * d**(1/(1-d))."""
    d = _require_degree(d)
    return (1.0 - 1.0 / d) * d ** (1.0 / (1.0 - d))


def c2(d: int) -> float:
    """Convex-side worst-case constant (1 - 1/d)**d."""
    d = _require_degree(d)
    return (1.0 - 1.0 / d) ** d


@dataclass(frozen=True)
class BoundSet:
    """The pair of degree-only worst-case constants for one monomial degree."""

    c1: float
    c2: float
    degree: int


def bound_set(d: int) -> BoundSet:
    return BoundSet(c1=c1(d), c2=c2(d), degree=_require_degree(d))


@dataclass(frozen=True)
class ConcaveEnvelopeBound:
    bound: float
    xi: float
    point: np.ndarray  # only place the bound can be attained


def concave_bound_xi(m: Monomial, fmin: float, fmax: float) -> ConcaveEnvelopeBound:
    """Tightened concave-overestimator error bound given min/max monomial values.

    xi' = min{max{fmin, d**(d/(1-d))}, fmax}; the bound xi'**(1/d) - xi' can be
    attained only at xi'**(1/d) * (1,...,1).
    """
    d = _require_degree(m.degree)
    if not (0.0 <= fmin <= fmax <= 1.0):
        raise ValueError(f"need 0 <= fmin <= fmax <= 1, got {fmin}, {fmax}")
    xi0 = d ** (d / (1.0 - d))
    xi = min(max(fmin, xi0), fmax)
    bound = xi ** (1.0 / d) - xi
    point = np.full(m.n, xi ** (1.0 / d))
    return ConcaveEnvelopeBound(bound=bound, xi=xi, point=point)


def gamma_bound(gamma) -> float:
    """(1 - 1/d_g)**d_g with d_g = sum(gamma); sharper than c2 when gamma <= alpha."""
    dg = float(slopes(gamma, name="gamma").sum())
    if dg <= 1.0:
        raise ValueError(f"sum of gamma must exceed 1, got {dg}")
    return (1.0 - 1.0 / dg) ** dg


@dataclass(frozen=True)
class PhiLowerBound:
    bound: float
    xi: float


def lower_bound_phi(d: int, t1: float, t2: float) -> PhiLowerBound:
    """Secant-vs-power lower bound on the error along the diagonal segment
    [t1*(1,..,1), t2*(1,..,1)].

    phi(xi) = t1**d + (t2**d - t1**d) xi - (t1 + (t2-t1) xi)**d, maximized at
    the stationary point xi' (clipped to [0,1]).
    """
    d = _require_degree(d)
    if not (0.0 <= t1 < t2):
        raise ValueError(f"need 0 <= t1 < t2, got {t1}, {t2}")
    span = t2 - t1
    xi = (((t2 ** d - t1 ** d) / d) ** (1.0 / (d - 1))) * span ** (d / (1.0 - d)) - t1 / span
    xi = min(max(xi, 0.0), 1.0)
    bound = t1 ** d + (t2 ** d - t1 ** d) * xi - (t1 + span * xi) ** d
    return PhiLowerBound(bound=bound, xi=xi)


@dataclass(frozen=True)
class SimplexBounds:
    conc: float
    cvx: float


def simplex_bounds(m: Monomial) -> SimplexBounds:
    """Envelope error bounds over the standard simplex.

    cvx = alpha**alpha / d**d is the exact convex-envelope error (the convex
    envelope is identically zero there); conc = (alpha**alpha)**(1/d)/d - cvx
    bounds the concave side and is tight exactly for symmetric exponents.
    """
    d = _require_degree(m.degree)
    if m.n < 2:
        raise ValueError("simplex bounds need n >= 2")
    aa = m.alpha_power()
    cvx = aa / float(d) ** d
    conc = aa ** (1.0 / d) / d - cvx
    return SimplexBounds(conc=conc, cvx=cvx)


@dataclass(frozen=True)
class SigmaInterval:
    """Known range for the best valid intercept of a slope-beta underestimator.

    ``exact`` means lo == hi is the precise value; otherwise [lo, hi] is an
    enclosure (hi attained only in degenerate cases).
    """

    lo: float
    hi: float
    exact: bool


def sigma_beta(m: Monomial, dom: Domain, beta) -> SigmaInterval:
    """Best valid intercept sigma(beta), exactly where a formula exists.

    The domain supplies the range (:meth:`Domain.intercept_range`).
    ComplementSimplex: exactly min_j beta_j. UnitBox: within [0, 1], and
    exactly 1 when beta >= alpha componentwise. Other unit-box families:
    [0, sum(beta)) with the numeric value available through the oracle.
    Domains outside the unit box are rejected (the enclosure fails there:
    the intercept can go negative).
    """
    b = slopes(beta, m.n)
    dom.require_monomial(m)
    if not dom.inside_unit_box():
        raise UnsupportedDomain("intercept bounds need a domain inside the unit box")
    lo, hi = dom.intercept_range(m, b)
    return SigmaInterval(lo=lo, hi=hi, exact=lo == hi)


def ratio_r(beta, kappa) -> float:
    """max_j beta_j / kappa_j."""
    b = np.asarray(beta, dtype=float)
    k = np.asarray(kappa, dtype=float)
    return float(np.max(b / k))


def _require_sigma(sigma: float, b: np.ndarray) -> float:
    """sum(beta) for checked slopes b, once 0 <= sigma < sum(beta) holds."""
    db = float(b.sum())
    if not (0.0 <= sigma < db):
        raise ValueError(f"need 0 <= sigma < sum(beta)={db}, got {sigma}")
    return db


def c_beta_kappa(m: Monomial, beta, kappa, sigma: float) -> float:
    """Per-underestimator convex error constant (1 - sigma/d_b)**(d_b/r).

    Requires 1 <= kappa <= alpha, kappa not componentwise above beta, and
    0 <= sigma < d_b; the value lies in (0, 1] and is the unique fixed point
    of :func:`phi_beta_kappa`.
    """
    b = slopes(beta, m.n)
    k = slopes(kappa, m.n, "kappa")
    if np.any(k > np.asarray(m.alpha, dtype=float) + 1e-12):
        raise ValueError("need 1 <= kappa <= alpha componentwise")
    if np.all(k > b):
        raise ValueError("kappa must not dominate beta in every coordinate")
    db = _require_sigma(sigma, b)
    return (1.0 - sigma / db) ** (db / ratio_r(b, k))


def phi_beta_kappa(beta, kappa, sigma: float, t) -> float | np.ndarray:
    """The transfer map d_b - sigma + t - d_b * t**(r/d_b) whose unique fixed
    point is :func:`c_beta_kappa`."""
    b = slopes(beta)
    db = _require_sigma(sigma, b)
    r = ratio_r(b, slopes(kappa, len(b), "kappa"))
    t = np.asarray(t, dtype=float)
    out = db - sigma + t - db * np.power(t, r / db)
    return float(out) if out.ndim == 0 else out


def errenv_bound(m: Monomial, B: Sequence[tuple[Sequence[float], float]]) -> float:
    """Convex-underestimator error bound for a finite family of affine cuts.

    ``B`` is a list of (beta, sigma) pairs. Candidate maximal kappa are built
    by keeping alpha in all coordinates but capping one coordinate at
    min_beta beta_j; the bound is the best inf_beta C over those candidates.
    If some alpha_j is below every beta_j, kappa = alpha itself is maximal.
    """
    if len(B) == 0:
        raise ValueError("B must be nonempty")
    a = np.asarray(m.alpha, dtype=float)
    betas = [slopes(b, m.n) for b, _ in B]
    sigmas = [float(s) for _, s in B]
    bmin = np.min(np.vstack(betas), axis=0)

    candidates: list[np.ndarray] = []
    if np.any(a <= bmin + 1e-12):
        candidates.append(a.copy())
    else:
        for j in range(m.n):
            k = a.copy()
            k[j] = min(a[j], bmin[j])
            candidates.append(k)
    best = math.inf
    for k in candidates:
        inf_c = min(
            c_beta_kappa(m, b, k, s) for b, s in zip(betas, sigmas)
        )
        best = min(best, inf_c)
    return best


# ---------------------------------------------------------------------------
# Constant-ratio box constants
# ---------------------------------------------------------------------------

def _log_diff_exp(a: float, b: float) -> float:
    """log(e**a - e**b) for a > b."""
    if b >= a:
        raise ValueError(f"need a > b, got a={a}, b={b}")
    return a + math.log1p(-math.exp(b - a))


def _log_D(n: int, r: float) -> float:
    logr = math.log(r)
    best = -math.inf
    for i in range(1, n):
        la = n * math.log1p((i / n) * (r - 1.0))
        lb = i * logr
        best = max(best, _log_diff_exp(la, lb))
    return best


def _log_G_Q(n: int, r: float) -> tuple[float, float]:
    # logs of G = (r^n - 1)/(r - 1) and of Q = (G/n)^(1/(n-1)) = t_E
    logG = _log_diff_exp(n * math.log(r), 0.0) - math.log(r - 1.0)
    return logG, (logG - math.log(n)) / (n - 1)


def _log_E(n: int, r: float) -> float:
    logG, logQ = _log_G_Q(n, r)
    m = math.expm1(math.log((n - 1) / n) + logQ)
    if m > 0.0:
        return float(np.logaddexp(0.0, logG + math.log(m)))
    # small-n regime where the bracket is negative: direct evaluation is exact
    return math.log(1.0 + math.exp(logG) * m)


def _relaxed_breakpoint(n: int, r: float) -> float:
    # crossing of the first and last convex-envelope pieces on the diagonal:
    # (n-1)/n * (r^n - 1)/(r^(n-1) - 1), written overflow-free
    logr = math.log(r)
    num = -math.expm1(-n * logr)
    den = -math.expm1(-(n - 1) * logr)
    return ((n - 1) / n) * r * num / den


def _log_relaxed_D(n: int, r: float) -> float:
    t = _relaxed_breakpoint(n, r)
    return _log_diff_exp(n * math.log(t), math.log(n * t - (n - 1)))


_EXP_OVERFLOW = 709.0  # log of the largest representable double


def _require_ratio_box(n: int, r: float) -> None:
    if n < 2:
        raise ValueError("need n >= 2")
    if not r > 1.0:
        raise ValueError("need r > 1")


def _exp_or_inf(logv: float) -> float:
    return math.exp(logv) if logv < _EXP_OVERFLOW else math.inf


def ratio_box_constants(n: int, r: float) -> tuple[float, float]:
    """Exact convex (D) and concave (E) envelope errors of x_1...x_n over [1,r]^n.

    D is found by exact enumeration over its n-1 candidate pieces; E is the
    closed form coming from the diagonal secant bound. When r**n exceeds the
    float range the values are reconstructed from their logarithms (inf once
    unrepresentable); comparisons should use :func:`ratio_box_ratios`.
    """
    _require_ratio_box(n, r)
    if n * math.log(r) > _EXP_OVERFLOW - 10.0:
        return _exp_or_inf(_log_D(n, r)), _exp_or_inf(_log_E(n, r))
    D = max((1.0 + (i / n) * (r - 1.0)) ** n - r ** i for i in range(1, n))
    G = (r ** n - 1.0) / (r - 1.0)
    Q = ((r ** n - 1.0) / (n * (r - 1.0))) ** (1.0 / (n - 1))
    E = 1.0 + G * (((n - 1) / n) * Q - 1.0)
    return D, E


def ratio_box_e_point(n: int, r: float) -> float:
    """t_E = ((r^n - 1)/(n(r - 1)))^(1/(n-1)), in logs: E is attained at t_E (1,...,1)."""
    _require_ratio_box(n, r)
    return math.exp(_log_G_Q(n, r)[1])


def ratio_box_relaxed_error(n: int, r: float) -> float:
    """Error of the relaxed convex envelope that keeps only the first and last
    affine pieces; at n = 2 this coincides with D."""
    _require_ratio_box(n, r)
    t = _relaxed_breakpoint(n, r)
    t = min(max(t, 1.0), r)
    return t ** n - n * t + (n - 1)


def ratio_box_ratios(n: int, r: float) -> tuple[float, float]:
    """(D/E, relaxedD/E) computed in the log domain to dodge r**n overflow."""
    _require_ratio_box(n, r)
    logE = _log_E(n, r)
    return (
        math.exp(_log_D(n, r) - logE),
        math.exp(_log_relaxed_D(n, r) - logE),
    )


def ratio_box_e_ratio(n: int, r: float) -> float:
    """E/(r**n - 1) in the log domain, without the O(n) search for D."""
    _require_ratio_box(n, r)
    return math.exp(_log_E(n, r) - _log_diff_exp(n * math.log(r), 0.0))


def ratio_box_asymptotics(n: int, r: float) -> tuple[float, float]:
    """(E/(r**n - 1), D/(r**n - 1)) in the log domain."""
    return (
        ratio_box_e_ratio(n, r),
        math.exp(_log_D(n, r) - _log_diff_exp(n * math.log(r), 0.0)),
    )


@dataclass(frozen=True)
class DBoundResult:
    bound: float
    case: str  # "exact" | "stationary" | "loose"
    t_star: float
    t_star_star: float


def _psi_log_sign(n: int, r: float, t: float) -> float:
    """Sign surrogate for psi'(t): log of the first term minus log of the second."""
    return (
        math.log(n * (r - 1.0))
        + (n - 1) * math.log1p((r - 1.0) * t)
        - math.log(n * math.log(r))
        - n * t * math.log(r)
    )


def psi_value(n: int, r: float, t) -> float | np.ndarray:
    """psi(t) = (1 + (r-1) t)**n - r**(n t), the diagonal gap profile."""
    t = np.asarray(t, dtype=float)
    out = np.exp(n * np.log1p((r - 1.0) * t)) - np.exp(n * t * math.log(r))
    return float(out) if out.ndim == 0 else out


def d_bound_cases(n: int, r: float) -> DBoundResult:
    """Upper bounds on D from the stationary structure of the diagonal profile.

    Finds the smallest stationary point t* of psi by bisection and the global
    maximizer t** by scan plus golden-section, then applies whichever of the
    three bound regimes matches; in the first regime the bound equals D.
    """
    _require_ratio_box(n, r)
    if n * math.log(r) > _EXP_OVERFLOW - 10.0:
        raise ScaleExceeded(f"r**n overflows for n={n}, r={r}; the bound is unrepresentable")
    # psi'(0) > 0 and psi'(1) < 0, so a sign change exists; bisection on the
    # log-domain sign surrogate is overflow-proof.
    lo, hi = 0.0, 1.0
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if _psi_log_sign(n, r, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15:
            break
    t_star = 0.5 * (lo + hi)

    ts = np.linspace(0.0, 1.0, 10_001)
    vals = psi_value(n, r, ts)
    k = int(np.argmax(vals))
    a = ts[max(k - 1, 0)]
    b = ts[min(k + 1, len(ts) - 1)]
    # golden section: psi is flat to float precision for about 1e-8 around
    # t**, and t** picks the regime at (n-1)/n +- 1e-12, so the search is
    # pinned to this recurrence
    c, e = b - INVPHI * (b - a), a + INVPHI * (b - a)
    fc, fe = psi_value(n, r, c), psi_value(n, r, e)
    for _ in range(80):
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - INVPHI * (b - a)
            fc = psi_value(n, r, c)
        else:
            a, c, fc = c, e, fe
            e = a + INVPHI * (b - a)
            fe = psi_value(n, r, e)
        if b - a <= 1e-14:
            break
    t_ss = 0.5 * (a + b)

    thresh = (n - 1) / n
    logr = math.log(r)
    if t_star >= thresh - 1e-12:
        bound = (1.0 + thresh * (r - 1.0)) ** n - r ** (n - 1)
        case = "exact"
    elif t_ss <= thresh + 1e-12:
        bound = r ** n * (logr / (r - 1.0)) ** (n / (n - 1)) - r ** (n - 1)
        case = "stationary"
    else:
        bound = r ** (n * n / (n - 1)) * (logr / (r - 1.0)) ** (n / (n - 1)) - r ** n
        case = "loose"
    return DBoundResult(bound=bound, case=case, t_star=t_star, t_star_star=t_ss)


def symbox_error(n: int) -> float:
    """Hull error of x_1...x_n over [-1,1]^n: 1 + ((n-2)/n)**n."""
    if n < 2:
        raise ValueError("need n >= 2")
    return 1.0 + ((n - 2) / n) ** n


def symbox_attainment(n: int) -> tuple[np.ndarray, float]:
    """Anchor attainment point ((n-2)/n * (1,..,1), -1); the full attainment
    set is its 2**n sign reflections."""
    if n < 2:
        raise ValueError("need n >= 2")
    return np.full(n, (n - 2) / n), -1.0


@dataclass(frozen=True)
class RootResult:
    """Root of (1-s)**lam1 + lam2*s - 1 in (0, 1], when one exists."""

    has_root: bool
    root: Optional[float]
    residual: Optional[float]
    lower_bound: Optional[float]  # proven strict lower bound on the root
    certificate_min: Optional[float]  # min of the polynomial on a (0,1] grid when rootless


def root_poly_value(lam1: int, lam2: float, s) -> float | np.ndarray:
    """(1 - s)**lam1 + lam2 * s - 1."""
    s = np.asarray(s, dtype=float)
    out = np.power(1.0 - s, lam1) + lam2 * s - 1.0
    return float(out) if out.ndim == 0 else out


def find_root_power_linear(lam1: int, lam2: float) -> RootResult:
    """Locate the unique root in (0, 1] of (1-s)**lam1 + lam2*s - 1.

    For lam2 >= lam1 the polynomial is positive on (0, 1] and no root exists
    (certified on a grid). Otherwise bisection on
    [1 - (lam2/lam1)**(1/(lam1-1)), 1] drives |value| below 1e-12.
    lam1 = lam2 = 1 gives the zero polynomial, which every s solves; that is
    a ``ValueError``, not "no root".
    """
    if int(lam1) != lam1 or lam1 < 1:
        raise ValueError("lam1 must be an integer >= 1")
    lam1 = int(lam1)
    if not lam2 >= 1.0:
        raise ValueError("lam2 must be >= 1")
    if lam1 == 1 and lam2 == 1.0:
        raise ValueError("lam1 = lam2 = 1 gives the zero polynomial: every s is a root")
    if lam2 >= lam1:
        grid = np.linspace(1e-3, 1.0, 1000)
        cert = float(np.min(root_poly_value(lam1, lam2, grid)))
        return RootResult(has_root=False, root=None, residual=None,
                          lower_bound=None, certificate_min=cert)
    tilde = 1.0 - (lam2 / lam1) ** (1.0 / (lam1 - 1))
    lo, hi = tilde, 1.0
    # run to interval exhaustion; the residual then sits far below the target
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if root_poly_value(lam1, lam2, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    root = hi if abs(root_poly_value(lam1, lam2, hi)) <= abs(root_poly_value(lam1, lam2, lo)) else lo
    if root <= tilde:
        root = np.nextafter(tilde, 1.0)
    val = root_poly_value(lam1, lam2, root)
    return RootResult(has_root=True, root=float(root), residual=float(val),
                      lower_bound=float(tilde), certificate_min=None)


def dineq_margins(d: int) -> tuple[float, float]:
    """Log-domain margins of the degree chain:
    (d-1)**2 * ln d  >  d(d-2) * ln d  >=  (d-1)**2 * ln(d-1)."""
    d = _require_degree(d)
    m1 = (d - 1) ** 2 * math.log(d) - d * (d - 2) * math.log(d)
    m2 = d * (d - 2) * math.log(d) - (d - 1) ** 2 * math.log(d - 1)
    return m1, m2


def dineq_check(d: int) -> bool:
    """True when the degree inequality chain holds (second part with equality
    allowed only at d = 2)."""
    m1, m2 = dineq_margins(d)
    if m1 <= 0.0:
        return False
    if d == 2:
        return abs(m2) <= 1e-15
    return m2 > 0.0
