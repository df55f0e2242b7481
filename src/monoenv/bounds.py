"""Error constants and bound formulas for monomial envelopes, directly evaluable.

A constant that can leave the float range (r**n for large n) is computed with
its logarithm, and comparisons across that range are done on logarithms.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    Domain,
    Monomial,
    ScaleExceeded,
    UnsupportedDomain,
    box_ratio,
    exponent_float,
    require_count,
    simplex_peak,
    slopes,
    unit_interval,
)


def _convex_power(sigma, D, rho=1) -> float:
    """(1 - sigma/D)^(D/rho) = exp((sigma/rho) log(1 - x)/x), x = sigma/D, the
    one form of the convex-side constants: exp(-sigma/rho) once x underflows
    (integers give x without converting D), 0 at x = 1, and above x = 1/2
    log(1 - x) = log((D - sigma)/D), whose difference is exact."""
    x = sigma / D
    if x <= 0.5:
        log_q = math.log1p(-x) / x if x > 0.0 else -1.0
    elif sigma < D:
        log_q = math.log((D - sigma) / D) / x
    else:
        return 0.0
    return math.exp(sigma / rho * log_q)


def _log_peak(d: int) -> float:
    """log u* = -ln d/(d - 1): u - u^d peaks on [0, 1] at u* = d^(1/(1-d)),
    where u*^(d-1) = 1/d, so its maximum is c1(d) = (1 - 1/d) u*."""
    return -math.log(d) * (1 / (d - 1))


def c1(d: int) -> float:
    """Concave-side worst-case constant (1 - 1/d) * d**(1/(1-d)), taken in logs
    so that every integer degree, however large, gives a finite value."""
    d = require_count(d, "degree", 2)
    return math.exp(math.log1p(-1 / d) + _log_peak(d))


def c2(d: int) -> float:
    """Convex-side worst-case constant (1 - 1/d)**d, rising to 1/e (once 1/d underflows)."""
    return _convex_power(1, require_count(d, "degree", 2))


@dataclass(frozen=True)
class ConcaveEnvelopeBound:
    bound: float
    xi: float
    point: np.ndarray  # only place the bound can be attained


def concave_bound_xi(m: Monomial, fmin: float, fmax: float) -> ConcaveEnvelopeBound:
    """Tightened concave-overestimator error bound given min/max monomial values.

    The gap u - u^d peaks at u* (:func:`c1`), clipped to [fmin^(1/d), fmax^(1/d)].
    Unclipped the bound is c1(d), else u - xi at the clipped u = xi^(1/d); it
    can be attained only at u (1,...,1)."""
    if not (0.0 <= fmin <= fmax <= 1.0):
        raise ValueError(f"need 0 <= fmin <= fmax <= 1, got {fmin}, {fmax}")
    d = require_count(m.degree, "degree", 2)
    ends = [(math.log(f) * (1 / d), math.log(f)) if f > 0.0 else _LOG_ZERO for f in (fmin, fmax)]
    return _concave_bound(m, *ends)


def concave_bound_box(m: Monomial, dom: Domain) -> ConcaveEnvelopeBound:
    """:func:`concave_bound_xi` over a box inside the unit box, where x**alpha
    ranges between its values at the lower and upper corner. Those are read in
    logs, so a corner whose value underflows (0.9**8000) still gives its root."""
    dom.require_monomial(m)
    if not (dom.is_box and dom.inside_unit_box()):
        raise UnsupportedDomain("the concave bound at the domain range needs a box "
                                "inside the unit box")
    return _concave_bound(m, *(_log_value(m, corner) for corner in dom.bounding_box()))


_LOG_ZERO = (-math.inf, -math.inf)


def _log_value(m: Monomial, x: np.ndarray) -> tuple[float, float]:
    """(log xi^(1/d), log xi) of xi = x**alpha for x in [0, 1]^n, as the sums
    of (alpha_j/d) log x_j and alpha_j log x_j: the first stays finite for
    every exponent, the second keeps the digits the root rounds away."""
    if not np.all(x > 0.0):
        return _LOG_ZERO
    d = m.degree
    logs = [(a, math.log(v)) for a, v in zip(m.alpha, x.tolist()) if v < 1.0]
    return sum(a / d * g for a, g in logs), sum(exponent_float(a) * g for a, g in logs)


def _concave_bound(m: Monomial, lo: tuple[float, float],
                   hi: tuple[float, float]) -> ConcaveEnvelopeBound:
    """The bound with u clipped between the ends ``lo`` and ``hi``, each
    (log u, log xi) at xi = fmin or fmax. Clipped, it is
    u - xi = -u expm1(log xi - log u), which neither cancels as u -> 1 nor
    underflows with xi."""
    d = require_count(m.degree, "degree", 2)
    log_u = _log_peak(d)
    if lo[0] < log_u <= hi[0]:  # strict: u* < 1 = fmin^(1/d) where log u* rounds to -0.0
        return ConcaveEnvelopeBound(c1(d), math.exp(log_u - math.log(d)),
                                    np.full(m.n, math.exp(log_u)))
    log_u, log_xi = lo if log_u <= lo[0] else hi
    u = math.exp(log_u)
    # + 0.0: a box with no gap, the point 1, gives 0.0, not -0.0
    bound = -u * math.expm1(log_xi - log_u) + 0.0 if u > 0.0 else 0.0
    return ConcaveEnvelopeBound(bound, math.exp(log_xi), np.full(m.n, u))


def gamma_bound(gamma) -> float:
    """(1 - 1/d_g)**d_g with d_g = sum(gamma); sharper than c2 when gamma <= alpha."""
    dg = float(slopes(gamma, name="gamma").sum())
    if dg <= 1.0:
        raise ValueError(f"sum of gamma must exceed 1, got {dg}")
    return _convex_power(1, dg)


@dataclass(frozen=True)
class PhiLowerBound:
    bound: float
    xi: float


def lower_bound_phi(d: int, t1: float, t2: float) -> PhiLowerBound:
    """Largest secant-vs-power gap on the diagonal segment [t1, t2] (1,..,1),
    phi(xi) = t1**d + (t2**d - t1**d) xi - (t1 + (t2-t1) xi)**d on [0, 1]. By
    homogeneity it is t2**d c1(d) at xi = u* when t1 = 0, and otherwise t1**d
    times the ratio-box E at s = (t2 - t1)/t1, at xi = (t_E - 1)/s; inf past
    the float range."""
    d = require_count(d, "degree", 2)
    if not (0.0 <= t1 < t2 < math.inf):
        raise ValueError(f"need 0 <= t1 < t2 < inf, got {t1}, {t2}")
    if t1 == 0.0:
        c = c1(d)
        t, value, xi = t2, (c, math.log(c)), math.exp(_log_peak(d))
    else:
        b = _box(d, (t2 - t1) / t1, "d or (t2 - t1)/t1")
        t, value, xi = t1, b.E, math.expm1(_log_t_e(b)) / b.s
    d_f = exponent_float(d)
    log_scale = math.log(t) * d_f if t != 1.0 else 0.0  # log t**d
    if value[0] < math.inf and abs(log_scale) < _EXP_OVERFLOW:
        return PhiLowerBound(value[0] * t ** d_f, xi)
    return PhiLowerBound(_exp_or_inf(value[1] + log_scale), xi)


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
    d = require_count(m.degree, "degree", 2)
    if m.n < 2:
        raise ValueError("simplex bounds need n >= 2")
    aa, cvx = simplex_peak(m)
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
    if np.any(k > np.array([exponent_float(a) for a in m.alpha]) + 1e-12):
        raise ValueError("need 1 <= kappa <= alpha componentwise")
    if np.all(k > b):
        raise ValueError("kappa must not dominate beta in every coordinate")
    return _convex_power(sigma, _require_sigma(sigma, b), ratio_r(b, k))


def phi_beta_kappa(beta, kappa, sigma: float, t) -> float | np.ndarray:
    """The transfer map d_b - sigma + t - d_b * t**(r/d_b), t in [0, 1], whose
    unique fixed point is :func:`c_beta_kappa`."""
    b = slopes(beta)
    db = _require_sigma(sigma, b)
    r = ratio_r(b, slopes(kappa, len(b), "kappa"))
    t = unit_interval(t, "t")
    out = db - sigma + t - db * np.power(t, r / db)
    return float(out) if out.ndim == 0 else out


def errenv_bound(m: Monomial, B: Sequence[tuple[Sequence[float], float]]) -> float:
    """Convex-underestimator error bound for a finite family of affine cuts.

    ``B`` is a list of (beta, sigma) pairs. Candidate maximal kappa are built
    by keeping alpha in all coordinates but capping one coordinate at
    min_beta beta_j; the bound is the best inf_beta C over those candidates.
    If some alpha_j is below every beta_j, kappa = alpha itself is maximal.
    ``ScaleExceeded`` when an alpha_j, a candidate kappa_j, is beyond the float range.
    """
    if len(B) == 0:
        raise ValueError("B must be nonempty")
    try:
        a = np.asarray(m.alpha, dtype=float)
    except OverflowError:
        raise ScaleExceeded(f"an exponent of alpha={list(m.alpha)} is too large for a float") from None
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
    return min(c_beta_kappa(m, b, k, s) for k in candidates for b, s in zip(betas, sigmas))


# ---------------------------------------------------------------------------
# Constant-ratio box constants
# ---------------------------------------------------------------------------
#
# Each constant is written once, in s = r - 1 and L = log1p(s) through _lm and
# _em, so no term of size O(s) cancels to leave one of size O(s^2). Evaluators
# return (value, log value); past the float range the value is inf.

_EXP_OVERFLOW = 709.0  # below this the float forms cannot overflow
_LOG_MAX = math.log(sys.float_info.max)
_EM_SERIES = tuple(1.0 / math.factorial(k) for k in range(13, 1, -1))


def _em(y: float) -> float:
    """expm1(y) - y; below |y| = 1/4 by its Taylor series."""
    if abs(y) > 0.25:
        return math.expm1(y) - y
    acc = 0.0
    for c in _EM_SERIES:
        acc = acc * y + c
    return y * y * acc


def _lm(x: float) -> float:
    """log1p(x) - x for x > -1; up to x = 1 as -em(log1p(x))."""
    return math.log1p(x) - x if x > 1.0 else -_em(math.log1p(x))


def _exp_or_inf(logv: float) -> float:
    return math.exp(logv) if logv <= _LOG_MAX else math.inf


class _FirstRead(functools.cached_property):
    """functools.cached_property without its per-read lock: records are pure."""

    def __get__(self, b, owner=None):
        value = b.__dict__[self.attrname] = self.func(b)
        return value


class _Box:
    """[1, r]^n as the constants read it: s = r - 1, L = log1p(s), lm(s), log(L/s);
    D, E, the relaxed error and r^n - 1 are evaluated on first read."""

    def __init__(self, n: int, s: float, names: str):
        if exponent_float(n) == math.inf or s == math.inf:
            raise ScaleExceeded(f"{names} is too large for a float")
        L, lm_s = math.log1p(s), _lm(s)
        self.n, self.s, self.L, self.lm_s = n, s, L, lm_s
        self.log_l_s = math.log1p(lm_s / s) if s <= 1.0 else math.log(L / s)

    # lambdas, as the evaluators are defined below
    D = _FirstRead(lambda b: _D(b))
    E = _FirstRead(lambda b: _E(b))
    relaxed = _FirstRead(lambda b: _relaxed(b))
    span = _FirstRead(lambda b: _span(b))


# One record per box, so ratio_box_constants and then ratio_box_ratios on one
# (n, r) evaluate D and E once. Far fewer are kept than the 693 pairs of one
# figure-1 sweep: the only reuse is within a pair, never a repeated sweep.
_box = functools.lru_cache(maxsize=4)(_Box)


def _require_ratio_box(n: int, r: float) -> _Box:
    return _box(require_count(n, "n", 2), box_ratio(r) - 1.0, "n or r - 1")


def _chord(b: _Box, t: float) -> float:
    """c(t) = log1p(s t) - t L >= 0 on [0, 1], the gap of log1p over its
    chord; for s <= 1 the linear terms of lm(s t) - t lm(s) cancel exactly."""
    if b.s <= 1.0:
        return _lm(b.s * t) - t * b.lm_s
    return math.log1p(b.s * t) - t * b.L


def _psi(b: _Box, t: float) -> tuple[float, float]:
    """psi(t) = (1 + s t)^n - r^(n t) = (1 + s t)^n (1 - e^(-n c(t)))."""
    a = b.n * math.log1p(b.s * t)
    f = -math.expm1(-b.n * _chord(b, t))
    log_psi = a + math.log(f) if f > 0.0 else -math.inf
    return (math.exp(a) * f if a < _EXP_OVERFLOW else _exp_or_inf(log_psi)), log_psi


def _psi_slope(b: _Box, t: float) -> float:
    """g(t) = log(s/L) + (n-1) log1p(s t) - n t L has the sign of psi'(t); it is
    concave with g(0) > 0 > g(1), so psi has one stationary point."""
    return (b.n - 1) * _chord(b, t) - t * b.L - b.log_l_s


def _D(b: _Box) -> tuple[float, float]:
    """The largest psi(i/n), i = 1..n-1: one of the two candidates around
    psi's stationary point, which bisection on the sign of g locates."""
    lo, hi = 0, b.n  # g(lo/n) > 0 >= g(hi/n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _psi_slope(b, mid / b.n) > 0.0 else (lo, mid)
    return max(_psi(b, i / b.n) for i in (lo, hi) if 0 < i < b.n)


def _log_t_e(b: _Box) -> float:
    """w = log t_E, t_E = ((r^n - 1)/(n s))^(1/(n-1))."""
    x = b.n * b.L
    log_q = math.log1p(_em(x) / x) if x < _EXP_OVERFLOW else x - math.log(x)  # log(expm1(x)/x)
    return (log_q + b.log_l_s) / (b.n - 1)


def _E(b: _Box) -> tuple[float, float]:
    """E = (n-1) t_E^n - n t_E^(n-1) + 1 = (n-1) em(n w) - n em((n-1) w)."""
    n, w = b.n, _log_t_e(b)
    if n * w + math.log(n) < _EXP_OVERFLOW:
        E = (n - 1) * _em(n * w) - n * _em((n - 1) * w)
        return E, math.log(E)
    log_E = n * w + math.log(-n * math.expm1(-w) - 1.0)
    return _exp_or_inf(log_E), log_E


def _relaxed(b: _Box) -> tuple[float, float]:
    """The first and last convex pieces cross on the diagonal at 1 + u, where
    n (1 - r^-m) u = m s + expm1(-m L), m = n - 1; the error there is
    (1 + u)^n - 1 - n u."""
    n, m = b.n, b.n - 1
    u = (_em(-m * b.L) / m - b.lm_s) * (m / (-n * math.expm1(-m * b.L)))
    x = n * math.log1p(u)
    if x < _EXP_OVERFLOW:
        R = _em(x) + n * _lm(u)
        return R, math.log(R)
    return _exp_or_inf(x), x  # (1 + n u) e^-x is below rounding there


def _span(b: _Box) -> tuple[float, float]:  # r^n - 1
    x = b.n * b.L
    log_span = x + math.log(-math.expm1(-x))
    return (math.expm1(x) if x < _EXP_OVERFLOW else _exp_or_inf(log_span)), log_span


def _ratio(num: tuple[float, float], den: tuple[float, float]) -> float:
    return num[0] / den[0] if max(num[0], den[0]) < math.inf else math.exp(num[1] - den[1])


def ratio_box_constants(n: int, r: float) -> tuple[float, float]:
    """Exact convex (D) and concave (E) envelope errors of x_1...x_n over [1,r]^n.

    D is the largest of its n-1 candidates psi(i/n) (:func:`psi_value`), next
    to psi's one stationary point; E is the closed form from the diagonal
    secant bound. Past the float range a value is inf; compare with
    :func:`ratio_box_ratios`.
    """
    b = _require_ratio_box(n, r)
    return b.D[0], b.E[0]


def ratio_box_e_point(n: int, r: float) -> float:
    """t_E = ((r^n - 1)/(n(r - 1)))^(1/(n-1)): E is attained at t_E (1,...,1)."""
    return math.exp(_log_t_e(_require_ratio_box(n, r)))


def ratio_box_relaxed_error(n: int, r: float) -> float:
    """Error of the relaxed convex envelope that keeps only the first and last
    affine pieces; at n = 2 this coincides with D."""
    return _require_ratio_box(n, r).relaxed[0]


def ratio_box_ratios(n: int, r: float) -> tuple[float, float]:
    """(D/E, relaxedD/E), finite where D and E overflow."""
    b = _require_ratio_box(n, r)
    return _ratio(b.D, b.E), _ratio(b.relaxed, b.E)


def ratio_box_asymptotics(n: int, r: float) -> tuple[float, float]:
    """(E/(r**n - 1), D/(r**n - 1))."""
    b = _require_ratio_box(n, r)
    return _ratio(b.E, b.span), _ratio(b.D, b.span)


def psi_value(n: int, r: float, t) -> float | np.ndarray:
    """psi(t) = (1 + (r-1) t)**n - r**(n t), t in [0, 1], the diagonal gap
    profile; D is its largest value at t = i/n, i = 1..n-1."""
    b = _require_ratio_box(n, r)
    t = unit_interval(t, "t")
    out = np.array([_psi(b, float(v))[0] for v in t.ravel()]).reshape(t.shape)
    return float(out) if out.ndim == 0 else out


def _bisect(below: Callable[[float], bool], lo: float, hi: float) -> tuple[float, float]:
    """Halve [lo, hi] until no float lies between: mid replaces lo if ``below(mid)``, else hi."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        lo, hi = (mid, hi) if below(mid) else (lo, mid)


@dataclass(frozen=True)
class DBoundResult:
    bound: float
    case: str  # "exact" | "stationary"
    t_star: float


def d_bound_cases(n: int, r: float) -> DBoundResult:
    """Upper bound on D from the one stationary point t* of the diagonal profile.

    t* is the root of the sign of psi', found by bisection. When t* >=
    (n-1)/n, psi rises up to the last candidate and the bound is D itself
    ("exact"); otherwise it is r^n (L/s)^(n/(n-1)) - r^(n-1) ("stationary"),
    formed as r^(n-1) expm1(L + n/(n-1) log(L/s)), which cancels nothing as r -> 1.
    """
    b = _require_ratio_box(n, r)
    n, r = b.n, float(r)
    if n * b.L > _EXP_OVERFLOW:
        raise ScaleExceeded(f"r**n overflows for n={n}, r={r}; the bound is unrepresentable")
    lo, hi = _bisect(lambda t: _psi_slope(b, t) > 0.0, 0.0, 1.0)
    t_star = 0.5 * (lo + hi)
    thresh = (n - 1) / n
    if t_star >= thresh - 1e-12:
        return DBoundResult(bound=_psi(b, thresh)[0], case="exact", t_star=t_star)
    bound = r ** (n - 1) * math.expm1(b.L + n / (n - 1) * b.log_l_s)
    return DBoundResult(bound=bound, case="stationary", t_star=t_star)


def symbox_error(n: int) -> float:
    """Hull error of x_1...x_n over [-1,1]^n: 1 + ((n-2)/n)**n."""
    return 1.0 + _convex_power(2, require_count(n, "degree", 2))


def symbox_attainment(n: int) -> tuple[np.ndarray, float]:
    """Anchor attainment point ((n-2)/n * (1,..,1), -1); the full attainment
    set is its 2**n sign reflections."""
    n = require_count(n, "degree", 2)
    return np.full(n, (n - 2) / n), -1.0


@dataclass(frozen=True)
class RootResult:
    """Root of (1-s)**lam1 + lam2*s - 1 in (0, 1], when one exists."""

    has_root: bool
    root: Optional[float]
    residual: Optional[float]
    lower_bound: Optional[float]  # proven strict lower bound on the root
    certificate_min: Optional[float]  # min of the polynomial on a (0,1] grid when rootless


def _root_params(lam1, lam2) -> int:
    """lam1 as an int, once lam1 >= 1 and then a finite lam2 >= 1 are checked."""
    lam1 = require_count(lam1, "lam1", 1)
    if not 1.0 <= lam2 < math.inf:
        raise ValueError(f"lam2 must be finite and >= 1, got {lam2}")
    return lam1


def root_poly_value(lam1: int, lam2: float, s) -> float | np.ndarray:
    """(1 - s)**lam1 + lam2 * s - 1 for s in [0, 1]."""
    out = _root_poly(_root_params(lam1, lam2), lam2, unit_interval(s, "s"))
    return float(out) if out.ndim == 0 else out


def _root_poly(lam1: int, lam2: float, s):
    # root_poly_value without its checks, for the bisection's own points
    return np.power(1.0 - s, exponent_float(lam1)) + lam2 * s - 1.0


def find_root_power_linear(lam1: int, lam2: float) -> RootResult:
    """Locate the unique root in (0, 1] of (1-s)**lam1 + lam2*s - 1.

    For lam2 >= lam1 the polynomial is positive on (0, 1] and no root exists
    (certified on a grid). Otherwise bisection on
    [1 - (lam2/lam1)**(1/(lam1-1)), 1] drives |value| below 1e-12; that lower
    end is taken in logs, so a lam1 beyond the float range works. A root that
    floats cannot resolve that far (1 - s rounds to 1) is a ``ScaleExceeded``.
    lam1 = lam2 = 1 gives the zero polynomial, which every s solves; that is
    a ``ValueError``, not "no root".
    """
    lam1 = _root_params(lam1, lam2)
    if lam1 == 1 and lam2 == 1.0:
        raise ValueError("lam1 = lam2 = 1 gives the zero polynomial: every s is a root")
    if lam2 >= lam1:
        grid = np.linspace(1e-3, 1.0, 1000)
        cert = float(np.min(_root_poly(lam1, lam2, grid)))
        return RootResult(has_root=False, root=None, residual=None,
                          lower_bound=None, certificate_min=cert)
    tilde = -math.expm1((math.log(lam2) - math.log(lam1)) * (1 / (lam1 - 1)))
    lo, hi = _bisect(lambda s: _root_poly(lam1, lam2, s) < 0.0, tilde, 1.0)
    root = hi if abs(_root_poly(lam1, lam2, hi)) <= abs(_root_poly(lam1, lam2, lo)) else lo
    if root <= tilde:
        root = np.nextafter(tilde, 1.0)
    val = _root_poly(lam1, lam2, root)
    if abs(val) > 1e-12:
        raise ScaleExceeded(f"no float resolves the root: residual {float(val):.9g} > 1e-12")
    return RootResult(has_root=True, root=float(root), residual=float(val),
                      lower_bound=float(tilde), certificate_min=None)


def dineq_margins(d: int) -> tuple[float, float]:
    """Log-domain margins of the degree chain:
    (d-1)**2 * ln d  >  d(d-2) * ln d  >=  (d-1)**2 * ln(d-1), as ln d and
    (d-1)**2 * -ln(1 - 1/d) - ln d, where no terms of size d**2 ln d cancel.
    The second was within 3.3e-16 relative of a 60-digit reference at every
    d = 3..1999 and at 3000 random d up to 10**15, and is 0.0 at d = 2. A d
    beyond the largest float is a ``ScaleExceeded``."""
    d = require_count(d, "degree", 2)
    if d > sys.float_info.max:
        raise ScaleExceeded("a degree above the largest float has margins beyond the float range")
    return math.log(d), (d - 1) * ((d - 1) * -math.log1p(-1 / d)) - math.log(d)


def dineq_check(d: int) -> bool:
    """True when the degree inequality chain holds (second part with equality
    allowed only at d = 2)."""
    m2 = dineq_margins(d)[1]
    if d == 2:
        return abs(m2) <= 1e-15
    return m2 > 0.0
