"""The acceptance criteria, each implemented once.

Every criterion is a function that returns :class:`Check` records.
``monoenv verify`` runs them through :data:`CASES`, and the acceptance tests
call the same functions with their own parameter sets. What the command line
exposes (exponents, dimension, ratio, trials, seed, grid, tolerance) is a
parameter whose default is the command's; every other constant is fixed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Optional

import numpy as np

from . import bounds, envelopes, hulls, oracle
from .core import (
    TOL_ORACLE,
    ErrorReport,
    Monomial,
    RatioBox,
    StdSimplex,
    SubBox,
    SymBox,
    UnitBox,
    eval_monomial,
    monomial_values,
)


@dataclass
class Check:
    """One verdict: the measured value next to the bound it was held to, and
    the oracle's report (attainment point, grid) when an oracle measured it."""

    name: str
    verdict: str
    measured: float
    bound: float
    report: Optional[ErrorReport] = None

    @property
    def ok(self) -> bool:
        return self.verdict in ("TIGHT", "VALID_UPPER", "PASS")


def _check(name: str, ok: bool, measured: float, bound: float) -> Check:
    return Check(name, "PASS" if ok else "VIOLATED", measured, bound)


def _max_gap(name: str, m: Monomial, dom, estimator, side: str, bound: float,
             grid, tol: float) -> Check:
    rep = oracle.max_gap(m, dom, estimator, side, bound=bound, grid=grid, tol=tol)
    return Check(name, rep.verdict.value, rep.measured_value, rep.bound_value, rep)


def unitbox(alpha=(1, 1), grid: Optional[oracle.GridSpec] = None,
            tol: float = TOL_ORACLE) -> list[Check]:
    """Criterion 1: the min-coordinate overestimator's error over [0,1]^n is c1(d)."""
    m = Monomial(alpha)
    return [_max_gap(f"unitbox hull error alpha={list(alpha)}", m, UnitBox(m.n),
                     envelopes.concave_unitbox(m), oracle.OVER, bounds.c1(m.degree), grid, tol)]


def cvxmulti(n: int = 3, grid: Optional[oracle.GridSpec] = None,
             tol: float = TOL_ORACLE) -> list[Check]:
    """Criterion 2: the hinge convex envelope's error over [0,1]^n is (1 - 1/n)^n."""
    return [_max_gap(f"multilinear convex envelope n={n}", Monomial.multilinear(n), UnitBox(n),
                     envelopes.convex_unitbox_multilinear(n), oracle.UNDER, bounds.c2(n),
                     grid, tol)]


def ratiobox(n: int = 3, r: float = 2.0, grid: Optional[oracle.GridSpec] = None,
             tol: float = TOL_ORACLE) -> list[Check]:
    """Criterion 3: the concave and convex envelope errors over [1,r]^n are E and D."""
    m, dom = Monomial.multilinear(n), RatioBox(n, r)
    D, E = bounds.ratio_box_constants(n, r)
    return [
        _max_gap(f"ratio box concave error n={n} r={r:.9g}", m, dom,
                 envelopes.concave_ratiobox(n, r), oracle.OVER, E, grid, tol),
        _max_gap(f"ratio box convex error n={n} r={r:.9g}", m, dom,
                 envelopes.convex_ratiobox(n, r), oracle.UNDER, D, grid, tol),
    ]


def symbox(n: int = 3, grid: Optional[oracle.GridSpec] = None,
           tol: float = TOL_ORACLE) -> list[Check]:
    """Criterion 4: both facet-system errors over [-1,1]^n are 1 + ((n-2)/n)^n, and
    every reflection of the anchor attainment point is a hull member at that error."""
    m, dom = Monomial.multilinear(n), SymBox(n)
    fs = hulls.build_symbox_hull(n)
    bound = bounds.symbox_error(n)
    records = [
        _max_gap(f"symbox convex-side error n={n}", m, dom, fs.envelope_lower, oracle.UNDER,
                 bound, grid, tol),
        _max_gap(f"symbox concave-side error n={n}", m, dom, fs.envelope_upper, oracle.OVER,
                 bound, grid, tol),
    ]
    x0, w0 = bounds.symbox_attainment(n)
    worst, member = 0.0, True
    for s in dom.vertices():
        x, w = s * x0, w0 * math.prod(s)
        worst = max(worst, abs(abs(w - eval_monomial(m, x)) - bound))
        member = member and hulls.hull_membership(fs, x, w).member
    records.append(_check(f"symbox reflections n={n} (2^{n} points, membership={member})",
                          worst <= 1e-9 and member, worst, 1e-9))
    return records


def integrality(n: int = 4, trials: int = 1000, seed: int = 42) -> list[Check]:
    """Criterion 5: the constructive maximizer over the facet system matches the
    dense LP on seeded objectives and lands on +/-1 points of even -1 parity."""
    rep = hulls.verify_integrality(n, trials=trials, seed=seed)
    return [_check(f"integrality n={n} trials={trials} seed={seed}",
                   rep.passed, rep.max_value_gap, 1e-9)]


def simplex(alpha=(1, 1), grid: Optional[oracle.GridSpec] = None,
            tol: float = TOL_ORACLE) -> list[Check]:
    """Criterion 6: the concave bound and the convex error over the simplex."""
    m = Monomial(alpha)
    sb = bounds.simplex_bounds(m)
    dom = StdSimplex(m.n)
    return [
        _max_gap(f"simplex concave bound alpha={list(alpha)}", m, dom,
                 envelopes.concave_unitbox(m), oracle.OVER, sb.conc, grid, tol),
        _max_gap(f"simplex convex error alpha={list(alpha)}", m, dom,
                 lambda X: np.zeros(X.shape[0]), oracle.UNDER, sb.cvx, grid, tol),
    ]


def figure1() -> list[Check]:
    """Criterion 7 on [1,r]^n, six records: (7a) D/E <= 1 over n = 2..100 and
    the seven ratios of figure 1; (7b) E/(r^n - 1) -> 1 at r = 2, checked from
    n = 100 on (the convergence is only logarithmic; see README):
      - at n = 100 the closed form matches the 50-digit decimal diagonal
        maximum within 1e-12, and a scan over t finds no larger gap and
        peaks within 1/200 of the maximizer t*;
      - the deficit 1 - E/(r^n - 1) is positive and strictly falls over
        n = 2..1000;
      - deficit / its leading term (r/(r-1)) (1 + ln(n(r-1)/r)) / n is within
        0.02 of 1 at n = 100, and closer at n = 10^3, 10^4, 10^5;
      - by the decimal reference the 0.05 window holds at n = 228, 300, 1000
        and fails at n = 227, and the closed form agrees;
    (7c) D/(r^n - 1) <= 1/e + 0.02 at n = 100, r = 2, where the exact or the
    stationary bound regime must apply.
    """
    worst = max(bounds.ratio_box_ratios(n, r)[0]
                for n in range(2, 101) for r in (1.01, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0))

    r = 2.0
    e_ratio = {n: bounds.ratio_box_asymptotics(n, r)[0] for n in (*range(2, 1001), 10 ** 4, 10 ** 5)}
    t_star, ref = oracle.ratio_box_diagonal_max(100, r)
    scan = [oracle.ratio_box_diagonal_gap(100, r, Decimal(k) / 200) for k in range(201)]
    scan_ok = max(scan) <= ref and abs(scan.index(max(scan)) / 200 - float(t_star)) <= 1 / 200
    err = abs(e_ratio[100] - float(ref))
    # deficit(n+1) - deficit(n) = e_ratio(n) - e_ratio(n+1) must stay negative
    step = max(e_ratio[n] - e_ratio[n + 1] for n in range(2, 1000))

    def leading(n):
        return (r / (r - 1.0)) * (1.0 + math.log(n * (r - 1.0) / r)) / n

    dist = [abs((1.0 - e_ratio[n]) / leading(n) - 1.0) for n in (100, 10 ** 3, 10 ** 4, 10 ** 5)]
    window = (227, 228, 300, 1000)
    ref_in = [abs(1 - oracle.ratio_box_diagonal_max(n, r)[1]) <= Decimal("0.05") for n in window]
    closed_in = [abs(e_ratio[n] - 1.0) <= 0.05 for n in window]

    case = bounds.d_bound_cases(100, r).case
    d_ratio = bounds.ratio_box_asymptotics(100, r)[1]
    return [
        _check("D/E over the sweep grid", worst <= 1.0 + 1e-12, worst, 1.0),
        _check("E/(r^n-1) at n=100 r=2 vs 50-digit diagonal maximum",
               err <= 1e-12 and scan_ok, err, 1e-12),
        _check("largest step of 1-E/(r^n-1) over n=2..1000 r=2",
               step < 0.0 and e_ratio[1000] < 1.0, step, 0.0),
        _check("|(1-E/(r^n-1))/leading term - 1| at n=100 r=2, shrinking at n=1e3,1e4,1e5",
               dist[0] <= 0.02 and all(b < a for a, b in zip(dist, dist[1:])), dist[0], 0.02),
        _check("|E/(r^n-1)-1| at n=228 r=2; the window holds at n=228,300,1000 "
               "and fails at n=227 (decimal reference, closed form agrees)",
               ref_in == [False, True, True, True] and closed_in == ref_in,
               abs(e_ratio[228] - 1.0), 0.05),
        _check(f"D/(r^n-1) at n=100 r=2 (case {case})",
               case in ("exact", "stationary") and d_ratio <= 1.0 / math.e + 0.02,
               d_ratio, 1.0 / math.e + 0.02),
    ]


def fixedpoint(seed: int = 42) -> list[Check]:
    """Criterion 8: C = c_beta_kappa is a fixed point of the transfer map on 100
    seeded (alpha, beta, kappa, sigma)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        alpha = tuple(int(a) for a in rng.integers(1, 4, size=n))
        beta = 1.0 + 3.0 * rng.random(n)
        kappa = 1.0 + (np.asarray(alpha) - 1.0) * rng.random(n)
        j = int(rng.integers(0, n))
        kappa[j] = min(kappa[j], beta[j], alpha[j])
        sigma = float(rng.random() * 0.9 * beta.sum())
        C = bounds.c_beta_kappa(Monomial(alpha), beta, kappa, sigma)
        worst = max(worst, abs(bounds.phi_beta_kappa(beta, kappa, sigma, C) - C))
    return [_check("fixed point of the transfer map (100 random triples)",
                   worst <= 1e-12, worst, 1e-12)]


def root_sweep() -> list[Check]:
    """Criterion 8: (1-s)^lam1 + lam2 s - 1 has a root above its proven lower
    bound, with residual <= 1e-12, for lam1 = 2..10 and lam2 = 1, 1.25, ... < lam1."""
    worst, ok = 0.0, True
    for lam1 in range(2, 11):
        for lam2 in np.arange(1.0, lam1, 0.25):
            res = bounds.find_root_power_linear(lam1, float(lam2))
            ok = ok and res.has_root and res.root > res.lower_bound
            if res.has_root:
                worst = max(worst, abs(res.residual))
    return [_check("root finder sweep lam1=2..10", ok and worst <= 1e-12, worst, 1e-12)]


def underestimator(seed: int = 42) -> list[Check]:
    """Criterion 9: slope-gamma cuts never overshoot the monomial on grids of at
    least 1e5 points over 20 random sub-boxes (degree <= 6), and the numeric
    intercept of slope alpha over the unit box is 1 for 10 random alpha."""
    rng = np.random.default_rng(seed)
    worst, dense = -math.inf, True
    for _ in range(20):
        n = int(rng.integers(2, 4))
        alpha = tuple(int(a) for a in rng.integers(1, 4, size=n))
        while sum(alpha) > 6:
            alpha = tuple(int(a) for a in rng.integers(1, 4, size=n))
        m = Monomial(alpha)
        lower = 0.5 * rng.random(n)
        upper = lower + (1.0 - lower) * rng.random(n)
        g = envelopes.gamma_vector(m, SubBox(tuple(lower), tuple(upper)))
        res = max(2, math.ceil(100_000 ** (1.0 / n)))
        axes = [np.linspace(lower[j], upper[j], res) for j in range(n)]
        pts = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
        dense = dense and len(pts) >= 100_000
        cut = envelopes.LinearUnderestimator(g, 1.0)
        worst = max(worst, float(np.max(envelopes.underestimator_value(cut, pts)
                                        - monomial_values(m, pts))))
    sig_worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 4))
        alpha = tuple(int(a) for a in rng.integers(1, 4, size=n))
        sig = oracle.sigma_numeric(Monomial(alpha), UnitBox(n), np.asarray(alpha, float))
        sig_worst = max(sig_worst, abs(sig - 1.0))
    return [
        _check("gamma underestimator validity (20 random boxes)",
               dense and worst <= 1e-12, worst, 1e-12),
        _check("sigma(alpha)=1 over the unit box (10 random alpha)",
               sig_worst <= 1e-6, sig_worst, 1e-6),
    ]


def sweeps() -> list[Check]:
    """Criterion 11: the degree inequality chain (equality only at d = 2) and the
    orderings of c1 and c2 over d = 2..50, with c2 rising toward 1/e."""
    margins = [bounds.dineq_margins(d)[1] for d in range(2, 51)]
    c1s = [bounds.c1(d) for d in range(2, 51)]
    c2s = [bounds.c2(d) for d in range(2, 51)]
    good = (all(bounds.dineq_check(d) for d in range(2, 51))
            and abs(margins[0]) <= 1e-15 and all(m > 0 for m in margins[1:])
            and c1s[0] == c2s[0] and all(y < x for x, y in zip(c1s[1:], c2s[1:]))
            and all(b > a for a, b in zip(c1s, c1s[1:]))
            and all(b > a for a, b in zip(c2s, c2s[1:]))
            and c2s[-1] < 1.0 / math.e and abs(c2s[-1] - 1.0 / math.e) < 4e-3)
    return [_check("inequality sweeps d=2..50", good, float(good), 1.0)]


# `monoenv verify --case NAME` runs CASES[NAME]; `--case all` runs every entry
CASES: dict[str, Callable[..., list[Check]]] = {
    "unitbox": unitbox,
    "cvxmulti": cvxmulti,
    "ratiobox": ratiobox,
    "symbox": symbox,
    "integrality": integrality,
    "simplex": simplex,
    "figure1": figure1,
    "fixedpoint": fixedpoint,
    "root": root_sweep,
    "underestimator": underestimator,
    "sweeps": sweeps,
}
