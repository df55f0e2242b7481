"""Brute-force verifiers: grid maximization with local refinement, monomial
extremes, sampled-hull envelope values via tiny LPs, numeric intercepts, and
a high-precision decimal reference for the constant-ratio box concave error.

Grids use cell-center sampling (no boundary ties); the incumbent, and from
n = 5 on the seeded restarts too, are then polished by per-coordinate
section searches plus line searches along each start's orthant diagonal,
which is where the attainment loci live. All starts are refined in lockstep:
each section step evaluates the function once, on 16 points per start still
searching. All randomness is seeded, so results are reproducible bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    TOL_ORACLE,
    Domain,
    ErrorReport,
    Monomial,
    ScaleExceeded,
    UnitBox,
    UnsupportedDomain,
    error_report,
    fold_columns,
    monomial_values,
    one_point,
    slopes,
)
from . import bounds as _bounds
from .lp import solve_equality_lp

OVER = "OVER"
UNDER = "UNDER"


def _require_side(side: str) -> None:
    if side not in (OVER, UNDER):
        raise ValueError(f"side must be OVER or UNDER, got {side!r}")

_DEFAULT_RESOLUTION = {1: 512, 2: 64, 3: 64, 4: 24, 5: 12, 6: 8}


@dataclass(frozen=True)
class GridSpec:
    """Scan parameters: per-coordinate resolution (n-dependent default),
    number of refinement passes, a total-size cap, and seeded restarts used
    for n >= 5 where the grid is coarse."""

    resolution: Optional[int] = None
    refine_passes: int = 3
    max_points: int = 100_000_000
    restarts: int = 16
    seed: int = 42

    def resolution_for(self, n: int) -> int:
        if self.resolution is not None:
            if self.resolution < 2:
                raise ValueError("resolution must be >= 2")
            return self.resolution
        try:
            return _DEFAULT_RESOLUTION[n]
        except KeyError:
            raise ScaleExceeded(
                f"no default grid for n={n}; supply an explicit GridSpec"
            ) from None


@functools.lru_cache(maxsize=16)
def _grid_points(dom: Domain, res: int, max_points: int) -> np.ndarray:
    """Cell-center grid over the domain's bounding box in C order, filtered to
    members."""
    lo, hi = dom.bounding_box()
    n = dom.n
    if res ** n > max_points:
        raise ScaleExceeded(f"grid of {res}^{n} points exceeds the cap {max_points}")
    pts = np.empty((res,) * n + (n,))
    for j in range(n):
        axis = lo[j] + (np.arange(res) + 0.5) * (hi[j] - lo[j]) / res
        pts[..., j] = axis.reshape((res,) + (1,) * (n - 1 - j))  # varies along axis j
    pts = pts.reshape(-1, n)
    keep = dom.contains_many(pts)
    if not keep.all():
        pts = pts[keep]
    pts.setflags(write=False)
    return pts


def _values(func: Callable[[np.ndarray], np.ndarray], P: np.ndarray) -> list:
    return np.asarray(func(P), dtype=float).tolist()


SECTION_POINTS = 16  # interior points per bracket and step


def section_max(func: Callable[[np.ndarray, np.ndarray], np.ndarray],
                lo: Sequence[float], hi: Sequence[float],
                steps: int, width: float) -> np.ndarray:
    """Uniform-section maximizers of K unimodal functions, one per bracket
    [lo[k], hi[k]].

    Each step evaluates every open bracket [a, b] at its SECTION_POINTS = 16
    interior points a + i h, h = (b - a)/17, i = 1..16, and keeps
    [a + (i* - 1) h, a + (i* + 1) h] around the first largest value i*. ``func(T, rows)`` returns the (L, 16)
    values at the parameters ``T[l, i]`` of the functions ``rows[l]`` (row
    indices into the brackets), one call per step for all open brackets. A
    bracket closes after ``steps`` steps or once it is no wider than
    ``width``; each bracket's arithmetic is elementwise, so it ends exactly
    where it would end alone. Returns the bracket midpoints.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    i = np.arange(1, SECTION_POINTS + 1)
    live = np.arange(len(a))
    for _ in range(steps):
        live = live[b[live] - a[live] > width]
        if len(live) == 0:
            break
        al = a[live]
        h = (b[live] - al) / (SECTION_POINTS + 1)
        best = np.argmax(func(al[:, None] + i * h[:, None], live), axis=1)  # i* - 1
        a[live] = al + best * h
        b[live] = al + (best + 2) * h
    return 0.5 * (a + b)


def _search(func, X: np.ndarray, V: list, D: np.ndarray, rows: list,
            tlo: list, thi: list) -> None:
    """Section search from each listed row of X along the same row of D over
    [tlo, thi]; a row moves to its line maximum when that beats V."""
    if not rows:
        return
    Xr, Dr = X[rows], D[rows]

    def along(T, idx):
        P = Xr[idx][:, None] + T[..., None] * Dr[idx][:, None]
        return np.asarray(func(P.reshape(-1, P.shape[-1])), dtype=float).reshape(T.shape)

    P = Xr + section_max(along, tlo, thi, 14, 1e-13)[:, None] * Dr
    for k, p, v in zip(rows, P, _values(func, P)):
        if v > V[k]:
            X[k] = p
            V[k] = v


def _line(func, dom: Domain, X: np.ndarray, V: list, D: np.ndarray, rows) -> None:
    """:func:`_search` over each listed row's whole feasible segment."""
    tlo, thi = dom.line_range(X, D)
    ok = [k for k in rows
          if thi[k] > tlo[k] and np.isfinite(tlo[k]) and np.isfinite(thi[k])]
    _search(func, X, V, D, ok, tlo[ok].tolist(), thi[ok].tolist())


def _refine(func: Callable[[np.ndarray], np.ndarray], dom: Domain,
            X: np.ndarray, V: list, cell: np.ndarray, passes: int,
            center_weights: Optional[np.ndarray] = None) -> tuple[np.ndarray, list]:
    """Coordinate section searches around each start's cell, then line
    searches along its orthant diagonal and centering directions.

    The starts (rows of X, values V) move through this schedule in lockstep,
    one estimator call per section step for all of them; each row does the
    arithmetic it would do alone.

    A centering direction moves toward equal |coordinates| while preserving a
    weighted signed sum, which tracks hinge ridges {sum w_j x_j = const}; the
    unweighted move covers multilinear cuts and ``center_weights`` (usually
    the monomial's exponents) covers slope-weighted ones.
    """
    K, n = X.shape
    X, V = X.copy(), list(V)
    everyone = range(K)
    weightings = [np.ones(n)]
    if center_weights is not None and not np.all(np.asarray(center_weights) == 1.0):
        weightings.append(np.asarray(center_weights, dtype=float))
    for _ in range(passes):
        for j in range(n):
            lo_j, hi_j = dom.coordinate_range(X, j)
            cj = float(cell[j])
            rows, tlo, thi = [], [], []
            for k, l, h, xj in zip(everyone, lo_j.tolist(), hi_j.tolist(), X[:, j].tolist()):
                a = max(l, xj - cj)
                b = min(h, xj + cj)
                if b - a > 1e-14:
                    rows.append(k)
                    tlo.append(a - xj)
                    thi.append(b - xj)
            D = np.zeros((K, n))
            D[:, j] = 1.0
            _search(func, X, V, D, rows, tlo, thi)
        diag = np.where(X < 0, -1.0, 1.0)
        _line(func, dom, X, V, diag, everyone)
        for w in weightings:
            target = np.sum(w * diag * X, axis=1) / np.sum(w)
            cen = diag * target[:, None] - X
            _line(func, dom, X, V, cen, np.flatnonzero(np.max(np.abs(cen), axis=1) > 1e-12))
    return X, V


def grid_maximize(func: Callable[[np.ndarray], np.ndarray], dom: Domain,
                  grid: Optional[GridSpec] = None,
                  center_weights: Optional[np.ndarray] = None) -> tuple[float, np.ndarray]:
    """Maximize a vectorized function over a structured domain.

    Grid scan (lexicographic tie-break), section-search refinement from the
    incumbent, plus seeded random restarts when the grid is coarse (n >= 5),
    all refined in lockstep; the first best start wins. The refined value
    never falls below the grid incumbent.
    """
    spec = grid or GridSpec()
    n = dom.n
    res = spec.resolution_for(n)
    pts = _grid_points(dom, res, spec.max_points)
    if len(pts) == 0:
        raise ScaleExceeded("grid resolution too coarse: no interior cell centers")
    vals = func(pts)
    k = int(np.argmax(vals))  # first max in C order = lexicographic argmax
    lo, hi = dom.bounding_box()
    cell = (hi - lo) / res
    X, V = pts[k:k + 1], [float(vals[k])]

    if n >= 5 and spec.restarts > 0:
        rng = np.random.default_rng(spec.seed)
        span = hi - lo
        starts = []
        while len(starts) < spec.restarts:
            cand = lo + rng.random((max(4 * spec.restarts, 64), n)) * span
            cand = cand[dom.contains_many(cand)]
            starts.extend(cand[: spec.restarts - len(starts)])
        S = np.array(starts)
        X, V = np.vstack([X, S]), V + _values(func, S)
    X, V = _refine(func, dom, X, V, cell, spec.refine_passes, center_weights)
    best = max(range(len(V)), key=V.__getitem__)  # first of the largest, as in a scan
    return V[best], X[best]


def grid_minimize(func, dom: Domain, grid: Optional[GridSpec] = None,
                  center_weights: Optional[np.ndarray] = None) -> tuple[float, np.ndarray]:
    v, x = grid_maximize(lambda X: -func(X), dom, grid, center_weights)
    return -v, x


def max_gap(m: Monomial, dom: Domain, estimator: Callable[[np.ndarray], np.ndarray],
            side: str, bound: Optional[float] = None,
            grid: Optional[GridSpec] = None, tol: float = TOL_ORACLE) -> ErrorReport:
    """Measure the worst estimator gap over a domain.

    ``side="OVER"`` scans estimator(x) - f(x) (concave overestimators),
    ``side="UNDER"`` scans f(x) - estimator(x). The report compares the
    measured maximum against ``bound`` when one is supplied.
    """
    _require_side(side)
    dom.require_monomial(m)

    if side == OVER:
        def gap(X):
            return np.asarray(estimator(X), dtype=float) - monomial_values(m, X)
    else:
        def gap(X):
            return monomial_values(m, X) - np.asarray(estimator(X), dtype=float)

    spec = grid or GridSpec()
    measured, point = grid_maximize(gap, dom, spec, center_weights=np.asarray(m.alpha, float))
    ref_bound = measured if bound is None else bound
    return error_report(ref_bound, measured, points=[point], tol=tol, grid=spec)


def extremize_f(m: Monomial, dom: Domain, sense: str,
                grid: Optional[GridSpec] = None) -> tuple[float, np.ndarray]:
    """Monomial extreme value over a domain: the domain's closed form
    (:meth:`Domain.monomial_extreme`) where it has one, else grid plus
    refinement."""
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    dom.require_monomial(m)
    closed = dom.monomial_extreme(m, sense)
    if closed is not None:
        return closed
    search = grid_maximize if sense == "max" else grid_minimize
    return search(lambda X: monomial_values(m, X), dom, grid)


def sampled_hull_envelope(m: Monomial, box: Domain, x, side: str) -> float:
    """Envelope value at x from a tiny LP over convex multipliers on the box
    vertices: optimize sum(lam_v f(v)) with sum(lam_v v) = x, sum(lam) = 1.

    Valid for multilinear monomials (vertex-extendable) on boxes with n <= 4;
    this is the independent cross-check for every closed-form envelope.
    """
    if not m.is_multilinear():
        raise ValueError("sampled hull envelopes require a multilinear monomial")
    if not box.is_box:
        raise ValueError("sampled hull envelopes require a box domain")
    box.require_monomial(m)
    if m.n > 4:
        raise ScaleExceeded("sampled hull envelope supports n <= 4")
    _require_side(side)
    x = one_point(x, m.n)
    box.require_inside(x)
    verts = box.vertices()
    fvals = monomial_values(m, verts)
    nv = len(verts)
    A = np.vstack([verts.T, np.ones((1, nv))])
    b = np.concatenate([x, [1.0]])
    c = fvals if side == UNDER else -fvals
    _, val = solve_equality_lp(c, A, b)
    return float(val) if side == UNDER else float(-val)


def sigma_numeric(m: Monomial, dom: Domain, beta,
                  grid: Optional[GridSpec] = None) -> float:
    """Numeric best valid intercept: sum(beta) + min over the domain of
    x**alpha - beta.x for finite beta >= 1, via grid refinement plus exact
    vertex enumeration whenever the domain carries a vertex list."""
    if m.n > 6:
        raise ScaleExceeded("sigma_numeric supports n <= 6")
    b = slopes(beta, m.n)
    dom.require_monomial(m)

    def objective(X):
        return monomial_values(m, X) - np.einsum("ij,j->i", X, b)

    best, _ = grid_minimize(objective, dom, grid, center_weights=b)
    try:
        verts = dom.vertices()
    except UnsupportedDomain:
        verts = None
    if verts is not None:
        best = min(best, float(np.min(objective(verts))))
    return float(b.sum()) + best


def relaxation_error_PB(m: Monomial, B: Sequence, dom: Domain,
                        grid: Optional[GridSpec] = None,
                        tol: float = TOL_ORACLE) -> ErrorReport:
    """Error of the sandwich relaxation built from a family of affine cuts.

    ``B`` is a list of slope vectors that must contain alpha; each slope gets
    its best valid intercept over ``dom`` (exact where known, numeric
    otherwise). The scanned set lives over the whole unit box: points between
    the pointwise-max underestimator and the min-coordinate overestimator.
    The measured error is compared against the degree constant c1.
    """
    dom.require_monomial(m)
    a = np.asarray(m.alpha, dtype=float)
    betas = [np.asarray(bb, dtype=float) for bb in B]
    if not any(np.array_equal(s, a) for s in betas):
        raise ValueError("B must contain alpha itself")
    if not dom.contains(np.ones(m.n)):
        raise ValueError("the all-ones point must belong to the domain")

    pairs = []
    for s in betas:
        iv = _bounds.sigma_beta(m, dom, s)
        sig = iv.lo if iv.exact else sigma_numeric(m, dom, s, grid)
        pairs.append((s, sig))

    box = UnitBox(m.n)

    def err(X):
        f = monomial_values(m, X)
        under = np.zeros(X.shape[0])
        for s, sig in pairs:
            under = np.maximum(under, sig + np.einsum("ij,j->i", X - 1.0, s))
        over = fold_columns(np.minimum, X)
        return np.maximum(f - under, over - f)

    spec = grid or GridSpec()
    measured, point = grid_maximize(err, box, spec, center_weights=np.asarray(m.alpha, float))
    return error_report(_bounds.c1(m.degree), measured, points=[point], tol=tol, grid=spec)


_DECIMAL_DIGITS = 50


def ratio_box_diagonal_gap(n: int, r: float, t) -> Decimal:
    """(1 + t(r^n - 1) - (1 + (r-1)t)^n) / (r^n - 1) in 50-digit decimal
    arithmetic.

    This is the gap between the sorted-permutation (Lovasz-extension) concave
    envelope of x_1...x_n over [1, r]^n and the monomial at the diagonal point
    x_i = 1 + (r-1)t, relative to the span r^n - 1. No float step and no
    logarithm is involved, so it checks the log-domain closed form of E from
    outside.
    """
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        rd, td = Decimal(r), Decimal(t)
        span = rd ** n - 1
        return (1 + td * span - (1 + (rd - 1) * td) ** n) / span


def ratio_box_diagonal_max(n: int, r: float) -> tuple[Decimal, Decimal]:
    """(t*, E/(r^n - 1)): the maximizer over t in [0, 1] of
    :func:`ratio_box_diagonal_gap` and its value, in 50-digit decimal
    arithmetic.

    The gap is concave in t; its stationary point solves
    (1 + (r-1)t)^(n-1) = (r^n - 1)/(n(r - 1)), which lies in [0, 1] for every
    n >= 2 and r > 1.
    """
    _bounds._require_ratio_box(n, r)
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        rd = Decimal(r)
        q = (((rd ** n - 1) / (n * (rd - 1))).ln() / (n - 1)).exp()
        t = (q - 1) / (rd - 1)
    return t, ratio_box_diagonal_gap(n, r, t)
