"""Brute-force verifiers: grid maximization with local refinement, monomial
extremes, sampled-hull envelope values via tiny LPs, numeric intercepts, and
a high-precision decimal reference for the constant-ratio box concave error.

Grids use cell-center sampling (no boundary ties) and are stored column by
column, one contiguous array per coordinate, which is how the grid kernels
read them. The scan calls the function on blocks of consecutive grid rows
by the one block rule of every row kernel, ``core.by_blocks``, so that each
block's temporaries stay in cache; every package estimator gives a row the
same bits whatever rows share its call, so the values are those of one call
on the whole grid. The incumbent, and from n = 5 on the seeded restarts too,
are then polished by per-coordinate section searches plus line searches
along each start's orthant diagonal, which is where the attainment loci
live. All starts are refined in lockstep: each section step evaluates the
function once, on 32 points per start still searching, and a start whose
value a whole pass did not raise gets no more passes. All randomness is
seeded, so results are reproducible bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    TOL_ORACLE,
    DimensionMismatch,
    Domain,
    ErrorReport,
    Monomial,
    ScaleExceeded,
    UnsupportedDomain,
    by_blocks,
    error_report,
    monomial_values,
    one_point,
    require_count,
    slopes,
)
from . import bounds as _bounds
from .envelopes import Envelope, concave_unitbox
from .lp import solve_equality_lp

OVER = "OVER"
UNDER = "UNDER"


def _require_side(side: str) -> None:
    if side not in (OVER, UNDER):
        raise ValueError(f"side must be OVER or UNDER, got {side!r}")

_DEFAULT_RESOLUTION = {1: 512, 2: 64, 3: 64, 4: 24, 5: 12, 6: 8}
REFINE_PASSES = 3  # refinement passes per start at most
RESTARTS = 16  # seeded random starts for n >= 5, where the grid is coarse
MAX_GRID_POINTS = 10 ** 8  # cap on res ** n


@dataclass(frozen=True)
class GridSpec:
    """Scan parameters: the per-coordinate resolution (None for the
    n-dependent default) and the seed of the restarts."""

    resolution: Optional[int] = None
    seed: int = 42

    def __post_init__(self):
        if self.resolution is not None:
            require_count(self.resolution, "resolution", 2)
        require_count(self.seed, "seed", 0)

    def resolution_for(self, n: int) -> int:
        if self.resolution is not None:
            return self.resolution
        try:
            return _DEFAULT_RESOLUTION[n]
        except KeyError:
            raise ScaleExceeded(
                f"no default grid for n={n}; supply an explicit GridSpec"
            ) from None


@functools.lru_cache(maxsize=16)
def _grid_points(dom: Domain, res: int) -> np.ndarray:
    """Cell-center grid over the domain's bounding box, filtered to members
    unless the domain is a box, which holds every cell center of itself: a
    read-only (N, n) array whose rows run over the cells in C order (the
    last coordinate fastest). A center that is not finite is a ``ScaleExceeded``.

    It is stored column by column (``f_contiguous``): filled as an (n, res^n)
    array, filtered by columns and returned transposed. Every grid kernel
    reads one coordinate at a time (``fold_columns``, ``monomial_values``),
    and so reads each coordinate contiguously.
    The package's kernels give these rows the bits of a row-major copy;
    only a row sum over 8 or more columns (``np.sum`` along a row, which
    numpy adds pairwise by layout) can differ in its last bit.
    """
    lo, hi = dom.bounding_box()
    n = dom.n
    cols = np.empty((n,) + (res,) * n)
    for j in range(n):
        with np.errstate(over="ignore"):
            axis = lo[j] + (np.arange(res) + 0.5) * (hi[j] - lo[j]) / res
        if not np.isfinite(axis).all():
            raise ScaleExceeded(f"{dom} at resolution {res} has a cell center beyond floats")
        cols[j] = axis.reshape((res,) + (1,) * (n - 1 - j))  # varies along axis j
    cols = cols.reshape(n, -1)
    if not dom.is_box:
        keep = dom.contains_many(cols.T)
        if not keep.all():
            cols = cols.compress(keep, axis=1)  # stays row-major; cols[:, keep] would not
    cols.setflags(write=False)
    return cols.T


def _values(func: Callable[[np.ndarray], np.ndarray], P: np.ndarray,
            what: str = "objective") -> np.ndarray:
    """func(P) as a float array of one value per row of P; any other shape
    is a ``DimensionMismatch``, which would otherwise broadcast against the
    monomial or pick the wrong incumbent."""
    v = np.asarray(func(P), dtype=float)
    if v.shape != (len(P),):
        raise DimensionMismatch(f"the {what} must return one value per point: "
                                f"{len(P)} points gave shape {v.shape}")
    return v


SECTION_POINTS = 32  # interior points per bracket and step
SECTION_STEPS = 11  # steps per bracket at most: the least k with (2/33)**k <= SECTION_WIDTH
SECTION_WIDTH = 1e-13  # a bracket no wider than this is closed


def section_max(func: Callable[[np.ndarray, np.ndarray], np.ndarray],
                lo: Sequence[float], hi: Sequence[float]) -> np.ndarray:
    """Uniform-section maximizers of K unimodal functions, one per bracket
    [lo[k], hi[k]].

    Each step evaluates every open bracket [a, b] at its SECTION_POINTS = 32
    interior points a + i h, h = (b - a)/33, i = 1..32, and keeps
    [a + (i* - 1) h, a + (i* + 1) h] around the first largest value i*.
    ``func(T, rows)`` returns the (L, 32) values at the parameters ``T[l, i]``
    of the functions ``rows[l]`` (row indices into the brackets), one call
    per step for all open brackets; ``rows`` only loses entries from one
    step to the next. A bracket closes after SECTION_STEPS steps or once it
    is no wider than SECTION_WIDTH; each bracket's arithmetic is
    elementwise, so it ends exactly where it would end alone. Returns the
    bracket midpoints.

    ``lo`` and ``hi`` of different shapes, or a result of ``func`` whose shape
    is not that of ``T``, is a ``DimensionMismatch``; an end that is not
    finite is a ``ValueError``.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise DimensionMismatch(f"lo and hi must be two lists of the same length: "
                                f"got shapes {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("every bracket end must be finite")
    i = np.arange(1, SECTION_POINTS + 1)
    live = np.arange(len(a))
    al, bl = a, b  # the ends of the brackets in live
    for _ in range(SECTION_STEPS):
        wide = bl - al > SECTION_WIDTH
        if not wide.all():  # some bracket closes: write it back, drop it
            a[live], b[live] = al, bl
            live, al, bl = live[wide], al[wide], bl[wide]
        if len(live) == 0:
            break
        h = (bl - al) / (SECTION_POINTS + 1)
        T = al[:, None] + i * h[:, None]
        v = func(T, live)
        if np.shape(v) != T.shape:
            raise DimensionMismatch(f"func must return one value per parameter: "
                                    f"{T.shape} parameters gave shape {np.shape(v)}")
        best = np.argmax(v, axis=1)  # i* - 1
        al, bl = al + best * h, al + (best + 2) * h
    a[live], b[live] = al, bl
    return 0.5 * (a + b)


def _line(func, dom: Domain, X: np.ndarray, V: np.ndarray, D: np.ndarray,
          reach: float = np.inf) -> None:
    """Section search from each row of X along the same row of D over its
    feasible segment, clipped to |t| <= reach; a row moves to its line
    maximum when that beats V. Only a finite segment longer than 1e-14 is
    searched, so a zero row of D leaves its start alone."""
    tlo, thi = dom.line_range(X, D)
    tlo, thi = np.maximum(tlo, -reach), np.minimum(thi, reach)
    rows = np.flatnonzero(np.isfinite(tlo) & np.isfinite(thi) & (thi - tlo > 1e-14))
    if len(rows) == 0:
        return
    Xr, Dr = X[rows], D[rows]
    Xl, Dl = Xr, Dr  # the rows section_max still searches

    def along(T, idx):
        nonlocal Xl, Dl
        if len(idx) != len(Xl):  # the open brackets only ever shrink
            Xl, Dl = Xr[idx], Dr[idx]
        P = Xl[:, None] + T[..., None] * Dl[:, None]
        return _values(func, P.reshape(-1, P.shape[-1])).reshape(T.shape)

    P = Xr + section_max(along, tlo[rows], thi[rows])[:, None] * Dr
    v = _values(func, P)
    up = v > V[rows]
    X[rows[up]] = P[up]
    V[rows[up]] = v[up]


def _refine(func: Callable[[np.ndarray], np.ndarray], dom: Domain,
            X: np.ndarray, V: np.ndarray, cell: np.ndarray,
            center_weights: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Up to REFINE_PASSES passes of line searches: along each coordinate
    within one grid cell of each start, then along its orthant diagonal and
    its centering directions.

    The starts (rows of X, values V) move through this schedule in lockstep,
    one estimator call per section step for all of them; each row does the
    arithmetic it would do alone. A line moves a start only where its value
    strictly rises, so a start whose value a whole pass did not raise is
    where it was and would only repeat that pass: it is settled, and the
    remaining passes run on the other starts alone.

    A centering direction moves toward equal |coordinates| while preserving a
    weighted signed sum, which tracks hinge ridges {sum w_j x_j = const}; the
    unweighted move covers multilinear cuts and ``center_weights`` (usually
    the monomial's exponents) covers slope-weighted ones.
    """
    n = X.shape[1]
    X, V = X.copy(), np.array(V, dtype=float)
    weightings = [np.ones(n)]
    if center_weights is not None and not np.all(np.asarray(center_weights) == 1.0):
        weightings.append(np.asarray(center_weights, dtype=float))
    active = np.arange(len(X))
    for _ in range(REFINE_PASSES):
        if len(active) == 0:
            break
        Xa, Va = X[active], V[active]
        V0 = Va.copy()
        for j in range(n):
            D = np.zeros_like(Xa)
            D[:, j] = 1.0
            _line(func, dom, Xa, Va, D, float(cell[j]))
        diag = np.where(Xa < 0, -1.0, 1.0)
        _line(func, dom, Xa, Va, diag)
        for w in weightings:
            target = np.sum(w * diag * Xa, axis=1) / np.sum(w)
            cen = diag * target[:, None] - Xa
            cen[np.max(np.abs(cen), axis=1) <= 1e-12] = 0.0  # already centered
            _line(func, dom, Xa, Va, cen)
        X[active], V[active] = Xa, Va
        active = active[Va > V0]
    return X, V


def grid_maximize(func: Callable[[np.ndarray], np.ndarray], dom: Domain,
                  grid: Optional[GridSpec] = None,
                  center_weights: Optional[np.ndarray] = None) -> tuple[float, np.ndarray]:
    """Maximize a vectorized function over a structured domain.

    Grid scan in ``core.by_blocks`` blocks of rows (lexicographic tie-break:
    one argmax over all the scan values), section-search refinement from the
    incumbent, plus seeded random restarts when the grid is coarse (n >= 5),
    all refined in lockstep; the first best start wins. The refined value
    never falls below the grid incumbent.
    """
    spec = grid or GridSpec()
    n = dom.n
    res = spec.resolution_for(n)
    if res ** n > MAX_GRID_POINTS:
        raise ScaleExceeded(f"grid of {res}^{n} points exceeds the cap {MAX_GRID_POINTS}")
    pts = _grid_points(dom, res)
    if len(pts) == 0:
        raise ScaleExceeded("grid resolution too coarse: no interior cell centers")
    vals = by_blocks(_values, pts, func)
    k = int(np.argmax(vals))  # first max in C order = lexicographic argmax
    lo, hi = dom.bounding_box()
    cell = (hi - lo) / res
    X, V = pts[k:k + 1], vals[k:k + 1]

    if n >= 5:
        rng = np.random.default_rng(spec.seed)
        span = hi - lo
        S = np.empty((0, n))
        while len(S) < RESTARTS:
            cand = lo + rng.random((4 * RESTARTS, n)) * span
            S = np.vstack([S, cand[dom.contains_many(cand)][: RESTARTS - len(S)]])
        X, V = np.vstack([X, S]), np.concatenate([V, _values(func, S)])
    X, V = _refine(func, dom, X, V, cell, center_weights)
    best = max(range(len(V)), key=V.__getitem__)  # first of the largest, as in a scan
    return float(V[best]), X[best]


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
    measured maximum against ``bound`` when one is supplied. An
    :class:`~monoenv.envelopes.Envelope` over ``dom`` itself is evaluated by
    its unchecked ``value``, since the scan generates every point in ``dom``.
    """
    _require_side(side)
    dom.require_monomial(m)
    if isinstance(estimator, Envelope) and estimator.dom == dom:
        estimator = estimator.value

    if side == OVER:
        def gap(X):
            return _values(estimator, X, "estimator") - monomial_values(m, X)
    else:
        def gap(X):
            return monomial_values(m, X) - _values(estimator, X, "estimator")

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
        return monomial_values(m, X) - np.einsum("ij,j->i", np.ascontiguousarray(X), b)

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

    over = concave_unitbox(m)

    def err(X):
        f = monomial_values(m, X)
        under = np.zeros(X.shape[0])
        shifted = np.ascontiguousarray(X - 1.0)
        for s, sig in pairs:
            under = np.maximum(under, sig + np.einsum("ij,j->i", shifted, s))
        return np.maximum(f - under, over.value(X) - f)

    spec = grid or GridSpec()
    measured, point = grid_maximize(err, over.dom, spec, center_weights=np.asarray(m.alpha, float))
    return error_report(_bounds.c1(m.degree), measured, points=[point], tol=tol, grid=spec)


_DECIMAL_DIGITS = 50


def ratio_box_diagonal_gap(n: int, r: float, t) -> Decimal:
    """(1 + t(r^n - 1) - (1 + (r-1)t)^n) / (r^n - 1) in 50-digit decimal
    arithmetic.

    This is the gap between the sorted-permutation (Lovasz-extension) concave
    envelope of x_1...x_n over [1, r]^n and the monomial at the diagonal point
    x_i = 1 + (r-1)t, relative to the span r^n - 1. No float step and no
    logarithm is involved, so it checks the closed form of E from outside.
    """
    _bounds._require_ratio_box(n, r)
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
