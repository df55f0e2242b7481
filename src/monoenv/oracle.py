"""Brute-force verifiers: grid maximization with local refinement, monomial
extremes, sampled-hull envelope values via tiny LPs, numeric intercepts, and
a high-precision decimal reference for the constant-ratio box concave error.

Grids use cell-center sampling (no boundary ties) and are laid out column by
column, one contiguous array per coordinate, which is how the grid kernels
read them. The scan calls the function on blocks of at most
``core.BLOCK_FLOATS // n`` consecutive grid rows, the block rule of every row
kernel, so that each block's temporaries stay in cache; every package
estimator gives a row the same bits whatever rows share its call, so the
values are those of one call on the whole grid. Grid blocks are generated
from the bounding box's axes into one buffer per scan, off a box only those
of the tiles that can meet the domain: a box's full scan stores none, and
every other scan reads one cached grid that joins only each block's kept
rows. A box's block is valid only during the call it is passed to, so a
function that keeps one must copy it.
``grid_maximize`` scans only the rows whose coordinates do not decrease, one
per orbit of the coordinate permutations, for an ``Envelope`` over the
domain that declares ``symmetric`` (``max_gap``'s gap does for equal
exponents and such an estimator); others scan the whole grid. Such a row is
its orbit's first in C order: an objective symmetric in floats gets the
whole grid's incumbent. The grid incumbent is then polished by line
searches along each coordinate and its orthant diagonal, which is where the
attainment loci live, along its centering directions and, up to n = 6, along
every other sign diagonal. A pass searches all these lines as one stack in 11
section steps, each one call on 32 points per line, built and passed column by
column like the grid and as read-only; so at n >= 8, which only explicit grids
reach, a row-sum kernel gives refined rows the column-major bits that grid
rows get. The incumbent then moves to its best line's end, and a pass that
does not raise its value ends the refinement. Nothing is random: results are
reproducible bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    BLOCK_FLOATS,
    TOL_EXACT,
    TOL_ORACLE,
    DimensionMismatch,
    Domain,
    ErrorReport,
    Monomial,
    ScaleExceeded,
    UnsupportedDomain,
    _box_vertices,
    error_report,
    monomial_values,
    one_point,
    require_count,
    slopes,
)
from . import bounds as _bounds
from .envelopes import Envelope, LinearUnderestimator, concave_unitbox, underestimator_value
from .lp import solve_equality_lp

OVER = "OVER"
UNDER = "UNDER"


def _require_side(side: str) -> None:
    if side not in (OVER, UNDER):
        raise ValueError(f"side must be OVER or UNDER, got {side!r}")

_DEFAULT_RESOLUTION = {1: 512, 2: 64, 3: 64, 4: 24, 5: 12, 6: 8}
REFINE_PASSES = 3  # refinement passes at most
MAX_GRID_POINTS = 10 ** 8  # cap on res ** n


@dataclass(frozen=True)
class GridSpec:
    """Scan parameters: the per-coordinate resolution (None for the
    n-dependent default). ``seed`` is validated and read by no code here:
    the benchmark workloads still pass it, and ROADMAP item 18 (e), which
    stops that, deletes it."""

    resolution: Optional[int] = None
    seed: int = 42

    def __post_init__(self):
        # the ints, not numpy integers: res ** n must not wrap below the cap
        if self.resolution is not None:
            object.__setattr__(self, "resolution", require_count(self.resolution, "resolution", 2))
        object.__setattr__(self, "seed", require_count(self.seed, "seed", 0))

    def resolution_for(self, n: int) -> int:
        res = self.resolution or _DEFAULT_RESOLUTION.get(n)
        if res is None:
            raise ScaleExceeded(f"no default grid for n={n}; pass GridSpec(resolution=...), "
                                "or --grid on the command line")
        if res ** n > MAX_GRID_POINTS:
            raise ScaleExceeded(f"grid of {res}^{n} points exceeds the cap {MAX_GRID_POINTS}")
        return res


@functools.lru_cache(maxsize=32)
def _grid_points(dom: Domain, res: int, orbits: bool = False) -> np.ndarray:
    """Cell-center grid over the domain's bounding box, filtered to members
    unless the domain is a box, which holds every cell center of itself: a
    read-only (N, n) array whose rows run over the cells in C order (the
    last coordinate fastest). A center that is not finite is a ``ScaleExceeded``.
    With ``orbits``, for a ``Domain.symmetric`` domain, only the rows whose
    coordinates do not decrease: the first row in C order of each orbit of
    the coordinate permutations.

    The join of each ``_grid_blocks`` block's ``_kept`` rows, copied where
    they are still the generator's buffer, so it never holds the bounding box
    and, off a box, generates only the tiles that can meet the domain; stored
    by columns (``f_contiguous``): every grid kernel
    reads one coordinate at a time (``fold_columns``, ``monomial_values``).
    The package's kernels give these rows the bits of a row-major copy; only a
    row sum over 8 or more columns (``np.sum`` along a row, which numpy adds
    pairwise by layout) can differ in its last bit. No full box scan calls this.
    """
    parts = []
    for block in _grid_blocks(dom, res):
        cols = _kept(dom, block, orbits).T
        # a block that kept every row is still the generator's buffer
        parts.append(cols.copy() if np.may_share_memory(cols, block) else cols)
    cols = np.concatenate(parts, axis=1) if parts else np.empty((dom.n, 0))
    cols.setflags(write=False)
    return cols.T


def _grid_blocks(dom: Domain, res: int) -> Iterator[np.ndarray]:
    """The res^n cell centers of the domain's bounding box, in C order, as
    (n, m) column blocks of at most BLOCK_FLOATS // n rows each, less, off a
    box, the tiles that cannot meet the domain (``_meeting_tiles``).

    A block is whole tiles: a tile is the grid of the trailing k coordinates,
    res^k rows for the largest k that fits a block, while each leading
    coordinate holds one value per tile. Every block is a view of one buffer,
    so it is valid only until the next one is made: a caller that keeps a
    block copies it. The tile is written once, and again for a shorter last
    block; each block rewrites only its n - k leading coordinates.
    """
    n, axes = dom.n, _cell_centers(dom, res)
    rows = BLOCK_FLOATS // n or 1
    k = max(k for k in range(n + 1) if res ** k <= rows)
    j, t = n - k, res ** k  # leading coordinates, rows per tile
    lead = None if dom.is_box else _meeting_tiles(dom, axes, j, rows)
    tiles = res ** j if lead is None else len(lead)
    per = min(rows // t, tiles)
    buf = np.empty(n * per * t)
    laid = 0  # the tiles per block for which buf's trailing coordinates hold the tile
    for s in range(0, tiles, per or 1):  # per is 0 only where no tile is left
        m = min(per, tiles - s)
        cols = buf[:n * m * t].reshape(n, m, t)
        if m != laid:
            cols[j:] = _lattice(axes[j:], np.arange(t))[:, None, :]
            laid = m
        cols[:j] = _lattice(axes[:j], np.arange(s, s + m) if lead is None
                            else lead[s:s + m])[:, :, None]
        yield cols.reshape(n, -1)


def _meeting_tiles(dom: Domain, axes: np.ndarray, j: int, rows: int) -> np.ndarray:
    """Indices, in C order, of the tiles (the rows of the grid over the first
    j axes) that can meet the domain.

    A tile is dropped when some halfspace's least A x over it, A_lead x_lead
    plus each trailing axis's least A_i c (at an end of the axis), exceeds
    b + TOL_EXACT by more than 1e-9 (1 + S), where S is the halfspace's
    sum of max |A_i c| over the axes: far more than the rounding of any A x
    that ``contains_many`` keeps, so every kept row's tile is generated.
    The leading rows are tested ``rows`` at a time.
    """
    A, b = dom.halfspaces()
    with np.errstate(over="ignore", invalid="ignore"):
        ends = A[:, :, None] * axes[:, [0, -1]]  # (h, n, 2): the extremes of A_i c
        slack = (b + TOL_EXACT + 1e-9 * (1 + np.abs(ends).max(axis=2).sum(axis=1))
                 - ends[:, j:].min(axis=2).sum(axis=1))
        tiles = axes.shape[1] ** j
        keep = [s + np.flatnonzero(~np.any(
            A[:, :j] @ _lattice(axes[:j], np.arange(s, min(s + rows, tiles)))
            > slack[:, None], axis=0)) for s in range(0, tiles, rows)]
    return np.concatenate(keep)


def _lattice(axes: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows idx, in C order, of the grid over the (k, res) axes, as a (k, len(idx)) array."""
    out = np.empty((len(axes), len(idx)))
    for j in range(len(axes) - 1, -1, -1):
        idx, i = np.divmod(idx, axes.shape[1])
        out[j] = axes[j][i]
    return out


def _cell_centers(dom: Domain, res: int) -> np.ndarray:
    """The res cell centers of each axis of the bounding box, an (n, res) array."""
    lo, hi = dom.bounding_box()
    with np.errstate(over="ignore"):
        axes = lo[:, None] + (np.arange(res) + 0.5) * (hi - lo)[:, None] / res
    if not np.isfinite(axes).all():
        raise ScaleExceeded(f"{dom} at resolution {res} has a cell center beyond floats")
    return axes


def _kept(dom: Domain, cols: np.ndarray, orbits: bool = False) -> np.ndarray:
    """The (n, N) array cols as read-only (N, n) rows, less those whose
    coordinates decrease if ``orbits``, then less those outside a non-box dom."""
    if orbits:
        cols = cols.compress(np.all(cols[1:] >= cols[:-1], axis=0), axis=1)
    if not dom.is_box:
        keep = dom.contains_many(cols.T)
        if not keep.all():
            cols = cols.compress(keep, axis=1)  # stays row-major; cols[:, keep] would not
    cols.setflags(write=False)
    return cols.T


def _row_values(func: Callable[[np.ndarray], np.ndarray], P: np.ndarray,
                what: str) -> np.ndarray:
    """func(P) as a float array of one value per row of P; any other shape
    is a ``DimensionMismatch``, which would otherwise broadcast against the
    monomial or pick the wrong incumbent."""
    v = np.asarray(func(P), dtype=float)
    if v.shape != (len(P),):
        raise DimensionMismatch(f"the {what} must return one value per point: "
                                f"{len(P)} points gave shape {v.shape}")
    return v


def _values(func: Callable[[np.ndarray], np.ndarray], P: np.ndarray) -> np.ndarray:
    """The objective's ``_row_values``; a nan is a ``ValueError`` naming its
    first point, since the scan and the section search would pass it over.
    Each value is tested once, here: ``max_gap`` tests its estimator only for
    its shape, as a nan estimator value gives a nan gap."""
    v = _row_values(func, P, "objective")
    if np.isnan(v).any():
        raise ValueError(f"the objective is nan at {P[np.argmax(np.isnan(v))].tolist()}")
    return v


SECTION_POINTS = 32  # interior points per bracket and step
SECTION_STEPS = 11  # steps per bracket: (2/33)**11, about 4e-14 of the segment, is left


def _line(func, dom: Domain, X: np.ndarray, V: np.ndarray, D: np.ndarray,
          reach=np.inf) -> None:
    """Uniform section search (Avriel & Wilde 1966) from each row of X along
    the same row of D over its feasible segment, clipped to |t| <= reach (a
    number or one per row); a row moves to its line maximum when that beats
    V. Only a finite segment longer than 1e-14 is searched, so a zero row of
    D leaves its start alone.

    Each of the SECTION_STEPS steps calls ``func`` once, on the points X + t D
    of every searched line at the SECTION_POINTS = 32 interior parameters
    t = a + i h, h = (b - a)/33, of its bracket [a, b], and keeps
    [a + (i* - 1) h, a + (i* + 1) h] around the first largest value i*. The
    points are built as n contiguous columns and passed read-only as their
    transpose, rows line by line and t by t, the grid's layout. The
    arithmetic is elementwise, so a line ends where it would end alone, on
    the best point of its last step with that step's value: its line maximum.
    """
    tlo, thi = dom.line_range(X, D)
    tlo, thi = np.maximum(tlo, -reach), np.minimum(thi, reach)
    rows = np.flatnonzero(np.isfinite(tlo) & np.isfinite(thi) & (thi - tlo > 1e-14))
    if len(rows) == 0:
        return
    a, b = tlo[rows], thi[rows]
    Xc, Dc = (np.repeat(A[rows].T, SECTION_POINTS, axis=1) for A in (X, D))  # (n, lines * 32)
    i = np.arange(1, SECTION_POINTS + 1)
    for _ in range(SECTION_STEPS):
        h = (b - a) / (SECTION_POINTS + 1)
        T = a[:, None] + i * h[:, None]
        P = T.reshape(-1) * Dc
        P += Xc
        P.setflags(write=False)
        v = _values(func, P.T).reshape(T.shape)
        best = np.argmax(v, axis=1)  # i* - 1
        a, b = a + best * h, a + (best + 2) * h
    k = np.arange(len(rows))
    P, v = P.T[k * SECTION_POINTS + best], v[k, best]
    up = v > V[rows]
    X[rows[up]] = P[up]
    V[rows[up]] = v[up]


def _refine(func: Callable[[np.ndarray], np.ndarray], dom: Domain,
            x: np.ndarray, v: float, cell: np.ndarray,
            center_weights: Optional[np.ndarray] = None) -> tuple[np.ndarray, float]:
    """Up to REFINE_PASSES passes of line searches from x, whose value is v:
    along each coordinate within one grid cell, its orthant diagonal, its
    centering directions and, while n has a default grid (n <= 6), every
    other sign diagonal.

    A pass is one ``_line`` call on the stack of every line; each line does
    the arithmetic it would do alone. x then moves to the first of its best
    lines if that raised its value, so a narrow bump is found only by a line
    near its peak: hence the sign diagonals. A pass that does not raise the
    value ends the refinement, since another would only repeat it.

    A centering direction moves toward equal |coordinates| while preserving a
    weighted signed sum, which tracks hinge ridges {sum w_j x_j = const}; the
    unweighted move covers multilinear cuts and ``center_weights`` (usually
    the monomial's exponents) covers slope-weighted ones.
    """
    n = len(x)
    weightings = [np.ones(n)]
    if center_weights is not None and not np.all(np.asarray(center_weights) == 1.0):
        weightings.append(np.asarray(center_weights, dtype=float))
    # sign diagonals only where a default grid exists: 2^(n-1) lines outgrow memory
    signs = (_box_vertices(-np.ones(n), np.ones(n))[2 ** (n - 1):]
             if n <= max(_DEFAULT_RESOLUTION) else np.empty((0, n)))
    for _ in range(REFINE_PASSES):
        diag = np.where(x < 0, -1.0, 1.0)
        D = [*np.eye(n), diag]
        for w in weightings:
            cen = diag * (np.sum(w * diag * x) / np.sum(w)) - x
            if np.max(np.abs(cen)) > 1e-12:  # not already centered
                D.append(cen)
        D = np.vstack(D + [signs[np.abs(signs @ diag) < n]])  # every sign diagonal but +-diag
        X, V = np.tile(x, (len(D), 1)), np.full(len(D), v)
        _line(func, dom, X, V, D, np.concatenate([cell, np.full(len(D) - n, np.inf)]))
        best = int(np.argmax(V))  # the first of the best lines
        if not V[best] > v:
            break
        x, v = X[best], V[best]
    return x, v


def grid_maximize(func: Callable[[np.ndarray], np.ndarray], dom: Domain,
                  grid: Optional[GridSpec] = None,
                  center_weights: Optional[np.ndarray] = None) -> tuple[float, np.ndarray]:
    """Maximize a vectorized function over a structured domain.

    Grid scan in blocks of rows, a box's full grid generated by
    ``_grid_blocks`` and every other scan's rows sliced from their cached
    ``_grid_points``, keeping the whole grid's first maximum (a strict ``>``
    across blocks, ``argmax`` within one), then ``_refine`` from the
    incumbent, so the value never falls below the grid incumbent's. An
    ``Envelope`` over ``dom`` itself is evaluated by its unchecked ``value``,
    as the search makes only points of ``dom``, and on the orbit rows
    (``_grid_points(dom, res, True)``) when it declares ``symmetric``; other
    functions scan the whole grid. The point
    returned is an array of its own. Every stack ``func`` gets is read-only,
    and a box's block is valid only during that call: the next block
    overwrites it, so a ``func`` that keeps its argument copies it.
    A best value of +-inf is a ``ScaleExceeded``: the function left the float
    range, and a nan is a ``ValueError`` (``_values``).
    """
    func, orbits = _unchecked(func, dom)
    res = (grid or GridSpec()).resolution_for(dom.n)
    if dom.is_box and not orbits:
        blocks = (_kept(dom, cols) for cols in _grid_blocks(dom, res))
    else:
        pts = _grid_points(dom, res, orbits)
        rows = BLOCK_FLOATS // dom.n or 1
        blocks = (pts[s:s + rows] for s in range(0, len(pts), rows))
    x = None
    for P in blocks:
        vals = _values(func, P)
        k = int(np.argmax(vals))  # first max in C order = lexicographic argmax
        if x is None or vals[k] > v:
            x, v = P[k].copy(), vals[k]
    if x is None:
        raise ScaleExceeded("grid resolution too coarse: no interior cell centers")
    lo, hi = dom.bounding_box()
    x, v = _refine(func, dom, x, v, (hi - lo) / res, center_weights)
    if np.isinf(v):
        raise ScaleExceeded(f"the best value over {dom} is infinite, beyond the float range")
    return float(v), x


def _unchecked(func, dom: Domain) -> tuple[Callable[[np.ndarray], np.ndarray], bool]:
    """(value, symmetric) of an ``Envelope`` over dom itself, else (func, False)."""
    if isinstance(func, Envelope) and func.dom == dom:
        return func.value, func.symmetric
    return func, False


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
    its unchecked ``value``. The gap goes to ``grid_maximize`` as an
    ``Envelope`` over ``dom``, ``symmetric`` when the estimator declares it and
    the exponents are equal, so that its scan takes one row per orbit.
    """
    _require_side(side)
    dom.require_monomial(m)
    estimator, symmetric = _unchecked(estimator, dom)

    if side == OVER:
        def gap(X):
            return _row_values(estimator, X, "estimator") - monomial_values(m, X)
    else:
        def gap(X):
            return monomial_values(m, X) - _row_values(estimator, X, "estimator")

    # a symmetric Envelope's domain is symmetric, so is the gap for equal exponents
    objective = Envelope(dom, gap, symmetric=symmetric and m.is_symmetric())
    spec = grid or GridSpec()
    measured, point = grid_maximize(objective, dom, spec, np.asarray(m.alpha, float))
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
    """Numeric best valid intercept: min over the domain of x**alpha -
    beta.(x - 1), which has no sum(beta) to cancel, for finite beta >= 1, via
    grid refinement plus vertex enumeration where the domain has vertices."""
    b = slopes(beta, m.n)
    dom.require_monomial(m)
    cut = LinearUnderestimator(b, 0.0)

    def objective(X):
        return monomial_values(m, X) - underestimator_value(cut, X)

    best, _ = grid_minimize(objective, dom, grid, center_weights=b)
    try:
        best = min(best, float(np.min(objective(dom.vertices()))))
    except UnsupportedDomain:
        pass
    return best


def relaxation_error_PB(m: Monomial, B: Sequence, dom: Domain,
                        grid: Optional[GridSpec] = None,
                        tol: float = TOL_ORACLE) -> ErrorReport:
    """Error of the sandwich relaxation built from a family of affine cuts.

    ``B`` is a list of slope vectors that must contain alpha; each slope gets
    its best valid intercept over ``dom`` (exact where known, numeric
    otherwise). The scanned set lives over the whole unit box: points between
    the pointwise-max underestimator and the min-coordinate overestimator.
    The measured error is compared against the degree constant c1, read first.
    """
    dom.require_monomial(m)
    bound = _bounds.c1(m.degree)
    a = np.asarray(m.alpha, dtype=float)
    betas = [np.asarray(bb, dtype=float) for bb in B]
    if not any(np.array_equal(s, a) for s in betas):
        raise ValueError("B must contain alpha itself")
    if not dom.contains(np.ones(m.n)):
        raise ValueError("the all-ones point must belong to the domain")

    cuts = []
    for s in betas:
        iv = _bounds.sigma_beta(m, dom, s)
        sig = iv.lo if iv.exact else sigma_numeric(m, dom, s, grid)
        cuts.append(LinearUnderestimator(s, sig))

    over = concave_unitbox(m)

    def err(X):
        f = monomial_values(m, X)
        under = np.zeros(X.shape[0])
        for cut in cuts:
            under = np.maximum(under, underestimator_value(cut, X))
        return np.maximum(f - under, over.value(X) - f)

    spec = grid or GridSpec()
    measured, point = grid_maximize(err, over.dom, spec, center_weights=np.asarray(m.alpha, float))
    return error_report(bound, measured, points=[point], tol=tol, grid=spec)


_DECIMAL_DIGITS = 50


def ratio_box_diagonal_gap(n: int, r: float, t) -> Decimal:
    """(1 + t(r^n - 1) - (1 + (r-1)t)^n) / (r^n - 1) in 50-digit decimal
    arithmetic.

    This is the gap between the sorted-permutation (Lovasz-extension) concave
    envelope of x_1...x_n over [1, r]^n and the monomial at the diagonal point
    x_i = 1 + (r-1)t, relative to the span r^n - 1. No float step and no
    logarithm is involved, so it checks the closed form of E from outside.
    ``t`` is a float or a ``Decimal`` in [0, 1], else a ``ValueError``.
    """
    _bounds._require_ratio_box(n, r)
    if not (isinstance(t, (float, Decimal)) and Decimal(t).is_finite() and 0 <= t <= 1):
        raise ValueError(f"t must be a float or Decimal in [0, 1], got {t!r}")
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
