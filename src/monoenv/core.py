"""Shared domain types: monomials, structured domains, points, error reports.

Everything here is immutable after construction and every operation is a pure
function, so concurrent use needs no synchronization.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

# Default comparison tolerances. Closed-form identities should agree to
# TOL_EXACT; oracle-vs-bound agreement is limited by grid resolution.
TOL_EXACT = 1e-9
TOL_ORACLE = 1e-4

VERTEX_ENUM_LIMIT = 20  # 2^n blowup guard for explicit vertex and facet lists
BLOCK_FLOATS = 1 << 16  # input floats per row-kernel call, so its temporaries stay in cache
_EXPONENT_INF = 2 ** 1023  # see exponent_float


class DimensionMismatch(ValueError):
    """Point dimension does not match the monomial/domain dimension."""


class OutsideDomain(ValueError):
    """A point violates the defining inequalities of its domain."""


class UnsupportedDomain(ValueError):
    """The requested operation is not defined for this domain family."""


class ScaleExceeded(RuntimeError):
    """The request is beyond the enumeration/grid scale this library supports."""


def as_points(x, n: int) -> tuple[np.ndarray, bool]:
    """Normalize ``x`` to a (m, n) float array.

    Accepts a single n-vector or a stack of points; returns the 2-D array and
    a flag telling whether the input was a single point.
    """
    X = np.asarray(x, dtype=float)
    if X.ndim == 1:
        if X.shape[0] != n:
            raise DimensionMismatch(f"expected a point of dimension {n}, got {X.shape[0]}")
        return X[None, :], True
    if X.ndim == 2:
        if X.shape[1] != n:
            raise DimensionMismatch(f"expected points of dimension {n}, got {X.shape[1]}")
        return X, False
    raise DimensionMismatch(f"expected a vector or a matrix of points, got ndim={X.ndim}")


def one_point(x, n: int) -> np.ndarray:
    """``x`` as one n-vector; a stack of other than one point is a ``DimensionMismatch``."""
    X, _ = as_points(x, n)
    if len(X) != 1:
        raise DimensionMismatch(f"expected one point of dimension {n}, got a stack of {len(X)}")
    return X[0]


def slopes(v, n: Optional[int] = None, name: str = "beta") -> np.ndarray:
    """``v`` as a nonempty float vector (of length n, if given) of finite
    entries >= 1 with a finite sum: a slope vector beta, kappa or gamma of
    the bounds. A sum beyond floats is a ``ScaleExceeded``."""
    b = np.asarray(v, dtype=float)
    if b.ndim != 1 or len(b) == 0 or n not in (None, len(b)):
        want = "nonempty" if n is None else f"of dimension {n}"
        raise DimensionMismatch(f"{name} must be a vector {want}, got shape {b.shape}")
    if not np.all((b >= 1.0) & (b < np.inf)):
        raise ValueError(f"{name} must be >= 1 componentwise and finite, got {b.tolist()}")
    with np.errstate(over="ignore"):
        total = b.sum()
    if total == np.inf:
        raise ScaleExceeded(f"the sum of {name}={b.tolist()} is beyond the float range")
    return b


def unit_interval(v, name: str) -> np.ndarray:
    """``v`` as a float array, of any shape, of finite entries in [0, 1]: a
    profile parameter t or s of the bounds. Any other entry, ``nan``
    included, is a ``ValueError`` naming the argument."""
    x = np.asarray(v, dtype=float)
    inside = (x >= 0.0) & (x <= 1.0)
    if not inside.all():
        raise ValueError(f"{name} must be in [0, 1] entrywise, got {x[~inside].flat[0]}")
    return x


def require_count(v, name: str, low: int) -> int:
    """``v`` as a Python int: an integer >= low, numpy integers included. A
    ``bool``, any float (2.0 too), a string or anything else is a ``ValueError``."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
    return int(v)


def exponent_float(a: int) -> float:
    """An integer exponent as the float a power takes: inf from 2**1023 on,
    where |x|**a is 0, 1 or inf for every float x, as |x|**inf is."""
    return float(a) if a < _EXPONENT_INF else math.inf


def box_ratio(r) -> float:
    """``r`` as the float ratio of a box [1, r]^n: finite and > 1."""
    r = float(r)
    if not 1.0 < r < math.inf:
        raise ValueError(f"need a finite ratio r > 1, got {r}")
    return r


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Monomial:
    """A monomial prod_j x_j**alpha_j with integer exponents alpha_j >= 1."""

    alpha: tuple[int, ...]

    def __post_init__(self):
        if len(self.alpha) == 0:
            raise ValueError("monomial needs at least one variable")
        object.__setattr__(self, "alpha",
                           tuple(require_count(a, "exponent", 1) for a in self.alpha))

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def degree(self) -> int:
        return sum(self.alpha)

    def is_multilinear(self) -> bool:
        return all(a == 1 for a in self.alpha)

    def is_symmetric(self) -> bool:
        return len(set(self.alpha)) == 1

    @staticmethod
    def multilinear(n: int) -> "Monomial":
        return Monomial((1,) * require_count(n, "n", 1))

    def alpha_power(self) -> float:
        """prod_j alpha_j**alpha_j (the self-exponentiated coefficient)."""
        return float(np.prod([float(a) ** a for a in self.alpha]))


def simplex_peak(m: Monomial) -> tuple[float, float]:
    """(alpha**alpha, alpha**alpha / d**d) for x**alpha of degree d: the
    self-exponentiated coefficient and the maximum of x**alpha over the
    standard simplex, attained at alpha / d. ``ScaleExceeded`` when
    alpha**alpha or d**d is beyond the float range."""
    try:
        with np.errstate(over="raise"):
            aa = m.alpha_power()
        return aa, aa / float(m.degree) ** m.degree
    except (OverflowError, FloatingPointError):
        raise ScaleExceeded(f"alpha**alpha or d**d overflows for alpha={list(m.alpha)}") from None


def fold_columns(ufunc: np.ufunc, X: np.ndarray) -> np.ndarray:
    """``ufunc`` across the last axis of X, left to right:
    ufunc(...ufunc(X[..., 0], X[..., 1])..., X[..., n-1]).

    One in-place two-operand call per column over all rows at once, instead
    of a reduction along the short axis once per row.
    """
    out = X[..., 0].copy()
    for j in range(1, X.shape[-1]):
        ufunc(out, X[..., j], out=out)
    return out


def by_blocks(kernel: Callable, X: np.ndarray, *args):
    """kernel(*args, X) on consecutive blocks of at most BLOCK_FLOATS // n rows of
    an (m, n) stack X, joined (entry by entry for a tuple); one call if X fits."""
    if X.size <= BLOCK_FLOATS or X.ndim != 2:
        return kernel(*args, X)
    rows = BLOCK_FLOATS // X.shape[1] or 1
    parts = [kernel(*args, X[s:s + rows]) for s in range(0, len(X), rows)]
    return (tuple(map(np.concatenate, zip(*parts))) if type(parts[0]) is tuple
            else np.concatenate(parts))


def monomial_values(m: Monomial, X: np.ndarray) -> np.ndarray:
    """Vectorized prod_j x_j**alpha_j over rows of X, sign-safe at negative bases.

    The factors are multiplied into one accumulator left to right. A unit
    exponent contributes x_j + 0.0 (|x_j| sign(x_j), with -0.0 read as 0.0);
    a higher one pow(|x_j|, alpha_j), negated where x_j < 0 for odd alpha_j.
    The exponent reaches ``np.power`` as a full array and the result is a
    new array: a scalar or stride-0 exponent 2, or an in-place call on one
    row, takes numpy's ``x*x`` path, which is not ``pow()``.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[-1:] != (m.n,):
        raise DimensionMismatch(f"expected points of dimension {m.n}, got shape {X.shape}")
    return by_blocks(_monomial_rows, X, m.alpha)


def _monomial_rows(alpha: tuple[int, ...], X: np.ndarray) -> np.ndarray:
    out = None
    for j, a in enumerate(alpha):
        col = X[..., j]
        if a == 1:
            f = col + 0.0
        else:
            f = np.power(np.abs(col), np.full(col.shape, exponent_float(a)))
            if a % 2:
                np.negative(f, out=f, where=col < 0)
        if out is None:
            out = f
        else:
            np.multiply(out, f, out=out)
    return out


def eval_monomial(m: Monomial, x) -> float | np.ndarray:
    """Evaluate x**alpha at a point (or rows of points)."""
    X, single = as_points(x, m.n)
    vals = monomial_values(m, X)
    return float(vals[0]) if single else vals


def _scaling(c, m: Monomial) -> tuple[np.ndarray, float]:
    """(c, c**alpha) for a scaling vector c of finite, nonzero entries whose
    c**alpha is a finite, nonzero float."""
    C = np.asarray(c, dtype=float)
    if C.shape != (m.n,):
        raise DimensionMismatch(f"scaling vector must have dimension {m.n}, got shape {C.shape}")
    if not np.all(np.isfinite(C) & (C != 0.0)):
        raise ValueError(f"scaling vector must have finite, nonzero entries, got {C.tolist()}")
    with np.errstate(over="ignore", under="ignore"):
        calpha = float(monomial_values(m, C[None, :])[0])
    if not math.isfinite(calpha) or calpha == 0.0:
        raise ScaleExceeded(f"c**alpha is not a finite, nonzero float for c={C.tolist()}")
    return C, calpha


def _transported(value: float, factor: float, name: str) -> float:
    """factor * value for a finite value; ScaleExceeded if the product overflows."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    out = factor * value
    if not math.isfinite(out):
        raise ScaleExceeded(f"the scaled {name} overflows: {factor} * {value}")
    return out


def scale_error(err: float, c, m: Monomial) -> float:
    """Transport an error value to the coordinate-scaled box: |c**alpha| * err;
    :func:`scale_point` maps the points."""
    return _transported(float(err), abs(_scaling(c, m)[1]), "err")


def scale_point(x, w: float, c, m: Monomial) -> tuple[np.ndarray, float]:
    """Companion map of :func:`scale_error` for one point: x_j -> c_j x_j, w -> c**alpha * w."""
    C, calpha = _scaling(c, m)
    return one_point(x, m.n) * C, _transported(float(w), calpha, "w")


# ---------------------------------------------------------------------------
# Structured domains
# ---------------------------------------------------------------------------

class Domain:
    """Base class for the structured domain families.

    Each family is described exactly by finitely many halfspaces A x <= b, and
    all membership queries reduce to those inequalities. What the bounds need
    to know about a family (is it a box, does it lie in the unit box, closed
    forms for monomial extremes and intercepts) is answered here, by the
    family, so no other module tests which family it holds.
    """

    n: int
    is_box = False  # True on the four axis-aligned box families
    symmetric = False  # True where every permutation of the coordinates maps the domain onto itself
    min_n = 1  # the least dimension of the family

    def __post_init__(self):
        # for the families given n; SubBox and CornerSimplexOne check their vectors.
        # The int, not a numpy integer, whose powers would wrap
        object.__setattr__(self, "n", require_count(self.n, "n", self.min_n))

    def require_monomial(self, m: Monomial) -> None:
        """A ``DimensionMismatch`` unless the monomial has the domain's dimension."""
        if m.n != self.n:
            raise DimensionMismatch(f"monomial of dimension {m.n}, domain of dimension {self.n}")

    def halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with the domain = {x : A x <= b}; read-only arrays shared by
        every equal domain value."""
        return _cached_halfspaces(self)

    def _halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def contains_many(self, X) -> np.ndarray:
        """Row mask of A x <= b + TOL_EXACT over a point or a stack of points."""
        P, _ = as_points(X, self.n)
        return by_blocks(self._contains_rows, P)

    def _contains_rows(self, P: np.ndarray) -> np.ndarray:
        A, b = self.halfspaces()
        # inf * 0 is nan and a sum of huge entries overflows; such rows fail, quietly
        with np.errstate(invalid="ignore", over="ignore"):
            return np.all(P @ A.T <= b + TOL_EXACT, axis=1)

    def contains(self, x) -> bool:
        return bool(self.contains_many(one_point(x, self.n))[0])

    def require_inside(self, X) -> None:
        """An ``OutsideDomain`` naming the first row of X outside the domain.

        A one-sided test answers first; only where it cannot vouch for every
        row does the row mask of :meth:`contains_many` decide."""
        P, _ = as_points(X, self.n)
        if self._surely_inside(P):
            return
        ok = self.contains_many(P)
        if not np.all(ok):
            raise OutsideDomain(f"point {P[~ok][0].tolist()} is outside {self}")

    def _surely_inside(self, P: np.ndarray) -> bool:
        """True only if every row of the (m, n) stack P lies in the domain;
        False says nothing."""
        return False

    def line_range(self, x, d):
        """Feasible parameter interval {t : x + t d in domain} (x feasible);
        per row when x or d is a stack of rows."""
        A, b = self.halfspaces()
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        # one matrix-vector product per row, so a row of a stack gets the
        # same bits as the row alone
        num = b - np.matmul(A, x[..., None])[..., 0]
        den = np.matmul(A, d[..., None])[..., 0]
        shape = np.broadcast_shapes(num.shape, den.shape)
        thi = np.min(np.divide(num, den, out=np.full(shape, np.inf),
                               where=den > 1e-14), axis=-1)
        tlo = np.max(np.divide(num, den, out=np.full(shape, -np.inf),
                               where=den < -1e-14), axis=-1)
        if thi.ndim == 0:
            return float(tlo), float(thi)
        return tlo, thi

    def vertices(self) -> np.ndarray:
        raise UnsupportedDomain(f"{type(self).__name__} has no vertex list")

    def inside_unit_box(self) -> bool:
        """Whether the domain lies in [0, 1]^n, read from its bounding box."""
        lo, hi = self.bounding_box()
        return bool(np.all(lo >= 0.0) and np.all(hi <= 1.0))

    def monomial_extreme(self, m: Monomial, sense: str) -> Optional[tuple[float, np.ndarray]]:
        """Closed-form (value, point) of the "min" or "max" of x**alpha over the
        domain, or None where the family has none."""
        return None

    def intercept_range(self, m: Monomial, beta: np.ndarray) -> tuple[float, float]:
        """(lo, hi) around the best valid intercept sigma(beta) of the
        underestimator sigma + beta.(x - 1) of x**alpha, for a domain inside
        the unit box (beta >= 1); lo == hi when the value is exact."""
        return 0.0, float(beta.sum())


@functools.lru_cache(maxsize=256)
def _cached_halfspaces(dom: Domain) -> tuple[np.ndarray, np.ndarray]:
    # keyed on the domain value, so an equal domain built afresh shares the entry
    A, b = dom._halfspaces()
    A.setflags(write=False)
    b.setflags(write=False)
    return A, b


def _box_vertices(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    n = len(lower)
    if n > VERTEX_ENUM_LIMIT:
        raise ScaleExceeded(f"vertex enumeration refused for n={n} (2^n blowup)")
    cols = [(lower[j], upper[j]) for j in range(n)]
    return np.array(list(itertools.product(*cols)), dtype=float)


@functools.lru_cache(maxsize=256)
def _box_range(dom: Domain) -> tuple[float, float]:
    # A box's rows A p <= b + TOL_EXACT say -(-l_j + TOL_EXACT) <= p_j <= u_j + TOL_EXACT,
    # so a stack whose every entry lies in [max of the left, min of the right] passes
    _, b = dom.halfspaces()
    n = dom.n
    return float((-(b[n:] + TOL_EXACT)).max()), float((b[:n] + TOL_EXACT).min())


class _BoxDomain(Domain):
    """Shared behavior for the four box families."""

    is_box = True

    def _halfspaces(self):
        lo, hi = self.bounding_box()
        eye = np.eye(self.n)
        return np.vstack([eye, -eye]), np.concatenate([hi, -lo])

    def _surely_inside(self, P):
        # the stack's range, one min and one max over the whole array: exact
        # where the limits are equal in every coordinate; a nan fails both
        lo, hi = _box_range(self)
        return P.size == 0 or (P.min() >= lo and P.max() <= hi)

    def vertices(self) -> np.ndarray:
        return _box_vertices(*self.bounding_box())

    def monomial_extreme(self, m, sense):
        lo, hi = self.bounding_box()
        # monotone increasing on the nonnegative orthant, which holds every
        # box but SymBox, and SymBox overrides this
        corner = hi if sense == "max" else lo
        return float(monomial_values(m, corner[None, :])[0]), corner


@dataclass(frozen=True)
class UnitBox(_BoxDomain):
    """[0, 1]^n."""

    n: int
    symmetric = True

    def bounding_box(self):
        return np.zeros(self.n), np.ones(self.n)

    def intercept_range(self, m, beta):
        # the all-ones vertex binds once beta >= alpha
        if np.all(beta >= np.asarray(m.alpha) - 1e-15):
            return 1.0, 1.0
        return 0.0, 1.0


@dataclass(frozen=True)
class SubBox(_BoxDomain):
    """An axis-aligned box inside the unit box: prod_j [lower_j, upper_j]."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        up = tuple(float(v) for v in self.upper)
        if len(lo) != len(up) or len(lo) == 0:
            raise ValueError("lower/upper must be nonempty vectors of equal length")
        for l, u in zip(lo, up):
            if not (0.0 <= l <= u <= 1.0):
                raise ValueError(f"need 0 <= lower <= upper <= 1, got [{l}, {u}]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def n(self) -> int:
        return len(self.lower)

    def bounding_box(self):
        return np.asarray(self.lower, dtype=float), np.asarray(self.upper, dtype=float)


@dataclass(frozen=True)
class RatioBox(_BoxDomain):
    """[1, r]^n with finite r > 1 (constant upper/lower ratio in every coordinate)."""

    n: int
    r: float
    symmetric = True

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "r", box_ratio(self.r))

    def bounding_box(self):
        return np.ones(self.n), np.full(self.n, self.r)


@dataclass(frozen=True)
class SymBox(_BoxDomain):
    """[-1, 1]^n."""

    n: int
    symmetric = True

    def bounding_box(self):
        return -np.ones(self.n), np.ones(self.n)

    def monomial_extreme(self, m, sense):
        point = np.ones(m.n)
        if sense == "max":
            return 1.0, point
        odd = [i for i, a in enumerate(m.alpha) if a % 2 == 1]
        if odd:
            point[odd[0]] = -1.0
            return -1.0, point
        point[0] = 0.0
        return 0.0, point


@dataclass(frozen=True)
class StdSimplex(Domain):
    """{x >= 0 : sum_j x_j <= 1}."""

    n: int
    symmetric = True

    def _halfspaces(self):
        n = self.n
        A = np.vstack([-np.eye(n), np.ones((1, n))])
        b = np.concatenate([np.zeros(n), [1.0]])
        return A, b

    def bounding_box(self):
        return np.zeros(self.n), np.ones(self.n)

    def vertices(self) -> np.ndarray:
        return np.vstack([np.zeros(self.n), np.eye(self.n)])

    def monomial_extreme(self, m, sense):
        if sense == "min":
            return 0.0, np.zeros(m.n)
        # stationary point of the product on the unit-sum face
        point = np.asarray(m.alpha, dtype=float) / m.degree
        return simplex_peak(m)[1], point


@dataclass(frozen=True)
class CornerSimplexOne(Domain):
    """Simplex cornered at the all-ones point: conv{1, 1 - lam_i e_i}.

    Equivalently {x <= 1 : sum_j x_j/lam_j >= sum_j 1/lam_j - 1} with
    0 < lam_j <= 1.
    """

    lam: tuple[float, ...]

    def __post_init__(self):
        lam = tuple(float(v) for v in self.lam)
        if len(lam) == 0:
            raise ValueError("lam must be nonempty")
        for v in lam:
            if not (0.0 < v <= 1.0):
                raise ValueError(f"need 0 < lam_j <= 1, got {v}")
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return len(self.lam)

    def _halfspaces(self):
        n = self.n
        inv = 1.0 / np.asarray(self.lam)
        A = np.vstack([np.eye(n), -inv[None, :]])
        b = np.concatenate([np.ones(n), [1.0 - float(inv.sum())]])
        return A, b

    def bounding_box(self):
        return 1.0 - np.asarray(self.lam), np.ones(self.n)

    def vertices(self) -> np.ndarray:
        return np.vstack([np.ones(self.n), 1.0 - np.diag(self.lam)])

    def monomial_extreme(self, m, sense):
        if sense == "max":
            return 1.0, np.ones(m.n)
        vals = [(1.0 - self.lam[i]) ** m.alpha[i] for i in range(m.n)]
        i = int(np.argmin(vals))
        point = np.ones(m.n)
        point[i] = 1.0 - self.lam[i]
        return float(vals[i]), point


@dataclass(frozen=True)
class ComplementSimplex(Domain):
    """conv({0,1}^n minus the all-ones point) = {x in [0,1]^n : sum x_j <= n-1}."""

    n: int
    symmetric = True
    min_n = 2

    def _halfspaces(self):
        n = self.n
        eye = np.eye(n)
        A = np.vstack([eye, -eye, np.ones((1, n))])
        b = np.concatenate([np.ones(n), np.zeros(n), [float(n - 1)]])
        return A, b

    def bounding_box(self):
        return np.zeros(self.n), np.ones(self.n)

    def vertices(self) -> np.ndarray:
        # the unit box's vertices in their order, whose last is the all-ones point
        return _box_vertices(*self.bounding_box())[:-1]

    def intercept_range(self, m, beta):
        v = float(beta.min())
        return v, v


# ---------------------------------------------------------------------------
# Error reports
# ---------------------------------------------------------------------------

class Verdict(Enum):
    TIGHT = "TIGHT"
    VALID_UPPER = "VALID_UPPER"
    VIOLATED = "VIOLATED"


@dataclass(frozen=True)
class ErrorReport:
    """A computed bound next to an oracle measurement of the same error."""

    bound_value: float
    measured_value: float
    attainment_points: tuple
    abs_gap: float
    verdict: Verdict
    tolerance: float = TOL_ORACLE
    grid: Optional[object] = None  # GridSpec used by the oracle, if any

    @property
    def ok(self) -> bool:
        return self.verdict is not Verdict.VIOLATED


def error_report(bound: float, measured: float, points: Sequence = (),
                 tol: float = TOL_ORACLE, grid=None) -> ErrorReport:
    """Classify a measurement against a bound at the given tolerance.

    A ``nan`` measurement or bound, or a ``nan``, negative or infinite
    tolerance, raises ``ValueError``: every comparison with ``nan`` is false,
    which would read as ``VALID_UPPER``, and an infinite tolerance makes every
    verdict ``TIGHT``. An infinite bound is allowed.
    """
    if math.isnan(measured) or math.isnan(bound):
        raise ValueError(f"cannot classify a nan measurement or bound "
                         f"(measured={measured}, bound={bound})")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    if measured > bound + tol:
        verdict = Verdict.VIOLATED
    elif abs(measured - bound) <= tol:
        verdict = Verdict.TIGHT
    else:
        verdict = Verdict.VALID_UPPER
    pts = tuple(np.asarray(p, dtype=float) for p in points)
    return ErrorReport(
        bound_value=float(bound),
        measured_value=float(measured),
        attainment_points=pts,
        abs_gap=abs(float(bound) - float(measured)),
        verdict=verdict,
        tolerance=tol,
        grid=grid,
    )
