"""Closed-form envelopes and linear underestimators over the structured domains.

All evaluators accept a single point or a stack of points (rows) and validate
domain membership up front. Pure functions over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    TOL_EXACT,
    CornerSimplexOne,
    ComplementSimplex,
    DimensionMismatch,
    Domain,
    Monomial,
    RatioBox,
    StdSimplex,
    SubBox,
    SymBox,
    UnitBox,
    UnsupportedDomain,
    as_points,
)


@dataclass(frozen=True)
class LinearUnderestimator:
    """An affine minorant ell(x) = intercept + sum_j beta_j (x_j - 1), beta >= 1."""

    beta: tuple[float, ...]
    intercept: float

    def __post_init__(self):
        beta = tuple(float(b) for b in self.beta)
        if len(beta) == 0:
            raise ValueError("beta must be nonempty")
        if any(b < 1.0 for b in beta):
            raise ValueError("beta must be >= 1 componentwise")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "intercept", float(self.intercept))

    @property
    def n(self) -> int:
        return len(self.beta)

    def degree_beta(self) -> float:
        return float(sum(self.beta))


def underestimator_value(u: LinearUnderestimator, x) -> float | np.ndarray:
    """intercept + sum_j beta_j (x_j - 1)."""
    X, single = as_points(x, u.n)
    vals = u.intercept + np.einsum("ij,j->i", X - 1.0, np.asarray(u.beta))
    return float(vals[0]) if single else vals


def concave_env_unitbox(m: Monomial, x) -> float | np.ndarray:
    """Concave envelope of x**alpha over [0,1]^n: min_j x_j (any alpha >= 1)."""
    X, single = as_points(x, m.n)
    UnitBox(m.n).require_inside(X)
    vals = np.min(X, axis=-1)
    return float(vals[0]) if single else vals


def convex_env_unitbox_multilinear(n: int, x) -> float | np.ndarray:
    """Convex envelope of x_1...x_n over [0,1]^n: max{0, 1 + sum_j (x_j - 1)}."""
    X, single = as_points(x, n)
    UnitBox(n).require_inside(X)
    vals = np.maximum(0.0, 1.0 + np.sum(X - 1.0, axis=-1))
    return float(vals[0]) if single else vals


def gamma_vector(m: Monomial, dom: Domain) -> np.ndarray:
    """Degree-reducing exponent surrogate built from coordinate projections.

    For each i let [.., 1 - s_i] be the projection of the domain onto x_i;
    gamma_i = (1 - (1-s_i)**alpha_i)/s_i when s_i > 0 and alpha_i otherwise.
    Satisfies 1 <= gamma <= alpha with gamma_i < alpha_i exactly when s_i > 0.
    """
    if dom.n != m.n:
        raise DimensionMismatch(f"domain dimension {dom.n} != monomial dimension {m.n}")
    if isinstance(dom, (RatioBox, SymBox)):
        raise UnsupportedDomain("gamma requires a domain inside the unit box")
    if isinstance(dom, SubBox):
        upper = dom.upper_vec()
    elif isinstance(dom, (UnitBox, StdSimplex, ComplementSimplex, CornerSimplexOne)):
        # Coordinate projections of these families all reach 1 from within [0,1].
        upper = np.ones(m.n)
    else:
        raise UnsupportedDomain(f"unsupported domain family {type(dom).__name__}")
    sigma2 = 1.0 - upper
    gamma = np.empty(m.n)
    for i, (s, a) in enumerate(zip(sigma2, m.alpha)):
        if s <= 0.0:
            gamma[i] = float(a)
        else:
            gamma[i] = (1.0 - (1.0 - s) ** a) / s
    return gamma


def underestimator_necessary(m: Monomial, dom: Domain, beta) -> bool:
    """Necessary conditions for ``1 + beta.(x-1)`` to underestimate x**alpha.

    Checks only coordinates whose unit-box edge at the all-ones vertex meets
    the domain; there the slope beta_i must lie in a computable window. The
    test is necessary, not sufficient.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (m.n,):
        raise DimensionMismatch(f"beta must have dimension {m.n}")
    if np.any(beta < 1.0):
        raise ValueError("beta must be >= 1 componentwise")
    if isinstance(dom, UnitBox):
        lower, upper = np.zeros(m.n), np.ones(m.n)
    elif isinstance(dom, SubBox):
        lower, upper = dom.lower_vec(), dom.upper_vec()
    else:
        raise UnsupportedDomain("edge test needs a box inside the unit box")
    gamma = gamma_vector(m, dom)
    for i in range(m.n):
        if beta[i] > m.alpha[i]:
            continue
        # For boxes the edge at the all-ones vertex realizes the coordinate
        # projection, so the gamma window is the binding necessary condition.
        on_edge = all(upper[j] >= 1.0 - TOL_EXACT for j in range(m.n) if j != i)
        meets_relint = lower[i] < 1.0 and upper[i] > 0.0
        if not (on_edge and meets_relint):
            continue
        if beta[i] < gamma[i] - TOL_EXACT:
            return False
    return True


def concave_env_ratiobox(n: int, r: float, x) -> float | np.ndarray:
    """Concave envelope of x_1...x_n over [1,r]^n.

    Sorting descending, the envelope is sum_j r**(j-1) x_(j) minus
    sum_{j=1}^{n-1} r**j: the largest weight goes to the smallest coordinate,
    which is the minimizing assignment among all permutations.
    """
    X, single = as_points(x, n)
    RatioBox(n, r).require_inside(X)
    asc = np.sort(X, axis=-1)
    coeffs = np.array([float(r) ** (n - 1 - k) for k in range(n)])
    vals = np.einsum("ij,j->i", asc, coeffs) - sum(float(r) ** j for j in range(1, n))
    return float(vals[0]) if single else vals


def convex_env_ratiobox(n: int, r: float, x) -> float | np.ndarray:
    """Convex envelope of x_1...x_n over [1,r]^n: an n-piece max of affine cuts."""
    X, single = as_points(x, n)
    RatioBox(n, r).require_inside(X)
    s = np.sum(X, axis=-1)
    pieces = [float(r) ** (i - 1) * (s - (n - i) - float(r) * (i - 1)) for i in range(1, n + 1)]
    vals = np.max(np.stack(pieces, axis=-1), axis=-1)
    return float(vals[0]) if single else vals


def symbox_lo_hi(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convex and concave envelope values of x_1...x_n over [-1,1]^n, per row.

    The binding signed subset flips signs on the negative coordinates and,
    when their count has the wrong parity, sacrifices the smallest magnitude:
    lo = tot - k - (n-1) and hi = 2 min|x_j| - k - tot + (n-1), clipped to
    [-1, 1], where tot = sum |x_j| and k = 2 min|x_j| when oddly many x_j < 0
    (else 0). No domain check; the rows must lie in the box.
    """
    n = X.shape[-1]
    absX = np.abs(X)
    tot = np.add.reduce(absX, axis=-1)
    sm2 = 2.0 * np.minimum.reduce(absX, axis=-1)
    k = np.logical_xor.reduce(X < 0, axis=-1) * sm2
    lo = np.maximum(tot - k - (n - 1), -1.0)
    hi = np.minimum(sm2 - k - tot + (n - 1), 1.0)
    return lo, hi


def envelopes_symbox(n: int, x) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Convex and concave envelope values of x_1...x_n over [-1,1]^n.

    Returns (lo, hi) with lo <= f(x) <= hi; both are exact envelope values of
    the multilinear monomial.
    """
    X, single = as_points(x, n)
    SymBox(n).require_inside(X)
    lo, hi = symbox_lo_hi(X)
    if single:
        return float(lo[0]), float(hi[0])
    return lo, hi
