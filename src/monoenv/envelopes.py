"""Closed-form envelopes and linear underestimators over the structured domains.

Each closed-form envelope is an :class:`Envelope`, its domain and an unchecked
``value``; calling it, as the ``*_env_*`` functions do, checks a point or a
stack of points (rows) first. Pure functions over immutable inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Domain,
    Monomial,
    RatioBox,
    ScaleExceeded,
    SymBox,
    UnitBox,
    UnsupportedDomain,
    as_points,
    by_blocks,
    exponent_float,
    fold_columns,
    slopes,
)


@dataclass(frozen=True)
class LinearUnderestimator:
    """An affine minorant ell(x) = intercept + sum_j beta_j (x_j - 1), beta >= 1."""

    beta: tuple[float, ...]
    intercept: float

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(slopes(self.beta).tolist()))
        object.__setattr__(self, "intercept", float(self.intercept))
        if not np.isfinite(self.intercept):
            raise ValueError(f"intercept must be finite, got {self.intercept}")

    @property
    def n(self) -> int:
        return len(self.beta)


def underestimator_value(u: LinearUnderestimator, x) -> float | np.ndarray:
    """intercept + sum_j beta_j (x_j - 1), the one evaluator of such a cut: on
    row-major shifted points, so a row of a column-major grid gets its bits alone."""
    X, single = as_points(x, u.n)
    vals = u.intercept + np.einsum("ij,j->i", np.ascontiguousarray(X - 1.0), np.asarray(u.beta))
    return float(vals[0]) if single else vals


@dataclass(frozen=True)
class Envelope:
    """A closed-form envelope: ``value(X)`` on an (m, n) array whose rows the
    caller knows lie in ``dom``, and a call that checks them first. Called on
    a single point it gives a float, or a tuple of floats for a pair.
    ``symmetric`` declares ``value`` invariant under coordinate permutations
    (a row sum up to its last bits), which needs a ``Domain.symmetric`` dom,
    else a ``ValueError``; ``oracle.grid_maximize`` reads it (see there)."""

    dom: Domain
    value: Callable[[np.ndarray], np.ndarray | tuple[np.ndarray, ...]]
    symmetric: bool = False

    def __post_init__(self):
        if self.symmetric and not self.dom.symmetric:
            raise ValueError(f"{self.dom} is not symmetric, so no envelope over it is")

    def __call__(self, x):
        X, single = as_points(x, self.dom.n)
        self.dom.require_inside(X)
        out = by_blocks(self.value, X)
        if not single:
            return out
        return tuple(float(v[0]) for v in out) if type(out) is tuple else float(out[0])


# The builders are pure, so each public ``*_env_*`` call reuses its built
# envelope. Typed, because 2 == 2.0 == True: an untyped cache would hand
# concave_ratiobox(2.0, r) the envelope built for (2, r) instead of raising,
# as the builder does.
_built_once = functools.lru_cache(maxsize=64, typed=True)


@_built_once
def concave_unitbox(m: Monomial) -> Envelope:
    """Concave envelope of x**alpha over [0,1]^n: min_j x_j (any alpha >= 1)."""
    return Envelope(UnitBox(m.n), lambda X: fold_columns(np.minimum, X), symmetric=True)


def concave_env_unitbox(m: Monomial, x) -> float | np.ndarray:
    return concave_unitbox(m)(x)


@_built_once
def convex_unitbox_multilinear(n: int) -> Envelope:
    """Convex envelope of x_1...x_n over [0,1]^n: max{0, 1 + sum_j (x_j - 1)}."""
    return Envelope(UnitBox(n), lambda X: np.maximum(0.0, 1.0 + np.sum(X - 1.0, axis=-1)),
                    symmetric=True)


def convex_env_unitbox_multilinear(n: int, x) -> float | np.ndarray:
    return convex_unitbox_multilinear(n)(x)


def gamma_vector(m: Monomial, dom: Domain) -> np.ndarray:
    """Degree-reducing exponent surrogate built from coordinate projections.

    For each i let [.., 1 - s_i] be the projection of the domain onto x_i;
    gamma_i = (1 - (1-s_i)**alpha_i)/s_i when s_i > 0 and alpha_i otherwise.
    Satisfies 1 <= gamma <= alpha with gamma_i < alpha_i exactly when s_i > 0;
    ``ScaleExceeded`` when a gamma_i = alpha_i is too large for a float.
    """
    dom.require_monomial(m)
    if not dom.inside_unit_box():
        raise UnsupportedDomain("gamma requires a domain inside the unit box")
    # the upper end of each coordinate projection is the bounding box's upper corner
    sigma2 = 1.0 - dom.bounding_box()[1]
    gamma = np.empty(m.n)
    for i, (s, a) in enumerate(zip(sigma2, map(exponent_float, m.alpha))):
        gamma[i] = (1.0 - (1.0 - s) ** a) / s if s > 0.0 else a
    if not np.all(gamma < np.inf):
        raise ScaleExceeded("an exponent gamma_i = alpha_i is too large for a float")
    return gamma


def _ratio_powers(dom: RatioBox) -> list[float]:
    """r**0, ..., r**(n-1) for the box [1, r]^n; ``ScaleExceeded`` when the
    top value r**n leaves the float range, since the monomial and both
    envelopes reach it at the top corner."""
    try:
        dom.r ** dom.n
    except OverflowError:
        raise ScaleExceeded(f"r**n overflows for n={dom.n}, r={dom.r}") from None
    return [dom.r ** k for k in range(dom.n)]


def _sorted_rows(X: np.ndarray) -> np.ndarray:
    """Each row of X sorted ascending, as a new row-major array: an odd-even
    transposition network of np.minimum/np.maximum over whole columns, so the
    work is n(n-1)/2 two-column passes instead of one short sort per row."""
    cols = [X[:, j] for j in range(X.shape[1])]
    for p in range(len(cols)):
        for i in range(p % 2, len(cols) - 1, 2):
            a, b = cols[i], cols[i + 1]
            cols[i], cols[i + 1] = np.minimum(a, b), np.maximum(a, b)
    return np.stack(cols, axis=1)


@_built_once
def concave_ratiobox(n: int, r: float) -> Envelope:
    """Concave envelope of x_1...x_n over [1,r]^n.

    Sorting descending, the envelope is sum_j r**(j-1) x_(j) minus
    sum_{j=1}^{n-1} r**j: the largest weight goes to the smallest coordinate,
    which is the minimizing assignment among all permutations.
    ``ScaleExceeded`` when r**n or that sum leaves the float range.
    """
    dom = RatioBox(n, r)
    powers = _ratio_powers(dom)
    coeffs = np.array(powers[::-1])
    shift = sum(powers[1:])
    if not math.isfinite(shift):
        raise ScaleExceeded(f"sum of r**j for j < n overflows for n={n}, r={dom.r}")
    return Envelope(dom, lambda X: np.einsum("ij,j->i", _sorted_rows(X), coeffs) - shift,
                    symmetric=True)


def concave_env_ratiobox(n: int, r: float, x) -> float | np.ndarray:
    return concave_ratiobox(n, r)(x)


@_built_once
def convex_ratiobox(n: int, r: float) -> Envelope:
    """Convex envelope of x_1...x_n over [1,r]^n: an n-piece max of affine cuts.
    ``ScaleExceeded`` when r**n leaves the float range."""
    dom = RatioBox(n, r)
    powers = _ratio_powers(dom)

    def value(X):
        s = np.sum(X, axis=-1)
        cuts = (powers[i - 1] * (s - (n - i) - dom.r * (i - 1)) for i in range(1, n + 1))
        vals = next(cuts)
        for cut in cuts:
            np.maximum(vals, cut, out=vals)
        return vals

    return Envelope(dom, value, symmetric=True)


def convex_env_ratiobox(n: int, r: float, x) -> float | np.ndarray:
    return convex_ratiobox(n, r)(x)


@_built_once
def symbox_bounds(n: int) -> Envelope:
    """Convex and concave envelopes of x_1...x_n over [-1,1]^n as one pair:
    its value is (lo, hi) per row, with lo <= f(x) <= hi.

    The binding signed subset flips signs on the negative coordinates and,
    when their count has the wrong parity, sacrifices the smallest magnitude:
    lo = tot - k - (n-1) and hi = 2 min|x_j| - k - tot + (n-1), clipped to
    [-1, 1], where tot = sum |x_j| and k = 2 min|x_j| when oddly many x_j < 0
    (else 0).
    """
    def value(X):
        absX = np.abs(X)
        tot = np.add.reduce(absX, axis=-1)
        sm2 = 2.0 * fold_columns(np.minimum, absX)
        k = fold_columns(np.not_equal, X < 0) * sm2
        return np.maximum(tot - k - (n - 1), -1.0), np.minimum(sm2 - k - tot + (n - 1), 1.0)

    return Envelope(SymBox(n), value, symmetric=True)


def envelopes_symbox(n: int, x) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    return symbox_bounds(n)(x)
