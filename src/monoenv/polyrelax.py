"""Polynomial-level gap bounds from relaxing each monomial with its hull.

Degree-0 and degree-1 terms pass through convexification exactly, so they are
excluded from the worst-case coefficient max (their envelope gap is zero).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bounds as _bounds
from .core import Domain, ScaleExceeded, UnitBox


@dataclass(frozen=True)
class Polynomial:
    """A finite sum of monomial terms (coefficient, exponent vector).

    Duplicate exponent vectors are merged and zero coefficients dropped at
    construction; coefficients must be finite, and exponents are nonnegative
    integers (a zero exponent means the variable does not appear in that
    term).
    """

    n: int
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self):
        merged: dict[tuple[int, ...], float] = {}
        for coeff, alpha in self.terms:
            if len(alpha) != self.n:
                raise ValueError(f"exponent vector {alpha} must have length {self.n}")
            key = tuple(int(a) for a in alpha)
            if any(a < 0 or float(b) != int(b) for a, b in zip(key, alpha)):
                raise ValueError(f"exponents must be nonnegative integers, got {alpha}")
            merged[key] = merged.get(key, 0.0) + float(coeff)
            if not math.isfinite(merged[key]):
                raise ValueError(f"non-finite coefficient {merged[key]!r} for exponents {key}")
        cleaned = tuple(
            (c, a) for a, c in sorted(merged.items()) if c != 0.0
        )
        object.__setattr__(self, "terms", cleaned)

    @property
    def total_degree(self) -> int:
        return max((sum(a) for _, a in self.terms), default=0)

    def is_multilinear(self) -> bool:
        return all(all(e in (0, 1) for e in a) for _, a in self.terms)

    def evaluate(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        out = np.zeros(X.shape[0])
        for coeff, alpha in self.terms:
            a = np.asarray(alpha)
            out += coeff * np.prod(np.power(X, a), axis=-1)
        return float(out[0]) if single else out


def lprime(p: Polynomial) -> float:
    """Signed worst-case coefficient scale:
    max{max_{c>0} c * c2(d), max_{c<0} -c * c1(d)} over terms of degree >= 2."""
    if len(p.terms) == 0:
        raise ValueError("empty polynomial")
    best = 0.0
    for coeff, alpha in p.terms:
        d = sum(alpha)
        if d < 2:
            continue  # exact under convexification
        if coeff > 0:
            best = max(best, coeff * _bounds.c2(d))
        else:
            best = max(best, -coeff * _bounds.c1(d))
    return best


@dataclass(frozen=True)
class GapBound:
    tight: float
    cheap: float
    monomial_count_bound: int
    sharp: float  # same constants but with the actual term count


def gap_bound(p: Polynomial) -> GapBound:
    """Additive gap bounds for per-monomial convexification over subsets of
    the unit box.

    ``tight`` = lprime * C(n+m, n); ``cheap`` replaces the signed max with the
    single largest |coefficient| times c1 at the total degree. ``sharp`` swaps
    the binomial count for the actual number of terms (reported as a
    non-default extra, not part of the guaranteed pair).
    """
    if len(p.terms) == 0:
        raise ValueError("empty polynomial")
    m = p.total_degree
    count = math.comb(p.n + m, p.n)
    lp = lprime(p)
    tight = lp * count
    if m >= 2:
        cheap = max(abs(c) for c, _ in p.terms) * _bounds.c1(m) * count
    else:
        cheap = 0.0
    return GapBound(tight=tight, cheap=cheap, monomial_count_bound=count,
                    sharp=lp * len(p.terms))


def log_gap_bound(p: Polynomial) -> tuple[float, float]:
    """(log tight, log cheap) via lgamma, for degree/dimension combinations
    whose binomial count overflows floats."""
    if len(p.terms) == 0:
        raise ValueError("empty polynomial")
    m = p.total_degree
    if m < 2:
        raise ValueError("log-domain bounds need total degree >= 2")
    logcount = (math.lgamma(p.n + m + 1) - math.lgamma(p.n + 1) - math.lgamma(m + 1))
    lp = lprime(p)
    cheap_scale = max(abs(c) for c, _ in p.terms) * _bounds.c1(m)
    return math.log(lp) + logcount, math.log(cheap_scale) + logcount


def hierarchy_threshold(n: int, m: int) -> float:
    """Degree scaling a competing 1/delta-converging bound needs before it
    beats per-monomial convexification on unit-coefficient polynomials.

    Two equivalent closed forms exist; this evaluates the product form
    m^2 (m+1) / (6 m^(1/(1-m)) prod_k (1 + k/n)) in the log domain.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if m < 2:
        raise ValueError("need m >= 2")
    log_prod = sum(math.log1p(k / n) for k in range(1, m + 1))
    log_val = (
        2 * math.log(m) + math.log(m + 1) - math.log(6.0)
        - math.log(m) / (1.0 - m) - log_prod
    )
    return math.exp(log_val)


def hierarchy_threshold_binomial(n: int, m: int) -> float:
    """The same threshold by its binomial/factorial form (identity check)."""
    if m < 2:
        raise ValueError("need m >= 2")
    return (
        math.comb(m + 1, 3) * float(n) ** m
        / (math.factorial(m) * _bounds.c1(m) * math.comb(n + m, n))
    )


@dataclass(frozen=True)
class CertifyReport:
    z_star: float
    z_mon: float
    gap: float
    tight_bound: float
    argmin_exact: np.ndarray
    argmin_relaxed: np.ndarray

    @property
    def passed(self) -> bool:
        return self.gap <= self.tight_bound + 1e-9 and self.gap >= -1e-6


def _relaxed_objective(p: Polynomial):
    """Pointwise envelope substitution: positive terms get the convex envelope
    of their monomial (restricted to the variables that appear), negative
    terms the concave envelope."""
    pos, neg, const = [], [], 0.0
    for coeff, alpha in p.terms:
        support = tuple(j for j, e in enumerate(alpha) if e > 0)
        if not support:
            const += coeff
        elif coeff > 0:
            pos.append((coeff, support))
        else:
            neg.append((coeff, support))

    def value(X: np.ndarray) -> np.ndarray:
        out = np.full(X.shape[0], const)
        for coeff, support in pos:
            out += coeff * np.maximum(0.0, 1.0 + np.sum(X[:, support] - 1.0, axis=-1))
        for coeff, support in neg:
            out += coeff * np.min(X[:, support], axis=-1)
        return out

    return value


def _relaxed_minimum_lp(p: Polynomial) -> tuple[float, np.ndarray]:
    """Exact minimum of the envelope-substituted objective over the unit box.

    The substitution is convex piecewise linear, so an epigraph LP computes
    it exactly: one variable above each positive term's hinge envelope, one
    below each negative term's min envelope.
    """
    from .lp import solve_box_lp

    n = p.n
    cx = np.zeros(n)
    const = 0.0
    pos, neg = [], []
    for coeff, alpha in p.terms:
        support = [j for j, e in enumerate(alpha) if e > 0]
        if not support:
            const += coeff
        elif len(support) == 1:
            cx[support[0]] += coeff  # linear terms are exact under substitution
        elif coeff > 0:
            pos.append((coeff, support))
        else:
            neg.append((coeff, support))

    nv = n + len(pos) + len(neg)
    c = np.concatenate([cx, [cf for cf, _ in pos], [cf for cf, _ in neg]])
    rows, rhs = [], []
    for k, (_, support) in enumerate(pos):
        # u_k >= 1 + sum_{j in support} (x_j - 1)
        row = np.zeros(nv)
        row[support] = 1.0
        row[n + k] = -1.0
        rows.append(row)
        rhs.append(len(support) - 1.0)
    for k, (_, support) in enumerate(neg):
        # v_k <= x_j for every j in support
        for j in support:
            row = np.zeros(nv)
            row[n + len(pos) + k] = 1.0
            row[j] = -1.0
            rows.append(row)
            rhs.append(0.0)
    A_ub = np.vstack(rows) if rows else np.zeros((0, nv))
    lower = np.concatenate([np.zeros(n), np.zeros(len(pos)), np.zeros(len(neg))])
    upper = np.concatenate([np.ones(n), np.ones(len(pos)), np.ones(len(neg))])
    z, val = solve_box_lp(c, A_ub, rhs, lower, upper, maximize=False)
    return float(val + const), z[:n]


def certify_gap_small_instance(p: Polynomial, dom: Domain) -> CertifyReport:
    """Measure the actual convexification gap of a small multilinear instance
    and compare it with the computed ``tight`` bound.

    A multilinear polynomial attains its box minimum at a vertex, so z* comes
    from exact vertex enumeration; z_mon is the exact LP minimum of the
    envelope-substituted objective. Both are deterministic, which keeps the
    guaranteed sign of the gap (z_mon <= z*) free of grid noise.
    """
    if not isinstance(dom, UnitBox):
        raise ValueError("certification is defined over the unit box")
    if not p.is_multilinear():
        raise ValueError("certification supports multilinear polynomials only")
    if p.n > 4:
        raise ScaleExceeded("certification supports n <= 4")

    verts = dom.vertices()
    vals = p.evaluate(verts)
    k = int(np.argmin(vals))
    z_star, x_star = float(vals[k]), verts[k]
    z_mon, x_mon = _relaxed_minimum_lp(p)
    return CertifyReport(
        z_star=z_star,
        z_mon=z_mon,
        gap=float(z_star - z_mon),
        tight_bound=gap_bound(p).tight,
        argmin_exact=x_star,
        argmin_relaxed=x_mon,
    )


# ---------------------------------------------------------------------------
# Input formats
# ---------------------------------------------------------------------------

def parse_polynomial_text(text: str, n: Optional[int] = None) -> Polynomial:
    """Parse the line format ``coeff exp1 exp2 ... expn`` (# starts a comment)."""
    terms = []
    width = n
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        coeff = float(parts[0])
        alpha = tuple(int(v) for v in parts[1:])
        if width is None:
            width = len(alpha)
        if len(alpha) != width:
            raise ValueError(f"inconsistent exponent width in line {raw!r}")
        terms.append((coeff, alpha))
    if width is None:
        raise ValueError("no terms found")
    return Polynomial(n=width, terms=tuple(terms))


def parse_polynomial_json(text: str) -> Polynomial:
    """Parse {"n": ..., "terms": [{"coeff": c, "alpha": [..]}, ...]}."""
    data = json.loads(text)
    try:
        terms = tuple((float(t["coeff"]), tuple(int(a) for a in t["alpha"]))
                      for t in data["terms"])
        n = int(data["n"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"polynomial JSON needs 'n' and 'terms' with 'coeff' and "
                         f"'alpha' entries: {exc!r}") from exc
    return Polynomial(n=n, terms=terms)


def load_polynomial(path: str) -> Polynomial:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return parse_polynomial_json(text)
    return parse_polynomial_text(text)
