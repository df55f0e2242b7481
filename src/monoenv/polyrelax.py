"""Polynomial-level gap bounds from relaxing each monomial with its hull.

Degree-0 and degree-1 terms pass through convexification exactly, so they are
excluded from the worst-case coefficient max (their envelope gap is zero).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as _bounds
from .core import (Domain, Monomial, ScaleExceeded, UnitBox, as_points, monomial_values,
                   require_count)


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
        n = require_count(self.n, "n", 0)
        merged: dict[tuple[int, ...], float] = {}
        for coeff, alpha in self.terms:
            if len(alpha) != n:
                raise ValueError(f"exponent vector {alpha} must have length {n}")
            key = tuple(require_count(a, "exponent", 0) for a in alpha)
            merged[key] = merged.get(key, 0.0) + float(coeff)
            if not math.isfinite(merged[key]):
                raise ValueError(f"non-finite coefficient {merged[key]!r} for exponents {key}")
        cleaned = tuple(
            (c, a) for a, c in sorted(merged.items()) if c != 0.0
        )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", cleaned)

    @property
    def total_degree(self) -> int:
        return max((sum(a) for _, a in self.terms), default=0)

    def is_multilinear(self) -> bool:
        return all(all(e in (0, 1) for e in a) for _, a in self.terms)

    def evaluate(self, X) -> float | np.ndarray:
        """Value at a point, or per row of a stack; each term is
        :func:`monomial_values` of its monomial on the variables it uses."""
        P, single = as_points(X, self.n)
        out = np.zeros(P.shape[0])
        for coeff, alpha in self.terms:
            support = [j for j, e in enumerate(alpha) if e > 0]
            if support:
                out += coeff * monomial_values(Monomial(tuple(alpha[j] for j in support)),
                                               P[:, support])
            else:
                out += coeff
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
    m = p.total_degree
    count = math.comb(p.n + m, p.n)
    if count > sys.float_info.max:
        raise ScaleExceeded(f"the monomial count C(n+m, n) for n={p.n}, m={m} overflows a float")
    lp = lprime(p)
    tight = lp * count
    if m >= 2:
        cheap = max(abs(c) for c, _ in p.terms) * _bounds.c1(m) * count
    else:
        cheap = 0.0
    return GapBound(tight=tight, cheap=cheap, monomial_count_bound=count,
                    sharp=lp * len(p.terms))


def _stirling_tail(z: int) -> float:
    """log z! - ((z + 1/2) log z - z + log(2 pi)/2): by lgamma below 10, and
    from there by Stirling's series, 1/(12 z) - 1/(360 z^3) + ..."""
    if z < 10:
        return math.lgamma(z + 1) - (z + 0.5) * math.log(z) + z - 0.5 * math.log(2 * math.pi)
    y, y2 = 1 / z, 1 / z ** 2
    return y * (1 / 12 - y2 * (1 / 360 - y2 * (1 / 1260 - y2 * (
        1 / 1680 - y2 * (1 / 1188 - y2 * (691 / 360360 - y2 / 156))))))


def _rate(x: float) -> float:
    """((1 + x) log1p(x) - x)/x^2 = 1/2 - x/6 + x^2/12 - ..., by that series below 1e-4."""
    if x < 1e-4:
        return 0.5 - x * (1 / 6 - x * (1 / 12 - x / 20))
    return (math.log1p(x) + _bounds._lm(x) / x) / x


def hierarchy_threshold(n: int, m: int) -> float:
    """Degree scaling a competing 1/delta-converging bound needs before it
    beats per-monomial convexification on unit-coefficient polynomials.

    Two equivalent closed forms exist; this evaluates the product form
    m^2 (m+1) / (6 m^(1/(1-m)) prod_k (1 + k/n)) in the log domain. By
    Stirling, log prod_{k=1}^m (1 + k/n) = q rate(x) + log1p(x)/2 plus a
    difference of series tails, x = m/n, q = m^2/n: nothing cancels, the cost
    does not grow with m, and no integer becomes a float, so any n and m work.
    The threshold is 0.0 where it underflows, so at once when q >= 2^1023
    (log prod then exceeds 1e150), and ``ScaleExceeded`` where it overflows.
    """
    n, m = require_count(n, "n", 1), require_count(m, "m", 2)
    if m * m // n >= 2 ** 1023:
        return 0.0
    x = m / n
    log_prod = (m * m / n * _rate(x) + 0.5 * math.log1p(x)
                + _stirling_tail(n + m) - _stirling_tail(n))
    log_val = (2 * math.log(m) + math.log(m + 1) - math.log(6.0) - _bounds._log_peak(m)
               - log_prod)
    if log_val > _bounds._LOG_MAX:
        raise ScaleExceeded(f"the hierarchy threshold for n={n}, m={m} overflows a float")
    return math.exp(log_val)


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
    z, val = solve_box_lp(c, A_ub, rhs, np.zeros(nv), np.ones(nv), maximize=False)
    return float(val + const), z[:n]


def certify_gap_small_instance(p: Polynomial, dom: Domain) -> CertifyReport:
    """Measure the actual convexification gap of a small multilinear instance
    and compare it with the computed ``tight`` bound.

    A multilinear polynomial attains its box minimum at a vertex, so z* comes
    from exact vertex enumeration; z_mon is the exact LP minimum of the
    envelope-substituted objective. Both are deterministic, which keeps the
    guaranteed sign of the gap (z_mon <= z*) free of grid noise.
    """
    if dom != UnitBox(p.n):
        raise ValueError(f"certification is defined over the unit box of dimension {p.n}")
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

def parse_polynomial_text(text: str) -> Polynomial:
    """Parse the line format ``coeff exp1 exp2 ... expn`` (# starts a comment)."""
    terms = []
    width = None
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
        terms = tuple((float(t["coeff"]), tuple(t["alpha"])) for t in data["terms"])
        n = data["n"]
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
