"""Facet description of the multilinear-monomial hull over the symmetric box.

The hull of {(x, w) in [-1,1]^(n+1) : w = x_1...x_n} is cut out by one
parity inequality per odd subset of the n+1 coordinates (w counted as
coordinate n+1), together with the box bounds. Facets are stored as subset
bitmasks. A ``FacetSystem`` is always the full hull, as its facets follow from
n: its envelope bounds are the closed-form envelopes of :mod:`monoenv.envelopes`,
membership is one product with the facet sign matrix, and the parsers accept
only the full facet set.
"""

from __future__ import annotations

import functools
import io
import math
import re
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import envelopes, lp
from .core import TOL_EXACT, ScaleExceeded, SymBox, one_point, require_count

FACET_ENUM_LIMIT = 20


@dataclass(frozen=True)
class SignedSubsetInequality:
    """sum_{i in I} z_i - sum_{i not in I} z_i >= -(n-1) over z in R^(n+1).

    ``mask`` encodes I as a bitmask over coordinates 1..n+1 (bit i-1 for
    coordinate i); |I| is odd. The inequality cuts exactly the +/-1 point
    whose -1 entries are the coordinates in I.
    """

    mask: int
    n: int
    sense: ClassVar[str] = "GE"

    @property
    def rhs(self) -> float:
        return -(self.n - 1.0)

    def subset(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n + 1) if (self.mask >> i) & 1)


@dataclass(frozen=True)
class FacetSystem:
    """All 2^n parity facets for one dimension n, plus the implied [-1,1] box;
    equal by n, with the facets built from n on first use."""

    n: int

    def __post_init__(self):
        require_count(self.n, "n", 1)
        if self.n > FACET_ENUM_LIMIT:
            raise ScaleExceeded(f"facet enumeration refused for n={self.n}: 2^{self.n} facets; "
                                "use the closed-form envelope evaluation instead")

    @property
    def nvars(self) -> int:
        return self.n + 1

    @functools.cached_property
    def facets(self) -> tuple[SignedSubsetInequality, ...]:
        return tuple(SignedSubsetInequality(mask=mask, n=self.n)
                     for mask in range(1, 2 ** self.nvars)
                     if bin(mask).count("1") % 2 == 1)

    @functools.cached_property
    def _signs(self) -> np.ndarray:
        masks = np.array([f.mask for f in self.facets], dtype=np.int64)
        bits = (masks[:, None] >> np.arange(self.nvars)) & 1
        signs = (2 * bits - 1).astype(float)
        signs.setflags(write=False)
        return signs

    def sign_matrix(self) -> np.ndarray:
        """Facet coefficient rows (+1 on the subset, -1 off it); read-only."""
        return self._signs

    def to_ub(self) -> tuple[np.ndarray, np.ndarray]:
        """Inequalities as A z <= b (facet rows only, box handled separately)."""
        A = -self.sign_matrix()
        b = np.full(len(A), self.n - 1.0)
        return A, b

    @functools.cached_property
    def envelope_bounds(self) -> envelopes.Envelope:
        """Implied range [lo(x), hi(x)] of the lifted coordinate at each x in
        [-1,1]^n: facets containing coordinate n+1 bound w from below, the
        others from above, and both reduce to the closed form."""
        return envelopes.symbox_bounds(self.n)

    @functools.cached_property
    def envelope_lower(self) -> envelopes.Envelope:
        return envelopes.Envelope(SymBox(self.n), lambda X: self.envelope_bounds.value(X)[0])

    @functools.cached_property
    def envelope_upper(self) -> envelopes.Envelope:
        return envelopes.Envelope(SymBox(self.n), lambda X: self.envelope_bounds.value(X)[1])


def build_symbox_hull(n: int) -> FacetSystem:
    """``FacetSystem(n)``: the 2**n odd-subset parity inequalities over n+1 coordinates."""
    return FacetSystem(n)


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    violated: tuple[SignedSubsetInequality, ...]
    box_violations: tuple[int, ...]


def hull_membership(fs: FacetSystem, x, w: float) -> MembershipResult:
    """Check one point (x, w) against the box and every parity facet within ``TOL_EXACT``.

    Raises ``DimensionMismatch`` for more than one point and ``ValueError``
    for a non-finite coordinate.
    """
    z = np.append(one_point(x, fs.n), float(w))
    if not np.all(np.isfinite(z)):
        raise ValueError(f"hull_membership needs finite (x, w), got {z.tolist()}")
    box_bad = tuple(i + 1 for i, v in enumerate(z) if abs(v) > 1.0 + TOL_EXACT)
    ok = fs.sign_matrix() @ z >= -(fs.n - 1.0) - TOL_EXACT
    violated = tuple(fs.facets[i] for i in np.flatnonzero(~ok))
    return MembershipResult(member=not box_bad and not violated,
                            violated=violated, box_violations=box_bad)


# ---------------------------------------------------------------------------
# Integrality verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegralityReport:
    n: int
    trials: int
    seed: int
    max_value_gap: float
    constructive_all_pm1_even: bool
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0 and self.constructive_all_pm1_even


def constructive_maximizer(c) -> tuple[np.ndarray, float]:
    """Closed-form maximizer of c.z over the parity polytope.

    Sets z = -1 on the negative-coefficient coordinates, fixing parity with a
    zero coordinate when one exists and otherwise by flipping the coordinate
    of least |c|. The result is a +/-1 vector with an even number of -1s.
    """
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError(f"constructive_maximizer needs a finite c, got {c.tolist()}")
    z = np.ones(len(c))
    neg = np.flatnonzero(c < 0.0)
    zero = np.flatnonzero(c == 0.0)
    z[neg] = -1.0
    if len(neg) % 2 == 1:
        if len(zero) > 0:
            z[zero[0]] = -1.0
        else:
            j = int(np.argmin(np.abs(c)))
            z[j] = -z[j]
    return z, float(c @ z)


def verify_integrality(n: int, trials: int = 1000, seed: int = 42) -> IntegralityReport:
    """Check that optimizing any direction over the facet system lands on a
    +/-1 point with even -1 parity, by comparing the closed-form maximizer
    against the dense LP solver on seeded random objectives."""
    if require_count(n, "n", 1) > 6:
        raise ScaleExceeded(f"integrality verification supports n <= 6, got {n}")
    require_count(trials, "trials", 1)
    require_count(seed, "seed", 0)
    fs = build_symbox_hull(n)
    A_ub, b_ub = fs.to_ub()
    lower = -np.ones(fs.nvars)
    upper = np.ones(fs.nvars)
    max_gap = 0.0
    failures = 0
    all_pm1_even = True
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        c = rng.standard_normal(fs.nvars)
        if rng.random() < 0.25:
            kill = rng.integers(0, fs.nvars)
            c[kill] = 0.0
        z_con, v_con = constructive_maximizer(c)
        if not (np.all(np.abs(np.abs(z_con) - 1.0) < 1e-12)
                and int((z_con < 0).sum()) % 2 == 0
                and hull_membership(fs, z_con[:-1], z_con[-1]).member):
            all_pm1_even = False
        _, v_lp = lp.solve_box_lp(c, A_ub, b_ub, lower, upper, maximize=True)
        gap = abs(v_lp - v_con)
        max_gap = max(max_gap, gap)
        if gap > 1e-9:
            failures += 1
    return IntegralityReport(n=n, trials=trials, seed=seed, max_value_gap=max_gap,
                             constructive_all_pm1_even=all_pm1_even, failures=failures)


# ---------------------------------------------------------------------------
# Facet export / import
# ---------------------------------------------------------------------------

def export_facets_text(fs: FacetSystem) -> str:
    """One line per facet: ``I={i,...} sense=GE rhs=-(n-1)``, with a header."""
    out = io.StringIO()
    out.write(f"# symbox-hull n={fs.n} facets={len(fs.facets)}\n")
    for f in fs.facets:
        idx = ",".join(str(i) for i in f.subset())
        out.write(f"I={{{idx}}} sense={f.sense} rhs={f.rhs:.9g}\n")
    return out.getvalue()


def export_facets_csv(fs: FacetSystem) -> str:
    out = io.StringIO()
    out.write("mask,sense,rhs\n")
    for f in fs.facets:
        out.write(f"{f.mask},{f.sense},{f.rhs:.9g}\n")
    return out.getvalue()


_TEXT_HEADER = re.compile(r"#\s*symbox-hull\s+n=(\d+)\s+facets=(\d+)")
_TEXT_LINE = re.compile(r"I=\{([\d,]*)\}\s+sense=(\w+)\s+rhs=(\S+)")


def _full_hull(n: int, rows: list[tuple[int, str, float]]) -> FacetSystem:
    """The hull for parsed (mask, sense, rhs) rows, which must be exactly its
    2^n odd-subset facets, each ``GE`` with rhs -(n-1), in any order."""
    fs = FacetSystem(n)
    for mask, sense, rhs in rows:
        if sense != "GE":
            raise ValueError(f"unknown facet sense {sense!r}; facets are GE")
        if rhs != -(n - 1.0):
            raise ValueError(f"facet rhs {rhs!r} is not -(n-1) = {1.0 - n:g}")
    want = [f.mask for f in fs.facets]
    got = sorted(mask for mask, _, _ in rows)
    if got != want:
        extra = sorted(set(got) - set(want))
        if extra:
            raise ValueError(f"mask {extra[0]} is not an odd subset of the "
                             f"{n + 1} coordinates")
        raise ValueError(f"facet set is not the full hull: need each of the 2^{n} "
                         f"odd subsets once, got {len(set(got))} distinct in {len(got)} rows")
    return fs


def _nonblank_lines(text: str) -> list[str]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty facet input")
    return lines


def parse_facets_text(text: str) -> FacetSystem:
    """Parse :func:`export_facets_text` output; only the full hull is accepted."""
    lines = _nonblank_lines(text)
    m = _TEXT_HEADER.fullmatch(lines[0])
    if not m:
        raise ValueError("missing facet header line")
    n = int(m.group(1))
    rows = []
    for ln in lines[1:]:
        g = _TEXT_LINE.fullmatch(ln)
        if not g:
            raise ValueError(f"bad facet line: {ln!r}")
        idx = [int(s) for s in g.group(1).split(",") if s]
        if len(set(idx)) != len(idx) or not all(1 <= i <= n + 1 for i in idx):
            raise ValueError(f"facet subset outside 1..{n + 1} or repeated: {ln!r}")
        mask = sum(1 << (i - 1) for i in idx)
        rows.append((mask, g.group(2), float(g.group(3))))
    if len(rows) != int(m.group(2)):
        raise ValueError("facet count disagrees with header")
    return _full_hull(n, rows)


def parse_facets_csv(text: str) -> FacetSystem:
    """Parse :func:`export_facets_csv` output; only the full hull is accepted."""
    lines = _nonblank_lines(text)
    if lines[0] != "mask,sense,rhs":
        raise ValueError("missing csv header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ValueError(f"bad csv row: {ln!r}")
        rows.append((int(parts[0]), parts[1], float(parts[2])))
    if not rows or not math.isfinite(rows[0][2]):
        raise ValueError("csv needs facet rows with a finite rhs")
    # n from the rhs column: rhs = -(n-1)
    n = int(round(-rows[0][2])) + 1
    return _full_hull(n, rows)
