"""The three workloads: seeded ops against the monoenv public API, each with
an independent reference check.

An op is one public library call whose result gets checked. Ops come in
fixed cycles: the slot order and dimensions of a cycle are the same for every
seed, and the seed only draws the values inside each slot (exponents, ratios,
points, polynomials). A run stops on a whole cycle, so every run of a
workload does the same mix of work and seeds differ only in values.

A check never goes back through the call it checks: oracle verdicts are
held to the closed-form constants of `bounds`, and everything else to plain
numpy or scipy's LP solver written from the formulas, so a wrong library
result cannot also make its own reference wrong. The one exception is
`verify_integrality`, whose report is the library's own comparison of its LP
optimum with its closed-form maximizer; the parity-lp ops hold the same LP
solver to an independent reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from monoenv import Monomial, RatioBox, StdSimplex, SymBox, UnitBox, Verdict
from monoenv import bounds, envelopes, hulls, lp, oracle, polyrelax
from monoenv.core import monomial_values

# Same tolerance as `monoenv verify` uses by default.
VERDICT_TOL = 1e-3
# The failure drill adds this to every estimator or LP reference.
DRILL_SHIFT = 1e-2
TRIALS_PER_OP = 8


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when right, else why not
    span: Optional[str] = None  # span name for the call when tracing
    meta: dict = field(default_factory=dict)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _monomial(X: np.ndarray, alpha) -> np.ndarray:
    return np.prod(X ** np.asarray(alpha, dtype=np.int64), axis=-1)


def _symbox_reference(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Envelopes of x_1...x_n over [-1,1]^n from the parity facets:
    lo = max(-1, max{s.x : s in {-1,1}^n with evenly many -1} - (n-1)) and
    hi = min(1, min{s.x : s with oddly many +1} + (n-1)), each found by a
    dynamic program over the coordinates that tracks the best signed sum of
    either parity."""
    m, n = X.shape
    even, odd = np.zeros(m), np.full(m, -np.inf)  # max s.x by parity of the -1 count
    up_even, up_odd = np.zeros(m), np.full(m, np.inf)  # min s.x by parity of the +1 count
    for j in range(n):
        x = X[:, j]
        even, odd = np.maximum(even + x, odd - x), np.maximum(odd + x, even - x)
        up_even, up_odd = np.minimum(up_even - x, up_odd + x), np.minimum(up_odd - x, up_even + x)
    return np.maximum(even - (n - 1), -1.0), np.minimum(up_odd + (n - 1), 1.0)


def _box_hull(X: np.ndarray, lo: float, hi: float, conc: bool) -> np.ndarray:
    """Concave (or convex) envelope of x_1...x_n over [lo, hi]^n at each row
    of X, straight from its definition: the best interpolation of the vertex
    values over every simplex of n + 1 box vertices that contains the row."""
    n = X.shape[1]
    verts = np.array(list(itertools.product((lo, hi), repeat=n)))
    f = np.prod(verts, axis=1)
    simplices = np.array(list(itertools.combinations(range(len(verts)), n + 1)))
    M = np.concatenate([verts[simplices].transpose(0, 2, 1),
                        np.ones((len(simplices), 1, n + 1))], axis=1)
    keep = np.abs(np.linalg.det(M)) > 1e-9
    M, simplices = M[keep], simplices[keep]
    rhs = np.vstack([X.T, np.ones(len(X))])
    lam = np.linalg.solve(M, np.broadcast_to(rhs, (len(M),) + rhs.shape))
    vals = np.einsum("kv,kvr->kr", f[simplices], lam)
    inside = np.all(lam >= -1e-12, axis=1)
    if conc:
        return np.where(inside, vals, -np.inf).max(axis=0)
    return np.where(inside, vals, np.inf).min(axis=0)


def _close(got, want, rel: float = 1e-9) -> Optional[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"shape {got.shape} != reference {want.shape}"
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    if not np.all(np.isfinite(got)) or np.max(err, initial=0.0) > rel:
        k = int(np.argmax(np.where(np.isfinite(err), err, np.inf)))
        return f"value {got.flat[k]!r} != reference {want.flat[k]!r}"
    return None


class Workload:
    name = ""
    slots: tuple = ()
    warmup_slots: tuple = ()

    def __init__(self, seed: int, drill: Optional[str] = None):
        self.seed = seed
        self.drill = drill
        self.tracer = None
        self.facets: dict[int, hulls.FacetSystem] = {}

    @property
    def cycle_len(self) -> int:
        return len(self.slots)

    def setup(self) -> None:
        """Work done once per process before the first op."""

    def _build_facets(self, ns) -> None:
        for n in ns:
            if self.tracer is None:
                self.facets[n] = hulls.build_symbox_hull(n)
            else:
                self.facets[n] = self.tracer.span("hulls.build_symbox_hull",
                                                  hulls.build_symbox_hull, n)

    def op(self, i: int) -> Op:
        return self.make(self.slots[i % self.cycle_len], _rng(self.seed, 0, i))

    def warmup(self) -> list[Op]:
        return [self.make(slot, _rng(self.seed, 1, k))
                for k, slot in enumerate(self.warmup_slots)]

    def make(self, slot, rng: np.random.Generator) -> Op:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# oracle-verify
# ---------------------------------------------------------------------------

class OracleVerify(Workload):
    """Seeded `oracle.max_gap` verdicts, each pairing a closed-form bound with
    the envelope it bounds, so every verdict must be TIGHT.

    A cycle has the 22 verdicts at n = 2..4, a second unit-box concave
    verdict at n = 2 and one n = 5 verdict of each of four families. The n = 5
    verdicts are the only ones that take the seeded restarts, and each costs
    more than half as much as the other 23 together. They are 4 of 27 ops,
    more than a tenth, so p90 is an n = 5 latency and not the edge of
    whichever n = 4 family happens to be slowest. With an even number of ops
    in a cycle the median would fall exactly on the edge between two
    families, and it jumped between them from run to run; the 27th op puts
    it inside one family.
    """

    name = "oracle-verify"
    slots = (
        ("unit-conc", 2), ("unit-cvx", 2), ("ratio-conc", 2), ("ratio-cvx", 2),
        ("sym-lo", 2), ("sym-hi", 2), ("simplex-conc", 2), ("simplex-cvx", 2),
        ("unit-conc", 2), ("unit-conc", 5),
        ("unit-conc", 3), ("unit-cvx", 3), ("ratio-conc", 3), ("ratio-cvx", 3),
        ("unit-cvx", 5),
        ("sym-lo", 3), ("sym-hi", 3), ("simplex-conc", 3), ("simplex-cvx", 3),
        ("sym-lo", 5),
        ("unit-conc", 4), ("unit-cvx", 4), ("ratio-conc", 4), ("ratio-cvx", 4),
        ("sym-lo", 4), ("sym-hi", 4),
        ("sym-hi", 5),
    )
    warmup_slots = (("unit-conc", 2), ("ratio-cvx", 2), ("sym-lo", 2), ("simplex-conc", 2))

    def setup(self) -> None:
        self.grid = oracle.GridSpec(seed=self.seed)
        self._build_facets(range(2, 6))

    def _estimator(self, fn):
        if self.drill == "estimator":
            base = fn
            fn = lambda X: np.asarray(base(X), dtype=float) + DRILL_SHIFT
        return fn

    def make(self, slot, rng) -> Op:
        kind, n = slot
        if kind == "unit-conc":
            alpha = [1] * n
            for _ in range(int(rng.integers(max(n, 2), 6)) - n):
                alpha[int(rng.integers(n))] += 1
            m = Monomial(tuple(alpha))
            dom, side, bound = UnitBox(n), oracle.OVER, bounds.c1(m.degree)
            est = lambda X: envelopes.concave_env_unitbox(m, X)
        elif kind == "unit-cvx":
            m = Monomial.multilinear(n)
            dom, side, bound = UnitBox(n), oracle.UNDER, bounds.c2(n)
            est = lambda X: envelopes.convex_env_unitbox_multilinear(n, X)
        elif kind in ("ratio-conc", "ratio-cvx"):
            r = float(rng.uniform(1.1, 4.0))
            m = Monomial.multilinear(n)
            dom = RatioBox(n, r)
            D, E = bounds.ratio_box_constants(n, r)
            if kind == "ratio-conc":
                side, bound = oracle.OVER, E
                est = lambda X: envelopes.concave_env_ratiobox(n, r, X)
            else:
                side, bound = oracle.UNDER, D
                est = lambda X: envelopes.convex_env_ratiobox(n, r, X)
        elif kind in ("sym-lo", "sym-hi"):
            m = Monomial.multilinear(n)
            dom, bound = SymBox(n), bounds.symbox_error(n)
            fs = self.facets[n]
            if kind == "sym-lo":
                side, est = oracle.UNDER, fs.envelope_lower
            else:
                side, est = oracle.OVER, fs.envelope_upper
        elif kind in ("simplex-conc", "simplex-cvx"):
            m = Monomial((int(rng.integers(1, 4)),) * n)
            dom = StdSimplex(n)
            sb = bounds.simplex_bounds(m)
            if kind == "simplex-conc":
                side, bound = oracle.OVER, sb.conc
                est = lambda X: envelopes.concave_env_unitbox(m, X)
            else:
                side, bound = oracle.UNDER, sb.cvx
                est = lambda X: np.zeros(X.shape[0])
        else:
            raise ValueError(f"unknown slot {slot!r}")

        est = self._estimator(est)
        passed = est if self.tracer is None else self.tracer.wrap_by_rows("envelopes.estimator", est)
        grid = self.grid

        def call():
            return oracle.max_gap(m, dom, passed, side, bound=bound, grid=grid, tol=VERDICT_TOL)

        def check(rep) -> Optional[str]:
            if rep.verdict is not Verdict.TIGHT:
                return (f"verdict {rep.verdict.value}: measured {rep.measured_value!r}, "
                        f"bound {bound!r}")
            if not abs(rep.measured_value - bound) <= VERDICT_TOL:
                return f"TIGHT but measured {rep.measured_value!r} is off bound {bound!r}"
            p = np.asarray(rep.attainment_points[0], dtype=float)
            A, b = dom.halfspaces()
            if not np.all(A @ p <= b + 1e-9):
                return f"attainment point {p.tolist()} outside {dom}"
            f = float(_monomial(p[None, :], m.alpha)[0])
            e = float(np.asarray(est(p[None, :]), dtype=float)[0])
            gap = e - f if side == oracle.OVER else f - e
            return _close(gap, rep.measured_value)

        cells = grid.resolution_for(n) ** n
        return Op(f"{kind} n={n}", call, check, span="oracle.max_gap",
                  meta={"domain": dom, "grid_cells": cells})


# ---------------------------------------------------------------------------
# lp-integrality
# ---------------------------------------------------------------------------

# HiGHS's default feasibility tolerances (1e-7) are looser than the checks.
_HIGHS_TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _relaxed_minimum(linprog, n: int, terms) -> float:
    """Minimum over [0,1]^n of the envelope-substituted multilinear polynomial:
    positive terms take their convex envelope max(0, 1 + sum(x_j - 1)),
    negative terms their concave envelope min(x_j), solved by scipy's HiGHS."""
    const, lin = 0.0, np.zeros(n)
    pos, neg = [], []
    for coeff, support in terms:
        if not support:
            const += coeff
        elif len(support) == 1:
            lin[support[0]] += coeff
        elif coeff > 0:
            pos.append((coeff, support))
        else:
            neg.append((coeff, support))
    nv = n + len(pos) + len(neg)
    c = np.concatenate([lin, [cf for cf, _ in pos], [cf for cf, _ in neg]])
    rows, rhs = [], []
    for k, (_, support) in enumerate(pos):
        row = np.zeros(nv)
        row[list(support)] = 1.0
        row[n + k] = -1.0
        rows.append(row)
        rhs.append(len(support) - 1.0)
    for k, (_, support) in enumerate(neg):
        for j in support:
            row = np.zeros(nv)
            row[n + len(pos) + k] = 1.0
            row[j] = -1.0
            rows.append(row)
            rhs.append(0.0)
    res = linprog(c, A_ub=np.array(rows) if rows else None, b_ub=rhs if rows else None,
                  bounds=[(0.0, 1.0)] * nv, method="highs", options=_HIGHS_TIGHT)
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun) + const


def _parity_maximum(c: np.ndarray) -> float:
    """max c.z over the +/-1 vectors with evenly many -1, by enumeration: the
    vertices of the parity polytope, so the optimum of any LP over it."""
    Z = np.array(list(itertools.product((-1.0, 1.0), repeat=len(c))))
    Z = Z[(Z < 0).sum(axis=1) % 2 == 0]
    return float(np.max(Z @ c))


class LpIntegrality(Workload):
    """LP-backed checks: integrality of the parity polytope (criterion 5),
    the simplex itself on the parity polytope, vertex-LP envelope values and
    small-instance gap certificates. The oracle grid never runs here."""

    name = "lp-integrality"
    slots = (
        ("integrality", 2), ("sampled-over", 2), ("sampled-under", 2), ("certify", 2),
        ("integrality", 3), ("sampled-over", 3), ("sampled-under", 3), ("certify", 3),
        ("parity-lp", 3),
        ("integrality", 4), ("sampled-over", 4), ("sampled-under", 4), ("certify", 4),
        ("integrality", 5), ("parity-lp", 6), ("integrality", 6),
    )
    warmup_slots = (("integrality", 2), ("sampled-over", 2), ("certify", 2), ("parity-lp", 3))

    def setup(self) -> None:
        from scipy.optimize import linprog
        self.linprog = linprog
        self._build_facets((3, 6))

    def _reference(self, value: float) -> float:
        return value + DRILL_SHIFT if self.drill == "lp-reference" else value

    def make(self, slot, rng) -> Op:
        kind, n = slot
        if kind == "integrality":
            seed = int(rng.integers(2 ** 31))

            def call():
                return hulls.verify_integrality(n, trials=TRIALS_PER_OP, seed=seed)

            # Only the library's own report can be read here; see the module
            # docstring.
            def check(rep) -> Optional[str]:
                if (rep.n, rep.trials, rep.seed) != (n, TRIALS_PER_OP, seed):
                    return f"report echoes n={rep.n} trials={rep.trials} seed={rep.seed}"
                if not (rep.passed and rep.failures == 0 and rep.max_value_gap <= 1e-9):
                    return (f"integrality FAILED: failures={rep.failures} "
                            f"max_gap={rep.max_value_gap!r}")
                return None

            return Op(f"integrality n={n}", call, check, span="hulls.verify_integrality")

        if kind == "parity-lp":
            A, b = self.facets[n].to_ub()
            c = rng.standard_normal(n + 1)
            box = np.ones(n + 1)

            # solve_box_lp is rebound at the module boundary when tracing.
            def call():
                return lp.solve_box_lp(c, A, b, -box, box, maximize=True)

            def check(res) -> Optional[str]:
                z, value = res
                z = np.asarray(z, dtype=float)
                if not (np.all(A @ z <= b + 1e-9) and np.all(np.abs(z) <= 1.0 + 1e-9)):
                    return f"optimum {z.tolist()} outside the parity polytope"
                want = self._reference(_parity_maximum(c))
                return _close(value, want) or _close(float(c @ z), want)

            return Op(f"parity-lp n={n}", call, check)

        if kind in ("sampled-over", "sampled-under"):
            m = Monomial.multilinear(n)
            x = rng.random(n)
            side = oracle.OVER if kind == "sampled-over" else oracle.UNDER

            def call():
                return oracle.sampled_hull_envelope(m, UnitBox(n), x, side)

            def check(v) -> Optional[str]:
                if side == oracle.OVER:
                    want = float(np.min(x))
                else:
                    want = max(0.0, 1.0 + float(np.sum(x - 1.0)))
                return _close(v, self._reference(want))

            return Op(f"{kind} n={n}", call, check, span="oracle.sampled_hull_envelope")

        if kind == "certify":
            subsets = [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]
            pick = rng.choice(len(subsets), size=min(len(subsets), 2 * n), replace=False)
            terms = [(float(rng.uniform(-2.0, 2.0)), subsets[k]) for k in sorted(pick)]
            poly = polyrelax.Polynomial(n=n, terms=tuple(
                (c, tuple(int(j in s) for j in range(n))) for c, s in terms))

            def call():
                return polyrelax.certify_gap_small_instance(poly, UnitBox(n))

            def check(rep) -> Optional[str]:
                verts = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
                vals = sum(c * np.prod(verts[:, list(s)], axis=1) for c, s in terms)
                bad = _close(rep.z_star, float(np.min(vals)))
                if bad:
                    return "z_star " + bad
                want = self._reference(_relaxed_minimum(self.linprog, n, terms))
                bad = _close(rep.z_mon, want, rel=1e-7)
                if bad:
                    return "z_mon " + bad
                if not rep.passed:
                    return f"certificate FAILED: gap {rep.gap!r} vs bound {rep.tight_bound!r}"
                return None

            return Op(f"certify n={n}", call, check,
                      span="polyrelax.certify_gap_small_instance")
        raise ValueError(f"unknown slot {slot!r}")


# ---------------------------------------------------------------------------
# bulk-envelope
# ---------------------------------------------------------------------------

FIGURE1_R = (1.01, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0)


def figure1_sweep():
    """The figure-1 grid: D, E and both ratios for n = 2..100 and seven r."""
    return [(n, r, bounds.ratio_box_constants(n, r), bounds.ratio_box_ratios(n, r))
            for n in range(2, 101) for r in FIGURE1_R]


def _check_figure1(rows) -> Optional[str]:
    if len(rows) != 99 * len(FIGURE1_R):
        return f"sweep has {len(rows)} rows"
    for n, r, (D, E), (ratio, relaxed) in rows:
        if not ratio <= 1.0 + 1e-12:
            return f"D/E = {ratio!r} > 1 at n={n} r={r}"
        if not relaxed >= ratio - 1e-12:
            return f"relaxed ratio {relaxed!r} below D/E {ratio!r} at n={n} r={r}"
        if n * np.log(r) < 600.0 and abs(D / E - ratio) > 1e-9 * ratio:
            return f"direct D/E {D / E!r} != log-domain {ratio!r} at n={n} r={r}"
    return None


class BulkEnvelope(Workload):
    """Large seeded batches through the closed-form layers: the same
    envelope/core functions as oracle-verify, with 10^3 to 10^5 rows per call
    instead of one."""

    name = "bulk-envelope"
    slots = (
        ("symbox", 12, 5_000), ("ratio-conc", 4, 100_000), ("membership", 8, 1),
        ("symbox", 13, 1_000), ("unit-conc", 8, 100_000), ("envelope-bounds", 8, 10_000),
        ("membership", 10, 1), ("symbox", 24, 100_000), ("ratio-cvx", 4, 100_000),
        ("monomial-values", 8, 100_000), ("export-parse", 10, 0),
        ("envelope-bounds", 12, 5_000), ("unit-cvx", 8, 100_000), ("membership", 12, 1),
        ("figure1", 0, 0),
    )
    warmup_slots = (("symbox", 12, 1_000), ("envelope-bounds", 8, 1_000),
                    ("membership", 8, 1), ("figure1", 0, 0))

    def setup(self) -> None:
        self._build_facets((8, 10, 12))

    def make(self, slot, rng) -> Op:
        kind, n, rows = slot
        if kind == "symbox":
            X = rng.uniform(-1.0, 1.0, (rows, n))
            band = "small" if n <= 12 else "mid" if n <= 20 else "large"

            def check(res) -> Optional[str]:
                lo, hi = _symbox_reference(X)
                return _close(res[0], lo, 1e-12) or _close(res[1], hi, 1e-12)

            return Op(f"symbox n={n}", lambda: envelopes.envelopes_symbox(n, X), check,
                      span=f"envelopes.envelopes_symbox.{band}", meta={"rows": rows})

        if kind in ("ratio-conc", "ratio-cvx"):
            r = float(rng.uniform(1.1, 4.0))
            X = rng.uniform(1.0, r, (rows, n))
            X[: n + 1] = np.where(rng.random((n + 1, n)) < 0.5, 1.0, r)  # some vertices
            conc = kind == "ratio-conc"
            fn = envelopes.concave_env_ratiobox if conc else envelopes.convex_env_ratiobox

            def check(v) -> Optional[str]:
                v = np.asarray(v, dtype=float)
                f = _monomial(X, (1,) * n)
                if not np.all((v >= f - 1e-9 * f) if conc else (v <= f + 1e-9 * f)):
                    return "envelope crosses the monomial"
                bad = _close(v[: n + 1], f[: n + 1])
                if bad:
                    return "at a vertex: " + bad
                return _close(v[n + 1: n + 9], _box_hull(X[n + 1: n + 9], 1.0, r, conc))

            return Op(f"{kind} n={n}", lambda: fn(n, r, X), check,
                      span=f"envelopes.{fn.__name__}")

        if kind in ("unit-conc", "unit-cvx", "monomial-values"):
            X = rng.random((rows, n))
            m = Monomial(tuple(int(a) for a in rng.integers(1, 4, n)))
            if kind == "unit-conc":
                call = lambda: envelopes.concave_env_unitbox(m, X)
                want = lambda: np.min(X, axis=1)
                span = "envelopes.concave_env_unitbox"
            elif kind == "unit-cvx":
                call = lambda: envelopes.convex_env_unitbox_multilinear(n, X)
                want = lambda: np.maximum(0.0, X.sum(axis=1) - (n - 1))
                span = "envelopes.convex_env_unitbox_multilinear"
            else:
                call = lambda: monomial_values(m, X)
                want = lambda: _monomial(X, m.alpha)
                span = "core.monomial_values"
            return Op(f"{kind} n={n}", call, lambda v: _close(v, want(), 1e-12), span=span)

        if kind == "envelope-bounds":
            X = rng.uniform(-1.0, 1.0, (rows, n))
            fs = self.facets[n]

            def check(res) -> Optional[str]:
                lo, hi = _symbox_reference(X)
                return _close(res[0], lo, 1e-12) or _close(res[1], hi, 1e-12)

            return Op(f"envelope-bounds n={n}", lambda: fs.envelope_bounds(X), check,
                      span="hulls.envelope_bounds")

        if kind == "membership":
            fs = self.facets[n]
            x = rng.uniform(-1.0, 1.0, n)
            lo, hi = (float(v[0]) for v in _symbox_reference(x[None, :]))
            inside = bool(rng.random() < 0.5)
            if inside:
                w = lo + (hi - lo) * float(rng.uniform(0.05, 0.95))
            else:
                w = hi + 1e-3 if hi < 1.0 - 1e-3 else lo - 1e-3

            def check(res) -> Optional[str]:
                if res.member != inside:
                    return f"membership {res.member} but reference says {inside}"
                return None

            # hull_membership is rebound at the module boundary when tracing,
            # so it needs no span of its own here.
            return Op(f"membership n={n}", lambda: hulls.hull_membership(fs, x, w), check)

        if kind == "export-parse":
            fs = self.facets[n]

            def call():
                return hulls.parse_facets_text(hulls.export_facets_text(fs))

            def check(back) -> Optional[str]:
                got = sorted((f.mask, f.sense) for f in back.facets)
                want = sorted((m, "GE") for m in range(1, 2 ** (n + 1))
                              if bin(m).count("1") % 2 == 1)
                if back.n != n or got != want:
                    return "round trip changed the facet set"
                return None

            return Op(f"export-parse n={n}", call, check, span="hulls.export_parse")

        if kind == "figure1":
            return Op("figure1", figure1_sweep, _check_figure1, span="bounds.figure1_sweep")
        raise ValueError(f"unknown slot {slot!r}")


WORKLOADS = {w.name: w for w in (OracleVerify, LpIntegrality, BulkEnvelope)}
