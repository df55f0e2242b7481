import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from monoenv import (
    ComplementSimplex,
    CornerSimplexOne,
    Domain,
    Monomial,
    OutsideDomain,
    RatioBox,
    ScaleExceeded,
    StdSimplex,
    SubBox,
    SymBox,
    UnitBox,
    Verdict,
    eval_monomial,
)
from monoenv import bounds, checks, core, envelopes, hulls, oracle
from monoenv.core import monomial_values
from monoenv.oracle import GridSpec, grid_maximize, max_gap, sampled_hull_envelope, sigma_numeric


class TestMaxGap:
    def test_bilinear_midpoint(self):
        m = Monomial.multilinear(2)
        rep = max_gap(m, UnitBox(2), lambda X: envelopes.concave_env_unitbox(m, X),
                      oracle.OVER, bound=0.25)
        assert rep.verdict is Verdict.TIGHT
        assert rep.measured_value == pytest.approx(0.25, abs=1e-8)
        assert np.allclose(rep.attainment_points[0], [0.5, 0.5], atol=1e-6)

    def test_trilinear_convex(self):
        m = Monomial.multilinear(3)
        rep = max_gap(m, UnitBox(3), lambda X: envelopes.convex_env_unitbox_multilinear(3, X),
                      oracle.UNDER, bound=8 / 27)
        assert rep.measured_value == pytest.approx(8 / 27, abs=1e-4)
        assert np.allclose(rep.attainment_points[0], 2 / 3, atol=1e-3)

    def test_ratio_concave(self):
        m = Monomial.multilinear(3)
        rep = max_gap(m, RatioBox(3, 2.0),
                      lambda X: envelopes.concave_env_ratiobox(3, 2.0, X),
                      oracle.OVER, bound=bounds.ratio_box_constants(3, 2.0)[1])
        assert rep.measured_value == pytest.approx(1.1284510810424182, abs=1e-4)
        x = rep.attainment_points[0]
        assert np.max(np.abs(x - np.mean(x))) <= 1e-3  # on the diagonal

    def test_report_carries_grid(self):
        m = Monomial.multilinear(2)
        spec = GridSpec(resolution=16, seed=1)
        rep = max_gap(m, UnitBox(2), lambda X: envelopes.concave_env_unitbox(m, X),
                      oracle.OVER, bound=0.25, grid=spec)
        assert rep.grid == spec

    def test_bad_side_rejected(self):
        m = Monomial.multilinear(2)
        with pytest.raises(ValueError):
            max_gap(m, UnitBox(2), lambda X: np.zeros(len(X)), "SIDEWAYS")

    def test_mismatched_estimator_domain_raises(self):
        m = Monomial.multilinear(2)
        with pytest.raises(Exception):
            # ratio-box envelope cannot be evaluated over the unit box
            max_gap(m, UnitBox(2), lambda X: envelopes.concave_env_ratiobox(2, 2.0, X),
                    oracle.OVER)


class TestSampledHullEnvelope:
    def test_unitbox_hinge(self):
        assert sampled_hull_envelope(Monomial.multilinear(2), UnitBox(2),
                                     [0.5, 0.5], oracle.UNDER) == pytest.approx(0.0, abs=1e-9)

    def test_ratio_concave_value(self):
        assert sampled_hull_envelope(Monomial.multilinear(2), RatioBox(2, 2.0),
                                     [1.5, 1.5], oracle.OVER) == pytest.approx(2.5, abs=1e-9)

    def test_symbox_lower_value(self):
        assert sampled_hull_envelope(Monomial.multilinear(3), SymBox(3),
                                     [1 / 3, 1 / 3, 1 / 3], oracle.UNDER) == pytest.approx(-1.0, abs=1e-9)

    def test_under_below_over(self):
        rng = np.random.default_rng(0)
        m = Monomial.multilinear(3)
        box = UnitBox(3)
        for _ in range(20):
            x = rng.random(3)
            under = sampled_hull_envelope(m, box, x, oracle.UNDER)
            over = sampled_hull_envelope(m, box, x, oracle.OVER)
            f = eval_monomial(m, x)
            assert under - 1e-9 <= f <= over + 1e-9

    def test_rejects_non_multilinear(self):
        with pytest.raises(ValueError):
            sampled_hull_envelope(Monomial((2, 1)), UnitBox(2), [0.5, 0.5], oracle.UNDER)

    def test_rejects_large_n(self):
        with pytest.raises(ScaleExceeded):
            sampled_hull_envelope(Monomial.multilinear(5), UnitBox(5), [0.5] * 5, oracle.UNDER)


class TestSigmaNumeric:
    def test_complement_simplex(self):
        m = Monomial((1, 2, 3))
        assert sigma_numeric(m, __import__("monoenv").ComplementSimplex(3),
                             [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-9)

    def test_unit_box_alpha(self):
        m = Monomial((1, 1))
        assert sigma_numeric(m, UnitBox(2), [1.0, 1.0]) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_large_slopes_do_not_cancel(self):
        # sum(beta) + min(f - beta.x) read 2e300 + (1 - 2e300) = 0
        m = Monomial((1, 1))
        assert sigma_numeric(m, UnitBox(2), [1e300, 1e300], GridSpec(resolution=4)) == 1.0

    def test_unit_box_interval(self):
        rng = np.random.default_rng(1)
        m = Monomial((2, 1))
        for _ in range(5):
            beta = 1.0 + 2.0 * rng.random(2)
            val = sigma_numeric(m, UnitBox(2), beta)
            assert -1e-9 <= val <= 1.0 + 1e-9


    def test_vertex_failure_propagates(self):
        # a failure of vertices() is a fault and must not be swallowed
        class Broken(UnitBox):
            def vertices(self):
                raise RuntimeError("vertex list failed")

        m, spec = Monomial((2, 1)), GridSpec(resolution=4)
        with pytest.raises(RuntimeError, match="vertex list failed"):
            sigma_numeric(m, Broken(2), [1.0, 1.0], spec)


def test_all_nan_estimator_is_an_error_not_valid_upper():
    m = Monomial.multilinear(2)
    with pytest.raises(ValueError, match="nan"):
        max_gap(m, UnitBox(2), lambda X: np.full(len(X), np.nan), oracle.OVER, bound=0.25)


def test_a_nan_only_the_scan_meets_is_an_error_not_tight():
    # nan on a slab no grid centre lies in: the scan passes over it
    n = 3

    def est(X):
        v = envelopes.convex_env_unitbox_multilinear(n, X)
        return np.where(np.abs(X[:, 0] - 2 / 3) < 1e-3, np.nan, v)

    with pytest.raises(ValueError, match=r"the objective is nan at \[0\.66"):
        max_gap(Monomial.multilinear(n), UnitBox(n), est, oracle.UNDER, bound=bounds.c2(n))


def test_a_nan_only_the_refinement_meets_is_an_error_not_valid_upper(monkeypatch):
    # nan on the first row of every refinement call: the section search
    # passed over it and the verdict read VALID_UPPER, 3.4e-3 below the bound
    n = 3
    refining = []
    refine = oracle._refine

    def marked(*args):
        refining.append(True)
        return refine(*args)

    def est(X):
        v = envelopes.convex_env_unitbox_multilinear(n, X)
        if refining:
            v[0] = np.nan
        return v

    monkeypatch.setattr(oracle, "_refine", marked)
    with pytest.raises(ValueError, match="the objective is nan at"):
        max_gap(Monomial.multilinear(n), UnitBox(n), est, oracle.UNDER, bound=bounds.c2(n))
    assert refining


@pytest.mark.parametrize("slab, point", [(0.1, r"0\.0"), (1e-4, r"0\.(29|30)")],
                         ids=["scan", "refinement"])
def test_a_nan_of_the_objective_is_an_error(slab, point):
    # the first nan of grid_maximize's own objective: at x_0 < 0.1 in the
    # scan, or on a slab around x_0 = 0.3 that no grid centre lies in, in a
    # section step
    c = np.array([0.3, 0.6])

    def func(X):
        return np.where(np.abs(X[:, 0] - (0.0 if slab == 0.1 else 0.3)) < slab, np.nan,
                        -np.sum((X - c) ** 2, axis=1))

    with pytest.raises(ValueError, match=rf"the objective is nan at \[{point}"):
        grid_maximize(func, UnitBox(2))


def test_an_objective_that_writes_its_input_cannot_move_the_result():
    # every stack the objective gets is read-only, as the grid is: a write
    # into a section step's points used to move the point grid_maximize
    # returned, to (0.9, 0.6) with the value of a point near (0.3, 0.6)
    c = np.array([0.3, 0.6])

    def func(X, always=False):
        v = -np.sum((X - c) ** 2, axis=1)
        if always or X.flags.writeable:
            X[:, 0] = 0.9
        return v

    value, point = grid_maximize(func, UnitBox(2))
    assert value == pytest.approx(0.0, abs=1e-12)
    assert point == pytest.approx(c, abs=1e-6)
    with pytest.raises(ValueError, match="read-only"):
        grid_maximize(lambda X: func(X, always=True), UnitBox(2))


def test_the_objective_gets_only_read_only_stacks():
    # scan blocks and every section step
    m = Monomial.multilinear(5)
    writeable = []

    def gap(X):
        writeable.append(X.flags.writeable)
        return envelopes.concave_env_unitbox(m, X) - monomial_values(m, X)

    grid_maximize(gap, UnitBox(5))
    assert len(writeable) > 1 + oracle.SECTION_STEPS and not any(writeable)


def _report_bits(rep):
    return (rep.verdict, float(rep.measured_value).hex(), float(rep.bound_value).hex(),
            [np.asarray(p, dtype=float).tobytes() for p in rep.attainment_points])


class TestEnvelopeObjects:
    """``max_gap`` evaluates an ``Envelope`` over the scanned domain by its
    unchecked value; every other estimator is called, and checks, as given."""

    GRID = GridSpec(resolution=8)

    @staticmethod
    def _count_checks(monkeypatch):
        rows = []
        check = Domain.require_inside

        def counted(dom, X, *args):
            rows.append(len(np.atleast_2d(X)))
            return check(dom, X, *args)

        monkeypatch.setattr(Domain, "require_inside", counted)
        return rows

    def test_scan_of_its_own_domain_checks_no_row(self, monkeypatch):
        fs, ml, m = hulls.build_symbox_hull(3), Monomial.multilinear(3), Monomial((2, 1, 1))
        rows = self._count_checks(monkeypatch)
        for mono, dom, env, side in ((ml, SymBox(3), fs.envelope_lower, oracle.UNDER),
                                     (ml, SymBox(3), fs.envelope_upper, oracle.OVER),
                                     (m, UnitBox(3), envelopes.concave_unitbox(m), oracle.OVER)):
            max_gap(mono, dom, env, side, grid=self.GRID)
        assert rows == []

    def test_other_estimators_check_every_call(self, monkeypatch):
        m = Monomial((2, 1, 1))
        conc = envelopes.concave_unitbox(m)
        rows = self._count_checks(monkeypatch)
        for dom, est in ((StdSimplex(3), conc), (UnitBox(3), lambda X: conc(X))):
            calls = []

            def counted(X, est=est):
                calls.append(len(X))
                return est(X)

            rows.clear()
            max_gap(m, dom, counted, oracle.OVER, grid=self.GRID)
            assert rows == calls and len(calls) > 1
        # an Envelope handed over directly takes the same checked path on another domain
        rows.clear()
        max_gap(m, StdSimplex(3), conc, oracle.OVER, grid=self.GRID)
        assert len(rows) > 1

    def test_reports_match_the_checked_calls_on_every_check(self, monkeypatch):
        # each oracle case of `checks` against the same estimator through a
        # checked call, the path a lambda over the public function takes
        scan = oracle.max_gap
        kinds = []

        def both(m, dom, estimator, side, **kwargs):
            rep = scan(m, dom, estimator, side, **kwargs)
            ref = scan(m, dom, lambda X: estimator(X), side, **kwargs)
            assert _report_bits(rep) == _report_bits(ref)
            kinds.append(type(estimator).__name__)
            return rep

        monkeypatch.setattr(oracle, "max_gap", both)
        for case in ("unitbox", "cvxmulti", "ratiobox", "symbox", "simplex"):
            assert all(ch.ok for ch in checks.CASES[case]())
        assert kinds.count("Envelope") == 7 and len(kinds) == 8


def _captured(monkeypatch, name, call):
    """The function that ``call`` hands to ``oracle.<name>`` (the last one)."""
    seen = []
    real = getattr(oracle, name)
    with monkeypatch.context() as mp:
        mp.setattr(oracle, name, lambda func, *a, **k: seen.append(func) or real(func, *a, **k))
        call()
    return seen[-1]


def _batch_cases(monkeypatch):
    """(name, n, function of a row stack, points) for every estimator and grid
    objective built by a row-times-vector reduction or a fold across columns."""
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        box = 1.0 + 0.7 * rng.random((64, n))
        yield "concave_env_ratiobox", n, lambda X, n=n: envelopes.concave_env_ratiobox(n, 1.7, X), box
        m, beta = Monomial.multilinear(n), 1.0 + rng.random(n)
        u = envelopes.LinearUnderestimator(tuple(beta), 0.5)
        yield "underestimator_value", n, lambda X, u=u: envelopes.underestimator_value(u, X), box
        unit = rng.random((64, n))
        obj = _captured(monkeypatch, "grid_minimize",
                        lambda: sigma_numeric(m, UnitBox(n), beta, GridSpec(resolution=2)))
        yield "sigma_numeric", n, obj, unit
        # the column-wise kernels: products, minima, maxima, parities, membership
        alpha = tuple(int(a) for a in rng.integers(1, 5, n))
        signed = rng.uniform(-1.5, 1.5, (64, n))
        signed[:8] = rng.choice([0.0, -0.0, 1.0, -1.0], (8, n))
        yield "monomial_values", n, lambda X, a=alpha: monomial_values(Monomial(a), X), signed
        corner = rng.random((64, n))
        corner[:8] = rng.choice([0.0, -0.0, 1.0], (8, n))
        yield "concave_env_unitbox", n, lambda X, a=alpha: envelopes.concave_env_unitbox(
            Monomial(a), X), corner
        yield "convex_env_unitbox_multilinear", n, lambda X, n=n: (
            envelopes.convex_env_unitbox_multilinear(n, X)), corner
        yield "convex_env_ratiobox", n, lambda X, n=n: envelopes.convex_env_ratiobox(n, 1.7, X), box
        near = rng.uniform(-1.0 - 2e-9, 1.0 + 2e-9, (64, n))
        yield "contains_many", n, lambda X, n=n: SymBox(n).contains_many(X).astype(float), near
    for n in (1, 2, 3, 5, 8, 13, 24):
        sym = rng.uniform(-1.0, 1.0, (64, n))
        sym[:8] = rng.choice([0.0, -0.0, 1.0, -1.0], (8, n))
        yield "envelopes_symbox", n, lambda X, n=n: np.stack(envelopes.envelopes_symbox(n, X), 1), sym


def _block_cases():
    """(name, n, function of a row stack, points) for every public envelope,
    the membership test and ``monomial_values`` on stacks of two blocks and
    part of a third, which ``core.by_blocks`` hands to the kernel in three
    calls."""
    rng = np.random.default_rng(12)
    for n in (3, 12, 24):
        rows = 2 * (core.BLOCK_FLOATS // n) + 7
        alpha = tuple(int(a) for a in rng.integers(1, 5, n))
        signed = rng.uniform(-1.0, 1.0, (rows, n))
        signed[:8] = rng.choice([0.0, -0.0, 1.0, -1.0], (8, n))
        unit, box = rng.random((rows, n)), 1.0 + 0.7 * rng.random((rows, n))
        yield "monomial_values", n, lambda X, a=alpha: monomial_values(Monomial(a), X), signed
        yield "concave_env_unitbox", n, lambda X, a=alpha: envelopes.concave_env_unitbox(
            Monomial(a), X), unit
        yield "convex_env_unitbox_multilinear", n, lambda X, n=n: (
            envelopes.convex_env_unitbox_multilinear(n, X)), unit
        yield "concave_env_ratiobox", n, lambda X, n=n: envelopes.concave_env_ratiobox(n, 1.7, X), box
        yield "convex_env_ratiobox", n, lambda X, n=n: envelopes.convex_env_ratiobox(n, 1.7, X), box
        yield "envelopes_symbox", n, lambda X, n=n: np.stack(envelopes.envelopes_symbox(n, X), 1), signed
        if n <= core.VERTEX_ENUM_LIMIT:
            fs = hulls.build_symbox_hull(n)
            yield "envelope_lower", n, fs.envelope_lower, signed
            yield "envelope_upper", n, fs.envelope_upper, signed
        near = rng.uniform(-1.0 - 2e-9, 1.0 + 2e-9, (rows, n))
        yield "contains_many", n, lambda X, n=n: SymBox(n).contains_many(X).astype(float), near


# Kernels that add up each row with np.sum or np.add.reduce. numpy sums a row
# of 8 or more columns pairwise, grouping its terms by the memory layout, so
# on a column-major stack their bits are pinned only below 8 columns: every
# default grid (n <= 6) is covered, an explicit grid at n >= 8 is not.
ROW_SUMS = {"convex_env_unitbox_multilinear", "convex_env_ratiobox", "envelopes_symbox",
            "envelope_lower", "envelope_upper"}


def test_row_values_do_not_depend_on_the_batch(monkeypatch):
    # nor on the layout: the oracle's grid is column-major
    for name, n, func, X in _batch_cases(monkeypatch):
        alone = np.array([func(X[i:i + 1])[0] for i in range(len(X))])
        for k in range(1, len(X) + 1):
            assert np.array_equal(_bits(func(X[:k])), _bits(alone[:k])), (name, n, k)
            if n < 8 or name not in ROW_SUMS:
                assert np.array_equal(_bits(func(np.asfortranarray(X[:k]))),
                                      _bits(alone[:k])), (name, n, k, "column-major")
    # a stack longer than one block gives the bits of one call on it, and
    # those of each row alone at every block edge and at random rows
    for name, n, func, X in _block_cases():
        rows = core.BLOCK_FLOATS // n
        edges = np.arange(1, -(-len(X) // rows)) * rows
        sample = np.unique(np.r_[0, len(X) - 1, edges - 1, edges,
                                 np.random.default_rng(n).integers(0, len(X), 8)])
        alone = np.array([func(X[i:i + 1])[0] for i in sample])
        for P in (X, np.asfortranarray(X)):
            blocked = func(P)
            with monkeypatch.context() as mp:
                mp.setattr(core, "BLOCK_FLOATS", len(X) * n)
                whole = func(P)
            assert np.array_equal(_bits(blocked), _bits(whole)), (name, n, P.flags.f_contiguous)
            if P is X or n < 8 or name not in ROW_SUMS:
                assert np.array_equal(_bits(blocked[sample]), _bits(alone)), (name, n)


def test_the_point_outside_names_the_first_in_any_block():
    # the one point outside the box sits in the third block of the stack
    n = 24
    X = np.random.default_rng(5).uniform(-1.0, 1.0, (3 * (core.BLOCK_FLOATS // n), n))
    k = 2 * (core.BLOCK_FLOATS // n) + 3
    X[k, 7] = 1.5
    assert np.flatnonzero(~SymBox(n).contains_many(X)).tolist() == [k]
    with pytest.raises(OutsideDomain) as info:
        envelopes.envelopes_symbox(n, X)
    assert str(info.value) == f"point {X[k].tolist()} is outside SymBox(n=24)"


def _grid_estimators(monkeypatch, n):
    """(domain, name, function) for every estimator that oracle-verify and
    ``checks`` hand the oracle at dimension n, the monomial and the grid
    objective of ``sigma_numeric``."""
    m, alpha = Monomial.multilinear(n), tuple(range(1, n + 1))
    fs = hulls.build_symbox_hull(n)
    yield UnitBox(n), "monomial_values", lambda X: monomial_values(Monomial(alpha), X)
    yield UnitBox(n), "concave_env_unitbox", lambda X: envelopes.concave_env_unitbox(
        Monomial(alpha), X)
    yield UnitBox(n), "convex_env_unitbox_multilinear", lambda X: (
        envelopes.convex_env_unitbox_multilinear(n, X))
    yield RatioBox(n, 2.7), "concave_env_ratiobox", lambda X: envelopes.concave_env_ratiobox(
        n, 2.7, X)
    yield RatioBox(n, 2.7), "convex_env_ratiobox", lambda X: envelopes.convex_env_ratiobox(
        n, 2.7, X)
    yield SymBox(n), "envelope_lower", fs.envelope_lower
    yield SymBox(n), "envelope_upper", fs.envelope_upper
    yield StdSimplex(n), "concave_env_unitbox", lambda X: envelopes.concave_env_unitbox(m, X)
    beta = 1.0 + np.arange(n) / 3.0
    yield UnitBox(n), "sigma_numeric", _captured(
        monkeypatch, "grid_minimize",
        lambda: sigma_numeric(m, UnitBox(n), beta, GridSpec(resolution=2)))


@pytest.mark.parametrize("n", range(2, 7))
def test_grid_values_match_a_row_major_copy(n, monkeypatch):
    res = GridSpec().resolution_for(n)
    for dom, name, func in _grid_estimators(monkeypatch, n):
        pts = oracle._grid_points(dom, res)
        assert np.array_equal(_bits(func(pts)), _bits(func(np.ascontiguousarray(pts)))), (
            name, dom)


@pytest.mark.parametrize("n", range(2, 7))
def test_refined_values_match_a_row_major_copy(n, monkeypatch):
    # the section steps hand over their points column by column, as the
    # scan does; each refined value has the bits of a row-major call
    res = GridSpec().resolution_for(n)
    moved = 0
    for dom, name, func in _grid_estimators(monkeypatch, n):
        pts = oracle._grid_points(dom, res)
        lo, hi = dom.bounding_box()
        for k in np.linspace(0, len(pts) - 1, 3).astype(int):
            v0 = func(pts[k:k + 1])[0]
            x, v = oracle._refine(func, dom, pts[k].copy(), v0, (hi - lo) / res,
                                  np.arange(1.0, n + 1))
            assert _bits(v) == _bits(func(x[None, :])[0]), (name, dom)
            moved += int(v > v0)
    assert moved >= 20  # most of the 30 starts move


# resolutions besides the default: a tile of one row in blocks of 65536 at
# n = 1, tiles of 200 rows that do not fill a block of 32768 at n = 2, and
# one small tile at n = 3
_EXTRA_RESOLUTIONS = {1: (100_000,), 2: (200,), 3: (7,)}


@pytest.mark.parametrize("n", range(1, 7))
def test_blocked_scan_values_match_one_call_on_the_grid(n, monkeypatch):
    # the scan calls the function on consecutive blocks of at most
    # core.BLOCK_FLOATS // n rows, each read-only with contiguous columns; a
    # box's blocks are column-major views of one buffer, valid only during
    # the call, so each is recorded as a copy. The values it takes its argmax
    # over are those of one call on the whole grid. Refinement is stubbed
    # out, so every call is a scan block.
    monkeypatch.setattr(oracle, "_refine", lambda func, dom, X, V, *a: (X, V))
    rows = core.BLOCK_FLOATS // n
    m = Monomial.multilinear(n)
    cases = [*_grid_estimators(monkeypatch, n)]
    if n >= 2:
        cases.append((ComplementSimplex(n), "monomial_values", lambda X: monomial_values(m, X)))
    sizes = set()
    for res in (GridSpec().resolution_for(n),) + _EXTRA_RESOLUTIONS.get(n, ()):
        for dom, name, func in cases:
            pts = oracle._grid_points(dom, res)
            calls = []

            def record(X, func=func):
                flags = (X.flags.writeable, X.strides[0] == X.itemsize, X.flags.f_contiguous)
                calls.append((X.copy(), np.array(func(X)), flags))
                return calls[-1][1]

            grid_maximize(record, dom, GridSpec(resolution=res))
            for X, _, (writeable, contiguous_columns, f_contiguous) in calls:
                assert len(X) <= rows and not writeable, (name, dom, res)
                assert contiguous_columns, (name, dom, res)
                assert f_contiguous or not dom.is_box, (name, dom, res)
            assert np.array_equal(_bits(np.concatenate([X for X, *_ in calls])), _bits(pts)), (
                name, dom, res)
            scan = np.concatenate([v for _, v, _ in calls])
            assert np.array_equal(_bits(scan), _bits(func(pts))), (name, dom, res)
            sizes.add(len(pts))
    # every n has a grid longer than one block that is not a whole number of
    # blocks, and one that fits in a single block
    assert any(k > rows and k % rows for k in sizes)
    assert min(sizes) < rows


@pytest.mark.parametrize("dom, res", [(UnitBox(5), 12), (RatioBox(3, 2.5), 64),
                                      (SymBox(1), 200_000)], ids=repr)
def test_a_box_scan_reuses_one_block_buffer(dom, res, monkeypatch):
    # every full-size block is the same buffer, rewritten in place
    monkeypatch.setattr(oracle, "_refine", lambda func, dom, X, V, *a: (X, V))
    calls = []

    def record(X):
        calls.append(X)
        return X[:, 0] + 0.0

    grid_maximize(record, dom, GridSpec(resolution=res))
    full = [X for X in calls if len(X) == len(calls[0])]
    assert len(full) >= 2 and len(calls) > len(full)  # a shorter last block too
    assert all(np.shares_memory(X, Y) for X, Y in zip(full, full[1:]))


_BLOCK_DOMAINS = [UnitBox(1), RatioBox(3, 2.5), SymBox(4), SubBox((0.1, 0.2), (0.9, 0.4)),
                  StdSimplex(3), ComplementSimplex(5), CornerSimplexOne((0.3, 0.4, 0.5))]


@pytest.mark.parametrize("dom", _BLOCK_DOMAINS, ids=repr)
def test_grid_blocks_are_read_only_row_blocks(dom):
    rows = core.BLOCK_FLOATS // dom.n
    for res in (2, 7, GridSpec().resolution_for(dom.n)):
        sizes = []
        for P in oracle._grid_blocks(dom, res):
            assert P.ndim == 2 and P.shape[1] == dom.n and 0 < len(P) <= rows, res
            assert P.flags.f_contiguous and not P.flags.writeable, res
            sizes.append(len(P))
        assert sum(sizes) == res ** dom.n or not dom.is_box, res


@pytest.mark.parametrize("dom", _BLOCK_DOMAINS, ids=repr)
def test_kept_rows_are_a_new_array(dom):
    # on a box without orbits every row is kept, and still copied
    P = next(oracle._grid_blocks(dom, 7))
    for orbits in (False, True):
        kept = oracle._kept(dom, P, orbits)
        assert not np.shares_memory(kept, P), orbits
        assert kept.flags.f_contiguous and kept.shape[1] == dom.n, orbits
        assert len(kept) == len(P) or orbits or not dom.is_box, orbits


def test_a_box_scan_peaks_below_three_quarters_of_a_mib():
    # UnitBox(5) at resolution 12 is scanned in 21 blocks of up to 12096 x 5
    # floats, 0.46 MiB; a fresh array per block peaked at 1.06 MiB
    scan = lambda: grid_maximize(lambda X: X[:, 0] + 0.0, UnitBox(5), GridSpec(resolution=12))
    scan()  # the first call's imports and caches are not the scan's
    tracemalloc.start()
    try:
        scan()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 2 ** 20


def _generated_rows(monkeypatch, dom, res, orbits=False):
    """The uncached ``_grid_points(dom, res, orbits)`` and the rows that
    ``_grid_blocks`` generated for it. The count checks itself on the box
    UnitBox(n) at resolution 3, which generates each of its 3^n rows."""
    sizes, blocks = [], oracle._grid_blocks

    def counted(dom, res):
        for P in blocks(dom, res):
            sizes.append(len(P))
            yield P

    def run(dom, res):
        sizes.clear()
        with monkeypatch.context() as patched:
            patched.setattr(oracle, "_grid_blocks", counted)
            pts = oracle._grid_points.__wrapped__(dom, res, orbits)
        return pts, sum(sizes)

    assert run(UnitBox(dom.n), 3)[1] == 3 ** dom.n
    return run(dom, res)


def test_a_simplex_grid_generates_only_the_tiles_that_can_meet_it(monkeypatch):
    # StdSimplex(7) keeps 6435 of the 12^7 = 35831808 cell centers of its
    # bounding box; its tiles are the 12^3 centers of the last three axes
    pts, generated = _generated_rows(monkeypatch, StdSimplex(7), 12)
    assert pts.shape == (6435, 7)
    assert 20 * generated <= 12 ** 7


@pytest.mark.parametrize("dom, res", [
    (StdSimplex(7), 6), (StdSimplex(8), 4), (ComplementSimplex(7), 4),
    (CornerSimplexOne(tuple(0.3 + 0.1 * j for j in range(7))), 5),
    # entries of 1/lam up to 1e10, whose sums round far beyond 1e-9: a fixed
    # margin of 1e-9 dropped a tile that holds a member of the first
    (CornerSimplexOne((1e-9, 1e-10, 1e-10, 1e-10)), 12), (CornerSimplexOne((1e-7, 0.3, 1.0)), 64),
    (StdSimplex(5), 2), (StdSimplex(6), 2)], ids=repr)
def test_a_pruned_grid_is_the_unpruned_grid(dom, res, monkeypatch):
    # the tiles dropped off a non-box domain hold no row that the mask keeps
    for orbits in (False, True):
        pts, generated = _generated_rows(monkeypatch, dom, res, orbits)
        want = _row_major_grid(dom, res)
        if orbits:
            want = want[np.all(np.diff(want, axis=1) >= 0.0, axis=1)]
        assert np.array_equal(_bits(pts), _bits(want)), orbits
        assert pts.shape == (len(want), dom.n) and pts.flags.f_contiguous, orbits
        assert generated < res ** dom.n or not isinstance(dom, StdSimplex), orbits


def _row_major_grid(dom, res):
    """The grid as one (res^n, n) row-major array filtered by its rows."""
    lo, hi = dom.bounding_box()
    n = dom.n
    pts = np.empty((res,) * n + (n,))
    for j in range(n):
        axis = lo[j] + (np.arange(res) + 0.5) * (hi[j] - lo[j]) / res
        pts[..., j] = axis.reshape((res,) + (1,) * (n - 1 - j))
    pts = pts.reshape(-1, n)
    return pts[dom.contains_many(pts)]


@pytest.mark.parametrize("n", range(1, 7))
def test_grid_is_the_row_major_grid_stored_by_columns(n):
    # every family, the simplices' membership through a matrix product too
    doms = [UnitBox(n), SubBox((0.1,) * n, tuple(0.9 - 0.05 * j for j in range(n))),
            RatioBox(n, 2.5), SymBox(n), StdSimplex(n),
            CornerSimplexOne(tuple(0.3 + 0.1 * j for j in range(n)))]
    if n >= 2:
        doms.append(ComplementSimplex(n))
    res = GridSpec().resolution_for(n)
    for dom in doms:
        pts = oracle._grid_points(dom, res)
        assert np.array_equal(_bits(pts), _bits(_row_major_grid(dom, res))), dom
        assert pts.flags.f_contiguous and not pts.flags.writeable, dom
        with pytest.raises(ValueError):
            pts[0, 0] = 0.5


_WHOLE_BOXES = [UnitBox(2), UnitBox(3), SymBox(3), RatioBox(2, 1 + 1e-12), RatioBox(3, 2.0),
                RatioBox(2, 1e300), SubBox((0.1, 0.3, 0.2), (0.9, 0.4, 0.7)),
                SubBox((0.25, 0.5), (0.25, 0.75))]


@pytest.mark.parametrize("dom", _WHOLE_BOXES, ids=repr)
def test_a_box_grid_is_whole_and_built_without_a_mask(dom, monkeypatch):
    # a box holds every cell center of itself, so its grid keeps res^n rows
    # and never reads the membership mask
    def refuse(self, X):
        raise AssertionError("a box grid ran the membership mask")

    for res in (2, 3, GridSpec().resolution_for(dom.n)):
        with monkeypatch.context() as patched:
            patched.setattr(Domain, "contains_many", refuse)
            pts = oracle._grid_points.__wrapped__(dom, res)  # uncached
        assert len(pts) == res ** dom.n, res
        assert dom.contains_many(pts).all(), res


@pytest.mark.filterwarnings("error")
def test_a_grid_beyond_the_float_range_is_scale_exceeded():
    # (k + 0.5) * (r - 1) overflows at r = 1e307: no verdict from a grid short of cells
    m = Monomial.multilinear(2)
    with pytest.raises(ScaleExceeded, match=r"RatioBox\(n=2, r=1e\+307\) at resolution 64"):
        max_gap(m, RatioBox(2, 1e307), lambda X: np.zeros(len(X)), oracle.OVER)
    assert oracle._grid_points(RatioBox(2, 1e300), 64).shape == (4096, 2)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("bound", [None, 1.0, np.inf])
def test_an_infinite_best_value_is_scale_exceeded(bound):
    # x1 x2 overflows on RatioBox(2, 1e300): the verdict read VALID_UPPER or
    # VIOLATED with an inf measurement, and abs_gap nan where the bound is None or inf
    m = Monomial.multilinear(2)
    with pytest.raises(ScaleExceeded, match="infinite"):
        max_gap(m, RatioBox(2, 1e300), lambda X: np.zeros(len(X)), oracle.UNDER,
                bound=bound, grid=GridSpec(resolution=4))


class TestGridEngine:
    def test_monotone_under_inclusion(self):
        m = Monomial.multilinear(2)
        est = lambda X: envelopes.concave_env_unitbox(m, X)
        full = max_gap(m, UnitBox(2), est, oracle.OVER).measured_value
        for box in [SubBox((0.0, 0.0), (0.7, 0.7)), SubBox((0.2, 0.1), (0.9, 0.8))]:
            sub = max_gap(m, box, est, oracle.OVER).measured_value
            assert sub <= full + 1e-12

    def test_monomial_max_over_complement_simplex(self):
        val, _ = grid_maximize(lambda X: monomial_values(Monomial.multilinear(2), X),
                               ComplementSimplex(2))
        assert val == pytest.approx(0.25, abs=1e-6)  # max of x1 x2 on x1+x2 <= 1

    def test_refinement_never_below_grid_incumbent(self):
        m = Monomial.multilinear(2)
        spec = GridSpec(resolution=8)
        pts = oracle._grid_points(UnitBox(2), 8)
        gap = lambda X: envelopes.concave_env_unitbox(m, X) - monomial_values(m, X)
        incumbent = float(np.max(gap(pts)))
        refined, _ = grid_maximize(gap, UnitBox(2), spec)
        assert refined >= incumbent - 1e-15

    def test_argmax_is_coordinatewise_local_max(self):
        m = Monomial.multilinear(2)
        rep = max_gap(m, UnitBox(2), lambda X: envelopes.concave_env_unitbox(m, X),
                      oracle.OVER)
        x = rep.attainment_points[0]
        gap = lambda p: float(envelopes.concave_env_unitbox(m, p) - eval_monomial(m, p))
        v = gap(x)
        for j in range(2):
            for dlt in (-1e-6, 1e-6):
                y = x.copy()
                y[j] = min(max(y[j] + dlt, 0.0), 1.0)
                assert gap(y) <= v + 1e-9

    def test_deterministic_given_seed(self):
        m = Monomial.multilinear(5)
        est = lambda X: envelopes.convex_env_unitbox_multilinear(5, X)
        r1 = max_gap(m, UnitBox(5), est, oracle.UNDER, grid=GridSpec(seed=9))
        r2 = max_gap(m, UnitBox(5), est, oracle.UNDER, grid=GridSpec(seed=9))
        assert r1.measured_value == r2.measured_value
        assert np.array_equal(r1.attainment_points[0], r2.attainment_points[0])
        # nor does the seed move a verdict: nothing in the search is random
        lower = hulls.build_symbox_hull(5).envelope_lower
        s0, s9 = (max_gap(m, SymBox(5), lower, oracle.UNDER, grid=GridSpec(seed=seed))
                  for seed in (0, 9))
        assert _bits(s0.measured_value) == _bits(s9.measured_value)
        assert np.array_equal(_bits(s0.attainment_points[0]), _bits(s9.attainment_points[0]))

    def test_scale_guard_on_resolution(self, monkeypatch):
        m = Monomial.multilinear(3)
        with pytest.raises(ScaleExceeded):
            max_gap(m, UnitBox(3), lambda X: np.zeros(len(X)), oracle.UNDER,
                    grid=GridSpec(resolution=600))
        monkeypatch.setattr(oracle, "MAX_GRID_POINTS", 10_000)
        with pytest.raises(ScaleExceeded, match="cap 10000"):
            max_gap(m, UnitBox(3), lambda X: np.zeros(len(X)), oracle.UNDER,
                    grid=GridSpec(resolution=22))

    def test_no_default_grid_beyond_six(self):
        with pytest.raises(ScaleExceeded):
            GridSpec().resolution_for(7)
        # the grid's rule is sigma_numeric's too: an explicit grid works at n = 7
        m = Monomial.multilinear(7)
        assert sigma_numeric(m, UnitBox(7), np.ones(7), GridSpec(resolution=2)) == 1.0
        with pytest.raises(ScaleExceeded, match="no default grid for n=7"):
            sigma_numeric(m, UnitBox(7), np.ones(7))

    def test_attainment_loci_on_diagonal(self):
        # concave gap argmax over the unit box sits on the main diagonal
        for alpha in [(1, 1), (2, 1), (1, 1, 1)]:
            m = Monomial(alpha)
            rep = max_gap(m, UnitBox(m.n), lambda X, m=m: envelopes.concave_env_unitbox(m, X),
                          oracle.OVER)
            x = rep.attainment_points[0]
            assert np.max(np.abs(x - np.mean(x))) <= 1e-3


class TestConvexSideTheory:
    @pytest.mark.parametrize("alpha", [(2, 1), (2, 1, 1), (3, 2)])
    def test_slope_alpha_gap_equals_c2_for_general_exponents(self, alpha):
        # the degree constant is exact for max{0, 1 + alpha.(x-1)} on the
        # unit box even when the monomial is not multilinear
        m = Monomial(alpha)
        a = np.asarray(alpha, dtype=float)

        def est(X):
            return np.maximum(0.0, 1.0 + (X - 1.0) @ a)

        rep = max_gap(m, UnitBox(m.n), est, oracle.UNDER, bound=bounds.c2(m.degree))
        assert rep.measured_value == pytest.approx(bounds.c2(m.degree), abs=1e-6)
        assert np.allclose(rep.attainment_points[0], 1.0 - 1.0 / m.degree, atol=1e-3)

    def test_gamma_cut_gap_bounded_over_subboxes(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            alpha = tuple(int(a) for a in rng.integers(1, 4, size=n))
            m = Monomial(alpha)
            lower = np.zeros(n)
            upper = 0.3 + 0.7 * rng.random(n)
            box = SubBox(tuple(lower), tuple(upper))
            g = envelopes.gamma_vector(m, box)

            def est(X, g=g):
                return np.maximum(0.0, 1.0 + (X - 1.0) @ g)

            rep = max_gap(m, box, est, oracle.UNDER, bound=bounds.gamma_bound(g))
            assert rep.measured_value <= bounds.gamma_bound(g) + 1e-9
            assert bounds.gamma_bound(g) <= bounds.c2(m.degree) + 1e-12

    def test_finite_cut_family_bounded_by_errenv(self):
        rng = np.random.default_rng(34)
        for alpha in [(2, 1), (2, 2), (1, 1, 2)]:
            m = Monomial(alpha)
            n = m.n
            box = UnitBox(n)
            slopes = [np.asarray(alpha, dtype=float),
                      np.asarray(alpha, dtype=float) + rng.random(n)]
            pairs = [(s, oracle.sigma_numeric(m, box, s)) for s in slopes]

            def est(X, pairs=pairs):
                out = np.zeros(X.shape[0])
                for s, sig in pairs:
                    out = np.maximum(out, sig + (X - 1.0) @ s)
                return out

            bound = bounds.errenv_bound(m, pairs)
            rep = max_gap(m, box, est, oracle.UNDER, bound=bound)
            assert rep.measured_value <= bound + 1e-6

    def test_concave_bound_slack_when_diagonal_point_missing(self):
        # attainment needs xi'^(1/d) * (1,..,1) inside the domain; cap the
        # first coordinate below it and the bound goes strict
        m = Monomial((1, 1))
        box = SubBox((0.0, 0.0), (0.4, 1.0))
        # x1 x2 grows on the nonnegative orthant: its extremes are the box's corners
        fmin, fmax = monomial_values(m, np.array(box.bounding_box()))
        cb = bounds.concave_bound_xi(m, fmin, fmax)
        assert not box.contains(cb.point)
        rep = max_gap(m, box, lambda X: envelopes.concave_env_unitbox(m, X),
                      oracle.OVER, bound=cb.bound)
        assert rep.measured_value < cb.bound - 1e-3


class TestCornerSimplex:
    def test_slope_alpha_intercept_is_one(self):
        from monoenv import CornerSimplexOne
        rng = np.random.default_rng(35)
        for _ in range(5):
            n = int(rng.integers(2, 4))
            alpha = tuple(int(a) for a in rng.integers(1, 4, size=n))
            lam = tuple(0.3 + 0.7 * rng.random(n))
            m = Monomial(alpha)
            sig = sigma_numeric(m, CornerSimplexOne(lam), np.asarray(alpha, dtype=float))
            assert sig == pytest.approx(1.0, abs=1e-6)

    def test_slope_alpha_cut_valid_on_corner_simplex(self):
        from monoenv import CornerSimplexOne
        m = Monomial((2, 3))
        dom = CornerSimplexOne((0.8, 0.5))
        a = np.asarray(m.alpha, dtype=float)
        rng = np.random.default_rng(36)
        V = dom.vertices()
        W = rng.random((5000, len(V)))
        pts = (W / W.sum(axis=1, keepdims=True)) @ V
        ell = 1.0 + (pts - 1.0) @ a
        assert np.all(ell <= monomial_values(m, pts) + 1e-12)


class TestScaledBoxTransport:
    def test_halved_box_error(self):
        # scaling x -> x/2 transports the bilinear error 1/4 to 1/16
        m = Monomial((1, 1))
        c = np.array([0.5, 0.5])
        box = SubBox((0.0, 0.0), (0.5, 0.5))

        def transported(X):
            return 0.25 * envelopes.concave_env_unitbox(m, X / c)

        expected = bounds.c1(2) / 4  # |c**alpha| c1(2)
        rep = max_gap(m, box, transported, oracle.OVER, bound=expected)
        assert rep.measured_value == pytest.approx(expected, abs=1e-8)
        # attained at c (1/2, 1/2), the image of the unit box's attainment point
        x_t = c * 0.5
        assert np.allclose(rep.attainment_points[0], x_t, atol=1e-6)
        assert transported(x_t) - eval_monomial(m, x_t) == pytest.approx(expected)

    def test_symbox_argmax_near_a_reflection(self):
        from monoenv import hulls as _hulls
        n = 3
        m = Monomial.multilinear(n)
        fs = _hulls.build_symbox_hull(n)
        rep = max_gap(m, SymBox(n), fs.envelope_lower, oracle.UNDER,
                      bound=bounds.symbox_error(n))
        x0, _ = bounds.symbox_attainment(n)
        x = rep.attainment_points[0]
        best = min(
            float(np.max(np.abs(x - np.array(s) * x0)))
            for s in itertools.product((-1.0, 1.0), repeat=n)
        )
        assert best <= 1e-3


# ---------------------------------------------------------------------------
# Stacked refinement against the one-line-at-a-time schedule
# ---------------------------------------------------------------------------

def _seq_section_line(func, x, d, tlo, thi):
    # one call per step on the stacked x + (a + i h) d, i = 1..SECTION_POINTS
    a, b = tlo, thi
    i = np.arange(1, oracle.SECTION_POINTS + 1)[:, None]
    for _ in range(oracle.SECTION_STEPS):
        h = (b - a) / (oracle.SECTION_POINTS + 1)
        P = x + (a + i * h) * d
        vals = func(P)
        i_star = int(np.argmax(vals)) + 1
        a, b = a + (i_star - 1) * h, a + (i_star + 1) * h
    return P[i_star - 1], float(vals[i_star - 1])  # the last step's best point


def _seq_refine(func, dom, x0, v0, cell, center_weights=None):
    """Each pass searches every line from the pass's start point, one line
    after another, then moves to the first of the best line ends if it beats
    the start's value; a pass that does not move it ends the refinement. The
    lines are the coordinates, the orthant diagonal, the centering lines and
    every other sign diagonal."""
    n = dom.n
    weightings = [np.ones(n)]
    if center_weights is not None and not np.all(np.asarray(center_weights) == 1.0):
        weightings.append(np.asarray(center_weights, dtype=float))
    signs = [s for s in itertools.product((-1.0, 1.0), repeat=n) if s[0] == 1.0]
    x, v = x0.copy(), v0
    for _ in range(oracle.REFINE_PASSES):
        diag = np.where(x < 0, -1.0, 1.0)
        lines = [(e_j, float(cell[j])) for j, e_j in enumerate(np.eye(n))] + [(diag, np.inf)]
        for w in weightings:
            target = float(np.sum(w * diag * x) / np.sum(w))
            cen = diag * target - x
            if np.max(np.abs(cen)) > 1e-12:
                lines.append((cen, np.inf))
        lines += [(np.array(s), np.inf) for s in signs if abs(np.dot(s, diag)) < n]
        best_x, best_v = x, v
        for d, reach in lines:
            tlo, thi = dom.line_range(x, d)
            tlo, thi = max(tlo, -reach), min(thi, reach)
            if np.isfinite(tlo) and np.isfinite(thi) and thi - tlo > 1e-14:
                p, vt = _seq_section_line(func, x, d, tlo, thi)
                if vt > best_v:
                    best_x, best_v = p, vt
        if not best_v > v:
            break  # settled: another pass would repeat this one
        x, v = best_x, best_v
    return x, v


def _seq_grid_maximize(func, dom, spec, center_weights=None):
    """The grid incumbent, refined one line at a time."""
    res = spec.resolution_for(dom.n)
    pts = oracle._grid_points(dom, res)
    vals = func(pts)
    k = int(np.argmax(vals))
    lo, hi = dom.bounding_box()
    x, v = _seq_refine(func, dom, pts[k], float(vals[k]), (hi - lo) / res, center_weights)
    return v, x


def _lockstep_case(name):
    """(domain, function, exponents) at n = 5; every function gives a row the
    same bits whatever rows share its call."""
    alpha = (1, 2, 1, 3, 1)
    m = Monomial(alpha)
    ml = Monomial.multilinear(5)
    if name == "UnitBox":
        return UnitBox(5), lambda X: envelopes.concave_env_unitbox(m, X) - monomial_values(m, X), alpha
    if name == "SymBox":
        fs = hulls.build_symbox_hull(5)
        return SymBox(5), lambda X: fs.envelope_upper(X) - monomial_values(ml, X), alpha
    if name == "RatioBox":
        return (RatioBox(5, 1.8),
                lambda X: monomial_values(ml, X) - envelopes.convex_env_ratiobox(5, 1.8, X), alpha)
    if name == "RatioBoxConcave":
        return (RatioBox(5, 1.8),
                lambda X: envelopes.concave_env_ratiobox(5, 1.8, X) - monomial_values(ml, X), alpha)
    return StdSimplex(5), lambda X: monomial_values(m, X), alpha


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _every_pass(monkeypatch, passes):
    """Replace ``oracle._refine`` by ``passes`` one-pass calls, each fed the
    last one's point: the refinement takes every pass and never settles."""
    refine = oracle._refine
    monkeypatch.setattr(oracle, "REFINE_PASSES", 1)

    def run(func, dom, x, v, *args):
        for _ in range(passes):
            x, v = refine(func, dom, x, v, *args)
        return x, v

    monkeypatch.setattr(oracle, "_refine", run)


class TestLockstepRefinement:
    @pytest.mark.parametrize("name", ["UnitBox", "SymBox", "RatioBox", "RatioBoxConcave",
                                      "StdSimplex"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_matches_one_start_at_a_time(self, name, weighted):
        # one stack per pass gives the bits of searching its lines one by one
        dom, func, alpha = _lockstep_case(name)
        weights = np.asarray(alpha, float) if weighted else None
        spec = GridSpec(resolution=6)
        v_ref, x_ref = _seq_grid_maximize(func, dom, spec, weights)
        v, x = grid_maximize(func, dom, spec, center_weights=weights)
        assert _bits(v) == _bits(v_ref)
        assert np.array_equal(_bits(x), _bits(x_ref))

    def test_default_spec_matches_on_unit_box(self):
        dom, func, alpha = _lockstep_case("UnitBox")
        weights = np.asarray(alpha, float)
        v_ref, x_ref = _seq_grid_maximize(func, dom, GridSpec(), weights)
        v, x = grid_maximize(func, dom, GridSpec(), center_weights=weights)
        assert _bits(v) == _bits(v_ref)
        assert np.array_equal(_bits(x), _bits(x_ref))

    def test_estimator_calls_per_verdict(self):
        # one call per section step evaluates 32 points of every searched
        # line; a one-point-per-call line search needs about 900 calls here.
        # The scan takes 13 calls (by_blocks blocks), then refinement
        # REFINE_PASSES passes of SECTION_STEPS calls each
        n = 3
        m = Monomial.multilinear(n)
        calls = []

        def est(X):
            calls.append(len(X))
            return envelopes.convex_env_unitbox_multilinear(n, X)

        rep = max_gap(m, UnitBox(n), est, oracle.UNDER, bound=bounds.c2(n))
        assert rep.verdict is Verdict.TIGHT
        assert len(calls) == 13 + 3 * oracle.SECTION_STEPS

    def test_only_the_incumbent_searches_every_sign_diagonal(self):
        # at n = 5 the incumbent searches 5 coordinate lines, its orthant
        # diagonal, one centering line and the other 15 sign diagonals, in
        # every pass while it is still rising
        n, steps = 5, oracle.SECTION_STEPS
        c = np.array([0.52, 0.47, 0.55, 0.44, 0.5])
        calls = []

        def func(X):
            calls.append(len(X))
            return -np.sum((X - c) ** 2, axis=1)

        def rows_per_call(x0):
            x0 = np.array(x0, float)
            calls.clear()
            oracle._refine(func, UnitBox(n), x0, -np.sum((x0 - c) ** 2), np.full(n, 0.1))
            return calls

        lines = n + 2 + 15
        rows = rows_per_call([0.3, 0.6, 0.2, 0.7, 0.4])
        assert len(rows) > steps and set(rows) == {oracle.SECTION_POINTS * lines}
        # at the maximum it settles in the first pass
        assert rows_per_call(c) == [oracle.SECTION_POINTS * lines] * steps

    def test_no_sign_diagonals_without_a_default_grid(self):
        # GridSpec(resolution=2) scans UnitBox(21) (2^21 cells); its incumbent
        # keeps its coordinate lines, orthant diagonal and centering line, not
        # the 2^20 sign diagonals, which would need 2^20 x 32 points a step
        n = 21
        c = np.linspace(0.2, 0.45, n)
        calls = []

        def func(X):
            calls.append(len(X))
            return -np.sum((X - c) ** 2, axis=1)

        x0 = np.full(n, 0.25)  # a cell center of the resolution-2 grid
        v0 = func(x0[None, :])[0]
        calls.clear()
        _, v = oracle._refine(func, UnitBox(n), x0, v0, np.full(n, 0.5))
        assert v > v0
        assert max(calls) <= oracle.SECTION_POINTS * (n + 2)

    def test_first_of_equal_values_wins(self):
        # a constant function: no line beats the grid incumbent, which stays,
        # returned as an array of its own, not a view of the read-only grid
        v, x = grid_maximize(lambda X: np.zeros(len(X)), UnitBox(5), GridSpec(resolution=4))
        pts = oracle._grid_points(UnitBox(5), 4)
        assert v == 0.0
        assert np.array_equal(x, pts[0])
        assert x.flags.writeable and not np.shares_memory(x, pts)

    def test_a_start_whose_value_did_not_rise_gets_no_further_pass(self, monkeypatch):
        # the start at the maximizer never rises, so it takes the first pass
        # only; a start that rises in every pass takes all three
        c = np.array([0.9, 0.1])
        steps = oracle.SECTION_STEPS
        rows = []

        def func(X):
            rows.append(len(X))
            return -(X[:, 0] - c[0]) ** 2 - 10 * (X[:, 1] - c[1]) ** 2

        def refine_rows(x0, passes):
            monkeypatch.setattr(oracle, "REFINE_PASSES", passes)
            x0 = np.array(x0, float)
            v0 = -(x0[0] - c[0]) ** 2 - 10 * (x0[1] - c[1]) ** 2
            rows.clear()
            _, v = oracle._refine(func, UnitBox(2), x0, v0, np.full(2, 0.05))
            return list(rows), v

        top, v_top = refine_rows(c, 3)
        assert v_top == 0.0
        assert len(top) == steps  # one pass
        climb = [refine_rows([0.1, 0.9], p) for p in (1, 2, 3)]
        assert climb[0][1] < climb[1][1] < climb[2][1]  # a rise in every pass
        assert len(climb[2][0]) == 3 * steps

    def test_settled_start_skips_its_remaining_passes(self, monkeypatch):
        # the bilinear start settles before the last pass; running every pass
        # (no start ever settled) costs calls and changes no bit
        m = Monomial.multilinear(2)

        def verdict():
            calls = []

            def est(X):
                calls.append(len(X))
                return envelopes.concave_env_unitbox(m, X)

            return max_gap(m, UnitBox(2), est, oracle.OVER, bound=0.25), len(calls)

        rep, settled = verdict()
        _every_pass(monkeypatch, oracle.REFINE_PASSES)
        full, every_pass = verdict()
        assert settled < every_pass
        assert _bits(rep.measured_value) == _bits(full.measured_value)
        assert np.array_equal(_bits(rep.attainment_points[0]), _bits(full.attainment_points[0]))

    @pytest.mark.parametrize("name", ["UnitBox", "SymBox", "RatioBox", "RatioBoxConcave",
                                      "StdSimplex"])
    def test_settled_starts_change_no_bit(self, name, monkeypatch):
        # the point and value from each of 8 starts, against the schedule that
        # runs all passes; with 16 passes some starts settle in each case (on
        # the simplex the first settles after 13)
        monkeypatch.setattr(oracle, "REFINE_PASSES", 16)
        dom, func, alpha = _lockstep_case(name)
        lo, hi = dom.bounding_box()
        cand = lo + np.random.default_rng(3).random((4096, 5)) * (hi - lo)
        X0 = cand[dom.contains_many(cand)][:8]
        V0 = func(X0)

        def refine():
            rows = []

            def counted(X):
                rows.append(len(X))
                return func(X)

            ends = [oracle._refine(counted, dom, x0, v0, (hi - lo) / 6, np.asarray(alpha, float))
                    for x0, v0 in zip(X0, V0)]
            return np.array([x for x, _ in ends]), np.array([v for _, v in ends]), sum(rows)

        X, V, settled = refine()
        _every_pass(monkeypatch, 16)
        X_full, V_full, every_pass = refine()
        assert np.array_equal(_bits(X), _bits(X_full))
        assert np.array_equal(_bits(V), _bits(V_full))
        assert settled < every_pass


# Bits of default-grid verdicts, as float.hex of the measured value and of the
# attainment point. A change that moves any of them lists what moved and
# updates this table.
PINNED_VERDICTS = {
    "unit-concave-2": ("0x1.0000000000000p-2",
        ("0x1.ffffffc000105p-2", "0x1.ffffffc000105p-2")),
    "unit-concave-4": ("0x1.e3cf476542bd0p-2",
        ("0x1.428a2f6c731b2p-1", "0x1.428a2f6c731b2p-1", "0x1.428a2f6c731b2p-1",
         "0x1.428a2f6c731b2p-1")),
    "unit-concave-weighted-3": ("0x1.e3cf476542bd0p-2",
        ("0x1.428a2f6c731b2p-1", "0x1.428a2f6c731b2p-1", "0x1.428a2f6c731b2p-1")),
    "unit-convex-3": ("0x1.2f684bda12f68p-2",
        ("0x1.555555555553fp-1", "0x1.555555555555fp-1", "0x1.5555555555561p-1")),
    "unit-convex-5": ("0x1.4f8b588e368f0p-2",
        ("0x1.999999999981cp-1", "0x1.9999999999a98p-1", "0x1.9999999999a98p-1",
         "0x1.9999999999a98p-1", "0x1.999999999981cp-1")),
    "ratio-convex-3": ("0x1.425ed097b4268p-1",
        ("0x1.aaaaaaaaaaaa3p+0", "0x1.aaaaaaaaaaaafp+0", "0x1.aaaaaaaaaaab0p+0")),
    "ratio-convex-5": ("0x1.72a5a469d7360p+1",
        ("0x1.ccccccccccc13p+0", "0x1.ccccccccccd4cp+0", "0x1.ccccccccccd4cp+0",
         "0x1.ccccccccccc0ep+0", "0x1.ccccccccccd4cp+0")),
    "ratio-concave-5": ("0x1.24464e0402310p+3",
        ("0x1.93f5a588baa76p+0", "0x1.93f5a588baa76p+0", "0x1.93f5a588baa76p+0",
         "0x1.93f5a588baa76p+0", "0x1.93f5a588baa76p+0")),
    "sym-convex-3": ("0x1.097b425ed097bp+0",
        ("-0x1.555555555572cp-2", "-0x1.5555555555467p-2", "0x1.5555555555467p-2")),
    "sym-convex-5": ("0x1.13e81450efdc9p+0",
        ("-0x1.3333333332c05p-1", "-0x1.33333333337f7p-1", "-0x1.33333333337f7p-1",
         "-0x1.33333333337f7p-1", "0x1.3333333332c05p-1")),
    "sym-concave-2": ("0x1.0000000000000p+0",
        ("0x1.ffff7d4800000p-28", "0x1.ffff7d4800000p-28")),
    "sym-concave-4": ("0x1.1000000000000p+0",
        ("-0x1.00000083c23d0p-1", "-0x1.00000083c23d0p-1", "-0x1.fffffef87b860p-2",
         "0x1.fffffef87b860p-2")),
    "simplex-concave-3": ("0x1.2f684bda12f17p-2",
        ("0x1.55555555554dbp-2", "0x1.55555555554dbp-2", "0x1.55555555554dbp-2")),
    "simplex-concave-5": ("0x1.98f1d3ed52755p-3",
        ("0x1.9999999999908p-3", "0x1.9999999999908p-3", "0x1.9999999999908p-3",
         "0x1.9999999999908p-3", "0x1.9999999999908p-3")),
}


def _pinned_case(name):
    family, n = name.rsplit("-", 1)
    n = int(n)
    m = Monomial.multilinear(n)
    if family == "unit-concave-weighted":
        m = Monomial((2,) + (1,) * (n - 1))
        return m, UnitBox(n), envelopes.concave_unitbox(m), oracle.OVER
    return {
        "unit-concave": (m, UnitBox(n), envelopes.concave_unitbox(m), oracle.OVER),
        "unit-convex": (m, UnitBox(n), envelopes.convex_unitbox_multilinear(n), oracle.UNDER),
        "ratio-convex": (m, RatioBox(n, 2.0), envelopes.convex_ratiobox(n, 2.0), oracle.UNDER),
        "ratio-concave": (m, RatioBox(n, 2.0), envelopes.concave_ratiobox(n, 2.0), oracle.OVER),
        "sym-convex": (m, SymBox(n), hulls.build_symbox_hull(n).envelope_lower, oracle.UNDER),
        "sym-concave": (m, SymBox(n), hulls.build_symbox_hull(n).envelope_upper, oracle.OVER),
        "simplex-concave": (m, StdSimplex(n), envelopes.concave_unitbox(m), oracle.OVER),
    }[family]


@pytest.mark.parametrize("name", sorted(PINNED_VERDICTS))
def test_verdict_bits_are_pinned(name):
    m, dom, estimator, side = _pinned_case(name)
    rep = max_gap(m, dom, estimator, side)
    value, point = PINNED_VERDICTS[name]
    assert float(rep.measured_value).hex() == value
    assert tuple(float(x).hex() for x in rep.attainment_points[0]) == point


def _symmetric_families(n):
    return [dom for dom in (UnitBox(n), RatioBox(n, 2.5), SymBox(n), StdSimplex(n))
            + ((ComplementSimplex(n),) if n >= 2 else ()) if dom.symmetric]


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_points_are_the_nondecreasing_grid_rows(n):
    doms = _symmetric_families(n)
    assert len(doms) == 4 + (n >= 2)
    for dom in doms:
        for res in (2, 3, GridSpec().resolution_for(n)):
            grid = oracle._grid_points(dom, res)
            pts = oracle._grid_points(dom, res, True)
            want = grid[np.all(np.diff(grid, axis=1) >= 0.0, axis=1)]
            assert np.array_equal(_bits(pts), _bits(want)), (dom, res)
            assert pts.flags.f_contiguous and not pts.flags.writeable, (dom, res)


def test_orbit_row_counts_at_the_default_resolution():
    counts = [len(oracle._grid_points(SymBox(n), GridSpec().resolution_for(n), True))
              for n in range(2, 7)]
    assert counts == [2080, 45760, 17550, 4368, 1716]
    assert len(oracle._grid_points(StdSimplex(3), 64, True)) == 7799


def test_the_orbit_scan_never_builds_the_full_grid(monkeypatch):
    # the orbit rows are joined block by block: RatioBox(4, r)'s full grid is
    # 331776 x 4 floats, 10.6 MB, and SymBox(6)'s 262144 x 6, 12.6 MB
    m, dom, r = Monomial.multilinear(4), RatioBox(4, 2.0312), 2.0312  # no cache holds its rows
    for box in (dom, SymBox(6)):
        res = GridSpec().resolution_for(box.n)
        tracemalloc.start()
        try:
            pts = oracle._grid_points.__wrapped__(box, res, True)  # uncached
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pts) == {4: 17550, 6: 1716}[box.n]
        assert peak < 4 * 2 ** 20, box
    env = envelopes.concave_ratiobox(4, r)
    rep = max_gap(m, dom, env, oracle.OVER, bound=bounds.ratio_box_constants(4, r)[1])
    assert rep.verdict is Verdict.TIGHT
    _, rows = _rows_scanned(monkeypatch, lambda f: grid_maximize(f, dom), env)
    assert rows == len(oracle._grid_points(dom, GridSpec().resolution_for(4), True))
    # nor does the full scan of a plain callable: a box's blocks come from its axes
    _, rows = _scan_rows(monkeypatch, m, dom, lambda X: env.value(X), oracle.OVER)
    assert rows == GridSpec().resolution_for(4) ** 4


@pytest.mark.parametrize("dom", [UnitBox(3), RatioBox(4, 2.0314), SymBox(5),
                                 SubBox((0.1, 0.3, 0.2, 0.0), (0.9, 0.4, 0.7, 0.5))], ids=repr)
def test_a_box_scan_never_builds_its_grid(dom, monkeypatch):
    # a box's full scan generates its rows block by block from the axes, so
    # no box grid is stored: every res^n row is scanned without _grid_points
    def refuse(*args):
        raise AssertionError("the full grid was built")

    monkeypatch.setattr(oracle, "_grid_points", refuse)
    m = Monomial.multilinear(dom.n)
    _, rows = _rows_scanned(monkeypatch, lambda f: grid_maximize(f, dom),
                            lambda X: monomial_values(m, X))
    assert rows == GridSpec().resolution_for(dom.n) ** dom.n


def test_a_ratio_box_scan_peaks_below_four_mib():
    # a fresh RatioBox(4, r) grid is 331776 x 4 floats, 10.6 MB; the scan
    # holds blocks of at most 16384 rows
    r = 2.0313  # no cache holds its rows
    dom = RatioBox(4, r)
    tracemalloc.start()
    try:
        grid_maximize(lambda X: envelopes.concave_env_ratiobox(4, r, X), dom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_a_stored_grid_peaks_below_four_mib():
    # StdSimplex(6) at resolution 12 keeps 5005 of the 12^6 = 2985984 cell
    # centers of its bounding box, 0.23 MiB; the whole box would be 143 MiB
    oracle._grid_points.cache_clear()
    tracemalloc.start()
    try:
        pts = oracle._grid_points(StdSimplex(6), 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pts.shape == (5005, 6)
    assert peak < 4 * 2 ** 20


def test_a_grid_without_interior_cell_centers_is_scale_exceeded():
    # every center of the resolution-2 grid has coordinates 0.25 or 0.75,
    # so each sums to at least 1.25 > 1 in five dimensions
    with pytest.raises(ScaleExceeded, match="no interior cell centers"):
        grid_maximize(lambda X: X[:, 0], StdSimplex(5), GridSpec(resolution=2))


def _rows_scanned(monkeypatch, search, func):
    """search(func), where func is a function or an ``Envelope``, and the
    rows that its grid scan handed func before the refinement."""
    rows, scanned = [], []
    refine = oracle._refine

    def marked(*args):
        scanned.append(sum(rows))
        return refine(*args)

    def counted(value):
        def count(X):
            rows.append(len(X))
            return value(X)
        return count

    func = (dataclasses.replace(func, value=counted(func.value))
            if isinstance(func, envelopes.Envelope) else counted(func))
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_refine", marked)
        out = search(func)
    return out, scanned[0]


def _scan_rows(monkeypatch, m, dom, estimator, side):
    """``max_gap``'s report and the rows its grid scan handed the estimator."""
    return _rows_scanned(monkeypatch, lambda est: max_gap(m, dom, est, side), estimator)


# cases whose maximizers lie on the diagonal, an orbit of one row, or whose
# gap is exact on the grid: the orbit scan gives the full scan's bits
_ORBIT_BITS = {"unit-conc", "ratio-conc", "sym-lo", "sym-hi", "simplex-conc"}


@pytest.mark.parametrize("n", range(2, 7))
def test_the_orbit_scan_agrees_with_the_full_scan(n, monkeypatch):
    ml, m2 = Monomial.multilinear(n), Monomial((2,) * n)
    fs = hulls.build_symbox_hull(n)
    zero = envelopes.Envelope(StdSimplex(n), lambda X: np.zeros(len(X)), symmetric=True)
    cases = [("unit-conc", ml, envelopes.concave_unitbox(ml), oracle.OVER),
             ("unit-conc", m2, envelopes.concave_unitbox(m2), oracle.OVER),
             ("unit-cvx", ml, envelopes.convex_unitbox_multilinear(n), oracle.UNDER),
             ("sym-lo", ml, fs.envelope_lower, oracle.UNDER),
             ("sym-hi", ml, fs.envelope_upper, oracle.OVER),
             ("simplex-cvx", ml, zero, oracle.UNDER),
             ("simplex-cvx", m2, zero, oracle.UNDER)]
    for r in (1.3, 2.7):
        cases += [("ratio-conc", ml, envelopes.concave_ratiobox(n, r), oracle.OVER),
                  ("ratio-cvx", ml, envelopes.convex_ratiobox(n, r), oracle.UNDER)]
    for m in (ml, m2):
        conc = envelopes.Envelope(StdSimplex(n), envelopes.concave_unitbox(m).value, symmetric=True)
        cases.append(("simplex-conc", m, conc, oracle.OVER))
    res = GridSpec().resolution_for(n)
    for name, m, env, side in cases:
        rep, rows = _scan_rows(monkeypatch, m, env.dom, env, side)
        ref, full = _scan_rows(monkeypatch, m, env.dom, lambda X: env.value(X), side)
        assert rows == len(oracle._grid_points(env.dom, res, True)) < full, (name, m)
        assert full == len(oracle._grid_points(env.dom, res)), (name, m)
        if name in _ORBIT_BITS:
            assert _report_bits(rep) == _report_bits(ref), (name, m)
        else:
            assert rep.measured_value == pytest.approx(ref.measured_value, rel=1e-14, abs=0.0)


def test_a_degenerate_box_keeps_equal_rows_and_the_full_scan_bits(monkeypatch):
    # the 64 cell centers of [1, 1 + 1e-14] are 46 distinct floats, so more
    # rows have nondecreasing values (46948) than nondecreasing indices
    # (45760); each extra row is a bit-copy of a row with nondecreasing indices
    n, r = 3, 1 + 1e-14
    dom, res = RatioBox(n, r), GridSpec().resolution_for(n)
    assert len(np.unique(oracle._cell_centers(dom, res)[0])) == 46
    pts = oracle._grid_points(dom, res, True)
    assert len(pts) == 46948
    idx = np.array(list(itertools.product(range(res), repeat=n)))
    up = np.all(np.diff(idx, axis=1) >= 0, axis=1)
    assert up.sum() == 45760
    grid = oracle._grid_points(dom, res)
    kept = np.all(np.diff(grid, axis=1) >= 0.0, axis=1)
    rows = {row.tobytes() for row in _bits(grid[up])}
    assert np.array_equal(_bits(pts), _bits(grid[kept]))
    assert all(row.tobytes() in rows for row in _bits(grid[kept & ~up]))
    m, env = Monomial.multilinear(n), envelopes.concave_ratiobox(n, r)
    rep, scanned = _scan_rows(monkeypatch, m, dom, env, oracle.OVER)
    ref, full = _scan_rows(monkeypatch, m, dom, lambda X: env.value(X), oracle.OVER)
    assert (scanned, full) == (46948, res ** n)
    assert _report_bits(rep) == _report_bits(ref)


def test_these_scans_keep_the_full_grid(monkeypatch):
    m, ml = Monomial((2, 1, 1)), Monomial.multilinear(3)
    conc = envelopes.concave_unitbox(ml)
    full = len(oracle._grid_points(UnitBox(3), 64))
    plain, undeclared = lambda X: conc.value(X), envelopes.Envelope(UnitBox(3), conc.value)
    for mono, est in ((m, envelopes.concave_unitbox(m)),  # unequal exponents
                      (ml, plain), (ml, undeclared)):
        assert _scan_rows(monkeypatch, mono, UnitBox(3), est, oracle.OVER)[1] == full
    assert _scan_rows(monkeypatch, ml, UnitBox(3), conc, oracle.OVER)[1] < full
    for func in (plain, undeclared):
        assert _rows_scanned(monkeypatch, lambda f: grid_maximize(f, UnitBox(3)), func)[1] == full
    # an Envelope over another domain is called through its checked call
    simplex = StdSimplex(3)
    assert _rows_scanned(monkeypatch, lambda f: grid_maximize(f, simplex), conc)[1] == len(
        oracle._grid_points(simplex, 64))
