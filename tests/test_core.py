import dataclasses

import numpy as np
import pytest

from monoenv import (
    ComplementSimplex,
    CornerSimplexOne,
    DimensionMismatch,
    Monomial,
    RatioBox,
    ScaleExceeded,
    StdSimplex,
    SubBox,
    SymBox,
    UnitBox,
    Verdict,
    error_report,
    eval_monomial,
    scale_error,
    scale_point,
)
from monoenv.core import monomial_values


class TestMonomial:
    def test_basic_fields(self):
        m = Monomial((2, 1, 3))
        assert m.n == 3
        assert m.degree == 6
        assert not m.is_multilinear()
        assert not m.is_symmetric()
        assert Monomial.multilinear(4).is_multilinear()
        assert Monomial((2, 2)).is_symmetric()

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            Monomial((0, 1))
        with pytest.raises(ValueError):
            Monomial((1.5, 1))
        with pytest.raises(ValueError):
            Monomial(())

    def test_degree_at_least_n(self):
        for alpha in [(1,), (1, 1), (3, 2, 1)]:
            m = Monomial(alpha)
            assert m.degree >= m.n


class TestEvalMonomial:
    def test_identity_case(self):
        assert eval_monomial(Monomial((1, 1, 1)), [1.0, 1.0, 1.0]) == 1.0

    def test_direct_power(self):
        assert eval_monomial(Monomial((2, 1)), [0.5, 1.0]) == 0.25

    def test_sign_case(self):
        assert eval_monomial(Monomial((1, 1, 1)), [-1.0, 1.0, 1.0]) == -1.0

    def test_even_exponent_kills_sign(self):
        assert eval_monomial(Monomial((2, 1)), [-0.5, 1.0]) == 0.25

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_monomial(Monomial((1, 1)), [1.0, 1.0, 1.0])

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        m = Monomial((3, 1, 2))
        X = rng.uniform(-1.0, 1.0, (50, 3))
        vals = eval_monomial(m, X)
        for x, v in zip(X, vals):
            assert eval_monomial(m, x) == pytest.approx(v, abs=1e-15)

    def test_one_and_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            alpha = tuple(int(a) for a in rng.integers(1, 4, size=n))
            m = Monomial(alpha)
            assert eval_monomial(m, np.ones(n)) == 1.0
            x = rng.random(n)
            x[int(rng.integers(0, n))] = 0.0
            assert eval_monomial(m, x) == 0.0

    def test_bounded_by_min_coordinate_on_unit_box(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            alpha = tuple(int(a) for a in rng.integers(1, 4, size=n))
            x = rng.random(n)
            v = eval_monomial(Monomial(alpha), x)
            assert 0.0 <= v <= np.min(x) + 1e-15


class TestScaleError:
    def test_doubling_box(self):
        assert scale_error(0.25, [2.0, 2.0], Monomial((1, 1))) == 1.0

    def test_identity_scaling(self):
        assert scale_error(1.0, [1.0, 1.0, 1.0], Monomial((1, 1, 1))) == 1.0

    def test_reflection_preserves_error(self):
        # |c**alpha| = 1 for a pure reflection
        err = 28.0 / 27.0
        assert scale_error(err, [-1.0, 1.0, 1.0], Monomial((1, 1, 1))) == pytest.approx(err)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            scale_error(1.0, [0.0, 1.0], Monomial((1, 1)))

    def test_companion_point_map(self):
        m = Monomial((1, 1, 1))
        x, w = scale_point([1 / 3, 1 / 3, 1 / 3], -1.0, [-1.0, 1.0, 1.0], m)
        assert np.allclose(x, [-1 / 3, 1 / 3, 1 / 3])
        assert w == 1.0
        # error value is preserved at the mapped point
        assert abs(w - eval_monomial(m, x)) == pytest.approx(28.0 / 27.0)


class TestDomains:
    DOMAINS = [
        UnitBox(3),
        SubBox((0.1, 0.0), (0.6, 1.0)),
        RatioBox(2, 2.0),
        SymBox(3),
        StdSimplex(3),
        CornerSimplexOne((0.5, 1.0)),
        ComplementSimplex(3),
    ]

    def test_validation(self):
        with pytest.raises(ValueError):
            SubBox((0.5,), (0.4,))
        with pytest.raises(ValueError):
            SubBox((0.0,), (1.2,))
        with pytest.raises(ValueError):
            RatioBox(2, 1.0)
        with pytest.raises(ValueError):
            CornerSimplexOne((0.0, 0.5))
        with pytest.raises(ValueError):
            CornerSimplexOne((1.2,))

    def test_membership_examples(self):
        assert StdSimplex(2).contains([0.3, 0.3])
        assert not StdSimplex(2).contains([0.8, 0.8])
        assert ComplementSimplex(3).contains([1.0, 1.0, 0.0])
        assert not ComplementSimplex(3).contains([1.0, 1.0, 0.5])
        assert CornerSimplexOne((0.5, 1.0)).contains([1.0, 0.0])
        assert not CornerSimplexOne((0.5, 1.0)).contains([0.4, 0.0])
        assert RatioBox(2, 2.0).contains([1.5, 2.0])
        assert not RatioBox(2, 2.0).contains([0.9, 1.5])

    @pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: type(d).__name__)
    def test_vertices_are_members(self, dom):
        V = dom.vertices()
        assert np.all(dom.contains_many(V))

    @pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: type(d).__name__)
    def test_contains_matches_halfspaces_on_samples(self, dom):
        rng = np.random.default_rng(7)
        lo, hi = dom.bounding_box()
        X = lo + rng.random((500, dom.n)) * (hi - lo)
        A, b = dom.halfspaces()
        expected = np.all(X @ A.T <= b + 1e-9, axis=1)
        assert np.array_equal(dom.contains_many(X), expected)

    @pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: type(d).__name__)
    def test_coordinate_range_stays_feasible(self, dom):
        rng = np.random.default_rng(8)
        V = dom.vertices()
        # random convex combinations are feasible starting points
        for _ in range(20):
            w = rng.random(len(V))
            x = (w / w.sum()) @ V
            for j in range(dom.n):
                lo_j, hi_j = dom.coordinate_range(x, j)
                assert lo_j <= x[j] + 1e-9 and x[j] - 1e-9 <= hi_j
                y = x.copy()
                y[j] = lo_j
                assert dom.contains(y, tol=1e-7)
                y[j] = hi_j
                assert dom.contains(y, tol=1e-7)

    @pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: type(d).__name__)
    def test_halfspaces_read_only_and_shared(self, dom):
        A, b = dom.halfspaces()
        assert not A.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError):
            A[0, 0] = 7.0
        twin = dataclasses.replace(dom)
        assert twin == dom and twin is not dom
        A2, b2 = twin.halfspaces()
        assert A2 is A and b2 is b

    @pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: type(d).__name__)
    def test_stacked_ranges_match_row_by_row(self, dom):
        # a stack of rows gets the bits each row gets alone
        rng = np.random.default_rng(9)
        V = dom.vertices()
        W = rng.random((6, len(V)))
        X = (W / W.sum(axis=1, keepdims=True)) @ V
        D = rng.standard_normal((6, dom.n))
        tlo, thi = dom.line_range(X, D)
        for k in range(6):
            assert (tlo[k], thi[k]) == dom.line_range(X[k], D[k])
        for j in range(dom.n):
            lo_j, hi_j = dom.coordinate_range(X, j)
            for k in range(6):
                assert (lo_j[k], hi_j[k]) == dom.coordinate_range(X[k], j)

    def test_vertex_count(self):
        assert len(UnitBox(4).vertices()) == 16
        assert len(StdSimplex(3).vertices()) == 4
        assert len(ComplementSimplex(3).vertices()) == 7
        assert len(CornerSimplexOne((0.5, 0.5, 0.5)).vertices()) == 4

    def test_vertex_enumeration_scale_guard(self):
        with pytest.raises(ScaleExceeded):
            UnitBox(25).vertices()


class TestErrorReport:
    def test_tight(self):
        rep = error_report(1.0, 1.0 + 5e-5, tol=1e-4)
        assert rep.verdict is Verdict.TIGHT
        assert rep.ok

    def test_valid_upper(self):
        rep = error_report(1.0, 0.5, tol=1e-4)
        assert rep.verdict is Verdict.VALID_UPPER
        assert rep.ok
        assert rep.abs_gap == pytest.approx(0.5)

    def test_violated(self):
        rep = error_report(1.0, 1.001, tol=1e-4)
        assert rep.verdict is Verdict.VIOLATED
        assert not rep.ok

    @pytest.mark.parametrize("bound, measured, tol", [
        (0.25, float("nan"), 1e-4),
        (float("nan"), 0.25, 1e-4),
        (0.25, 0.25, float("nan")),
        (0.25, 0.25, -1.0),
    ], ids=["nan-measured", "nan-bound", "nan-tol", "negative-tol"])
    def test_rejects_nan_and_negative_tolerance(self, bound, measured, tol):
        # each of these used to classify as VALID_UPPER or VIOLATED
        with pytest.raises(ValueError):
            error_report(bound, measured, tol=tol)

    def test_infinite_bound_is_valid_upper(self):
        assert error_report(float("inf"), 0.25).verdict is Verdict.VALID_UPPER


def test_monomial_values_handles_negative_grid():
    m = Monomial((1, 2))
    X = np.array([[-0.5, -0.5], [-1.0, 1.0], [0.5, -1.0]])
    assert np.allclose(monomial_values(m, X), [-0.125, -1.0, 0.5])
