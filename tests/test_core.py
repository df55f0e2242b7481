import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from monoenv import (
    ComplementSimplex,
    CornerSimplexOne,
    DimensionMismatch,
    Monomial,
    OutsideDomain,
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
from monoenv import envelopes
from monoenv.core import TOL_EXACT, as_points, monomial_values


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

    def test_a_three_dimensional_stack_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="got ndim=3"):
            as_points(np.ones((2, 3, 2)), 2)

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
        with pytest.raises(ValueError, match="lower/upper must be nonempty vectors of equal length"):
            SubBox((0.1, 0.2), (0.5,))
        with pytest.raises(ValueError, match="lam must be nonempty"):
            CornerSimplexOne(())

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: type(d).__name__)
    def test_an_infinite_or_huge_row_is_outside_without_a_warning(self, dom):
        # inf times a zero of A is nan in A x, and a sum of +-1e308 overflows;
        # the row fails, and numpy says nothing
        x = dom.vertices().mean(axis=0)
        rows = [np.full(dom.n, v) for v in (1e308, -1e308)]
        for v in (np.inf, -np.inf):
            for j in range(dom.n):
                rows.append(x.copy())
                rows[-1][j] = v
        for row in rows:
            assert not dom.contains(row)
            with pytest.raises(OutsideDomain) as exc:
                dom.require_inside([x, row])
            assert str(exc.value) == f"point {row.tolist()} is outside {dom}"

    @pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: type(d).__name__)
    def test_coordinate_range_stays_feasible(self, dom):
        rng = np.random.default_rng(8)
        V = dom.vertices()
        # random convex combinations are feasible starting points
        for _ in range(20):
            w = rng.random(len(V))
            x = (w / w.sum()) @ V
            for e_j in np.eye(dom.n):
                tlo, thi = dom.line_range(x, e_j)
                assert tlo <= 1e-9 and -1e-9 <= thi
                assert dom.contains(x + tlo * e_j)
                assert dom.contains(x + thi * e_j)

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
        for e_j in np.eye(dom.n):
            tlo, thi = dom.line_range(X, np.tile(e_j, (6, 1)))
            for k in range(6):
                assert (tlo[k], thi[k]) == dom.line_range(X[k], e_j)

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


def test_square_at_n1_matches_square_beside_a_unit_factor():
    # numpy squares a stride-0 exponent 2 by x*x, which is not pow(); with the
    # length-1 exponent of n = 1 it used to take that path on 5.5 % of points
    x = np.random.default_rng(3).uniform(-2.0, 2.0, 10_000)
    one = monomial_values(Monomial((2,)), x[:, None])
    two = monomial_values(Monomial((2, 1)), np.column_stack([x, np.ones_like(x)]))
    assert np.array_equal(one.view(np.int64), two.view(np.int64))


# ---------------------------------------------------------------------------
# Column-wise kernels against the row reductions they replaced
# ---------------------------------------------------------------------------

def _rows_monomial(alpha, X):
    a = np.asarray(alpha, dtype=np.int64)
    mags = np.power(np.abs(X), a)
    neg = (X < 0) & (a % 2).astype(bool)
    return np.prod(mags * np.where(neg, -1.0, 1.0), axis=-1)


def _rows_contains(dom, X):
    A, b = dom.halfspaces()
    return np.all(X @ A.T <= b + TOL_EXACT, axis=1)


def _rows_ratio_cvx(n, r, X):
    s = np.sum(X, axis=-1)
    pieces = [r ** (i - 1) * (s - (n - i) - r * (i - 1)) for i in range(1, n + 1)]
    return np.max(np.stack(pieces, axis=-1), axis=-1)


def _rows_symbox(X):
    n = X.shape[-1]
    absX = np.abs(X)
    tot = np.add.reduce(absX, axis=-1)
    sm2 = 2.0 * np.minimum.reduce(absX, axis=-1)
    k = np.logical_xor.reduce(X < 0, axis=-1) * sm2
    return np.maximum(tot - k - (n - 1), -1.0), np.minimum(sm2 - k - tot + (n - 1), 1.0)


def _same_bits(got, want):
    """Equal values, nan where nan, and the same sign bit on every non-nan
    entry (a unit factor keeps a nan's sign, the row kernel dropped it)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=want.dtype.kind == "f")
    if want.dtype.kind == "f":
        real = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


# nan and inf rows warn in the old and the new kernels alike
_quiet = pytest.mark.filterwarnings("ignore::RuntimeWarning")

_SPECIAL = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, np.nan, np.inf, -np.inf,
            1.0 + TOL_EXACT, -1.0 - TOL_EXACT, -TOL_EXACT, 2.0 + TOL_EXACT)


def _rows(draw, n, special=_SPECIAL, lo=-2.5, hi=2.5):
    elems = st.one_of(st.sampled_from(special), st.floats(lo, hi))
    return draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), n), elements=elems))


@st.composite
def _monomial_rows(draw):
    n = draw(st.integers(2, 6))
    alpha = tuple(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    big = st.floats(allow_nan=True, allow_infinity=True)
    X = _rows(draw, n)
    X[draw(hnp.arrays(np.bool_, X.shape))] = draw(big)  # overflow and underflow too
    return alpha, X


_SIGNED_ZEROS = np.array([[-0.0, 1.0, -2.0], [-0.0, -0.0, 0.5], [0.0, -0.0, -0.0],
                          [-1.5, -0.0, np.nan], [-0.0, np.inf, 1.0], [-0.5, -0.0, 0.0]])


@_quiet
@given(_monomial_rows())
@example(((1, 1, 1), _SIGNED_ZEROS))
@example(((3, 1, 2), _SIGNED_ZEROS))
@example(((2, 5, 3), _SIGNED_ZEROS))
def test_monomial_values_matches_the_row_product(case):
    alpha, X = case
    _same_bits(monomial_values(Monomial(alpha), X), _rows_monomial(alpha, X))


@st.composite
def _box_rows(draw):
    n = draw(st.integers(1, 6))
    dom = draw(st.sampled_from([UnitBox(n), SymBox(n), RatioBox(n, 1.7),
                                SubBox((0.25,) * n, (0.5,) * n),
                                SubBox(tuple(np.linspace(0.25, 0.1, n)),
                                       tuple(np.linspace(0.5, 0.9, n)))]))
    lo, hi = dom.bounding_box()
    # the exact boundaries u + TOL_EXACT and -(-l + TOL_EXACT), and their neighbours
    edges = [v for u in (hi + TOL_EXACT, -(-lo + TOL_EXACT)) for v in u.tolist()]
    edges += [np.nextafter(v, s) for v in edges for s in (-np.inf, np.inf)]
    return dom, _rows(draw, n, special=_SPECIAL + tuple(edges))


def _box_edge_rows(dom):
    """(accepted, rejected): the box's center with one coordinate on an edge
    u + TOL_EXACT or -(-l + TOL_EXACT), or at -0.0 where l = 0; or one float
    beyond an edge, nan or +-inf."""
    lo, hi = dom.bounding_box()
    top, bottom = hi + TOL_EXACT, -(-lo + TOL_EXACT)

    def put(j, v):
        x = (lo + hi) / 2
        x[j] = v
        return x

    n = dom.n
    accepted = [put(j, v) for j in range(n)
                for v in (top[j], bottom[j]) + ((-0.0,) if lo[j] == 0.0 else ())]
    rejected = [put(j, v) for j in range(n)
                for v in (np.nextafter(top[j], np.inf), np.nextafter(bottom[j], -np.inf),
                          np.nan, np.inf, -np.inf)]
    return np.array(accepted), np.array(rejected)


_EDGE_BOXES = [UnitBox(3), SymBox(2), RatioBox(2, 1.7), RatioBox(2, 1e300),
               SubBox((0.0, 0.25, 0.5), (0.0, 0.75, 0.9))]
# accepted rows first, so the first rejected row is the one an error names; C and F order
_EDGE_STACKS = [(dom, np.vstack(_box_edge_rows(dom))) for dom in _EDGE_BOXES]
_EDGE_CASES = [(dom, Y) for dom, X in _EDGE_STACKS for Y in (X, np.asfortranarray(X))]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dom", _EDGE_BOXES, ids=repr)
def test_box_edges_are_members_and_the_next_floats_are_not(dom):
    accepted, rejected = _box_edge_rows(dom)
    for order in ("C", "F"):
        assert dom.contains_many(np.asarray(accepted, order=order)).all()
        assert not dom.contains_many(np.asarray(rejected, order=order)).any()
        dom.require_inside(np.asarray(accepted, order=order))


_GRID = np.asfortranarray(np.stack(np.meshgrid(*[np.linspace(-1.0, 1.0, 5)] * 3), -1)
                           .reshape(-1, 3))
_UNIT_EDGES = np.array([[1.0 + TOL_EXACT, -TOL_EXACT], [-TOL_EXACT, 1.0 + TOL_EXACT]])


@_quiet
@given(_box_rows())
@example((UnitBox(3), np.empty((0, 3))))
@example((SymBox(2), np.array([[0.5, 0.5], [np.nan, 0.0], [np.inf, 0.0]])))
@example((UnitBox(2), _UNIT_EDGES))
@example((UnitBox(2), np.nextafter(_UNIT_EDGES, np.inf)))
@example((SymBox(3), _GRID[1::3]))  # an F-ordered grid slice
@example((SymBox(3), np.hstack([_GRID, _GRID])[::2, ::2]))  # a strided column view
@example((SubBox((0.25, 0.1), (0.5, 0.9)), np.array([[0.25, 0.9], [0.5, 0.1], [0.3, 0.5]])))
@example(_EDGE_CASES[0])
@example(_EDGE_CASES[1])
@example(_EDGE_CASES[2])
@example(_EDGE_CASES[3])
@example(_EDGE_CASES[4])
@example(_EDGE_CASES[5])
@example(_EDGE_CASES[6])
@example(_EDGE_CASES[7])
@example(_EDGE_CASES[8])
@example(_EDGE_CASES[9])
def test_box_contains_many_matches_the_halfspace_rows(case):
    dom, X = case
    want = _rows_contains(dom, X)
    _same_bits(dom.contains_many(X), want)
    # require_inside raises exactly where a row is outside, and names the first such row
    if want.all():
        dom.require_inside(X)
    else:
        with pytest.raises(OutsideDomain) as exc:
            dom.require_inside(X)
        assert str(exc.value) == f"point {X[np.argmin(want)].tolist()} is outside {dom}"
    # the range test vouches for a stack; it is exact where the limits are equal
    # in every coordinate, as on UnitBox, SymBox and RatioBox
    lo, hi = dom.bounding_box()
    assert dom._surely_inside(X) <= want.all()
    if np.all(lo == lo[0]) and np.all(hi == hi[0]):
        assert dom._surely_inside(X) == want.all()


@st.composite
def _symbox_rows(draw):
    return _rows(draw, draw(st.sampled_from([1, 2, 3, 5, 8, 13, 24])))


@_quiet
@given(_symbox_rows())
def test_symbox_lo_hi_matches_the_row_reductions(X):
    for rows in (X, X[0]):  # a stack of rows, and one point as a vector
        lo, hi = envelopes.symbox_bounds(X.shape[1]).value(rows)
        want_lo, want_hi = _rows_symbox(rows)
        _same_bits(lo, want_lo)
        _same_bits(hi, want_hi)


@given(st.data())
def test_unit_box_min_matches_the_row_min(data):
    # rows inside the box up to the tolerance, with -0.0 and 0.0 ties
    n = data.draw(st.integers(1, 8))
    X = _rows(data.draw, n, special=(0.0, -0.0, -TOL_EXACT, 1.0, 1.0 + TOL_EXACT, 0.5),
              lo=0.0, hi=1.0)
    got = envelopes.concave_env_unitbox(Monomial.multilinear(n), X)
    _same_bits(got, np.min(X, axis=-1))


@given(st.data())
def test_ratio_box_convex_envelope_matches_the_stacked_max(data):
    n = data.draw(st.integers(1, 8))
    r = data.draw(st.sampled_from([1.1, 1.7, 3.0]))
    X = _rows(data.draw, n, special=(1.0, r, 1.0 - TOL_EXACT, r + TOL_EXACT), lo=1.0, hi=r)
    _same_bits(envelopes.convex_env_ratiobox(n, r, X), _rows_ratio_cvx(n, r, X))
