import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoenv import (
    ComplementSimplex,
    CornerSimplexOne,
    Monomial,
    OutsideDomain,
    RatioBox,
    ScaleExceeded,
    StdSimplex,
    SubBox,
    SymBox,
    UnitBox,
    UnsupportedDomain,
    eval_monomial,
)
from monoenv import bounds, envelopes, hulls, oracle
from monoenv.core import monomial_values
from monoenv.envelopes import (
    LinearUnderestimator,
    concave_env_ratiobox,
    concave_env_unitbox,
    convex_env_ratiobox,
    convex_env_unitbox_multilinear,
    envelopes_symbox,
    gamma_vector,
    underestimator_necessary,
    underestimator_value,
)


class TestConcaveEnvUnitBox:
    def test_min_coordinate(self):
        assert concave_env_unitbox(Monomial((1, 1)), [0.3, 0.7]) == 0.3

    def test_exact_at_ones(self):
        assert concave_env_unitbox(Monomial((2, 1, 1)), [1.0, 1.0, 1.0]) == 1.0

    def test_midpoint_gap_below_c1(self):
        m = Monomial((1, 1, 1))
        x = [0.5, 0.5, 0.5]
        gap = concave_env_unitbox(m, x) - eval_monomial(m, x)
        assert gap == pytest.approx(0.375)
        assert gap < bounds.c1(3)

    def test_rejects_outside_points(self):
        with pytest.raises(OutsideDomain):
            concave_env_unitbox(Monomial((1, 1)), [1.2, 0.5])


@pytest.mark.parametrize("build, good, bad", [
    (envelopes.convex_unitbox_multilinear, (2,), (2.0,)),
    (envelopes.symbox_bounds, (1,), (True,)),
    (envelopes.concave_ratiobox, (2, 1.5), (2.0, 1.5)),
    (envelopes.convex_ratiobox, (1, 1.5), (True, 1.5)),
])
def test_built_envelope_is_reused_only_for_arguments_of_the_same_type(build, good, bad):
    # 2 == 2.0 == True hash equal: a cache keyed on values alone would hand
    # (2.0, r) the envelope built for (2, r) instead of raising
    assert build(*good) is build(*good)
    with pytest.raises(ValueError, match="n must be an integer"):
        build(*bad)


class TestConvexEnvUnitBoxMultilinear:
    def test_hinge_at_zero(self):
        assert convex_env_unitbox_multilinear(2, [0.5, 0.5]) == 0.0

    def test_exact_at_ones(self):
        assert convex_env_unitbox_multilinear(2, [1.0, 1.0]) == 1.0

    def test_gap_at_attainment_point(self):
        x = [2 / 3, 2 / 3, 2 / 3]
        assert convex_env_unitbox_multilinear(3, x) == 0.0
        f = eval_monomial(Monomial((1, 1, 1)), x)
        assert f == pytest.approx(8 / 27)
        assert f - 0.0 == pytest.approx(bounds.c2(3))


class TestUnderestimatorValue:
    def test_exact_at_ones(self):
        u = LinearUnderestimator((1.0, 1.0), 1.0)
        assert underestimator_value(u, [1.0, 1.0]) == 1.0

    def test_validity_instance(self):
        u = LinearUnderestimator((2.0, 1.0), 1.0)
        assert underestimator_value(u, [0.5, 1.0]) == 0.0
        assert eval_monomial(Monomial((2, 1)), [0.5, 1.0]) == 0.25
        # dense grid validity of the slope-alpha underestimator
        m = Monomial((2, 1))
        xs = np.linspace(0.0, 1.0, 60)
        G = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2)
        assert np.all(underestimator_value(u, G) <= eval_monomial(m, G) + 1e-12)

    def test_boundary_case(self):
        u = LinearUnderestimator((1.5, 1.0), 1.0)
        assert underestimator_value(u, [0.0, 1.0]) == pytest.approx(-0.5)

    def test_beta_below_one_rejected(self):
        with pytest.raises(ValueError):
            LinearUnderestimator((0.5, 1.0), 1.0)

    def test_degree_beta(self):
        assert LinearUnderestimator((1.5, 2.0), 1.0).degree_beta() == 3.5


class TestGammaVector:
    def test_subbox_formula(self):
        g = gamma_vector(Monomial((2, 1)), SubBox((0.0, 0.0), (0.5, 1.0)))
        assert np.allclose(g, [1.5, 1.0])

    def test_unit_box_gives_alpha(self):
        g = gamma_vector(Monomial((3, 2)), UnitBox(2))
        assert np.allclose(g, [3.0, 2.0])

    def test_collapsed_coordinate(self):
        g = gamma_vector(Monomial((2,)), SubBox((0.0,), (0.0,)))
        assert np.allclose(g, [1.0])

    def test_window_one_to_alpha(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            alpha = tuple(int(a) for a in rng.integers(1, 5, size=n))
            lower = 0.3 * rng.random(n)
            upper = lower + (1.0 - lower) * rng.random(n)
            g = gamma_vector(Monomial(alpha), SubBox(tuple(lower), tuple(upper)))
            assert np.all(g >= 1.0 - 1e-12)
            assert np.all(g <= np.asarray(alpha) + 1e-12)
            strict = upper < 1.0
            a = np.asarray(alpha, dtype=float)
            assert np.all(g[strict & (a > 1)] < a[strict & (a > 1)])
            assert np.all(g[~strict] == a[~strict])

    def test_gamma_validity_on_grid(self):
        m = Monomial((2, 1))
        box = SubBox((0.0, 0.0), (0.5, 1.0))
        g = gamma_vector(m, box)
        xs = np.linspace(0.0, 0.5, 60)
        ys = np.linspace(0.0, 1.0, 60)
        G = np.stack(np.meshgrid(xs, ys, indexing="ij"), -1).reshape(-1, 2)
        ell = 1.0 + (G - 1.0) @ g
        assert np.all(ell <= eval_monomial(m, G) + 1e-12)

    def test_strict_when_two_coordinates_interior(self):
        m = Monomial((2, 2, 1))
        box = SubBox((0.0, 0.0, 0.0), (0.9, 0.8, 1.0))
        g = gamma_vector(m, box)
        rng = np.random.default_rng(4)
        X = 0.05 + 0.7 * rng.random((300, 3))  # >= 2 interior coordinates
        ell = 1.0 + (X - 1.0) @ g
        assert np.all(eval_monomial(m, X) - ell > 0.0)

    def test_unsupported_domains(self):
        with pytest.raises(UnsupportedDomain):
            gamma_vector(Monomial((1, 1)), RatioBox(2, 2.0))
        with pytest.raises(UnsupportedDomain):
            gamma_vector(Monomial((1, 1)), SymBox(2))

    def test_simplex_projections_give_alpha(self):
        g = gamma_vector(Monomial((2, 3)), StdSimplex(2))
        assert np.allclose(g, [2.0, 3.0])

    def test_necessary_condition_filter(self):
        m = Monomial((3, 2))
        dom = UnitBox(2)
        assert underestimator_necessary(m, dom, [3.0, 2.0])
        assert underestimator_necessary(m, dom, [4.0, 2.5])  # above alpha: unconstrained
        assert not underestimator_necessary(m, dom, [2.0, 2.0])  # below gamma = alpha


class TestRatioBoxEnvelopes:
    def test_concave_vertex_exact_low(self):
        assert concave_env_ratiobox(2, 2.0, [1.0, 1.0]) == pytest.approx(1.0)

    def test_concave_vertex_exact_high(self):
        assert concave_env_ratiobox(2, 2.0, [2.0, 2.0]) == pytest.approx(4.0)

    def test_concave_midpoint_gap(self):
        v = concave_env_ratiobox(2, 2.0, [1.5, 1.5])
        assert v == pytest.approx(2.5)
        assert v - 1.5 ** 2 == pytest.approx(0.25)  # equals the n=2 concave error

    def test_convex_vertex_exact(self):
        assert convex_env_ratiobox(2, 2.0, [1.0, 1.0]) == pytest.approx(1.0)
        assert convex_env_ratiobox(3, 2.0, [2.0, 2.0, 2.0]) == pytest.approx(8.0)

    def test_convex_midpoint_gap(self):
        v = convex_env_ratiobox(2, 2.0, [1.5, 1.5])
        assert v == pytest.approx(2.0)
        assert 1.5 ** 2 - v == pytest.approx(0.25)  # equals the n=2 convex error

    def test_concave_matches_full_permutation_min(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            r = 1.0 + 2.0 * rng.random()
            X = 1.0 + (r - 1.0) * rng.random((30, n))
            got = concave_env_ratiobox(n, r, X)
            shift = sum(r ** j for j in range(1, n))
            coeffs = np.array([r ** (j - 1) for j in range(1, n + 1)])
            want = np.array([
                min(coeffs @ x[list(perm)] for perm in itertools.permutations(range(n)))
                for x in X
            ]) - shift
            assert np.allclose(got, want, atol=1e-10)

    def test_tie_break_permutation_invariant(self):
        # equal coordinates: any sort order gives the same value
        v = concave_env_ratiobox(3, 2.0, [1.5, 1.5, 1.5])
        assert v == pytest.approx(1.5 * 7 - 6)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sorting_network_keeps_the_bits_of_a_row_sort(self, n):
        # the reference: each row sorted by np.sort, made row-major, then the
        # same einsum; rows with ties, box vertices and coordinates at 1 or r
        rng = np.random.default_rng(n)
        r = 2.7
        coeffs = np.array([r ** (n - 1 - k) for k in range(n)])
        shift = sum(r ** j for j in range(1, n))
        rows = [1.0 + (r - 1.0) * rng.random((40, n)),
                rng.choice([1.0, r], (16, n)),
                rng.choice([1.0, 1.5, 2.0, r], (16, n)),
                np.ones((1, n)), np.full((1, n), r), np.full((1, n), 1.5)]
        X = np.vstack(rows)
        want = np.einsum("ij,j->i", np.ascontiguousarray(np.sort(X, axis=-1)), coeffs) - shift
        env = envelopes.concave_ratiobox(n, r)
        for Y in (X, np.asfortranarray(X)):
            assert np.array_equal(env.value(Y).view(np.int64), want.view(np.int64))

    def test_unrepresentable_powers_are_a_scale_refusal(self):
        # r**(n-1) overflowed into an OverflowError; with r**(n-1) finite the
        # top value r**n still overflowed, and verdicts ended in nan. So can
        # the concave envelope's shift sum(r**j, j = 1..n-1) with r**n finite
        for n, r in [(3, 1e300), (3, 1e103), (2, 1e155)]:
            for build in (envelopes.concave_ratiobox, envelopes.convex_ratiobox):
                with pytest.raises(ScaleExceeded, match="r\\*\\*n overflows"):
                    build(n, r)
        with pytest.raises(ScaleExceeded, match="sum of r"):
            envelopes.concave_ratiobox(1750, 1.5)  # 1.5**1750 is 1.44e308

    def test_sandwich_on_grid(self):
        rng = np.random.default_rng(6)
        for n in (2, 3):
            r = 2.0
            X = 1.0 + (r - 1.0) * rng.random((400, n))
            f = eval_monomial(Monomial.multilinear(n), X)
            assert np.all(convex_env_ratiobox(n, r, X) <= f + 1e-12)
            assert np.all(f <= concave_env_ratiobox(n, r, X) + 1e-12)


def _symbox_enum_reference(X):
    """Envelopes of x_1...x_n over [-1,1]^n by enumerating all signed subsets.

    lo is the best sign row with evenly many -1 entries, hi the worst row with
    oddly many +1 entries, each shifted by n-1 and clipped to [-1, 1].
    """
    n = X.shape[1]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    negs = (signs < 0).sum(axis=1)
    lo = (X @ signs[negs % 2 == 0].T).max(axis=1) - (n - 1)
    hi = (X @ signs[(n - negs) % 2 == 1].T).min(axis=1) + (n - 1)
    return np.maximum(lo, -1.0), np.minimum(hi, 1.0)


def _symbox_tie_rows(n, rng):
    """Rows where the closed form's parity and minimum choices are ties."""
    alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    signs = rng.choice([-1.0, 1.0], (4, n))
    rows = [np.zeros(n), np.full(n, -0.0), np.where(alt > 0, 0.0, -0.0),
            np.ones(n), -np.ones(n), alt, *signs, *(0.5 * signs), *(signs / n)]
    x = rng.choice([-1.0, 1.0], n) * rng.uniform(0.2, 1.0, n)
    x[0] = -0.0
    rows.append(x.copy())
    x[0], x[1] = 0.1, -0.1  # two coordinates share the smallest magnitude
    rows.append(x)
    return np.array(rows)


class TestSymBoxEnvelopes:
    def test_vertex_exact(self):
        assert envelopes_symbox(3, [1.0, 1.0, 1.0]) == (1.0, 1.0)

    def test_attainment_point(self):
        lo, hi = envelopes_symbox(3, [1 / 3, 1 / 3, 1 / 3])
        assert lo == -1.0
        f = 1.0 / 27.0
        assert f - lo == pytest.approx(28 / 27)

    def test_center(self):
        assert envelopes_symbox(2, [0.0, 0.0]) == (-1.0, 1.0)

    def test_enum_matches_closed_form(self):
        # the production closed form against the signed-subset enumeration
        rng = np.random.default_rng(9)
        for n in range(2, 17):
            X = np.vstack([rng.uniform(-1.0, 1.0, (100, n)), _symbox_tie_rows(n, rng)])
            lo1, hi1 = _symbox_enum_reference(X)
            lo2, hi2 = envelopes_symbox(n, X)
            assert np.max(np.abs(lo1 - lo2)) <= 1e-12
            assert np.max(np.abs(hi1 - hi2)) <= 1e-12

    def test_closed_form_used_beyond_limit(self):
        x = np.full(25, 0.5)
        lo, hi = envelopes_symbox(25, x)
        f = 0.5 ** 25
        assert lo <= f <= hi

    def test_sandwich_and_vertex_exactness(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 4):
            m = Monomial.multilinear(n)
            X = rng.uniform(-1.0, 1.0, (500, n))
            lo, hi = envelopes_symbox(n, X)
            f = eval_monomial(m, X)
            assert np.all(lo <= f + 1e-12) and np.all(f <= hi + 1e-12)
            V = SymBox(n).vertices()
            loV, hiV = envelopes_symbox(n, V)
            fV = eval_monomial(m, V)
            assert np.allclose(loV, fV) and np.allclose(hiV, fV)


class TestEqualityCharacterization:
    @pytest.mark.parametrize("alpha", [(2, 1), (1, 1, 2), (3, 2)])
    def test_overestimator_touch_set(self, alpha):
        m = Monomial(alpha)
        n = m.n
        xs = np.linspace(0.0, 1.0, 5)
        for x in itertools.product(xs, repeat=n):
            x = np.array(x)
            conc = float(np.min(x))
            f = eval_monomial(m, x)
            on_zero_face = np.any(x == 0.0)
            at_ones = bool(np.all(x == 1.0))
            on_linear_edge = any(
                all(x[j] == 1.0 for j in range(n) if j != i) and alpha[i] == 1
                for i in range(n)
            )
            if on_zero_face or at_ones or on_linear_edge:
                assert conc == pytest.approx(f, abs=1e-12)
            else:
                assert conc > f + 1e-12


class TestHullOracleCrossCheck:
    def test_unitbox_envelopes_match_vertex_lp(self):
        rng = np.random.default_rng(20)
        for n in (2, 3):
            m = Monomial.multilinear(n)
            box = UnitBox(n)
            X = rng.random((100, n))
            for x in X:
                under = oracle.sampled_hull_envelope(m, box, x, oracle.UNDER)
                over = oracle.sampled_hull_envelope(m, box, x, oracle.OVER)
                assert under == pytest.approx(convex_env_unitbox_multilinear(n, x), abs=1e-6)
                assert over == pytest.approx(concave_env_unitbox(m, x), abs=1e-6)

    def test_ratiobox_envelopes_match_vertex_lp(self):
        rng = np.random.default_rng(21)
        for n, r in [(2, 2.0), (3, 1.5)]:
            m = Monomial.multilinear(n)
            box = RatioBox(n, r)
            X = 1.0 + (r - 1.0) * rng.random((100, n))
            for x in X:
                under = oracle.sampled_hull_envelope(m, box, x, oracle.UNDER)
                over = oracle.sampled_hull_envelope(m, box, x, oracle.OVER)
                assert under == pytest.approx(convex_env_ratiobox(n, r, x), abs=1e-6)
                assert over == pytest.approx(concave_env_ratiobox(n, r, x), abs=1e-6)

    def test_symbox_envelopes_match_vertex_lp(self):
        rng = np.random.default_rng(22)
        for n in (2, 3):
            m = Monomial.multilinear(n)
            box = SymBox(n)
            X = rng.uniform(-1.0, 1.0, (100, n))
            for x in X:
                lo, hi = envelopes_symbox(n, x)
                assert oracle.sampled_hull_envelope(m, box, x, oracle.UNDER) == pytest.approx(lo, abs=1e-6)
                assert oracle.sampled_hull_envelope(m, box, x, oracle.OVER) == pytest.approx(hi, abs=1e-6)


def test_alpha_slope_cut_valid_on_random_subboxes():
    # the slope-alpha cut is dominated by the slope-gamma cut but must also
    # stay below the monomial on any sub-box
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        alpha = tuple(int(v) for v in rng.integers(1, 4, size=n))
        m = Monomial(alpha)
        a = np.asarray(alpha, dtype=float)
        lower = 0.4 * rng.random(n)
        upper = lower + (1.0 - lower) * rng.random(n)
        res = 25
        axes = [np.linspace(lower[j], upper[j], res) for j in range(n)]
        pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        g = gamma_vector(m, SubBox(tuple(lower), tuple(upper)))
        ell_a = 1.0 + (pts - 1.0) @ a
        ell_g = 1.0 + (pts - 1.0) @ g
        f = eval_monomial(m, pts)
        assert np.all(ell_a <= ell_g + 1e-12)
        assert np.all(ell_a <= f + 1e-12)


def test_concurrent_evaluation_is_consistent():
    # everything is immutable and pure, so threaded evaluation must agree
    # with the serial results bit for bit
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(45)
    m = Monomial((2, 1, 1))
    X = rng.random((64, 3))
    serial = [
        (concave_env_unitbox(m, x), convex_env_unitbox_multilinear(3, x),
         eval_monomial(m, x))
        for x in X
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(
            lambda x: (concave_env_unitbox(m, x),
                       convex_env_unitbox_multilinear(3, x),
                       eval_monomial(m, x)),
            X,
        ))
    assert serial == threaded


def test_vertex_exactness_all_box_vertices():
    # both envelopes agree with the multilinear monomial at every box vertex
    for n in (2, 3):
        m = Monomial.multilinear(n)
        V = UnitBox(n).vertices()
        f = eval_monomial(m, V)
        assert np.allclose(concave_env_unitbox(m, V), f)
        assert np.allclose(convex_env_unitbox_multilinear(n, V), f)
        for r in (1.5, 2.0):
            Vr = RatioBox(n, r).vertices()
            fr = eval_monomial(m, Vr)
            assert np.allclose(concave_env_ratiobox(n, r, Vr), fr, atol=1e-12)
            assert np.allclose(convex_env_ratiobox(n, r, Vr), fr, atol=1e-12)


# ---------------------------------------------------------------------------
# every box closed form as an Envelope object
# ---------------------------------------------------------------------------

_rows01 = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), min_size=1, max_size=8))


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, float).view(np.int64), np.asarray(b, float).view(np.int64))


@given(_rows01, st.lists(st.integers(1, 4), min_size=6, max_size=6), st.floats(1.0625, 4.0))
def test_envelope_objects_sandwich_the_monomial(T, alpha, r):
    """conv <= f <= conc at random rows of every domain family: the unit, ratio
    and symmetric boxes under their own envelopes, the sub-box and the three
    simplices under the unit box's, and the standard simplex also under its
    zero convex envelope; a call gives the bits of ``value``, a float (or a
    pair of floats) per point."""
    T = np.array(T)
    n = T.shape[1]
    m, ml = Monomial(tuple(alpha[:n])), Monomial.multilinear(n)
    fs = hulls.build_symbox_hull(n)
    R, S = 1.0 + (r - 1.0) * T, 2.0 * T - 1.0
    conc, conv = envelopes.concave_unitbox(m), envelopes.convex_unitbox_multilinear(n)
    # (monomial, envelope, the side it bounds, rows of its domain)
    cases = [(m, conc, "conc", T),
             (ml, conv, "conv", T),
             (ml, envelopes.concave_ratiobox(n, r), "conc", R),
             (ml, envelopes.convex_ratiobox(n, r), "conv", R),
             (ml, envelopes.symbox_bounds(n), "pair", S),
             (ml, fs.envelope_lower, "conv", S),
             (ml, fs.envelope_upper, "conc", S)]
    # rows of the families inside the unit box, mapped from T
    lam = 1.0 - 0.125 * np.arange(n)
    simplex = T / np.maximum(1.0, T.sum(axis=1, keepdims=True))
    inside = [(SubBox((0.125,) * n, (0.75,) * n), 0.125 + 0.625 * T),
              (StdSimplex(n), simplex),
              (CornerSimplexOne(tuple(lam)), 1.0 - lam * simplex)]
    if n >= 2:
        sums = np.maximum(n - 1.0, T.sum(axis=1, keepdims=True))
        inside.append((ComplementSimplex(n), T * ((n - 1.0) / sums)))
    for dom, X in inside:
        assert np.all(dom.contains_many(X)), dom
        cases += [(m, conc, "conc", X), (ml, conv, "conv", X)]
    cases.append((m, envelopes.Envelope(StdSimplex(n), lambda X: np.zeros(len(X))), "conv",
                  simplex))
    for mono, env, side, X in cases:
        f = monomial_values(mono, X)
        slack = 1e-12 * np.maximum(1.0, np.abs(f))
        got = env(X)
        lo, hi = got if side == "pair" else (got, f) if side == "conv" else (f, got)
        assert np.all(lo <= f + slack) and np.all(f <= hi + slack), (side, X)
        want, one, first = env.value(X), env(X[0]), env.value(X[:1])
        if side == "pair":
            assert all(_same_bits(g, w) for g, w in zip(got, want))
            assert type(one) is tuple and all(type(v) is float for v in one)
            assert all(_same_bits(v, w[0]) for v, w in zip(one, first))
        else:
            assert _same_bits(got, want)
            assert type(one) is float and _same_bits(one, first[0])
