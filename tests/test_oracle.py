import numpy as np
import pytest

from monoenv import (
    Monomial,
    RatioBox,
    ScaleExceeded,
    StdSimplex,
    SubBox,
    SymBox,
    UnitBox,
    UnsupportedDomain,
    Verdict,
    eval_monomial,
)
from monoenv import bounds, envelopes, hulls, oracle
from monoenv.core import monomial_values
from monoenv.oracle import GridSpec, extremize_f, grid_maximize, max_gap, sampled_hull_envelope, sigma_numeric


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


class TestExtremize:
    def test_simplex_max(self):
        val, point = extremize_f(Monomial((1, 1)), StdSimplex(2), "max")
        assert val == pytest.approx(0.25)
        assert np.allclose(point, [0.5, 0.5])

    def test_unitbox_min_on_zero_face(self):
        val, _ = extremize_f(Monomial((2, 1)), UnitBox(2), "min")
        assert val == 0.0

    def test_symbox_min_at_odd_parity_vertex(self):
        val, point = extremize_f(Monomial.multilinear(3), SymBox(3), "min")
        assert val == -1.0
        assert int((point < 0).sum()) % 2 == 1

    def test_symbox_even_exponents(self):
        val, _ = extremize_f(Monomial((2, 2)), SymBox(2), "min")
        assert val == 0.0

    def test_subbox_corners(self):
        box = SubBox((0.2, 0.3), (0.8, 0.9))
        val, point = extremize_f(Monomial((1, 2)), box, "max")
        assert val == pytest.approx(0.8 * 0.81)
        assert np.allclose(point, [0.8, 0.9])

    def test_grid_fallback_complement_simplex(self):
        from monoenv import ComplementSimplex
        val, point = extremize_f(Monomial.multilinear(2), ComplementSimplex(2), "max")
        assert val == pytest.approx(0.25, abs=1e-6)  # max of x1 x2 on x1+x2 <= 1


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

    def test_unit_box_interval(self):
        rng = np.random.default_rng(1)
        m = Monomial((2, 1))
        for _ in range(5):
            beta = 1.0 + 2.0 * rng.random(2)
            val = sigma_numeric(m, UnitBox(2), beta)
            assert -1e-9 <= val <= 1.0 + 1e-9


    def test_vertex_failure_propagates(self):
        # a domain without a vertex list falls back to the grid; any other
        # failure of vertices() is a fault and must not be swallowed
        class Broken(UnitBox):
            def vertices(self):
                raise RuntimeError("vertex list failed")

        class NoVertices(UnitBox):
            def vertices(self):
                raise UnsupportedDomain("no vertex list")

        m, spec = Monomial((2, 1)), GridSpec(resolution=4)
        with pytest.raises(RuntimeError, match="vertex list failed"):
            sigma_numeric(m, Broken(2), [1.0, 1.0], spec)
        grid_only = float(np.sum([1.0, 1.0])) + oracle.grid_minimize(
            lambda X: monomial_values(m, X) - np.einsum("ij,j->i", X, np.ones(2)), UnitBox(2), spec,
            center_weights=np.ones(2))[0]
        assert sigma_numeric(m, NoVertices(2), [1.0, 1.0], spec) == grid_only


class TestRelaxationError:
    def test_mccormick_case(self):
        m = Monomial.multilinear(2)
        rep = oracle.relaxation_error_PB(m, [np.ones(2)], UnitBox(2))
        assert rep.measured_value == pytest.approx(0.25, abs=1e-6)
        assert rep.verdict is Verdict.TIGHT

    def test_trilinear_attainment(self):
        m = Monomial.multilinear(3)
        rep = oracle.relaxation_error_PB(m, [np.ones(3)], UnitBox(3))
        assert rep.measured_value == pytest.approx(bounds.c1(3), abs=1e-6)
        assert np.allclose(rep.attainment_points[0], 3 ** -0.5, atol=1e-3)

    def test_extra_cut_does_not_change_error(self):
        m = Monomial.multilinear(2)
        rep = oracle.relaxation_error_PB(m, [np.ones(2), 2.0 * np.ones(2)], UnitBox(2))
        assert rep.measured_value == pytest.approx(0.25, abs=1e-6)

    def test_requires_alpha_in_family(self):
        m = Monomial.multilinear(2)
        with pytest.raises(ValueError):
            oracle.relaxation_error_PB(m, [2.0 * np.ones(2)], UnitBox(2))


def test_all_nan_estimator_is_an_error_not_valid_upper():
    m = Monomial.multilinear(2)
    with pytest.raises(ValueError, match="nan"):
        max_gap(m, UnitBox(2), lambda X: np.full(len(X), np.nan), oracle.OVER, bound=0.25)


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
        if n <= 6:
            obj = _captured(monkeypatch, "grid_minimize",
                            lambda: sigma_numeric(m, UnitBox(n), beta, GridSpec(resolution=2)))
            yield "sigma_numeric", n, obj, unit
        err = _captured(monkeypatch, "grid_maximize", lambda: oracle.relaxation_error_PB(
            m, [np.ones(n)], UnitBox(n), GridSpec(resolution=2, restarts=0)))
        # rows where the cut x -> 1 + sum(x - 1), not min(x), sets the error
        cand = rng.random((20_000, n)) ** 0.2
        f, cut = monomial_values(m, cand), 1.0 + np.sum(cand - 1.0, axis=1)
        yield "relaxation_error_PB", n, err, cand[(cut > 0) & (f - cut > cand.min(axis=1) - f)][:64]
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


def test_row_values_do_not_depend_on_the_batch(monkeypatch):
    for name, n, func, X in _batch_cases(monkeypatch):
        alone = np.array([func(X[i:i + 1])[0] for i in range(len(X))])
        for k in range(1, len(X) + 1):
            assert np.array_equal(_bits(func(X[:k])), _bits(alone[:k])), (name, n, k)


class TestGridEngine:
    def test_monotone_under_inclusion(self):
        m = Monomial.multilinear(2)
        est = lambda X: envelopes.concave_env_unitbox(m, X)
        full = max_gap(m, UnitBox(2), est, oracle.OVER).measured_value
        for box in [SubBox((0.0, 0.0), (0.7, 0.7)), SubBox((0.2, 0.1), (0.9, 0.8))]:
            sub = max_gap(m, box, est, oracle.OVER).measured_value
            assert sub <= full + 1e-12

    def test_hull_error_is_max_of_envelope_gaps(self):
        m = Monomial.multilinear(3)
        conc = max_gap(m, UnitBox(3), lambda X: envelopes.concave_env_unitbox(m, X),
                       oracle.OVER).measured_value
        cvx = max_gap(m, UnitBox(3), lambda X: envelopes.convex_env_unitbox_multilinear(3, X),
                      oracle.UNDER).measured_value
        hull = oracle.relaxation_error_PB(m, [np.ones(3)], UnitBox(3)).measured_value
        assert hull == pytest.approx(max(conc, cvx), abs=1e-6)

    def test_refinement_never_below_grid_incumbent(self):
        m = Monomial.multilinear(2)
        spec = GridSpec(resolution=8)
        pts = oracle._grid_points(UnitBox(2), 8, spec.max_points)
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

    def test_scale_guard_on_resolution(self):
        m = Monomial.multilinear(3)
        with pytest.raises(ScaleExceeded):
            max_gap(m, UnitBox(3), lambda X: np.zeros(len(X)), oracle.UNDER,
                    grid=GridSpec(resolution=600, max_points=10_000))

    def test_no_default_grid_beyond_six(self):
        with pytest.raises(ScaleExceeded):
            GridSpec().resolution_for(7)

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
        fmin, _ = extremize_f(m, box, "min")
        fmax, _ = extremize_f(m, box, "max")
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

        expected = bounds.c1(2) * 0.25
        assert expected == pytest.approx(
            __import__("monoenv").scale_error(bounds.c1(2), c, m))
        rep = max_gap(m, box, transported, oracle.OVER, bound=expected)
        assert rep.measured_value == pytest.approx(expected, abs=1e-8)
        from monoenv import scale_point
        x_t, w_t = scale_point([0.5, 0.5], 0.5, c, m)
        assert np.allclose(rep.attainment_points[0], x_t, atol=1e-6)
        assert abs(w_t - eval_monomial(m, x_t)) == pytest.approx(expected)

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
            for s in __import__("itertools").product((-1.0, 1.0), repeat=n)
        )
        assert best <= 1e-3


# ---------------------------------------------------------------------------
# Lockstep refinement against the one-start-at-a-time schedule
# ---------------------------------------------------------------------------

def _seq_section_line(func1, x, d, tlo, thi, steps=14):
    a, b = tlo, thi
    for _ in range(steps):
        if b - a <= 1e-13:
            break
        h = (b - a) / 17
        vals = [func1(x + (a + i * h) * d) for i in range(1, 17)]
        i_star = int(np.argmax(vals)) + 1
        a, b = a + (i_star - 1) * h, a + (i_star + 1) * h
    t = 0.5 * (a + b)
    return t, func1(x + t * d)


def _seq_refine(func, dom, x0, v0, cell, passes, center_weights=None):
    def func1(p):
        return float(func(p[None, :])[0])

    def line(x, v, d):
        tlo, thi = dom.line_range(x, d)
        if thi > tlo and np.isfinite(tlo) and np.isfinite(thi):
            t, vt = _seq_section_line(func1, x, d, tlo, thi)
            if vt > v:
                return x + t * d, vt
        return x, v

    n = dom.n
    x, v = x0.copy(), v0
    weightings = [np.ones(n)]
    if center_weights is not None and not np.all(np.asarray(center_weights) == 1.0):
        weightings.append(np.asarray(center_weights, dtype=float))
    for _ in range(passes):
        for j in range(n):
            lo_j, hi_j = dom.coordinate_range(x, j)
            a = max(lo_j, x[j] - cell[j])
            b = min(hi_j, x[j] + cell[j])
            if b - a <= 1e-14:
                continue
            d = np.zeros(n)
            d[j] = 1.0
            t, vt = _seq_section_line(func1, x, d, a - x[j], b - x[j])
            if vt > v:
                x = x + t * d
                v = vt
        diag = np.where(x < 0, -1.0, 1.0)
        x, v = line(x, v, diag)
        for w in weightings:
            target = float(np.sum(w * diag * x) / np.sum(w))
            cen = diag * target - x
            if np.max(np.abs(cen)) > 1e-12:
                x, v = line(x, v, cen)
    return x, v


def _seq_grid_maximize(func, dom, spec, center_weights=None):
    """The incumbent, then each restart, refined one after another."""
    n = dom.n
    res = spec.resolution_for(n)
    pts = oracle._grid_points(dom, res, spec.max_points)
    vals = func(pts)
    k = int(np.argmax(vals))
    lo, hi = dom.bounding_box()
    cell = (hi - lo) / res
    x, v = _seq_refine(func, dom, pts[k].copy(), float(vals[k]), cell, spec.refine_passes,
                       center_weights)
    if n >= 5 and spec.restarts > 0:
        rng = np.random.default_rng(spec.seed)
        span = hi - lo
        starts = []
        while len(starts) < spec.restarts:
            cand = lo + rng.random((max(4 * spec.restarts, 64), n)) * span
            cand = cand[dom.contains_many(cand)]
            starts.extend(cand[: spec.restarts - len(starts)])
        for s in starts:
            xs, vs = _seq_refine(func, dom, np.asarray(s), float(func(s[None, :])[0]),
                                 cell, spec.refine_passes, center_weights)
            if vs > v:
                x, v = xs, vs
    return v, x


def _lockstep_case(name):
    """(domain, function, exponents) at n = 5; every function gives a row the
    same bits whatever rows share its call (no BLAS products)."""
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


class TestLockstepRefinement:
    @pytest.mark.parametrize("name", ["UnitBox", "SymBox", "RatioBox", "RatioBoxConcave",
                                      "StdSimplex"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_matches_one_start_at_a_time(self, name, weighted):
        dom, func, alpha = _lockstep_case(name)
        weights = np.asarray(alpha, float) if weighted else None
        spec = GridSpec(resolution=6, refine_passes=2, restarts=5, seed=5)
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
        # one call per section step evaluates 16 points of every open
        # bracket; a one-point-per-call line search needs about 900 calls here
        n = 3
        m = Monomial.multilinear(n)
        calls = []

        def est(X):
            calls.append(len(X))
            return envelopes.convex_env_unitbox_multilinear(n, X)

        rep = max_gap(m, UnitBox(n), est, oracle.UNDER, bound=bounds.c2(n))
        assert rep.verdict is Verdict.TIGHT
        assert len(calls) <= 250

    def test_first_of_equal_values_wins(self):
        # a constant function: every start ties, so the grid incumbent stays
        spec = GridSpec(resolution=4, restarts=3, seed=2)
        v, x = grid_maximize(lambda X: np.zeros(len(X)), UnitBox(5), spec)
        pts = oracle._grid_points(UnitBox(5), 4, spec.max_points)
        assert v == 0.0
        assert np.array_equal(x, pts[0])
