import math
import sys
from decimal import MAX_EMAX, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from monoenv import (Monomial, ComplementSimplex, ScaleExceeded, StdSimplex, SubBox, UnitBox,
                     UnsupportedDomain)
from monoenv import bounds, envelopes, oracle
from monoenv.core import simplex_peak
from monoenv.bounds import (
    c1,
    c2,
    c_beta_kappa,
    concave_bound_xi,
    d_bound_cases,
    dineq_check,
    dineq_margins,
    errenv_bound,
    find_root_power_linear,
    gamma_bound,
    lower_bound_phi,
    phi_beta_kappa,
    psi_value,
    ratio_box_asymptotics,
    ratio_box_constants,
    ratio_box_ratios,
    ratio_box_relaxed_error,
    root_poly_value,
    sigma_beta,
    simplex_bounds,
    symbox_error,
)


class TestDegreeConstants:
    @pytest.mark.parametrize("d", [10 ** 6, 10 ** 12, 10 ** 15, 10 ** 17, 10 ** 300, 10 ** 400 - 1])
    def test_large_degrees_match_a_decimal_reference(self, d):
        # (1 - 1/d)**d in floats lost the digits of 1/d: c2(10**17) was 1.0,
        # and a degree beyond the float range raised OverflowError
        with localcontext() as ctx:
            ctx.prec = 60 + len(str(d))
            x = 1 / Decimal(d)
            ref1 = (1 - x) * (Decimal(d).ln() / (1 - d)).exp()
            ref2 = (d * (1 - x).ln()).exp()
        assert c1(d) == pytest.approx(float(ref1), rel=4 * EPS, abs=0.0)
        assert c2(d) == pytest.approx(float(ref2), rel=4 * EPS, abs=0.0)

    def test_degree_two_is_mccormick_quarter(self):
        assert c1(2) == pytest.approx(0.25)
        assert c2(2) == pytest.approx(0.25)

    def test_degree_three_values(self):
        assert c1(3) == pytest.approx((2 / 3) * 3 ** -0.5, abs=1e-15)
        assert c1(3) == pytest.approx(0.3849001794597505, abs=1e-12)
        assert c2(3) == pytest.approx(8 / 27, abs=1e-15)

    def test_monotone_increasing(self):
        assert c1(10) > c1(3)
        vals1 = [c1(d) for d in range(2, 51)]
        vals2 = [c2(d) for d in range(2, 51)]
        assert all(b > a for a, b in zip(vals1, vals1[1:]))
        assert all(b > a for a, b in zip(vals2, vals2[1:]))

    def test_limits(self):
        assert c1(4000) == pytest.approx(1.0, abs=5e-3)
        assert c2(4000) == pytest.approx(1.0 / math.e, abs=5e-4)
        assert c2(4000) < 1.0 / math.e

    def test_ordering_equality_only_at_two(self):
        assert c1(2) == c2(2)
        for d in range(3, 51):
            assert c2(d) < c1(d)

    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            c1(1)
        with pytest.raises(ValueError):
            c2(0)


class TestConcaveBoundXi:
    def test_full_range_degree_two(self):
        cb = concave_bound_xi(Monomial((1, 1)), 0.0, 1.0)
        assert cb.xi == pytest.approx(0.25)
        assert cb.bound == pytest.approx(0.25)

    def test_full_range_degree_three(self):
        cb = concave_bound_xi(Monomial((1, 1, 1)), 0.0, 1.0)
        assert cb.xi == pytest.approx(3 ** -1.5)
        assert cb.bound == pytest.approx(c1(3), abs=1e-15)
        assert np.allclose(cb.point, 3 ** -0.5)

    def test_clipped_at_fmin(self):
        cb = concave_bound_xi(Monomial((1, 1, 1)), 0.5, 1.0)
        assert cb.xi == pytest.approx(0.5)
        assert cb.bound == pytest.approx(0.5 ** (1 / 3) - 0.5, abs=1e-12)

    def test_oracle_confirms_clipped_bound(self):
        # sub-box with fmin = 0.5: lower corner at 0.5**(1/3) in every coordinate
        m = Monomial((1, 1, 1))
        lo = 0.5 ** (1 / 3)
        box = SubBox((lo, lo, lo), (1.0, 1.0, 1.0))
        cb = concave_bound_xi(m, 0.5, 1.0)
        rep = oracle.max_gap(m, box, lambda X: envelopes.concave_env_unitbox(m, X),
                             oracle.OVER, bound=cb.bound)
        assert rep.measured_value == pytest.approx(cb.bound, abs=1e-6)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            concave_bound_xi(Monomial((1, 1)), 0.7, 0.3)


class TestGammaBound:
    def test_multilinear_two(self):
        assert gamma_bound([1.0, 1.0]) == pytest.approx(0.25)

    def test_fractional_degree(self):
        assert gamma_bound([1.5, 1.0]) == pytest.approx((1 - 1 / 2.5) ** 2.5, abs=1e-12)
        assert gamma_bound([1.5, 1.0]) == pytest.approx(0.27885, abs=1e-5)
        assert gamma_bound([1.5, 1.0]) <= c2(3)

    def test_alpha_reduces_to_c2(self):
        assert gamma_bound([1.0, 1.0, 1.0]) == pytest.approx(8 / 27)

    def test_dominated_by_c2_when_gamma_below_alpha(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            alpha = rng.integers(1, 5, size=n).astype(float)
            if alpha.sum() < 2:
                continue
            gamma = 1.0 + (alpha - 1.0) * rng.random(n)
            assert gamma_bound(gamma) <= c2(int(alpha.sum())) + 1e-12

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            gamma_bound([1.0])
        with pytest.raises(ValueError):
            gamma_bound([0.5, 1.0])


class TestLowerBoundPhi:
    def test_unit_interval_degree_two(self):
        res = lower_bound_phi(2, 0.0, 1.0)
        assert res.xi == pytest.approx(0.5)
        assert res.bound == pytest.approx(0.25)

    def test_shifted_interval(self):
        res = lower_bound_phi(2, 1.0, 2.0)
        assert res.xi == pytest.approx(0.5)
        assert res.bound == pytest.approx(0.25)
        # same value as the n=2 ratio-box concave error at r=2
        assert res.bound == pytest.approx(ratio_box_constants(2, 2.0)[1])

    def test_degree_three(self):
        res = lower_bound_phi(3, 0.0, 1.0)
        assert res.bound == pytest.approx(c1(3), abs=1e-12)

    def test_matches_c1_for_unit_interval(self):
        for d in range(2, 13):
            assert lower_bound_phi(d, 0.0, 1.0).bound == pytest.approx(c1(d), abs=1e-12)

    def test_matches_ratio_concave_error(self):
        for n, r in [(2, 2.0), (3, 2.0), (4, 1.5)]:
            E = ratio_box_constants(n, r)[1]
            assert lower_bound_phi(n, 1.0, r).bound == pytest.approx(E, abs=1e-9)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            lower_bound_phi(2, 1.0, 1.0)

    @pytest.mark.parametrize("args", [(3, 1e-300, 1e300), (2 ** 1023, 1.0, 2.0)],
                             ids=["ratio", "degree"])
    def test_a_ratio_box_beyond_the_float_range_is_a_scale_refusal(self, args):
        # the refusal named "n or r - 1", arguments lower_bound_phi does not take
        with pytest.raises(ScaleExceeded, match=r"^d or \(t2 - t1\)/t1 is too large for a float"):
            lower_bound_phi(*args)


class TestSimplexBounds:
    def test_bilinear(self):
        sb = simplex_bounds(Monomial((1, 1)))
        assert sb.cvx == pytest.approx(0.25)
        assert sb.conc == pytest.approx(0.25)

    def test_asymmetric(self):
        sb = simplex_bounds(Monomial((2, 1)))
        assert sb.cvx == pytest.approx(4 / 27)
        assert sb.conc == pytest.approx(0.3809855358412516, abs=1e-12)

    def test_trilinear(self):
        sb = simplex_bounds(Monomial((1, 1, 1)))
        assert sb.cvx == pytest.approx(1 / 27)
        assert sb.conc == pytest.approx(1 / 3 - 1 / 27)

    def test_conc_dominates_cvx(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            alpha = tuple(int(a) for a in rng.integers(1, 4, size=n))
            sb = simplex_bounds(Monomial(alpha))
            assert sb.conc >= sb.cvx - 1e-15

    def test_oracle_max_over_simplex_equals_cvx(self):
        m = Monomial((2, 1))
        val, point = oracle.extremize_f(m, StdSimplex(2), "max")
        assert val == pytest.approx(4 / 27)
        assert np.allclose(point, [2 / 3, 1 / 3])

    def test_rejects_univariate(self):
        with pytest.raises(ValueError):
            simplex_bounds(Monomial((3,)))

    @pytest.mark.parametrize("alpha", [(1, 1), (2, 1), (3, 5, 2), (70, 70), (130, 1)])
    def test_peak_keeps_its_bits(self, alpha):
        # StdSimplex and simplex_bounds share the one closed form of alpha^alpha / d^d
        m = Monomial(alpha)
        aa = float(np.prod([float(a) ** a for a in alpha]))
        sb = simplex_bounds(m)
        assert sb.cvx == aa / float(m.degree) ** m.degree
        assert sb.conc == aa ** (1.0 / m.degree) / m.degree - sb.cvx
        assert StdSimplex(m.n).monomial_extreme(m, "max")[0] == sb.cvx

    @pytest.mark.parametrize("alpha", [(200, 200), (75, 75), (100, 100, 100)])
    def test_peak_overflow_is_a_scale_refusal(self, alpha):
        # alpha^alpha (200, 200) or d^d (75, 75) overflowed into an OverflowError
        m = Monomial(alpha)
        with pytest.raises(ScaleExceeded):
            simplex_bounds(m)
        with pytest.raises(ScaleExceeded):
            StdSimplex(m.n).monomial_extreme(m, "max")


class TestSigmaBeta:
    def test_complement_simplex_exact(self):
        m = Monomial((1, 2, 3))
        iv = sigma_beta(m, ComplementSimplex(3), [1.0, 2.0, 3.0])
        assert iv.exact and iv.lo == 1.0
        assert oracle.sigma_numeric(m, ComplementSimplex(3), [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-9)

    def test_unit_box_alpha_is_one(self):
        m = Monomial((2, 1))
        iv = sigma_beta(m, UnitBox(2), [2.0, 1.0])
        assert iv.exact and iv.lo == 1.0

    def test_unit_box_interval(self):
        m = Monomial((2, 1))
        iv = sigma_beta(m, UnitBox(2), [1.0, 1.0])
        assert not iv.exact
        assert (iv.lo, iv.hi) == (0.0, 1.0)
        num = oracle.sigma_numeric(m, UnitBox(2), [1.0, 1.0])
        assert iv.lo - 1e-9 <= num <= iv.hi + 1e-9

    def test_generic_window(self):
        m = Monomial((1, 1))
        iv = sigma_beta(m, StdSimplex(2), [1.5, 2.0])
        assert (iv.lo, iv.hi) == (0.0, 3.5)
        assert not iv.exact

    def test_rejects_small_beta(self):
        with pytest.raises(ValueError):
            sigma_beta(Monomial((1, 1)), UnitBox(2), [0.9, 1.0])


class TestCBetaKappa:
    def test_consistency_with_c2(self):
        m = Monomial((1, 1, 1))
        assert c_beta_kappa(m, [1, 1, 1], [1, 1, 1], 1.0) == pytest.approx(8 / 27)

    def test_ratio_two(self):
        m = Monomial((1, 1))
        assert c_beta_kappa(m, [2, 2], [1, 1], 1.0) == pytest.approx(0.5625)

    def test_fixed_point_property(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            alpha = tuple(int(a) for a in rng.integers(1, 4, size=n))
            m = Monomial(alpha)
            beta = 1.0 + 3.0 * rng.random(n)
            kappa = 1.0 + (np.asarray(alpha) - 1.0) * rng.random(n)
            j = int(rng.integers(0, n))
            kappa[j] = min(kappa[j], beta[j], alpha[j])
            sigma = float(rng.random() * 0.9 * beta.sum())
            C = c_beta_kappa(m, beta, kappa, sigma)
            assert 0.0 < C <= 1.0
            assert phi_beta_kappa(beta, kappa, sigma, C) == pytest.approx(C, abs=1e-12)

    def test_nonincreasing_in_kappa(self):
        m = Monomial((3, 3))
        lo = c_beta_kappa(m, [2.0, 2.0], [1.0, 1.0], 1.0)
        hi = c_beta_kappa(m, [2.0, 2.0], [2.0, 2.0], 1.0)
        assert hi <= lo

    def test_rejects_dominating_kappa(self):
        m = Monomial((3, 3))
        with pytest.raises(ValueError):
            c_beta_kappa(m, [1.5, 1.5], [2.0, 2.0], 1.0)

    def test_rejects_kappa_above_alpha(self):
        m = Monomial((2, 1))
        with pytest.raises(ValueError, match="need 1 <= kappa <= alpha componentwise"):
            c_beta_kappa(m, [3.0, 3.0], [2.0, 1.5], 1.0)


class TestErrEnvBound:
    def test_single_multilinear(self):
        m = Monomial((1, 1, 1))
        assert errenv_bound(m, [((1.0, 1.0, 1.0), 1.0)]) == pytest.approx(8 / 27)

    def test_single_asymmetric(self):
        m = Monomial((2, 1))
        assert errenv_bound(m, [((2.0, 1.0), 1.0)]) == pytest.approx(c2(3))

    def test_capped_kappa(self):
        m = Monomial((1, 1))
        assert errenv_bound(m, [((2.0, 2.0), 1.0)]) == pytest.approx(0.5625)

    def test_more_cuts_never_hurt(self):
        m = Monomial((2, 2))
        one = errenv_bound(m, [((2.0, 2.0), 1.0)])
        two = errenv_bound(m, [((2.0, 2.0), 1.0), ((3.0, 2.0), 1.0)])
        assert two <= one + 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            errenv_bound(Monomial((1, 1)), [])

    def test_largest_float_exponent(self):
        assert errenv_bound(Monomial((2 ** 1023,)), [((2.0,), 1.0)]) == errenv_bound(
            Monomial((2,)), [((2.0,), 1.0)])


# an exponent beyond the float range raised OverflowError in both; it reads
# as inf in c_beta_kappa (core.exponent_float), which kappa <= alpha passes as
# any large alpha does
@pytest.mark.parametrize("a", [3, 2 ** 1023, 2 ** 1024, 10 ** 400],
                         ids=["3", "2^1023", "2^1024", "10^400"])
def test_c_beta_kappa_reads_any_integer_exponent(a):
    assert c_beta_kappa(Monomial((a, 1)), [2.0, 1.0], [1.0, 1.0], 1.0) == c_beta_kappa(
        Monomial((2, 1)), [2.0, 1.0], [1.0, 1.0], 1.0)


# errenv_bound takes alpha as a candidate kappa, a finite slope: it refuses an
# exponent beyond the float range (TestErrEnvBound: it answers up to there)
@pytest.mark.parametrize("alpha", [(10 ** 400,), (10 ** 400, 1), (2 ** 1024, 2 ** 1024)],
                         ids=["10^400", "10^400-1", "2^1024-2^1024"])
def test_errenv_bound_refuses_an_exponent_beyond_the_float_range(alpha):
    with pytest.raises(ScaleExceeded, match="too large for a float"):
        errenv_bound(Monomial(alpha), [((2.0,) * len(alpha), 1.0)])


class TestRatioBoxConstants:
    def test_two_by_two(self):
        D, E = ratio_box_constants(2, 2.0)
        assert D == pytest.approx(0.25)
        assert E == pytest.approx(0.25)

    def test_three_by_two(self):
        D, E = ratio_box_constants(3, 2.0)
        assert D == pytest.approx(17 / 27, abs=1e-12)
        assert E == pytest.approx(1.1284510810424182, abs=1e-12)

    def test_ratio_grid_at_most_one(self):
        for n in range(2, 101):
            for r in (1.01, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0):
                ratio, relaxed = ratio_box_ratios(n, r)
                assert ratio <= 1.0 + 1e-12
                assert relaxed <= 1.0 + 1e-12
                assert ratio <= relaxed + 1e-12  # relaxing can only grow the error

    def test_log_ratios_match_direct_values(self):
        for n, r in [(2, 2.0), (3, 2.0), (5, 1.2), (8, 3.0)]:
            D, E = ratio_box_constants(n, r)
            ratio, relaxed = ratio_box_ratios(n, r)
            assert ratio == pytest.approx(D / E, rel=1e-12)
            assert relaxed == pytest.approx(ratio_box_relaxed_error(n, r) / E, rel=1e-12)

    def test_relaxed_reduces_to_d_at_two(self):
        for r in (1.5, 2.0, 5.0):
            assert ratio_box_relaxed_error(2, r) == pytest.approx(ratio_box_constants(2, r)[0], abs=1e-12)

    def test_asymptotics_toward_one(self):
        # E/(r^n - 1) climbs toward 1; about 0.90 at n=100 and inside 0.05 by n=300
        seq = [ratio_box_asymptotics(n, 2.0)[0] for n in (50, 100, 200, 300)]
        assert all(b > a for a, b in zip(seq, seq[1:]))
        assert seq[1] == pytest.approx(float(oracle.ratio_box_diagonal_max(100, 2.0)[1]), abs=1e-12)
        assert abs(seq[3] - 1.0) <= 0.05

    def test_e_ratio_is_e_over_the_span(self):
        # the quotient itself where E and r^n - 1 are floats, and finite in
        # (0, 1) past the float range, where both are inf
        for n in (2, 3, 10, 100, 228, 10 ** 5):
            for r in (1.01, 2.0, 10.0):
                x, ratio = n * math.log1p(r - 1.0), ratio_box_asymptotics(n, r)[0]
                if x < 709.0:
                    assert ratio == ratio_box_constants(n, r)[1] / math.expm1(x), (n, r)
                else:
                    assert ratio_box_constants(n, r)[1] == math.inf and 0.0 < ratio < 1.0, (n, r)

    @pytest.mark.parametrize("func", [ratio_box_asymptotics, bounds.ratio_box_ratios])
    @pytest.mark.parametrize("n, r", [(1, 2.0), (3, 1.0), (3, float("nan"))])
    def test_log_domain_forms_reject_bad_parameters(self, func, n, r):
        # n = 1 used to end in a ZeroDivisionError
        with pytest.raises(ValueError, match="n must be an integer >= 2|need a finite ratio"):
            func(n, r)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ratio_box_constants(1, 2.0)
        with pytest.raises(ValueError):
            ratio_box_constants(3, 1.0)


FIGURE1_GRID = [(n, r) for n in range(2, 101) for r in (1.01, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0)]

# every public function that reads a ratio-box record, as a call on (n, r)
RATIO_BOX_CALLS = {
    "ratio_box_constants": ratio_box_constants,
    "ratio_box_ratios": ratio_box_ratios,
    "ratio_box_asymptotics": ratio_box_asymptotics,
    "ratio_box_relaxed_error": ratio_box_relaxed_error,
    "ratio_box_e_point": bounds.ratio_box_e_point,
    "psi_value": lambda n, r: psi_value(n, r, 0.375),
    "d_bound_cases": d_bound_cases,
}


def _outcome(call, *args):
    """repr of the result (a float's repr gives back its bits), or the error's type and message."""
    try:
        return repr(call(*args))
    except (ValueError, TypeError, ScaleExceeded) as e:
        return type(e).__name__, str(e)


def _counting(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)

    def counted(name, evaluate):
        def wrapper(b):
            calls[name] += 1
            return evaluate(b)
        return wrapper

    for name in names:
        monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
    bounds._box.cache_clear()
    return calls


class TestRatioBoxRecord:
    """One record per (n, r): D, E, the relaxed error and r^n - 1 are
    evaluated on its first read, and only the last few records are kept."""

    def test_a_pair_evaluates_d_and_e_once(self, monkeypatch):
        calls = _counting(monkeypatch, "_D", "_E", "_relaxed")
        D, E = ratio_box_constants(7, 1.5)
        ratio, relaxed = ratio_box_ratios(7, 1.5)
        assert calls == {"_D": 1, "_E": 1, "_relaxed": 1}
        assert ratio == D / E

    def test_a_second_figure1_sweep_misses_the_cache_on_every_pair(self, monkeypatch, tmp_path):
        from monoenv import cli
        calls = _counting(monkeypatch, "_D", "_E")
        out = tmp_path / "f.csv"
        assert cli.main(["figure1", "--out", str(out)]) == 0
        assert calls == {"_D": 693, "_E": 693}
        before = bounds._box.cache_info()
        assert cli.main(["figure1", "--out", str(out)]) == 0
        after = bounds._box.cache_info()
        assert calls == {"_D": 2 * 693, "_E": 2 * 693}
        # one miss and one hit per pair: ratio_box_constants, then ratio_box_ratios
        assert (after.misses - before.misses, after.hits - before.hits) == (693, 693)
        assert after.currsize <= after.maxsize < len(FIGURE1_GRID)

    @pytest.mark.parametrize("pairs", [
        FIGURE1_GRID,
        [(2, 1.0 + 1e-12), (3, 1.0 + 1e-12), (100, 1.0 + 1e-12), (3, 1e100), (100, 1e100),
         (10 ** 5, 1.0 + 1e-12), (10 ** 5, 1.01), (10 ** 5, 2.0), (10 ** 5, 1e100)],
    ], ids=["figure1-grid", "extremes"])
    def test_the_record_gives_the_bits_of_fresh_evaluators(self, monkeypatch, pairs):
        def outcomes():
            return [[_outcome(call, n, r) for call in RATIO_BOX_CALLS.values()] for n, r in pairs]

        got = outcomes()  # each pair's calls share one record
        with monkeypatch.context() as m:  # a new record, so fresh evaluators, on every call
            m.setattr(bounds, "_box", bounds._box.__wrapped__)
            want = outcomes()
        assert got == want

    @pytest.mark.parametrize("n, r, error, message", [
        (True, 2.0, ValueError, "n must be an integer >= 2, got True"),
        (2.0, 2.0, ValueError, "n must be an integer >= 2, got 2.0"),
        ([3], 2.0, ValueError, "n must be an integer >= 2, got [3]"),
        (-10 ** 5000, 2.0, ValueError, "n must be an integer >= 2, got -<an int of 5001 digits>"),
        (10 ** 400, 2.0, ScaleExceeded, "n or r - 1 is too large for a float"),
        (3, 1.0, ValueError, "need a finite ratio r > 1, got 1.0"),
        (3, 0.5, ValueError, "need a finite ratio r > 1, got 0.5"),
        (3, float("nan"), ValueError, "need a finite ratio r > 1, got nan"),
        (3, [2.0], TypeError, "float() argument must be a string or a"),
    ], ids=["true", "float-n", "list-n", "long-negative-n", "huge-n", "r-one", "r-half", "r-nan",
            "list-r"])
    @pytest.mark.parametrize("name", RATIO_BOX_CALLS)
    def test_a_bad_argument_is_refused_before_the_record(self, name, n, r, error, message):
        for good in (2, 3):  # a cached record must not answer a bad (n, r): 2.0 == 2
            ratio_box_constants(good, 2.0)
        with pytest.raises(error) as info:
            RATIO_BOX_CALLS[name](n, r)
        assert type(info.value) is error and str(info.value).startswith(message)


class TestDBoundCases:
    def test_psi_endpoints_vanish(self):
        for n, r in [(2, 1.5), (3, 2.0), (5, 10.0)]:
            assert psi_value(n, r, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert psi_value(n, r, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_derivative_signs_three_two(self):
        n, r = 3, 2.0
        dpsi = lambda t: n * (r - 1) * (1 + (r - 1) * t) ** (n - 1) - n * math.log(r) * r ** (n * t)
        assert dpsi(0.0) == pytest.approx(3 - math.log(8))
        assert dpsi(0.0) > 0
        assert dpsi(1.0) == pytest.approx(12 - 8 * math.log(8))
        assert dpsi(1.0) < 0

    def test_exact_case_three_two(self):
        res = d_bound_cases(3, 2.0)
        assert res.case == "exact"
        assert res.bound == pytest.approx(ratio_box_constants(3, 2.0)[0], abs=1e-12)

    def test_bound_dominates_exact_d(self):
        rng = np.random.default_rng(3)
        samples = [(int(rng.integers(2, 40)), float(1.01 + 9.0 * rng.random()))
                   for _ in range(40)]
        samples += [(100, 2.0), (100, 1.2), (64, 5.0)]
        for n, r in samples:
            res = d_bound_cases(n, r)
            D = ratio_box_constants(n, r)[0]
            assert res.bound >= D - 1e-9 * max(1.0, abs(D))

    def test_stationary_point_is_global_maximizer(self):
        # the diagonal profile has a unique stationary point: it is the
        # largest value of psi on a fine grid
        ts = np.linspace(0.0, 1.0, 10_001)
        for n, r in [(3, 2.0), (10, 1.2), (50, 2.0), (100, 2.0), (100, 10.0), (100, 1.01)]:
            res = d_bound_cases(n, r)
            grid_max = ts[int(np.argmax(psi_value(n, r, ts)))]
            assert res.t_star == pytest.approx(grid_max, abs=1e-4)

    def test_d_is_the_largest_candidate_bit_for_bit(self):
        # D reads two candidates next to the stationary point; every other
        # candidate of the same psi is no larger
        rng = np.random.default_rng(17)
        for _ in range(120):
            n = int(rng.integers(2, 401))
            r = 1.0 + 10.0 ** rng.uniform(-12.0, 2.5)
            full = max(psi_value(n, r, i / n) for i in range(1, n))
            assert ratio_box_constants(n, r)[0] == full


EPS = sys.float_info.epsilon
FLOAT_MAX = Decimal(sys.float_info.max)


def _ratio_box_reference(n, r, candidates):
    """50-digit E, t_E and r^n - 1 from the exact binary value of r; with
    ``candidates``, also D by every candidate piece, the relaxed D and both
    cases of the stationary-point bound on D."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax = 50, MAX_EMAX
        R = Decimal(r)
        s, span = R - 1, R ** n - 1
        t_e = ((span / (n * s)).ln() / (n - 1)).exp()
        ref = {"E": 1 + (n - 1) * t_e ** n - n * t_e ** (n - 1), "t_E": t_e, "span": span}
        if candidates:
            ref["D"] = max((1 + i * s / n) ** n - R ** i for i in range(1, n))
            t = (n - 1) * span / (n * (R ** (n - 1) - 1))
            ref["relaxed"] = t ** n - n * t + n - 1
            ref["exact"] = (1 + (n - 1) * s / n) ** n - R ** (n - 1)
            ref["stationary"] = R ** n * ((R.ln() / s).ln() * n / (n - 1)).exp() - R ** (n - 1)
        return ref


def _within(value, ref, budget):
    """value is ref within budget, or inf where ref leaves the float range;
    never nan, 0.0 or negative."""
    if ref > FLOAT_MAX:
        assert value == math.inf
        return
    assert 0.0 < value < math.inf
    with localcontext() as ctx:
        ctx.prec = 50
        assert abs(Decimal(value) / ref - 1) <= Decimal(budget), (value, ref)


# r - 1 log-uniform in [1e-12, 1e3], or r itself log-uniform up to 1e300
RATIOS = st.one_of(st.floats(-12.0, 3.0).map(lambda e: 1.0 + 10.0 ** e),
                   st.floats(3.0, 300.0).map(lambda e: 10.0 ** e))


@given(st.integers(2, 200), st.integers(2, 10 ** 4), RATIOS)
@example(3, 3, 1.000001)
@example(3, 3, 1.000000000001)
@example(2, 2, 1.0000000000001)
@example(2, 2, 2.0)
@example(100, 10 ** 4, 10.0)
@example(200, 10 ** 4, 1e300)
def test_ratio_box_constants_match_a_50_digit_reference(n, n_e, r):
    # relative budget 64 eps n max(1, ln r): the forms in s = r - 1 cancel
    # nothing of size O(s), so the error grows only with n and the size of
    # n ln r that exp() amplifies
    ref = _ratio_box_reference(n, r, candidates=True)
    budget = 64 * EPS * n * max(1.0, math.log(r))
    D, E = ratio_box_constants(n, r)
    _within(D, ref["D"], budget)
    _within(E, ref["E"], budget)
    _within(ratio_box_relaxed_error(n, r), ref["relaxed"], budget)
    ratio, relaxed = ratio_box_ratios(n, r)
    _within(ratio, ref["D"] / ref["E"], budget)
    _within(relaxed, ref["relaxed"] / ref["E"], budget)
    _within(ratio_box_asymptotics(n, r)[1], ref["D"] / ref["span"], budget)
    try:
        res = d_bound_cases(n, r)
    except ScaleExceeded:
        assert ref["span"] > Decimal("1e307")  # r**n at the edge of the float range
    else:
        _within(res.bound, ref[res.case], budget)

    ref = _ratio_box_reference(n_e, r, candidates=False)
    budget = 64 * EPS * n_e * max(1.0, math.log(r))
    _within(ratio_box_constants(n_e, r)[1], ref["E"], budget)
    _within(bounds.ratio_box_e_point(n_e, r), ref["t_E"], budget)
    _within(ratio_box_asymptotics(n_e, r)[0], ref["E"] / ref["span"], budget)


FLOAT_TINY = Decimal(sys.float_info.min)


def _within_or_underflow(value, ref, budget):
    """_within, or a value in the subnormal range where ref is below it."""
    if ref < FLOAT_TINY:
        assert 0.0 <= value < sys.float_info.min, (value, ref)
        return
    _within(value, ref, budget)


def _convex_call(name, args):
    """A convex-side constant and its (sigma, D, rho, offset) as decimals,
    exact but for rho's quotient: the constant is offset + (1 - sigma/D)^(D/rho)."""
    if name == "c2":
        return c2(*args), (1, Decimal(args[0]), 1, 0)
    if name == "symbox_error":
        return symbox_error(*args), (2, Decimal(args[0]), 1, 1)
    with localcontext() as ctx:
        ctx.prec = 800  # a sum of floats >= 1 below 1e301 is exact
        if name == "gamma_bound":
            (gamma,) = args
            return gamma_bound(gamma), (1, sum(map(Decimal, gamma)), 1, 0)
        alpha, beta, kappa, sigma = args
        rho = max(Decimal(b) / Decimal(k) for b, k in zip(beta, kappa))
        return c_beta_kappa(Monomial(alpha), beta, kappa, sigma), (
            Decimal(sigma), sum(map(Decimal, beta)), rho, 0)


# integer degrees log-uniform up to 1e300, or any up to 400 digits
DEGREES = st.one_of(st.floats(math.log10(2.0), 300.0).map(lambda e: int(10.0 ** e)),
                    st.integers(2, 10 ** 400))


@st.composite
def _c_beta_kappa_args(draw):
    # beta = (D/2, D/2), kappa = (K, K), sigma = f D: the constant is
    # (1 - f)^(2K), with K capped so that it stays above 1e-300
    D = 10.0 ** draw(st.floats(math.log10(2.0), 300.0))
    f = min(10.0 ** draw(st.floats(-300.0, 0.0)), math.nextafter(1.0, 0.0))
    K = min(D / 2, 345.0 / -math.log1p(-f)) ** draw(st.floats(0.0, 1.0))
    sigma = min(f * D, math.nextafter(D, 0.0))
    return (math.ceil(K), math.ceil(K)), (D / 2, D / 2), (K, K), sigma


CONVEX_CASES = st.one_of(
    st.tuples(st.just("c2"), st.tuples(DEGREES)),
    st.tuples(st.just("symbox_error"), st.tuples(DEGREES)),
    st.tuples(st.just("gamma_bound"),
              st.tuples(st.tuples(st.floats(-12.0, 300.0).map(lambda e: 1.0 + 10.0 ** e)))),
    st.tuples(st.just("c_beta_kappa"), _c_beta_kappa_args()),
)


@given(CONVEX_CASES)
@example(("gamma_bound", ((1e17, 1.0),)))  # was 1.0
@example(("c_beta_kappa", ((10 ** 17, 1), (1e17, 1.0), (1e17, 1.0), 1.0)))  # was 1.0
@example(("symbox_error", (10 ** 17,)))  # was 2.0
@example(("symbox_error", (10 ** 12,)))  # was 5.3e-6 off
@example(("symbox_error", (2,)))
@example(("symbox_error", (3,)))
@example(("c2", (10 ** 400 - 1,)))
@example(("c_beta_kappa", ((1, 1), (2.0, 2.0), (1.0, 1.0), math.nextafter(4.0, 0.0))))
def test_convex_constants_match_a_50_digit_reference(case):
    # c2, gamma_bound, c_beta_kappa and symbox_error are one form,
    # exp((sigma/rho) log(1 - x)/x) with x = sigma/D: the log carries a few
    # eps of its size, which exp() keeps, so the relative budget is
    # 16 eps (1 + |ln value|)
    value, (sigma, D, rho, offset) = _convex_call(*case)
    with localcontext() as ctx:
        ctx.prec = 60 + max(0, D.adjusted())  # digits enough for 1 - sigma/D
        x = Decimal(sigma) / D
        ref = offset + (D / rho * (1 - x).ln()).exp() if x < 1 else Decimal(offset)
    _within(value, ref, 16 * EPS * (1 + abs(math.log(value))))


@st.composite
def _phi_args(draw):
    d = draw(st.integers(2, 10 ** 4))
    if draw(st.booleans()):
        return d, 0.0, 10.0 ** draw(st.floats(-3.0, 3.0))
    t1 = 10.0 ** draw(st.floats(-3.0, 3.0))
    return d, t1, t1 + t1 * 10.0 ** draw(st.floats(-12.0, 3.0))


def _phi_reference(d, t1, t2):
    """The largest gap of the secant of t**d over [t1, t2], and its xi, to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        T1, T2 = Decimal(t1), Decimal(t2)
        if t1 == 0.0:
            u = (-Decimal(d).ln() / (d - 1)).exp()
            return T2 ** d * (u - u ** d), u
        rise = T2 ** d - T1 ** d
        t = ((rise / (d * (T2 - T1))).ln() / (d - 1)).exp()
        xi = (t - T1) / (T2 - T1)
        return T1 ** d + rise * xi - t ** d, xi


@given(_phi_args())
@example((2, 1.0, 1 + 1e-8))  # was 0.0
@example((3, 1.0, 1.000001))  # was 2e-4 off
@example((400, 1.0, 10.0))  # raised OverflowError
@example((10 ** 4, 1e-3, 2e-3))  # below the float range
def test_lower_bound_phi_matches_a_50_digit_reference(args):
    # t1 = 0 is t2^d c1(d); otherwise t1^d times the ratio-box E at
    # s = (t2 - t1)/t1, so the ratio-box budget 64 eps d max(1, ln r) holds
    d, t1, t2 = args
    ref, ref_xi = _phi_reference(d, t1, t2)
    budget = 64 * EPS * d * max(1.0, math.log(t2 / t1) if t1 > 0.0 else 0.0)
    res = lower_bound_phi(d, t1, t2)
    _within_or_underflow(res.bound, ref, budget)
    assert 0.0 <= res.xi <= 1.0
    _within(res.xi, ref_xi, budget)


@pytest.mark.parametrize("d", [2, 3, 10 ** 400])
def test_unclipped_concave_bounds_are_c1(d):
    assert concave_bound_xi(Monomial((d - 1, 1)), 0.0, 1.0).bound == c1(d)
    assert lower_bound_phi(d, 0.0, 1.0).bound == c1(d)


def _concave_box_reference(alpha, lower, upper):
    """50-digit (bound, u) of the concave bound over prod_j [lower_j, upper_j]
    from the exact binary corners: u* = d^(1/(1-d)) clipped to the roots of
    the corner values, and u - u^d there."""
    d = sum(alpha)
    with localcontext() as ctx:
        ctx.prec = 50

        def log_root(x):
            return sum(Decimal(a) / d * Decimal(v).ln() for a, v in zip(alpha, x))

        log_u = min(max(-Decimal(d).ln() / (d - 1), log_root(lower)), log_root(upper))
        u = log_u.exp()
        return u - (d * log_u).exp(), u


def _check_concave_box(alpha, lower, upper):
    # budget 4 eps (1 + |log u|): the exponent alpha_j/d is rounded, and
    # exp() amplifies that by log u
    cb = bounds.concave_bound_box(Monomial(alpha), SubBox(lower, upper))
    ref, u = _concave_box_reference(alpha, lower, upper)
    budget = 4 * EPS * (1.0 - math.log(max(float(u), 1e-300)))
    _within_or_underflow(cb.bound, ref, budget)
    for v in cb.point:
        _within_or_underflow(v, u, budget)


def test_concave_bound_box_refuses_a_non_box_domain():
    with pytest.raises(UnsupportedDomain, match="needs a box inside the unit box"):
        bounds.concave_bound_box(Monomial((1, 1)), StdSimplex(2))


@pytest.mark.parametrize("a", [7060, 7090, 7100, 8000, 10 ** 5, 10 ** 18, 10 ** 400])
def test_concave_bound_reads_a_corner_value_below_the_float_range(a):
    # 0.9**a * 0.8 is subnormal at a = 7060, where the bound read from it was
    # 0.900025961, and 0 from about a = 7090 on, where it was 0 at (0, 0)
    _check_concave_box((a, 1), (0.5, 0.5), (0.9, 0.8))


CORNER = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.9]),
                   st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e))


@st.composite
def _sub_boxes(draw):
    alpha = draw(st.lists(st.sampled_from([1, 2, 3, 7, 50, 700, 7060, 10 ** 5, 10 ** 18,
                                           10 ** 400]), min_size=2, max_size=4))
    lower = draw(st.lists(CORNER, min_size=len(alpha), max_size=len(alpha)))
    return tuple(alpha), lower, [max(lo, draw(CORNER)) for lo in lower]


@given(_sub_boxes())
@example(((1, 1), [1.0, 1.0], [1.0, 1.0]))  # no gap at the point 1
@example(((1, 10 ** 400), [1.0, 1.0], [1.0, 1.0]))  # and there log u* rounds to -0.0
@example(((10 ** 400, 1), [1.0, 0.5], [1.0, 0.5]))  # u rounds to 1, xi = 0.5
@example(((3, 2), [0.0, 0.0], [0.0, 1.0]))  # a zero upper corner
@example(((9, 1), [0.999, 0.999], [0.9999, 0.9999]))  # u - u^d cancelled
def test_concave_bound_over_a_sub_box_matches_a_50_digit_reference(box):
    _check_concave_box(*box)


def test_simplex_peak_matches_a_50_digit_reference():
    # alpha^alpha / d^d from n + 1 powers, n - 1 products and one quotient,
    # each within an eps; ScaleExceeded exactly where d^d leaves the float range
    rng = np.random.default_rng(8)
    alphas = [(142, 1), (143, 1)]  # d = 143 is the last degree inside the range
    alphas += [tuple(int(a) for a in rng.integers(1, 31, size=int(rng.integers(2, 13))))
               for _ in range(300)]
    refused = 0
    for alpha in alphas:
        m = Monomial(alpha)
        with localcontext() as ctx:
            ctx.prec = 50
            aa = math.prod(Decimal(a) ** a for a in alpha)
            dd = Decimal(m.degree) ** m.degree
        if dd > FLOAT_MAX:
            with pytest.raises(ScaleExceeded):
                simplex_peak(m)
            refused += 1
            continue
        budget = (m.n + 2) * EPS
        got_aa, got = simplex_peak(m)
        _within(got_aa, aa, budget)
        _within(got, aa / dd, budget)
    assert 0 < refused < len(alphas) - 2


class TestSymboxError:
    def test_two(self):
        assert symbox_error(2) == pytest.approx(1.0)

    def test_three(self):
        assert symbox_error(3) == pytest.approx(28 / 27, abs=1e-15)

    def test_approaches_limit_from_below(self):
        limit = 1.0 + math.exp(-2.0)
        vals = [symbox_error(n) for n in (10, 50, 200, 1000, 2000)]
        assert all(v < limit for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # convergence is slow: still 1.4e-3 away at n=200, inside 1e-3 from n~2000
        assert abs(vals[2] - limit) == pytest.approx(1.356e-3, abs=2e-5)
        assert abs(vals[-1] - limit) <= 1e-3

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            symbox_error(1)


class TestRootFinder:
    def test_quadratic_closed_form(self):
        res = find_root_power_linear(2, 1.5)
        assert res.has_root
        assert res.root == pytest.approx(0.5, abs=1e-12)

    def test_no_root_when_slope_dominates(self):
        res = find_root_power_linear(3, 3.0)
        assert not res.has_root
        assert res.certificate_min > 0.0

    def test_hard_sextic(self):
        res = find_root_power_linear(6, 3.0)
        assert res.has_root
        assert abs(res.residual) <= 1e-12
        assert res.lower_bound == pytest.approx(1.0 - 0.5 ** 0.2)
        assert res.root > res.lower_bound

    def test_sweep(self):
        for lam1 in range(2, 11):
            for lam2 in np.arange(1.0, lam1, 0.25):
                res = find_root_power_linear(lam1, float(lam2))
                assert res.has_root
                assert abs(res.residual) <= 1e-12
                assert res.root > res.lower_bound

    def test_sign_pattern(self):
        res = find_root_power_linear(5, 2.0)
        grid = np.arange(1e-3, 1.0 + 1e-9, 1e-3)
        vals = root_poly_value(5, 2.0, grid)
        before = grid < res.root - 1e-9
        after = grid > res.root + 1e-9
        assert np.all(vals[before] < 0.0)
        assert np.all(vals[after] > 0.0)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            find_root_power_linear(2, 0.5)
        with pytest.raises(ValueError):
            find_root_power_linear(0, 1.0)


    def test_zero_polynomial_is_an_error(self):
        # (1 - s) + s - 1 vanishes everywhere: neither "no root" nor one root
        with pytest.raises(ValueError, match="zero polynomial"):
            find_root_power_linear(1, 1.0)
        assert not find_root_power_linear(1, 1.5).has_root

    def test_rejects_nan_lambda2(self):
        with pytest.raises(ValueError):
            find_root_power_linear(3, float("nan"))

    @pytest.mark.filterwarnings("error")
    def test_a_root_floats_cannot_resolve_is_a_scale_refusal(self):
        # 1 - s rounds to 1 near the root, about 7e-21: bisection returned a
        # point with residual 0.35 as the root
        with pytest.raises(ScaleExceeded, match="residual"):
            find_root_power_linear(10 ** 20, 5e19)
        with pytest.raises(ScaleExceeded):
            find_root_power_linear(3 * 10 ** 16, 1.5e16)

class TestDegreeInequality:
    def test_equality_at_two(self):
        assert dineq_check(2)
        assert dineq_margins(2)[1] == pytest.approx(0.0, abs=1e-15)

    def test_strict_at_three(self):
        m1, m2 = dineq_margins(3)
        assert m2 == pytest.approx(3 * math.log(3) - 4 * math.log(2))
        assert m2 > 0.0

    def test_sweep(self):
        assert all(dineq_check(d) for d in range(2, 51))
        assert all(dineq_margins(d)[1] > 0 for d in range(3, 51))

    @pytest.mark.parametrize("d", [*range(2, 51), 10 ** 8, 10 ** 15])
    def test_margins_match_a_60_digit_reference(self, d):
        # each margin was a difference of two terms of size d**2 ln d: at
        # d = 10**8 the first read 0.0 for ln d = 18.42, and the check failed
        with localcontext() as ctx:
            ctx.prec = 60
            D = Decimal(d)
            want = (D.ln(), D * (D - 2) * D.ln() - (D - 1) ** 2 * (D - 1).ln())
            for got, ref in zip(dineq_margins(d), want):
                assert abs(Decimal(got) - ref) <= Decimal("4e-16") * ref  # 0.0 at d = 2
        assert dineq_check(d)

    def test_a_degree_beyond_the_float_range_is_a_scale_refusal(self):
        # (d-1)**2 ln d raised an OverflowError from d of about 10**154 on
        top = int(sys.float_info.max)
        assert all(map(math.isfinite, dineq_margins(top))) and dineq_check(10 ** 160)
        for d in (top + 1, 10 ** 5000):  # too long to print as a str
            for call in (dineq_margins, dineq_check):
                with pytest.raises(ScaleExceeded, match="beyond the float range"):
                    call(d)


class TestOverflowBehavior:
    def test_huge_ratio_box_degrades_to_inf(self):
        D, E = ratio_box_constants(500, 10.0)
        assert D == float("inf") and E == float("inf")

    def test_ratios_stay_finite_past_float_range(self):
        ratio, relaxed = ratio_box_ratios(500, 10.0)
        assert 0.0 < ratio <= 1.0 + 1e-12
        assert ratio <= relaxed <= 1.0 + 1e-12

    def test_d_bound_refuses_unrepresentable(self):
        from monoenv import ScaleExceeded
        with pytest.raises(ScaleExceeded):
            d_bound_cases(500, 10.0)

    def test_breakpoint_stable_form_matches_direct(self):
        # the breakpoint (n-1)/n (r^n - 1)/(r^(n-1) - 1) and the error there,
        # in 50-digit decimals, against the overflow-free form
        for n, r in [(2, 2.0), (3, 2.0), (5, 1.2), (10, 3.0), (100, 10.0), (3, 1.000001)]:
            ref = _ratio_box_reference(n, r, candidates=True)["relaxed"]
            _within(ratio_box_relaxed_error(n, r), ref, 64 * EPS * n * max(1.0, math.log(r)))


class TestDegenerateAndUnsupported:
    def test_univariate_eval_allowed_but_formulas_reject(self):
        from monoenv import eval_monomial
        m = Monomial((1,))
        assert eval_monomial(m, [0.3]) == 0.3
        with pytest.raises(ValueError):
            concave_bound_xi(m, 0.0, 1.0)
        with pytest.raises(ValueError):
            c1(m.degree)

    def test_sigma_rejects_domains_outside_unit_box(self):
        from monoenv import RatioBox, SymBox, UnsupportedDomain
        m = Monomial((1, 1))
        with pytest.raises(UnsupportedDomain):
            sigma_beta(m, RatioBox(2, 2.0), [1.0, 1.0])
        with pytest.raises(UnsupportedDomain):
            sigma_beta(m, SymBox(2), [1.0, 1.0])

    def test_intercept_goes_negative_outside_unit_box(self):
        # on [1,2]^2 the touching intercept of a slope-(3,3) cut is -2,
        # outside the unit-box enclosure
        from monoenv import RatioBox
        from monoenv.oracle import sigma_numeric
        m = Monomial((1, 1))
        val = sigma_numeric(m, RatioBox(2, 2.0), [3.0, 3.0])
        assert val == pytest.approx(-2.0, abs=1e-6)
