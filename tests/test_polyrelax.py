import itertools
import json
import math
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from monoenv import DimensionMismatch, Monomial, SubBox, UnitBox, ScaleExceeded
from monoenv import bounds, envelopes
from monoenv.core import monomial_values
from monoenv.polyrelax import (
    CertifyReport,
    Polynomial,
    certify_gap_small_instance,
    gap_bound,
    hierarchy_threshold,
    load_polynomial,
    lprime,
    parse_polynomial_json,
    parse_polynomial_text,
)


class TestPolynomial:
    def test_merges_duplicates_and_drops_zeros(self):
        p = Polynomial(2, ((1.0, (1, 1)), (2.0, (1, 1)), (0.0, (2, 0)), (-3.0, (1, 1))))
        assert p.terms == ()

    @pytest.mark.parametrize("coeff", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coefficient_rejected(self, coeff):
        # a nan coefficient used to give gap_bound tight=1.5, cheap=nan
        with pytest.raises(ValueError, match="non-finite"):
            Polynomial(2, ((1.0, (1, 1)), (coeff, (2, 0))))

    def test_overflowing_merge_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Polynomial(1, ((1e308, (2,)), (1e308, (2,))))

    def test_non_finite_coefficient_rejected_by_parsers(self):
        with pytest.raises(ValueError):
            parse_polynomial_text("nan 1 1\n")
        with pytest.raises(ValueError):
            parse_polynomial_json('{"n": 2, "terms": [{"coeff": NaN, "alpha": [1, 1]}]}')

    def test_total_degree(self):
        p = Polynomial(3, ((1.0, (1, 1, 0)), (2.0, (2, 1, 1))))
        assert p.total_degree == 4

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            Polynomial(2, ((1.0, (1, -1)),))
        with pytest.raises(ValueError):
            Polynomial(2, ((1.0, (1, 1, 1)),))

    def test_evaluate(self):
        p = Polynomial(2, ((2.0, (1, 1)), (-1.0, (0, 2)), (0.5, (0, 0))))
        assert p.evaluate(np.array([1.0, 2.0])) == pytest.approx(2 * 2 - 4 + 0.5)

    def test_evaluate_rejects_points_of_another_width(self):
        # a (m, 1) stack used to broadcast against both exponents
        p = Polynomial(2, ((1.0, (2, 1)), (-1.0, (0, 1))))
        with pytest.raises(DimensionMismatch):
            p.evaluate(np.full((4, 1), 0.5))
        with pytest.raises(DimensionMismatch):
            p.evaluate([0.5, 0.5, 0.5])

    @pytest.mark.parametrize("alpha", [(2, 0, 0), (0, 3, 1), (1, 1, 1), (2, 0, 5),
                                       (4, 4, 0), (0, 0, 0)])
    def test_each_term_is_monomial_values_on_its_support(self, alpha):
        X = np.random.default_rng(5).uniform(-2.0, 2.0, size=(2000, 3))
        support = [j for j, e in enumerate(alpha) if e > 0]
        if support:
            want = monomial_values(Monomial(tuple(alpha[j] for j in support)), X[:, support])
        else:
            want = np.ones(len(X))
        got = Polynomial(3, ((1.0, alpha),)).evaluate(X)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_square_at_n1_matches_square_beside_a_unit_factor(self):
        # numpy's x*x path for a length-1 exponent array differed from pow()
        # in the last bit at about 2.6 % of these points
        x = np.random.default_rng(0).uniform(-2.0, 2.0, 10_000)
        one = Polynomial(1, ((1.0, (2,)),)).evaluate(x[:, None])
        two = Polynomial(2, ((1.0, (2, 1)),)).evaluate(np.stack([x, np.ones_like(x)], -1))
        assert np.array_equal(one.view(np.int64), two.view(np.int64))
        assert Polynomial(1, ((1.0, (2,)),)).evaluate([x[0]]) == one[0]

    def test_multilinear_flag(self):
        assert Polynomial(2, ((1.0, (1, 0)),)).is_multilinear()
        assert not Polynomial(2, ((1.0, (2, 0)),)).is_multilinear()


class TestLPrime:
    def test_single_bilinear(self):
        assert lprime(Polynomial(2, ((1.0, (1, 1)),))) == pytest.approx(0.25)

    def test_negative_trilinear(self):
        p = Polynomial(3, ((-1.0, (1, 1, 1)),))
        assert lprime(p) == pytest.approx(bounds.c1(3), abs=1e-12)
        assert lprime(p) == pytest.approx(0.38490, abs=1e-5)

    def test_mixed_terms(self):
        p = Polynomial(3, ((2.0, (1, 1, 0)), (-3.0, (1, 1, 1))))
        assert lprime(p) == pytest.approx(max(2 * 0.25, 3 * bounds.c1(3)), abs=1e-12)
        assert lprime(p) == pytest.approx(1.15470, abs=1e-5)

    def test_low_degree_terms_contribute_nothing(self):
        p = Polynomial(2, ((5.0, (1, 0)), (3.0, (0, 0)), (1.0, (1, 1))))
        assert lprime(p) == pytest.approx(0.25)

    def test_positively_homogeneous(self):
        rng = np.random.default_rng(0)
        base = tuple((float(c), tuple(a)) for c, a in
                     zip(rng.uniform(-2, 2, 4), [(1, 1, 0), (0, 1, 1), (1, 1, 1), (2, 0, 1)]))
        p = Polynomial(3, base)
        for t in (0.5, 2.0, 7.3):
            pt = Polynomial(3, tuple((t * c, a) for c, a in base))
            assert lprime(pt) == pytest.approx(t * lprime(p), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lprime(Polynomial(2, ()))


class TestGapBound:
    def test_bilinear(self):
        gb = gap_bound(Polynomial(2, ((1.0, (1, 1)),)))
        assert gb.tight == pytest.approx(0.25 * math.comb(4, 2))
        assert gb.tight == pytest.approx(1.5)

    def test_negative_trilinear_cheap(self):
        gb = gap_bound(Polynomial(3, ((-1.0, (1, 1, 1)),)))
        assert gb.cheap == pytest.approx(bounds.c1(3) * math.comb(6, 3), abs=1e-9)
        assert gb.cheap == pytest.approx(7.698, abs=1e-3)

    def test_single_term_degenerate(self):
        gb = gap_bound(Polynomial(2, ((1.0, (1, 1)),)))
        assert gb.tight == pytest.approx(gb.cheap)

    def test_tight_below_cheap_for_equal_degrees(self):
        rng = np.random.default_rng(1)
        alphas = [(1, 1, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2)]  # all degree 3
        for _ in range(20):
            terms = tuple((float(rng.uniform(-3, 3)), a) for a in alphas)
            p = Polynomial(3, terms)
            gb = gap_bound(p)
            assert gb.tight <= gb.cheap + 1e-12

    def test_cheap_is_zero_below_degree_two(self):
        # linear and constant terms are exact under convexification
        gb = gap_bound(Polynomial(2, ((2.0, (1, 0)), (-3.0, (0, 1)), (1.5, (0, 0)))))
        assert gb.cheap == 0.0
        assert gb.tight == 0.0

    def test_sharp_uses_term_count(self):
        p = Polynomial(2, ((1.0, (1, 1)), (1.0, (2, 0))))
        gb = gap_bound(p)
        assert gb.sharp == pytest.approx(lprime(p) * 2)
        assert gb.sharp <= gb.tight


class TestHierarchyThreshold:
    def test_small_case(self):
        assert hierarchy_threshold(2, 2) == pytest.approx(4 / 3, rel=1e-12)

    def test_two_forms_agree(self):
        # the binomial/factorial form C(m+1, 3) n^m / (m! C(n+m, n) c1(m)),
        # one exact quotient of integers and c1(m)'s float, rounded once
        for n in range(1, 21):
            for m in range(2, 21):
                exact = Fraction(math.comb(m + 1, 3) * n ** m,
                                 math.factorial(m) * math.comb(n + m, n)) / Fraction(bounds.c1(m))
                assert hierarchy_threshold(n, m) == pytest.approx(float(exact), rel=1e-9)

    def test_product_in_closed_form_matches_the_sum(self):
        # the product prod_k (1 + k/n) was a sum of m log1p terms, which the
        # closed form must reproduce
        def summed(n, m):
            log_prod = sum(math.log1p(k / n) for k in range(1, m + 1))
            return math.exp(2 * math.log(m) + math.log(m + 1) - math.log(6.0)
                            - math.log(m) / (1.0 - m) - log_prod)

        nonzero = 0
        for n in (1, 2, 3, 7, 30, 100, 1000, 3000, 10 ** 4):
            for m in (2, 3, 4, 10, 57, 100, 1000, 5000, 10 ** 4):
                want = summed(n, m)
                assert hierarchy_threshold(n, m) == pytest.approx(want, rel=1e-10, abs=0.0)
                nonzero += want > 0.0
        assert nonzero >= 50

    def test_huge_degree_is_constant_time(self):
        start = time.perf_counter()
        assert hierarchy_threshold(1, 10 ** 9) == 0.0
        assert hierarchy_threshold(10 ** 9, 10 ** 9) == 0.0
        assert time.perf_counter() - start < 1.0

    def test_count_beyond_the_float_range_is_a_scale_refusal(self):
        with pytest.raises(ScaleExceeded, match="monomial count"):
            gap_bound(Polynomial(1, ((1.0, (10 ** 400,)),)))

    def test_fixed_n_eventually_decays(self):
        # with n fixed the product term dominates, so the threshold rises
        # briefly and then decays toward zero
        vals = [hierarchy_threshold(3, m) for m in range(2, 41)]
        assert vals[1] > vals[0]
        assert all(b < a for a, b in zip(vals[5:], vals[6:]))
        assert vals[-1] < 1e-20

    def test_cubic_growth_when_n_dominates(self):
        # for n far beyond m^2 the product term is ~1 and the threshold is
        # essentially m^2 (m+1)/(6 m^(1/(1-m))), i.e. cubic in m
        for m in (5, 10, 20):
            n = 200 * m * m
            val = hierarchy_threshold(n, m)
            assert m ** 3 / 6 <= val <= m ** 3
            expected = m * m * (m + 1) / (6 * m ** (1 / (1 - m)))
            assert val == pytest.approx(expected, rel=0.01)


# B_2, B_4, ..., B_20: ten terms of Stirling's series leave less than 1e-60 at z >= 1000
BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
             Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
             Fraction(43867, 798), Fraction(-174611, 330))
LOG_2PI = Decimal("1.8378770664093454835606594728112352797227949472755668256343")


def _log_factorial(z):
    """log z! to 80 digits: exactly from z! below 1000, by Stirling's series above."""
    if z < 1000:
        return Decimal(math.factorial(z)).ln()
    Z = Decimal(z)
    tail = sum(Decimal(b.numerator) / (b.denominator * 2 * k * (2 * k - 1) * Z ** (2 * k - 1))
               for k, b in enumerate(BERNOULLI, 1))
    return (Z + Decimal("0.5")) * Z.ln() - Z + LOG_2PI / 2 + tail


def _check_threshold(n, m):
    # 80 digits left after log (n+m)! - log n! - m log n cancels
    with localcontext() as ctx:
        ctx.prec = 80 + 2 * len(str(n + m))
        log_prod = _log_factorial(n + m) - _log_factorial(n) - m * Decimal(n).ln()
        M = Decimal(m)
        ref = (2 * M.ln() + (M + 1).ln() - Decimal(6).ln() + M.ln() / (m - 1) - log_prod).exp()
    if ref > Decimal(sys.float_info.max):
        with pytest.raises(ScaleExceeded, match="threshold"):
            hierarchy_threshold(n, m)
        return
    value = hierarchy_threshold(n, m)
    if ref < Decimal("1e-300"):
        assert 0.0 <= value < 1e-290
        return
    # each log term is good to a few eps of its size, and exp() keeps that
    budget = 16 * sys.float_info.epsilon * (1 + 3 * math.log(m) + float(log_prod))
    with localcontext() as ctx:
        ctx.prec = 50
        assert abs(Decimal(value) / ref - 1) <= Decimal(budget), (n, m, value, ref)


@given(st.floats(0.0, 12.0), st.floats(math.log10(2.0), 6.0))
@example(12.0, math.log10(2.0))  # n = 10^12, m = 2: the lgamma difference was off by 3.2e-4
def test_threshold_matches_a_50_digit_reference(log_n, log_m):
    _check_threshold(int(10 ** log_n), max(2, int(10 ** log_m)))


# integers beyond the float range raised OverflowError; the threshold is 0.0,
# 4 (the m = 2 limit as n grows) and beyond the float range, and at
# (2, 10^4) n^m passes the float range
@pytest.mark.parametrize("n, m", [(1, 10 ** 400), (10 ** 400, 2), (10 ** 400, 10 ** 150),
                                  (2, 10 ** 4)],
                         ids=["m-400-digits", "n-400-digits", "overflow", "binomial-n-power"])
def test_threshold_beyond_the_float_range_matches_the_reference(n, m):
    _check_threshold(n, m)


class TestCertify:
    def test_single_positive_bilinear(self):
        p = Polynomial(2, ((1.0, (1, 1)),))
        rep = certify_gap_small_instance(p, UnitBox(2))
        assert rep.z_star == pytest.approx(0.0)
        assert rep.z_mon == pytest.approx(0.0)
        assert rep.gap == pytest.approx(0.0)
        assert rep.passed

    def test_negative_trilinear_vertex_exact(self):
        p = Polynomial(3, ((-1.0, (1, 1, 1)),))
        rep = certify_gap_small_instance(p, UnitBox(3))
        assert rep.z_star == pytest.approx(-1.0)
        assert rep.z_mon == pytest.approx(-1.0)
        assert rep.gap == pytest.approx(0.0)

    def test_three_term_instance(self):
        p = Polynomial(3, ((1.0, (1, 1, 0)), (-1.0, (0, 1, 1)), (1.0, (1, 0, 1))))
        rep = certify_gap_small_instance(p, UnitBox(3))
        assert rep.passed
        assert 0.0 <= rep.gap <= rep.tight_bound

    def test_relaxed_minimum_below_fine_grid(self):
        rng = np.random.default_rng(2)
        supports = [s for k in (1, 2, 3) for s in itertools.combinations(range(3), k)]
        xs = np.linspace(0.0, 1.0, 41)
        G = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), -1).reshape(-1, 3)
        for _ in range(10):
            coeffs = rng.uniform(-2, 2, len(supports))
            p = Polynomial(3, tuple((float(c), tuple(1 if j in s else 0 for j in range(3)))
                                    for c, s in zip(coeffs, supports)))
            rep = certify_gap_small_instance(p, UnitBox(3))
            # each term replaced by its convex envelope (c > 0) or its
            # concave envelope (c < 0) over the unit box of its support
            relaxed = sum(c * (envelopes.convex_env_unitbox_multilinear(len(s), G[:, s]) if c > 0
                               else envelopes.concave_env_unitbox(Monomial.multilinear(len(s)),
                                                                  G[:, s]))
                          for c, s in zip(coeffs.tolist(), supports))
            grid_min = float(np.min(relaxed))
            assert rep.z_mon <= grid_min + 1e-9
            assert rep.z_mon == pytest.approx(grid_min, abs=5e-3)

    def test_constant_term_shifts_both_minima(self):
        p = Polynomial(2, ((-1.0, (1, 1)), (2.5, (0, 0))))
        rep = certify_gap_small_instance(p, UnitBox(2))
        assert rep.z_star == pytest.approx(1.5)
        assert rep.z_mon == pytest.approx(1.5)
        assert rep.passed

    def test_rejects_non_multilinear(self):
        with pytest.raises(ValueError):
            certify_gap_small_instance(Polynomial(2, ((1.0, (2, 1)),)), UnitBox(2))

    @pytest.mark.parametrize("dom", [UnitBox(1), UnitBox(3), SubBox((0.0, 0.0), (1.0, 1.0))],
                             ids=repr)
    def test_rejects_another_domain_than_its_unit_box(self, dom):
        # UnitBox(1) used to give z_star=-1, gap=1.0 at a 1-d argmin
        p = Polynomial(2, ((1.0, (1, 1)), (-1.0, (1, 0))))
        with pytest.raises(ValueError, match="unit box of dimension 2"):
            certify_gap_small_instance(p, dom)
        assert certify_gap_small_instance(p, UnitBox(2)).passed

    def test_scale_guard(self):
        p = Polynomial(5, ((1.0, (1, 1, 1, 1, 1)),))
        with pytest.raises(ScaleExceeded):
            certify_gap_small_instance(p, UnitBox(5))


class TestParsing:
    def test_text_format(self):
        text = "# objective\n1.5 1 1 0\n-2 0 1 1\n"
        p = parse_polynomial_text(text)
        assert p.n == 3
        assert p.terms == ((-2.0, (0, 1, 1)), (1.5, (1, 1, 0)))

    def test_json_format(self):
        data = {"n": 2, "terms": [{"coeff": 1.0, "alpha": [1, 1]},
                                  {"coeff": -0.5, "alpha": [2, 0]}]}
        p = parse_polynomial_json(json.dumps(data))
        assert p.n == 2
        assert (-0.5, (2, 0)) in p.terms

    def test_load_round_trip(self, tmp_path):
        text_file = tmp_path / "poly.txt"
        text_file.write_text("1 1 1\n-1 2 0\n")
        p1 = load_polynomial(str(text_file))
        json_file = tmp_path / "poly.json"
        json_file.write_text(json.dumps({
            "n": p1.n,
            "terms": [{"coeff": c, "alpha": list(a)} for c, a in p1.terms],
        }))
        p2 = load_polynomial(str(json_file))
        assert p1 == p2

    def test_inconsistent_width_rejected(self):
        with pytest.raises(ValueError):
            parse_polynomial_text("1 1 1\n2 1\n")

    def test_no_terms_rejected(self):
        with pytest.raises(ValueError, match="no terms found"):
            parse_polynomial_text("# a comment only\n\n   # and another\n")
