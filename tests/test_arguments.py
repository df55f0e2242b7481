"""Argument rules, each checked once in ``monoenv.core``.

Slope vectors (``core.slopes``), monomial-domain pairs
(``Domain.require_monomial``), single points (``core.one_point``),
coordinate scalings and integers (``core.require_count``: every degree,
exponent, count, dimension and seed) are each checked by one helper that
every public entry calls. The rejection table pins the exact error type of each bad argument at
each entry; the property tests check the scaling transport rule and every
closed-form box envelope against the vertex-LP envelope.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    bounds,
    core,
    envelopes,
    hulls,
    lp,
    oracle,
    polyrelax,
    scale_error,
    scale_point,
)
from monoenv.core import monomial_values

NAN, INF = float("nan"), float("inf")
# what core.require_count rejects where an integer is read; 2.0, True and "2"
# were once read as 2 (or as 1) at some entries
NON_INTEGERS = {"2.0": 2.0, "2.5": 2.5, "nan": NAN, "inf": INF, "True": True, "str": "2"}
GRID = oracle.GridSpec(resolution=4)
M2 = Monomial((2, 2))

# ---------------------------------------------------------------------------
# the rejection table
# ---------------------------------------------------------------------------

# each slope entry as a function of one slope vector for M2 (valid: (1.5, 1.5))
SLOPE_ENTRIES = {
    "LinearUnderestimator": lambda b: envelopes.LinearUnderestimator(b, 1.0),
    "underestimator_necessary": lambda b: envelopes.underestimator_necessary(M2, UnitBox(2), b),
    "gamma_bound": lambda b: bounds.gamma_bound(b),
    "sigma_beta": lambda b: bounds.sigma_beta(M2, ComplementSimplex(2), b),
    "c_beta_kappa.beta": lambda b: bounds.c_beta_kappa(M2, b, (1.0, 2.0), 1.0),
    "c_beta_kappa.kappa": lambda k: bounds.c_beta_kappa(M2, (1.5, 1.5), k, 1.0),
    "phi_beta_kappa.beta": lambda b: bounds.phi_beta_kappa(b, (1.0, 2.0), 1.0, 0.5),
    "phi_beta_kappa.kappa": lambda k: bounds.phi_beta_kappa((1.5, 1.5), k, 1.0, 0.5),
    "errenv_bound": lambda b: bounds.errenv_bound(M2, [(b, 1.0)]),
    "sigma_numeric": lambda b: oracle.sigma_numeric(M2, UnitBox(2), b, GRID),
}
# entries whose slope vector has no prescribed length: an empty one is wrong
ANY_LENGTH = {"LinearUnderestimator", "gamma_bound", "phi_beta_kappa.beta"}


def _slope_cases():
    for name, call in SLOPE_ENTRIES.items():
        for label, bad in (("nan", NAN), ("inf", INF), ("0.5", 0.5)):
            yield f"{name}-{label}", lambda c=call, v=bad: c((v, 1.5)), ValueError
        wrong = () if name in ANY_LENGTH else (1.5, 1.5, 1.5)
        yield f"{name}-wrong-length", lambda c=call, v=wrong: c(v), DimensionMismatch


def _families3():
    return [UnitBox(3), SubBox((0.1, 0.2, 0.3), (0.9, 0.8, 0.7)), RatioBox(3, 2.5), SymBox(3),
            StdSimplex(3), CornerSimplexOne((0.3, 0.5, 0.7)), ComplementSimplex(3)]


def _pairing_cases():
    m, box = Monomial((1, 1)), UnitBox(3)
    yield "gamma_vector", lambda: envelopes.gamma_vector(m, box)
    yield "sigma_beta", lambda: bounds.sigma_beta(m, box, (1.0, 1.0))
    yield "max_gap", lambda: oracle.max_gap(
        m, box, lambda X: envelopes.concave_env_unitbox(Monomial((1, 1, 1)), X), oracle.OVER,
        grid=GRID)
    for dom in _families3():
        for sense in ("min", "max"):
            yield (f"extremize_f-{type(dom).__name__}-{sense}",
                   lambda d=dom, s=sense: oracle.extremize_f(m, d, s, GRID))
    yield "sigma_numeric", lambda: oracle.sigma_numeric(m, box, (1.0, 1.0), GRID)
    yield "sampled_hull_envelope", lambda: oracle.sampled_hull_envelope(
        m, box, (0.5, 0.5, 0.5), oracle.UNDER)
    yield "relaxation_error_PB", lambda: oracle.relaxation_error_PB(m, [(1.0, 1.0)], box, GRID)


def _point_cases():
    two = [[0.5, 0.25], [0.75, 0.5]]
    m = Monomial((1, 1))
    yield "hull_membership", lambda: hulls.hull_membership(hulls.build_symbox_hull(2), two, 0.0)
    yield "sampled_hull_envelope", lambda: oracle.sampled_hull_envelope(
        m, UnitBox(2), two, oracle.UNDER)
    yield "scale_point", lambda: scale_point(two, 0.5, (2.0, 3.0), m)


def _scaling_cases():
    m = Monomial((1, 2))
    entries = {"scale_error": lambda c: scale_error(0.25, c, m),
               "scale_point": lambda c: scale_point((0.5, 0.5), 0.25, c, m)}
    for name, call in entries.items():
        for label, bad in (("nan", NAN), ("inf", INF), ("zero", 0.0)):
            yield f"{name}-{label}", lambda c=call, v=bad: c((2.0, v)), ValueError
        yield f"{name}-wrong-length", lambda c=call: c((2.0,)), DimensionMismatch
    for label, bad in (("nan", NAN), ("inf", INF)):
        yield f"scale_error-err-{label}", lambda v=bad: scale_error(v, (2.0, 3.0), m), ValueError
        yield f"scale_point-w-{label}", lambda v=bad: scale_point((0.5, 0.5), v, (2.0, 3.0), m), \
            ValueError


def _sigma_cases():
    for label, bad in (("nan", NAN), ("negative", -1.0), ("sum-beta", 3.0)):
        yield f"phi_beta_kappa-{label}", lambda v=bad: bounds.phi_beta_kappa(
            (1.5, 1.5), (1.0, 2.0), v, 0.5)
        yield f"c_beta_kappa-{label}", lambda v=bad: bounds.c_beta_kappa(
            M2, (1.5, 1.5), (1.0, 2.0), v)


def _ratio_cases():
    # r = inf once built a box and gave nan, and r = nan or 1 a late error
    entries = {
        "RatioBox": lambda r: RatioBox(3, r),
        "concave_env_ratiobox": lambda r: envelopes.concave_env_ratiobox(3, r, [1.0, 1.0, 1.0]),
        "convex_env_ratiobox": lambda r: envelopes.convex_env_ratiobox(3, r, [1.0, 1.0, 1.0]),
        "ratio_box_constants": lambda r: bounds.ratio_box_constants(3, r),
        "ratio_box_e_point": lambda r: bounds.ratio_box_e_point(3, r),
        "ratio_box_relaxed_error": lambda r: bounds.ratio_box_relaxed_error(3, r),
        "ratio_box_e_ratio": lambda r: bounds.ratio_box_e_ratio(3, r),
        "psi_value": lambda r: bounds.psi_value(3, r, 0.5),
        "ratio_box_diagonal_max": lambda r: oracle.ratio_box_diagonal_max(3, r),
    }
    for name, call in entries.items():
        for label, bad in (("inf", INF), ("nan", NAN), ("one", 1.0)):
            yield f"{name}-{label}", lambda c=call, v=bad: c(v)


def _other_cases():
    yield "find_root_power_linear-inf", lambda: bounds.find_root_power_linear(3, INF)
    yield "find_root_power_linear-nan", lambda: bounds.find_root_power_linear(3, NAN)
    # each of these once passed construction and failed later, or not at all
    yield "GridSpec-resolution-2.5", lambda: oracle.GridSpec(resolution=2.5)
    yield "GridSpec-resolution-1", lambda: oracle.GridSpec(resolution=1)
    yield "GridSpec-seed--1", lambda: oracle.GridSpec(seed=-1)
    yield "GridSpec-seed-1.5", lambda: oracle.GridSpec(seed=1.5)
    yield "GridSpec-seed-True", lambda: oracle.GridSpec(seed=True)
    # c = [nan, 1] once gave the value nan, and [inf, -1, 2] gave inf
    for label, bad in (("nan", [NAN, 1.0]), ("inf", [INF, -1.0, 2.0])):
        yield f"constructive_maximizer-{label}", lambda v=bad: hulls.constructive_maximizer(v)
    # intercept=nan once evaluated to a silent nan, and inf was stored as is
    for label, bad in (("nan", NAN), ("inf", INF)):
        yield f"LinearUnderestimator-intercept-{label}", lambda v=bad: (
            envelopes.LinearUnderestimator((1.5, 1.5), v))


def _dimension_cases():
    # a float n once built a domain that failed later with a numpy TypeError
    # and a hull that failed in range(); n must be an int, or a numpy integer
    entries = {
        "StdSimplex": StdSimplex, "SymBox": SymBox, "UnitBox": UnitBox,
        "RatioBox": lambda n: RatioBox(n, 2.0), "ComplementSimplex": ComplementSimplex,
        "build_symbox_hull": hulls.build_symbox_hull,
    }
    for name, call in entries.items():
        for label, bad in NON_INTEGERS.items():
            yield f"{name}-n-{label}", lambda c=call, v=bad: c(v)
    yield "ComplementSimplex-n-1", lambda: ComplementSimplex(1)
    # symbox_error(2.5) once returned 1.0179; n is the degree, checked as one
    for name, call in (("symbox_error", bounds.symbox_error),
                       ("symbox_attainment", bounds.symbox_attainment)):
        for label, bad in (*NON_INTEGERS.items(), ("1", 1)):
            yield f"{name}-n-{label}", lambda c=call, v=bad: c(v)


def _poly_json(n, alpha):
    return polyrelax.parse_polynomial_json(json.dumps(
        {"n": n, "terms": [{"coeff": 1.0, "alpha": alpha}]}))


def _integer_cases():
    # every other degree, exponent, count and seed; each entry had its own
    # rule, and at least one of these values passed each of them or ended
    # in a TypeError or OverflowError
    ratio_box = (bounds.ratio_box_constants, bounds.ratio_box_e_point,
                 bounds.ratio_box_relaxed_error, bounds.ratio_box_ratios,
                 bounds.ratio_box_e_ratio, bounds.ratio_box_asymptotics, bounds.d_bound_cases,
                 oracle.ratio_box_diagonal_max)
    entries = {
        "Monomial": lambda a: Monomial((a, 1)),
        "Monomial.multilinear": Monomial.multilinear,
        "c1": bounds.c1,
        "c2": bounds.c2,
        "lower_bound_phi": lambda d: bounds.lower_bound_phi(d, 0.0, 1.0),
        "dineq_margins": bounds.dineq_margins,
        **{f.__name__: lambda n, f=f: f(n, 2.0) for f in ratio_box},
        "psi_value": lambda n: bounds.psi_value(n, 2.0, 0.5),
        "ratio_box_diagonal_gap": lambda n: oracle.ratio_box_diagonal_gap(n, 2.0, 0.5),
        "find_root_power_linear": lambda k: bounds.find_root_power_linear(k, 1.5),
        "Polynomial.n": lambda n: polyrelax.Polynomial(n, ()),
        "Polynomial.alpha": lambda a: polyrelax.Polynomial(2, ((1.0, (a, 1)),)),
        "parse_polynomial_json.n": lambda n: _poly_json(n, [1, 1]),
        "parse_polynomial_json.alpha": lambda a: _poly_json(2, [a, 1]),
        "hierarchy_threshold.n": lambda n: polyrelax.hierarchy_threshold(n, 3),
        "hierarchy_threshold.m": lambda m: polyrelax.hierarchy_threshold(2, m),
        "verify_integrality.n": lambda n: hulls.verify_integrality(n, trials=1),
        "verify_integrality.trials": lambda t: hulls.verify_integrality(2, trials=t),
        "verify_integrality.seed": lambda s: hulls.verify_integrality(2, trials=1, seed=s),
    }
    for name, call in entries.items():
        for label, bad in NON_INTEGERS.items():
            yield f"{name}-{label}", lambda c=call, v=bad: c(v)
    # n = 2 read from 2.9, an OverflowError from the exponent 1e400, and a
    # scale refusal for n = 7.5
    yield "parse_polynomial_json.n-2.9", lambda: _poly_json(2.9, [1, 1])
    yield "parse_polynomial_json.alpha-1e400", lambda: polyrelax.parse_polynomial_json(
        '{"n": 1, "terms": [{"coeff": 1.0, "alpha": [1e400]}]}')
    yield "verify_integrality.n-7.5", lambda: hulls.verify_integrality(7.5, trials=1)


def _objective_cases():
    # an estimator or objective without one value per point once broadcast
    # against the monomial (an IndexError deep in the scan) or silently took
    # a wrong incumbent
    m, box = Monomial((1, 1)), UnitBox(2)
    wrong = {"column": lambda X: X.min(axis=1, keepdims=True),
             "short": lambda X: X[1:, 0],
             "scalar": lambda X: 0.25}
    for label, func in wrong.items():
        yield f"max_gap-{label}", lambda f=func: oracle.max_gap(m, box, f, oracle.OVER, grid=GRID)
        yield f"grid_maximize-{label}", lambda f=func: oracle.grid_maximize(f, box, GRID)
        # a grid of res^2 rows, scanned in two blocks of at most BLOCK_FLOATS // 2
        res = math.isqrt(core.BLOCK_FLOATS // 2) + 1
        yield f"grid_maximize-{label}-blocks", lambda f=func: oracle.grid_maximize(
            f, box, oracle.GridSpec(resolution=res))


def _monomial_values_cases():
    m = Monomial((1, 1))
    yield "monomial_values-wide", lambda: monomial_values(m, np.ones((2, 3))), DimensionMismatch
    yield "monomial_values-narrow", lambda: monomial_values(m, np.ones((2, 1))), DimensionMismatch
    yield "monomial_values-scalar", lambda: monomial_values(m, 1.0), DimensionMismatch


def _lp_cases():
    # numpy broadcasting once solved a different LP without an error: a b_ub
    # of one entry for two rows returned ([0.5, 0.], 0.5), and a 1-d A_ub a
    # value; a short b ended in an IndexError
    c, A, b, lo, hi = [1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.0, 0.0], [1.0, 1.0]
    yield "solve_box_lp-b_ub", lambda: lp.solve_box_lp(c, A, [0.5], lo, hi, maximize=True)
    yield "solve_box_lp-A_ub-1d", lambda: lp.solve_box_lp(c, [1.0, 1.0], [0.5], lo, hi)
    yield "solve_box_lp-A_ub-columns", lambda: lp.solve_box_lp(c, [[1.0, 1.0, 1.0]], [0.5], lo, hi)
    yield "solve_box_lp-c", lambda: lp.solve_box_lp([1.0, 1.0, 1.0], A, b, lo, hi)
    yield "solve_box_lp-lower", lambda: lp.solve_box_lp(c, A, b, [0.0], hi)
    yield "solve_box_lp-upper", lambda: lp.solve_box_lp(c, A, b, lo, [1.0, 1.0, 1.0])
    yield "solve_equality_lp-b", lambda: lp.solve_equality_lp(c, A, [1.0])
    yield "solve_equality_lp-c", lambda: lp.solve_equality_lp([1.0], A, b)
    yield "solve_equality_lp-A-1d", lambda: lp.solve_equality_lp(c, [1.0, 1.0], [1.0])


REJECTIONS = [
    *(("slope", *case) for case in _slope_cases()),
    *(("pairing", name, call, DimensionMismatch) for name, call in _pairing_cases()),
    *(("point", name, call, DimensionMismatch) for name, call in _point_cases()),
    *(("scaling", *case) for case in _scaling_cases()),
    *(("sigma", name, call, ValueError) for name, call in _sigma_cases()),
    *(("values", *case) for case in _monomial_values_cases()),
    *(("lp", name, call, DimensionMismatch) for name, call in _lp_cases()),
    *(("objective", name, call, DimensionMismatch) for name, call in _objective_cases()),
    *(("ratio", name, call, ValueError) for name, call in _ratio_cases()),
    *(("dimension", name, call, ValueError) for name, call in _dimension_cases()),
    *(("integer", name, call, ValueError) for name, call in _integer_cases()),
    *(("other", name, call, ValueError) for name, call in _other_cases()),
]


@pytest.mark.parametrize("kind,name,call,error", REJECTIONS,
                         ids=[f"{k}-{n}" for k, n, _, _ in REJECTIONS])
def test_bad_argument_raises_its_typed_error(kind, name, call, error):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is error, info.value


def test_every_slope_entry_accepts_valid_slopes():
    for name, call in SLOPE_ENTRIES.items():
        call((1.5, 1.5))


@pytest.mark.parametrize("n", [2, np.int64(2), np.int32(2)], ids=["int", "int64", "int32"])
def test_numpy_integer_dimensions_are_accepted(n):
    for dom in (StdSimplex(n), SymBox(n), UnitBox(n), RatioBox(n, 2.0), ComplementSimplex(n)):
        assert dom.contains([0.5, 0.5]) == (type(dom) is not RatioBox)
    assert hulls.build_symbox_hull(n) == hulls.build_symbox_hull(2)
    assert bounds.symbox_error(n) == bounds.symbox_error(2)
    # every integer argument reads a numpy integer as the Python int
    assert Monomial((n, 1)) == Monomial((2, 1)) and type(Monomial((n, 1)).alpha[0]) is int
    p = polyrelax.Polynomial(n, ((1.0, (n, 0)),))
    assert p == polyrelax.Polynomial(2, ((1.0, (2, 0)),)) and type(p.n) is int
    assert bounds.c1(n) == bounds.c1(2)
    assert bounds.ratio_box_constants(n, 2.0) == bounds.ratio_box_constants(2, 2.0)
    assert bounds.find_root_power_linear(n, 1.5) == bounds.find_root_power_linear(2, 1.5)
    assert polyrelax.hierarchy_threshold(n, n) == polyrelax.hierarchy_threshold(2, 2)
    assert hulls.verify_integrality(n, trials=n, seed=n) == hulls.verify_integrality(2, 2, 2)


def test_one_point_accepts_a_stack_of_one():
    fs = hulls.build_symbox_hull(2)
    one = hulls.hull_membership(fs, [0.5, 0.25], 0.0)
    assert hulls.hull_membership(fs, [[0.5, 0.25]], 0.0) == one
    x, w = scale_point([[0.5, 0.25]], 0.5, (2.0, -4.0), Monomial((1, 1)))
    assert x.tolist() == [1.0, -1.0] and w == -4.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [(1e200, 1e200), (1e-200, 1e-200)], ids=["overflow", "underflow"])
def test_unrepresentable_scaling_raises_scale_exceeded(c):
    m = Monomial((2, 2))
    with pytest.raises(ScaleExceeded):
        scale_error(1.0, c, m)
    with pytest.raises(ScaleExceeded):
        scale_point((0.5, 0.5), 0.25, c, m)


def test_scaled_value_overflow_raises_scale_exceeded():
    with pytest.raises(ScaleExceeded):
        scale_error(1e300, (1e10, 1.0), Monomial((1, 1)))


# ---------------------------------------------------------------------------
# the scaling transport rule
# ---------------------------------------------------------------------------

_unit = st.floats(0.0, 1.0)
_scale = st.tuples(st.floats(0.125, 8.0), st.sampled_from((-1.0, 1.0))).map(lambda p: p[0] * p[1])


@st.composite
def _scaled_boxes(draw):
    n = draw(st.integers(1, 4))
    alpha = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    ends = draw(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                         min_size=n, max_size=n))
    lo = np.array([min(a, b) for a, b in ends])
    hi = np.array([max(a, b) for a, b in ends])
    t = np.array(draw(st.lists(_unit, min_size=n, max_size=n)))
    c = np.array(draw(st.lists(_scale, min_size=n, max_size=n)))
    return Monomial(tuple(alpha)), lo, hi, lo + t * (hi - lo), c


@given(_scaled_boxes(), st.floats(0.0, 10.0))
def test_scaling_transport_rule(case, err):
    m, lo, hi, x, c = case
    calpha = math.prod(cj ** a for cj, a in zip(c.tolist(), m.alpha))
    assert scale_error(err, c, m) == pytest.approx(abs(calpha) * err, rel=1e-12, abs=0.0)
    # a point of the box lands in the scaled box, and w goes to c**alpha w
    w = float(monomial_values(m, x[None, :])[0])
    y, v = scale_point(x, w, c, m)
    slack = 1e-12 * np.abs(c) * np.maximum(np.abs(lo), np.abs(hi))
    assert np.all(y >= np.minimum(c * lo, c * hi) - slack)
    assert np.all(y <= np.maximum(c * lo, c * hi) + slack)
    assert v == pytest.approx(calpha * w, rel=1e-12, abs=1e-300)
    # the graph of the monomial maps onto the graph over the scaled box
    assert v == pytest.approx(float(monomial_values(m, y[None, :])[0]), rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# closed-form box envelopes against the vertex-LP envelope
# ---------------------------------------------------------------------------

LP_TOL = 1e-9


@given(st.integers(1, 4), st.floats(1.0625, 4.0), st.lists(_unit, min_size=4, max_size=4))
def test_closed_forms_match_the_lp_envelope(n, r, t):
    m = Monomial.multilinear(n)
    x = np.array(t[:n])
    unit = UnitBox(n)
    assert oracle.sampled_hull_envelope(m, unit, x, oracle.OVER) == pytest.approx(
        envelopes.concave_env_unitbox(m, x), rel=0.0, abs=LP_TOL)
    assert oracle.sampled_hull_envelope(m, unit, x, oracle.UNDER) == pytest.approx(
        envelopes.convex_env_unitbox_multilinear(n, x), rel=0.0, abs=LP_TOL)
    box, y = RatioBox(n, r), 1.0 + (r - 1.0) * x
    assert oracle.sampled_hull_envelope(m, box, y, oracle.OVER) == pytest.approx(
        envelopes.concave_env_ratiobox(n, r, y), rel=0.0, abs=LP_TOL)
    assert oracle.sampled_hull_envelope(m, box, y, oracle.UNDER) == pytest.approx(
        envelopes.convex_env_ratiobox(n, r, y), rel=0.0, abs=LP_TOL)
