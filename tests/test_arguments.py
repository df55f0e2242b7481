"""Argument rules, each checked once in ``monoenv.core``.

Slope vectors (``core.slopes``), monomial-domain pairs
(``Domain.require_monomial``), single points (``core.one_point``) and
coordinate scalings are each checked by one helper that every public entry
calls. The rejection table pins the exact error type of each bad argument at
each entry; the property tests check the scaling transport rule and every
closed-form box envelope against the vertex-LP envelope.
"""

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
    envelopes,
    hulls,
    oracle,
    scale_error,
    scale_point,
)
from monoenv.core import monomial_values

NAN, INF = float("nan"), float("inf")
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


def _monomial_values_cases():
    m = Monomial((1, 1))
    yield "monomial_values-wide", lambda: monomial_values(m, np.ones((2, 3))), DimensionMismatch
    yield "monomial_values-narrow", lambda: monomial_values(m, np.ones((2, 1))), DimensionMismatch
    yield "monomial_values-scalar", lambda: monomial_values(m, 1.0), DimensionMismatch


REJECTIONS = [
    *(("slope", *case) for case in _slope_cases()),
    *(("pairing", name, call, DimensionMismatch) for name, call in _pairing_cases()),
    *(("point", name, call, DimensionMismatch) for name, call in _point_cases()),
    *(("scaling", *case) for case in _scaling_cases()),
    *(("sigma", name, call, ValueError) for name, call in _sigma_cases()),
    *(("values", *case) for case in _monomial_values_cases()),
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
