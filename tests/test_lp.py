import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from monoenv import UnitBox, lp
from monoenv.hulls import build_symbox_hull, constructive_maximizer
from monoenv.lp import LPInfeasible, LPUnbounded, solve_box_lp, solve_equality_lp
from monoenv.polyrelax import Polynomial, _relaxed_minimum_lp


def test_known_equality_instance():
    # min -x1 - 2 x2 s.t. x1 + x2 + s = 4, x1 + 3 x2 + t = 6
    # vertices (0,0), (4,0), (0,2), (3,1); optimum -5 at (3,1)
    c = [-1.0, -2.0, 0.0, 0.0]
    A = [[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]]
    b = [4.0, 6.0]
    x, val = solve_equality_lp(c, A, b)
    assert val == pytest.approx(-5.0)
    assert x[0] == pytest.approx(3.0)
    assert x[1] == pytest.approx(1.0)


def test_degenerate_redundant_row():
    # second row is a duplicate of the first
    c = [1.0, 1.0]
    A = [[1.0, 1.0], [1.0, 1.0]]
    b = [1.0, 1.0]
    x, val = solve_equality_lp(c, A, b)
    assert val == pytest.approx(1.0)


def test_infeasible_detected():
    A = [[1.0, 1.0], [1.0, 1.0]]
    b = [1.0, 2.0]
    with pytest.raises(LPInfeasible):
        solve_equality_lp([0.0, 0.0], A, b)


def test_random_equality_instances_match_scipy():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 9))
        A = rng.normal(size=(m, n))
        x_feas = rng.random(n)
        b = A @ x_feas
        c = rng.normal(size=n)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        if not ref.success:  # unbounded instance: skip value comparison
            continue
        x, val = solve_equality_lp(c, A, b)
        assert val == pytest.approx(ref.fun, abs=1e-7)
        assert np.all(x >= -1e-9)
        assert np.allclose(A @ x, b, atol=1e-8)


def test_random_box_instances_match_scipy():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 6))
        A_ub = rng.normal(size=(k, n))
        lower = -rng.random(n)
        upper = rng.random(n) + 0.5
        mid = 0.5 * (lower + upper)
        b_ub = A_ub @ mid + rng.random(k)  # keeps the midpoint feasible
        c = rng.normal(size=n)
        maximize = bool(rng.integers(0, 2))
        ref = linprog(-c if maximize else c, A_ub=A_ub, b_ub=b_ub,
                      bounds=list(zip(lower, upper)), method="highs")
        assert ref.success
        z, val = solve_box_lp(c, A_ub, b_ub, lower, upper, maximize=maximize)
        target = -ref.fun if maximize else ref.fun
        assert val == pytest.approx(target, abs=1e-7)
        assert np.all(A_ub @ z <= b_ub + 1e-8)
        assert np.all(z >= lower - 1e-9) and np.all(z <= upper + 1e-9)


def test_deterministic_resolution():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(3, 7))
    b = A @ rng.random(7)
    c = np.abs(rng.normal(size=7))  # nonnegative cost keeps the LP bounded
    x1, v1 = solve_equality_lp(c, A, b)
    x2, v2 = solve_equality_lp(c, A, b)
    assert np.array_equal(x1, x2) and v1 == v2


# ---------------------------------------------------------------------------
# Bad input ends in a typed error
# ---------------------------------------------------------------------------

def test_nan_objective_raises():
    # once returned nan as the optimum
    with pytest.raises(ValueError, match="non-finite"):
        solve_box_lp([np.nan, 1.0], [[1.0, 1.0]], [1.0], [0.0, 0.0], [1.0, 1.0])


def test_nan_rhs_raises():
    # once raised LPUnbounded
    with pytest.raises(ValueError, match="non-finite"):
        solve_box_lp([1.0, 1.0], [[1.0, 1.0]], [np.nan], [0.0, 0.0], [1.0, 1.0])


def test_infinite_upper_bound_raises():
    # a bounded LP (the rows cap z) once raised LPUnbounded with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            solve_box_lp([1.0, 1.0], [[1.0, 1.0]], [1.0], [0.0, 0.0], [np.inf, 1.0],
                         maximize=True)


@pytest.mark.parametrize("c, A, b", [
    ([np.nan, 1.0], [[1.0, 1.0]], [1.0]),
    ([1.0, 1.0], [[np.nan, 1.0]], [1.0]),
    ([1.0, 1.0], [[1.0, 1.0]], [np.inf]),
], ids=["c", "A", "b"])
def test_equality_lp_non_finite_raises(c, A, b):
    with pytest.raises(ValueError, match="non-finite"):
        solve_equality_lp(c, A, b)


def test_tiny_entries_do_not_make_phase_one_unbounded():
    # phase 1 is bounded below by 0; this once raised LPUnbounded, because the
    # cost row summed entries that the ratio test reads as zero
    x, val = solve_equality_lp([0.0, 0.0], [[1e-10, 1e-10], [1e-10, 1e-10]], [0.0, 0.0])
    assert val == 0.0 and np.array_equal(x, [0.0, 0.0])


def test_lower_above_upper_is_infeasible():
    # b_ub - A_ub @ lower >= 0 here, but the box rows upper - lower are not: the
    # slack basis at lower would return z = (0.5, 0), outside the box
    with pytest.raises(LPInfeasible):
        solve_box_lp([1.0, 0.0], [[0.0, 0.0]], [1.0], [0.5, 0.0], [0.0, 1.0])


# ---------------------------------------------------------------------------
# Slack-basis start
# ---------------------------------------------------------------------------

def _artificials(mp):
    """The artificials in each basis that lp._run_simplex starts from: only a
    phase-1 run starts on columns that may not enter."""
    seen = []
    inner = lp._run_simplex

    def spy(T, basis, ncols):
        start = sum(j >= ncols for j in basis)
        if start:
            seen.append(start)
        inner(T, basis, ncols)

    mp.setattr(lp, "_run_simplex", spy)
    return seen


@pytest.mark.parametrize("n", range(2, 7))
def test_parity_polytope_skips_phase_one(monkeypatch, n):
    A, b = build_symbox_hull(n).to_ub()
    box = np.ones(n + 1)
    phase_one = _artificials(monkeypatch)
    rng = np.random.default_rng(n)
    for _ in range(20):
        c = rng.standard_normal(n + 1)
        z, val = solve_box_lp(c, A, b, -box, box, maximize=True)
        assert val == pytest.approx(constructive_maximizer(c)[1], abs=1e-9)
        assert np.all(A @ z <= b + 1e-9) and np.all(np.abs(z) <= 1.0 + 1e-12)
    assert phase_one == []


def test_epigraph_lp_skips_phase_one(monkeypatch):
    rng = np.random.default_rng(21)
    terms = tuple((float(rng.normal()), tuple(int(v) for v in rng.integers(0, 2, size=4)))
                  for _ in range(6))
    p = Polynomial(4, terms + ((-1.0, (1, 1, 1, 0)), (1.0, (0, 1, 1, 1))))
    phase_one = _artificials(monkeypatch)
    got, x = _relaxed_minimum_lp(p)
    assert np.all((x >= 0.0) & (x <= 1.0))
    # the envelope-substituted objective at x, from the envelopes' closed forms
    value = 0.0
    for coeff, alpha in p.terms:
        s = [j for j, e in enumerate(alpha) if e]
        if len(s) < 2:
            value += coeff * (x[s[0]] if s else 1.0)
        elif coeff > 0:
            value += coeff * max(0.0, 1.0 + sum(x[j] - 1.0 for j in s))
        else:
            value += coeff * min(x[j] for j in s)
    assert got == pytest.approx(value, abs=1e-12)
    assert got <= p.evaluate(UnitBox(4).vertices()).min() + 1e-12
    assert phase_one == []


# ---------------------------------------------------------------------------
# Rank-1 pivot and list scans keep the old arithmetic
# ---------------------------------------------------------------------------

def _pivot_rowloop(T, basis, row, col):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _run_simplex_arrays(T, basis, ncols, tol=1e-10):
    # the sequential Bland scans as they read numpy elements one at a time
    m = T.shape[0] - 1
    while True:
        col = -1
        for j in range(ncols):
            if T[m, j] < -tol:
                col = j
                break
        if col < 0:
            return
        ratio, row = np.inf, -1
        for i in range(m):
            a = T[i, col]
            if a > tol:
                r = T[i, -1] / a
                if r < ratio - tol or (abs(r - ratio) <= tol and (row < 0 or basis[i] < basis[row])):
                    ratio, row = r, i
        if row < 0:
            raise LPUnbounded("objective unbounded below")
        _pivot_rowloop(T, basis, row, col)


def _phase_one_tableau(seed, near_tie=False):
    # a random equality LP with two equal rhs entries, or with two equal
    # positive rows whose rhs, 1e-12 and 0, give the two smallest ratios;
    # the basis is listed in falling order, so the near-tie branch of the
    # ratio test picks the later row
    rng = np.random.default_rng(seed)
    m, n = 4, 7
    A = np.round(rng.normal(size=(m, n)), 1)
    b = np.abs(A @ np.round(rng.random(n), 1))
    b[1] = b[0]
    if near_tie:
        A[0] = A[1] = np.abs(A[0]) + 0.1
        b[:2] = 1e-12, 0.0
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, n:n + m][:, ::-1], T[:m, -1] = A, np.eye(m), b
    T[m, :n], T[m, -1] = -A.sum(axis=0), -b.sum()
    return T, [n + m - 1 - i for i in range(m)], n


def _near_tie_tableau(seed):
    return _phase_one_tableau(seed, near_tie=True)


def _parity_tableau(seed):
    # the slack tableau at the all-ones vertex, as solve_box_lp builds it: the
    # parity polytope is degenerate there, so ratio ties are common
    n = 3 + seed % 4
    A, b = build_symbox_hull(n).to_ub()
    k, nv = A.shape
    m = k + nv
    T = np.zeros((m + 1, nv + m + 1))
    T[:k, :nv], T[k:m, :nv], T[:m, nv:nv + m] = -A, np.eye(nv), np.eye(m)
    T[:m, -1] = np.concatenate([b - A @ np.ones(nv), np.full(nv, 2.0)])
    T[m, :nv] = np.random.default_rng(seed).standard_normal(nv)
    return T, list(range(nv, nv + m)), nv + m


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("build", [_phase_one_tableau, _near_tie_tableau, _parity_tableau])
def test_pivots_and_scans_match_the_row_loop(build, seed):
    T, basis_old, ncols = build(seed)
    T_old, T_new = T.copy(), T.copy()
    basis_new = list(basis_old)
    _run_simplex_arrays(T_old, basis_old, ncols)
    lp._run_simplex(T_new, basis_new, ncols)
    assert basis_new == basis_old
    assert np.array_equal(T_new, T_old)  # equal values; a zero may change sign


# ---------------------------------------------------------------------------
# Differential tests against HiGHS
# ---------------------------------------------------------------------------

# Exact dyadic entries (zeros and ties, so degenerate pivots) and general
# floats. Magnitudes in (0, 1e-6) are left out: HiGHS drops matrix entries
# below 1e-9 and this solver reads |a| <= 1e-10 as zero, so near those
# thresholds the two solve different LPs.
_entry = st.one_of(st.integers(-32, 32).map(lambda k: k / 8),
                   st.floats(-4.0, 4.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-6))
_width = st.floats(0.05, 2.0)


@st.composite
def _box_lps(draw, start):
    """A feasible box LP whose slack basis is feasible at `start` ("lower" or
    "upper"), or at neither corner ("phase1")."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    A = draw(hnp.arrays(float, (k, n), elements=_entry))
    c = draw(hnp.arrays(float, n, elements=_entry))
    lower = draw(hnp.arrays(float, n, elements=_entry))
    upper = lower + draw(hnp.arrays(float, n, elements=_width))
    slack = draw(hnp.arrays(float, k, elements=st.floats(0.0, 2.0)))
    w = draw(hnp.arrays(float, n, elements=_width))
    span = float(w @ (upper - lower))
    if start == "lower":
        b = A @ lower + slack
    elif start == "upper":
        # row 0 = -w cuts lower off and keeps upper
        # (b is built from A @ upper, the product the solver's exact test uses)
        A[0] = -w
        slack[0] = draw(st.floats(0.0, 0.9)) * span
        b = A @ upper + slack
    else:
        # rows w and -w cut both corners off and keep an interior point
        mid = lower + draw(st.floats(0.25, 0.75)) * (upper - lower)
        A = np.vstack([w, -w, A])
        slack = np.concatenate([np.full(2, draw(st.floats(0.0, 0.2)) * span), slack])
        b = A @ mid + slack
    return c, A, b, lower, upper, draw(st.booleans())


def _assert_matches_highs(lp_data, phase_one):
    c, A, b, lower, upper, maximize = lp_data
    ref = linprog(-c if maximize else c, A_ub=A, b_ub=b,
                  bounds=list(zip(lower, upper)), method="highs")
    assert ref.success
    with pytest.MonkeyPatch.context() as mp:
        artificials = _artificials(mp)
        z, val = solve_box_lp(c, A, b, lower, upper, maximize=maximize)
    # phase 1 starts from lower, with one artificial per row that the slack
    # basis there violates, and runs once
    assert artificials == ([int((b - A @ lower < 0.0).sum())] if phase_one else [])
    assert val == pytest.approx(-ref.fun if maximize else ref.fun, abs=1e-7)
    assert val == float(c @ z)
    assert np.all(A @ z <= b + 1e-8)
    assert np.all(z >= lower - 1e-9) and np.all(z <= upper + 1e-9)


@given(_box_lps("lower"))
def test_box_lp_feasible_at_lower_matches_highs(lp_data):
    _assert_matches_highs(lp_data, phase_one=False)


@given(_box_lps("upper"))
def test_box_lp_feasible_only_at_upper_matches_highs(lp_data):
    _assert_matches_highs(lp_data, phase_one=False)


@given(_box_lps("phase1"))
def test_box_lp_phase_one_matches_highs(lp_data):
    _assert_matches_highs(lp_data, phase_one=True)


@st.composite
def _equality_lps(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m, 7))
    A = draw(hnp.arrays(float, (m, n), elements=_entry))
    x = draw(hnp.arrays(float, n, elements=st.floats(0.0, 2.0)))
    c = draw(hnp.arrays(float, n, elements=_entry))
    return c, A, A @ x


@given(_equality_lps())
def test_equality_lp_matches_highs(lp_data):
    c, A, b = lp_data
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if ref.status == 3:
        with pytest.raises(LPUnbounded):
            solve_equality_lp(c, A, b)
        return
    assert ref.success
    x, val = solve_equality_lp(c, A, b)
    assert val == pytest.approx(ref.fun, abs=1e-7)
    assert np.all(x >= -1e-9)
    assert np.allclose(A @ x, b, atol=1e-8)
