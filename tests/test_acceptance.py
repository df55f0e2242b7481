"""Acceptance suite.

One test per criterion; every test prints a PASS/FAIL line so a plain
``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance report.
Criteria 1-9 and 11 run the functions of ``monoenv.checks``, the code that
``monoenv verify`` runs, on the parameter sets below and assert on their
records; criterion 10 has no ``verify`` case and lives here only.
"""

import itertools
import math
import time

import numpy as np

from monoenv import Monomial, UnitBox, bounds, checks, polyrelax


def _emit(label: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} {detail}")


def _argmax_off(ch: checks.Check, target) -> float:
    """Largest coordinate distance of the oracle's attainment point from target."""
    return float(np.max(np.abs(ch.report.attainment_points[0] - target)))


def test_criterion_01_unitbox_hull_error():
    """Oracle max gap of the min-coordinate overestimator equals c1(d)."""
    ok = True
    for alpha in [(1, 1), (2, 1), (1, 1, 1), (2, 1, 1), (3, 2)]:
        t0 = time.monotonic()
        [ch] = checks.unitbox(alpha)
        elapsed = time.monotonic() - t0
        d = sum(alpha)
        value_ok = abs(ch.measured - bounds.c1(d)) <= 1e-4
        arg_ok = _argmax_off(ch, d ** (1.0 / (1.0 - d))) <= 1e-3
        case_ok = value_ok and arg_ok and elapsed < 10.0
        ok = ok and case_ok
        _emit(f"1 unitbox alpha={alpha}", case_ok,
              f"measured={ch.measured:.8f} bound={bounds.c1(d):.8f} t={elapsed:.2f}s")
        assert value_ok and arg_ok
        assert elapsed < 10.0
    assert ok


def test_criterion_02_multilinear_convex_envelope():
    """Oracle max gap of the hinge envelope equals (1 - 1/n)^n for n = 2..5."""
    for n in range(2, 6):
        [ch] = checks.cvxmulti(n)
        value_ok = abs(ch.measured - bounds.c2(n)) <= 1e-4
        arg_ok = _argmax_off(ch, 1.0 - 1.0 / n) <= 1e-3
        _emit(f"2 cvx multilinear n={n}", value_ok and arg_ok,
              f"measured={ch.measured:.8f} bound={bounds.c2(n):.8f}")
        assert value_ok and arg_ok


def test_criterion_03_ratio_box():
    """Both ratio-box envelope gaps match D and E on the diagonal."""
    for n, r in [(2, 2.0), (3, 2.0), (3, 1.5), (4, 2.0)]:
        D, E = bounds.ratio_box_constants(n, r)
        conc, cvx = checks.ratiobox(n, r)
        conc_ok = abs(conc.measured - E) <= 1e-3
        cvx_ok = abs(cvx.measured - D) <= 1e-3
        diag_ok = all(_argmax_off(ch, np.mean(ch.report.attainment_points[0])) <= 1e-3
                      for ch in (conc, cvx))
        _emit(f"3 ratio box n={n} r={r}", conc_ok and cvx_ok and diag_ok,
              f"conc={conc.measured:.7f}/{E:.7f} cvx={cvx.measured:.7f}/{D:.7f}")
        assert conc_ok and cvx_ok and diag_ok


def test_criterion_04_symmetric_box():
    """Max facet-system error equals 1 + ((n-2)/n)^n; every reflection of the
    anchor attainment point is a hull member realizing the bound within 1e-9."""
    for n in range(2, 6):
        under, over, reflections = checks.symbox(n)
        measured = max(under.measured, over.measured)
        scan_ok = abs(measured - bounds.symbox_error(n)) <= 1e-3
        _emit(f"4 symbox n={n}", scan_ok and reflections.ok,
              f"measured={measured:.8f} bound={bounds.symbox_error(n):.8f}")
        assert scan_ok and reflections.ok and reflections.measured <= 1e-9


def test_criterion_05_integrality():
    """Constructive optimum equals the dense-LP optimum on 1000 seeded
    objectives per dimension, all at +/-1 points with even -1 parity."""
    t0 = time.monotonic()
    for n in range(2, 6):
        [ch] = checks.integrality(n, trials=1000, seed=42)
        _emit(f"5 integrality n={n}", ch.ok, f"max_gap={ch.measured:.2e} trials=1000")
        assert ch.ok
        assert ch.measured <= 1e-9
    elapsed = time.monotonic() - t0
    _emit("5 integrality runtime", elapsed < 60.0, f"t={elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_06_simplex_tightness():
    """Simplex bounds are tight for symmetric exponents; for alpha=(2,1) the
    concave bound strictly exceeds the measured gap (reported, not asserted
    as equality)."""
    for n, a0 in itertools.product((2, 3), (1, 2)):
        alpha = (a0,) * n
        sb = bounds.simplex_bounds(Monomial(alpha))
        conc, cvx = checks.simplex(alpha)
        conc_ok = abs(conc.measured - sb.conc) <= 1e-4
        cvx_ok = abs(cvx.measured - sb.cvx) <= 1e-4
        _emit(f"6 simplex alpha={alpha}", conc_ok and cvx_ok,
              f"conc={conc.measured:.7f}/{sb.conc:.7f} cvx={cvx.measured:.7f}/{sb.cvx:.7f}")
        assert conc_ok and cvx_ok

    conc, _ = checks.simplex((2, 1))
    slack = bounds.simplex_bounds(Monomial((2, 1))).conc - conc.measured
    _emit("6 simplex alpha=(2,1) non-tightness", slack > 1e-4,
          f"bound exceeds measured by {slack:.6f}")
    assert slack > 1e-4


def test_criterion_07a_figure_ratio_dominance():
    """D/E <= 1 + 1e-12 over n = 2..100 and the seven r values (log domain)."""
    t0 = time.monotonic()
    ch = checks.figure1()[0]
    elapsed = time.monotonic() - t0
    _emit("7a D/E dominance", ch.ok and elapsed < 10.0,
          f"max_ratio={ch.measured:.12f} t={elapsed:.2f}s")
    assert ch.measured <= 1.0 + 1e-12
    assert elapsed < 10.0


def test_criterion_07b_concave_error_asymptote():
    """E/(r^n - 1) -> 1 at r = 2, checked from n = 100 on; ``checks.figure1``
    describes its four records."""
    fit, step, lead, window = checks.figure1()[1:5]
    ok = all(ch.ok for ch in (fit, step, lead, window))
    _emit("7b E/(r^n-1) at n=100 r=2", ok,
          f"ratio={bounds.ratio_box_e_ratio(100, 2.0):.6f} |closed-decimal|={fit.measured:.1e} "
          f"|deficit/leading-1|={lead.measured:.4f} window from n=228")
    assert fit.measured <= 1e-12, f"closed form vs decimal at n=100 off by {fit.measured}"
    assert fit.ok, "a scan point over t beats the stationary value or peaks away from t*"
    assert step.ok, "1 - E/(r^n-1) not positive and decreasing"
    assert lead.measured <= 0.02, f"deficit/leading term off by {lead.measured:.4f} at n=100"
    assert lead.ok, "|deficit/leading - 1| does not shrink at n=1e3..1e5"
    assert window.ok, "window verdicts at n=227,228,300,1000 (decimal or closed form) wrong"


def test_criterion_07c_convex_error_asymptote():
    """D/(r^n - 1) <= 1/e + 0.02 at n = 100 when the first or second bound
    regime applies."""
    ch = checks.figure1()[5]
    _emit("7c D/(r^n-1) at n=100 r=2", ch.ok, f"ratio={ch.measured:.6f} {ch.name}")
    assert ch.ok and ch.measured <= 1.0 / math.e + 0.02


def test_criterion_08_fixed_point_and_roots():
    """Transfer-map fixed point to 1e-12 on 100 random triples; root finder
    residual and strict lower bound across the sweep."""
    [fp] = checks.fixedpoint(seed=2024)
    _emit("8 fixed point (100 triples)", fp.measured <= 1e-12, f"worst={fp.measured:.2e}")
    assert fp.measured <= 1e-12

    [root] = checks.root_sweep()
    root_ok = root.ok and root.measured <= 1e-12
    _emit("8 root sweep lam1=2..10", root_ok,
          f"worst_residual={root.measured:.2e} root_above_lower_bound={root.ok}")
    assert root_ok


def test_criterion_09_underestimator_validity():
    """Slope-gamma cuts never overshoot the monomial on 1e5-point grids over
    20 random sub-boxes; the numeric intercept of slope alpha is 1."""
    grid, sigma = checks.underestimator(seed=77)
    grid_ok = grid.ok and grid.measured <= 1e-12
    _emit("9 gamma validity (20 boxes, 1e5-point grids)", grid_ok, f"worst={grid.measured:.2e}")
    assert grid_ok
    _emit("9 sigma(alpha)=1 (10 random alpha)", sigma.measured <= 1e-6,
          f"worst={sigma.measured:.2e}")
    assert sigma.measured <= 1e-6


def test_criterion_10_polynomial_gap():
    """Certification holds on 50 seeded random multilinear polynomials."""
    supports = [s for k in (1, 2, 3) for s in itertools.combinations(range(3), k)]
    worst_gap_ratio = 0.0
    for t in range(50):
        rng = np.random.default_rng((900, t))
        terms = tuple(
            (float(rng.uniform(-2.0, 2.0)), tuple(1 if j in s else 0 for j in range(3)))
            for s in supports
        )
        p = polyrelax.Polynomial(3, terms)
        rep = polyrelax.certify_gap_small_instance(p, UnitBox(3))
        assert rep.gap >= -1e-9
        assert rep.gap <= rep.tight_bound + 1e-9
        if rep.tight_bound > 0:
            worst_gap_ratio = max(worst_gap_ratio, rep.gap / rep.tight_bound)
    _emit("10 polynomial gap (50 instances)", True,
          f"max gap/tight={worst_gap_ratio:.4f}")


def test_criterion_11_inequality_sweeps():
    """Degree inequality chain and constant orderings across d = 2..50."""
    [ch] = checks.sweeps()
    _emit("11 inequality sweeps", ch.ok, ch.name)
    assert ch.ok
