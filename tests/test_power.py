"""The oracle's power: planted defects that every TIGHT verdict must rule out.

An ∞-norm cone bump is planted in an estimator. Its centre is
``lo + (0.1 + 0.8 u)(hi - lo)`` with ``u = default_rng([seed, n, int(1000 *
rho)]).random(n)``, its half-width is rho times the box side in each
coordinate, and its height makes the gap at its peak the bound plus 1e-3, so
every planted estimator is wrong. A cell's detected seeds are those whose
default-grid verdict at tol 1e-4 reads VIOLATED. The sets below are floors:
an oracle change may detect more seeds, never fewer.
"""

import numpy as np
import pytest

from monoenv import Monomial, RatioBox, SymBox, UnitBox, Verdict
from monoenv import bounds, envelopes, hulls, oracle
from monoenv.core import monomial_values

R = 2.5  # the ratio box [1, R]^n
EXCESS = 1e-3  # peak gap minus the bound
TOL = 1e-4


def _family(name, n):
    """(monomial, domain, estimator, side, bound)."""
    m = Monomial.multilinear(n)
    if name == "unit-box convex":
        return (m, UnitBox(n), lambda X: envelopes.convex_env_unitbox_multilinear(n, X),
                oracle.UNDER, bounds.c2(n))
    if name == "ratio-box concave":
        return (m, RatioBox(n, R), lambda X: envelopes.concave_env_ratiobox(n, R, X),
                oracle.OVER, bounds.ratio_box_constants(n, R)[1])
    return m, SymBox(n), hulls.build_symbox_hull(n).envelope_upper, oracle.OVER, bounds.symbox_error(n)


def _planted(name, n, rho, seed):
    """(monomial, domain, planted estimator, side, bound, bump centre)."""
    m, dom, est, side, bound = _family(name, n)
    lo, hi = dom.bounding_box()
    u = np.random.default_rng([seed, n, int(1000 * rho)]).random(n)
    centre, half = lo + (0.1 + 0.8 * u) * (hi - lo), rho * (hi - lo)
    sign = 1.0 if side == oracle.OVER else -1.0
    c = centre[None, :]
    height = bound + EXCESS - sign * float(est(c)[0] - monomial_values(m, c)[0])

    def planted(X):
        bump = height * np.maximum(0.0, 1.0 - np.max(np.abs(X - centre) / half, axis=1))
        return est(X) + sign * bump

    return m, dom, planted, side, bound, centre


def _detected(name, n, rho, seed):
    m, dom, planted, side, bound, _ = _planted(name, n, rho, seed)
    return oracle.max_gap(m, dom, planted, side, bound=bound, tol=TOL).verdict is Verdict.VIOLATED


# (family, n, rho) -> the seeds of 0-9 detected when this floor was set. The
# table's other cells (n = 3 at rho = 0.03 but for unit-box convex; n = 4 but
# for symmetric-box concave at rho = 0.1) detected none, so they hold nothing.
# The n = 5 cells were set while 16 seeded random restarts were still refined
# beside the grid incumbent; the incumbent alone detects the same seeds.
FLOOR = {
    ("unit-box convex", 3, 0.1): {0, 2},
    ("unit-box convex", 3, 0.03): {0},
    ("ratio-box concave", 3, 0.1): {0, 4, 6},
    ("symmetric-box concave", 3, 0.1): {0, 1, 3, 4, 5, 6, 7, 8},
    ("symmetric-box concave", 4, 0.1): {0, 3, 5, 8},
    ("unit-box convex", 5, 0.3): {1, 4, 5},
    ("unit-box convex", 5, 0.2): {0, 3},
    ("ratio-box concave", 5, 0.3): {1, 2, 3, 4, 5, 9},
    ("ratio-box concave", 5, 0.2): {0, 3, 4, 6},
    ("symmetric-box concave", 5, 0.3): {0, 1, 3, 4, 5, 6, 7, 8, 9},
    ("symmetric-box concave", 5, 0.2): {0, 1, 3, 6},
}


@pytest.mark.parametrize("name, n, rho", sorted(FLOOR), ids=lambda v: str(v))
def test_cone_bumps_detected_at_least_as_often_as_the_floor(name, n, rho):
    lost = [seed for seed in sorted(FLOOR[name, n, rho]) if not _detected(name, n, rho, seed)]
    assert not lost, f"lost seeds {lost}"


@pytest.mark.parametrize("name", ["unit-box convex", "ratio-box concave", "symmetric-box concave"])
def test_every_planted_estimator_is_wrong_at_its_bump_centre(name):
    m, dom, planted, side, bound, centre = _planted(name, 3, 0.1, 2)
    c = centre[None, :]
    gap = float(planted(c)[0] - monomial_values(m, c)[0])
    assert dom.contains(centre)
    assert (gap if side == oracle.OVER else -gap) == pytest.approx(bound + EXCESS, abs=1e-12)
