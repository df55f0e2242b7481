"""What ``monoenv verify`` rules out: a mutation floor for the closed forms.

Each closed form that a ``checks`` case reads is scaled by 1 +- 1e-6 and
1 +- 1e-3 through the ``bounds`` attribute the case calls, and only the cases
that read it run, at ``monoenv verify``'s defaults. A slip survives when no
record fails. The survivors are pinned: a new check that catches one, or a
change that lets another through, must edit ``SURVIVORS`` and README's table.
"""

import dataclasses

import pytest

from monoenv import bounds, checks

SLIPS = (1e-6, -1e-6, 1e-3, -1e-3)

# closed form -> (the bounds attribute, its value with the form scaled by f, the cases that read it)
FORMS = {
    "c1": ("c1", lambda v, f: v * f, ("unitbox", "sweeps")),
    "c2": ("c2", lambda v, f: v * f, ("cvxmulti", "sweeps")),
    "D": ("ratio_box_constants", lambda v, f: (v[0] * f, v[1]), ("ratiobox",)),
    "E": ("ratio_box_constants", lambda v, f: (v[0], v[1] * f), ("ratiobox",)),
    "symbox_error": ("symbox_error", lambda v, f: v * f, ("symbox",)),
    "conc": ("simplex_bounds", lambda v, f: dataclasses.replace(v, conc=v.conc * f),
             ("simplex",)),
    "cvx": ("simplex_bounds", lambda v, f: dataclasses.replace(v, cvx=v.cvx * f),
            ("simplex",)),
}

# a slip of 1e-6 either way stays inside the oracle's tolerance and reads
# TIGHT, and one of +1e-3 reads VALID_UPPER, which ``Check.ok`` passes; the
# c1 and c2 slips are caught by sweeps' exact c1(2) == c2(2) and every
# symbox_error slip by the reflection record's 1e-9 test
SURVIVORS = sorted((form, slip) for form in ("D", "E", "conc", "cvx")
                   for slip in (1e-6, -1e-6, 1e-3))


def _failing(monkeypatch, form: str, slip: float) -> list[str]:
    attr, scaled, cases = FORMS[form]
    exact = getattr(bounds, attr)
    monkeypatch.setattr(bounds, attr, lambda *a: scaled(exact(*a), 1.0 + slip))
    return [c.name for case in cases for c in checks.CASES[case]() if not c.ok]


@pytest.mark.parametrize("slip", SLIPS)
@pytest.mark.parametrize("form", sorted(FORMS))
def test_a_slip_survives_verify_only_where_listed(monkeypatch, form, slip):
    failing = _failing(monkeypatch, form, slip)
    assert (not failing) == ((form, slip) in SURVIVORS), failing

