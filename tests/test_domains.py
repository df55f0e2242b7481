"""Domain-dependent behaviour lives on the domain classes.

Every decision that depends on the domain family (inside the unit box, box or
not, closed-form monomial extremes, exact intercepts) is a member of
``monoenv.core.Domain``. These tests pin each member against test-local
copies of the ``isinstance`` chains it replaced, check that the callers
reject the same families with the same error types, and guard the rule
itself: no module but ``core.py`` tests which family it holds. The last
guard keeps the closed-form envelopes' membership check in one place.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from monoenv import (
    ComplementSimplex,
    CornerSimplexOne,
    Monomial,
    RatioBox,
    StdSimplex,
    SubBox,
    SymBox,
    UnitBox,
    UnsupportedDomain,
    bounds,
    core,
    envelopes,
    oracle,
)
from monoenv.core import monomial_values

SRC = Path(__file__).resolve().parents[1] / "src" / "monoenv"
GRID = oracle.GridSpec(resolution=8)


def families(n):
    """One domain of each of the seven families, in dimension n."""
    return [
        UnitBox(n),
        SubBox(tuple(0.1 * (j + 1) for j in range(n)), tuple(0.9 - 0.05 * j for j in range(n))),
        RatioBox(n, 2.5),
        SymBox(n),
        StdSimplex(n),
        CornerSimplexOne(tuple(0.3 + 0.2 * j for j in range(n))),
        ComplementSimplex(n),
    ]


ALL = [dom for n in (2, 3) for dom in families(n)]
INSIDE = [dom for dom in ALL if not isinstance(dom, (RatioBox, SymBox))]  # in [0, 1]^n
ALPHAS = {2: [(1, 1), (2, 1), (2, 2), (3, 2)], 3: [(1, 1, 1), (1, 2, 3), (2, 2, 2), (2, 4, 2)]}


def dom_id(dom):
    return f"{type(dom).__name__}{dom.n}"


# ---------------------------------------------------------------------------
# test-local copies of the chains the domain members replaced
# ---------------------------------------------------------------------------

def chain_extremize_f(m, dom, sense, grid=None):
    a = np.asarray(m.alpha, dtype=float)
    if isinstance(dom, StdSimplex):
        if sense == "max":
            point = a / m.degree
            return m.alpha_power() / float(m.degree) ** m.degree, point
        return 0.0, np.zeros(m.n)
    if isinstance(dom, CornerSimplexOne):
        if sense == "max":
            return 1.0, np.ones(m.n)
        vals = [(1.0 - dom.lam[i]) ** m.alpha[i] for i in range(m.n)]
        i = int(np.argmin(vals))
        point = np.ones(m.n)
        point[i] = 1.0 - dom.lam[i]
        return float(vals[i]), point
    if isinstance(dom, SymBox):
        if sense == "max":
            return 1.0, np.ones(m.n)
        odd = [i for i, ai in enumerate(m.alpha) if ai % 2 == 1]
        if odd:
            point = np.ones(m.n)
            point[odd[0]] = -1.0
            return -1.0, point
        point = np.ones(m.n)
        point[0] = 0.0
        return 0.0, point
    if isinstance(dom, (UnitBox, SubBox, RatioBox)):
        lo, hi = dom.bounding_box()
        if np.all(lo >= 0.0):
            corner = hi if sense == "max" else lo
            return float(monomial_values(m, corner[None, :])[0]), corner
    if sense == "max":
        return oracle.grid_maximize(lambda X: monomial_values(m, X), dom, grid)
    return oracle.grid_minimize(lambda X: monomial_values(m, X), dom, grid)


def chain_gamma_upper(dom):
    if isinstance(dom, SubBox):
        return np.asarray(dom.upper, dtype=float)
    return np.ones(dom.n)


def chain_sigma(m, dom, b):
    if isinstance(dom, ComplementSimplex):
        v = float(b.min())
        return v, v, True
    if isinstance(dom, UnitBox):
        if np.all(b >= np.asarray(m.alpha) - 1e-15):
            return 1.0, 1.0, True
        return 0.0, 1.0, False
    return 0.0, float(b.sum()), False


def same_bits(got, want):
    """Equal values with equal types, shapes and zero signs."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)))


# ---------------------------------------------------------------------------
# members
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dom", ALL, ids=dom_id)
def test_members_per_family(dom):
    assert dom.inside_unit_box() is (dom in INSIDE)
    assert dom.is_box is isinstance(dom, (UnitBox, SubBox, RatioBox, SymBox))


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize("dom", ALL, ids=dom_id)
def test_extremize_f_matches_the_family_chain(dom, sense):
    for alpha in ALPHAS[dom.n]:
        m = Monomial(alpha)
        got = oracle.extremize_f(m, dom, sense, GRID)
        want = chain_extremize_f(m, dom, sense, GRID)
        assert type(got[0]) is type(want[0])
        assert same_bits(got[0], want[0]), (alpha, got, want)
        assert same_bits(got[1], want[1]), (alpha, got, want)


@pytest.mark.parametrize("dom", INSIDE, ids=dom_id)
def test_gamma_vector_upper_is_the_bounding_box(dom):
    assert same_bits(dom.bounding_box()[1], chain_gamma_upper(dom))
    for alpha in ALPHAS[dom.n]:
        m = Monomial(alpha)
        sigma2 = 1.0 - chain_gamma_upper(dom)
        want = np.array([float(a) if s <= 0.0 else (1.0 - (1.0 - s) ** a) / s
                         for s, a in zip(sigma2, m.alpha)])
        assert same_bits(envelopes.gamma_vector(m, dom), want)


@pytest.mark.parametrize("dom", INSIDE, ids=dom_id)
def test_sigma_beta_matches_the_family_chain(dom):
    rng = np.random.default_rng(dom.n)
    for alpha in ALPHAS[dom.n]:
        m = Monomial(alpha)
        for b in (np.asarray(alpha, float), np.ones(dom.n), 1.0 + 3.0 * rng.random(dom.n)):
            iv = bounds.sigma_beta(m, dom, b)
            assert (iv.lo, iv.hi, iv.exact) == chain_sigma(m, dom, b)


def test_sigma_beta_rejects_nan_slopes():
    with pytest.raises(ValueError, match="beta must be >= 1"):
        bounds.sigma_beta(Monomial((1, 1)), ComplementSimplex(2), [float("nan"), 1.0])


# ---------------------------------------------------------------------------
# rejections: the same families, the same error types as the isinstance chains
# ---------------------------------------------------------------------------

def _gamma(dom):
    envelopes.gamma_vector(Monomial.multilinear(dom.n), dom)


def _edge(dom):
    envelopes.underestimator_necessary(Monomial.multilinear(dom.n), dom, np.ones(dom.n))


def _sigma(dom):
    bounds.sigma_beta(Monomial.multilinear(dom.n), dom, np.ones(dom.n))


def _sampled(dom):
    x = dom.bounding_box()[1]
    oracle.sampled_hull_envelope(Monomial.multilinear(dom.n), dom, x, oracle.UNDER)


REJECTS = [
    (_gamma, (RatioBox, SymBox), UnsupportedDomain),
    (_edge, (RatioBox, SymBox, StdSimplex, CornerSimplexOne, ComplementSimplex), UnsupportedDomain),
    (_sigma, (RatioBox, SymBox), UnsupportedDomain),
    (_sampled, (StdSimplex, CornerSimplexOne, ComplementSimplex), ValueError),
]


@pytest.mark.parametrize("call,rejected,error", REJECTS, ids=lambda v: getattr(v, "__name__", ""))
def test_rejected_families_raise_the_same_type(call, rejected, error):
    for dom in ALL:
        if isinstance(dom, rejected):
            with pytest.raises(ValueError) as info:
                call(dom)
            assert info.type is error, (dom, info.value)
        else:
            call(dom)


# ---------------------------------------------------------------------------
# the rule itself
# ---------------------------------------------------------------------------

DOMAIN_CLASSES = {name for name, obj in vars(core).items()
                  if isinstance(obj, type) and issubclass(obj, core.Domain)}


def _class_names(node):
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            yield from _class_names(elt)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


def family_tests(source: str, filename: str = "<source>") -> list[str]:
    """Each isinstance/issubclass call in ``source`` whose class argument
    names a Domain class, as 'file:line names'."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
            hit = DOMAIN_CLASSES.intersection(_class_names(node.args[1]))
            if hit:
                found.append(f"{filename}:{node.lineno} {sorted(hit)}")
    return found


def test_the_guard_sees_a_family_test():
    source = ("def f(dom, x):\n"
              "    if isinstance(x, (int, float)):\n"
              "        return 0\n"
              "    return isinstance(dom, (UnitBox, core.SymBox)) or isinstance(dom, _BoxDomain)\n")
    assert family_tests(source) == ["<source>:4 ['SymBox', 'UnitBox']", "<source>:4 ['_BoxDomain']"]


def test_no_family_test_outside_core():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "core.py")
    assert len(paths) >= 9
    found = [hit for p in paths for hit in family_tests(p.read_text(encoding="utf-8"), p.name)]
    assert found == []


# ---------------------------------------------------------------------------
# slope vectors are checked by core.slopes alone
# ---------------------------------------------------------------------------

def _is_one(node):
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 1


def nan_unsafe_slope_tests(source: str, filename: str = "<source>") -> list[str]:
    """Each ``any(... < 1 ...)`` or ``np.any(... < 1 ...)`` in ``source``, as
    'file:line'. A nan entry compares False, so such a test passes it."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        func = getattr(node, "func", None)
        if not (isinstance(node, ast.Call) and node.args
                and (getattr(func, "id", None) == "any" or getattr(func, "attr", None) == "any")):
            continue
        for cmp in ast.walk(node.args[0]):
            if isinstance(cmp, ast.Compare) and any(
                    (isinstance(op, ast.Lt) and _is_one(right))
                    or (isinstance(op, ast.Gt) and _is_one(left))
                    for op, left, right in zip(cmp.ops, [cmp.left, *cmp.comparators], cmp.comparators)):
                found.append(f"{filename}:{node.lineno}")
                break
    return found


def test_the_guard_sees_a_nan_unsafe_slope_test():
    source = ("def f(beta, g, k, a):\n"
              "    if any(b < 1.0 for b in beta):\n"
              "        return 0\n"
              "    if np.any(g < 1) or numpy.any(1 > k):\n"
              "        return 1\n"
              "    return np.all(g >= 1.0) or np.any(k > a) or any(b < 2.0 for b in beta)\n")
    assert nan_unsafe_slope_tests(source) == ["<source>:2", "<source>:4", "<source>:4"]


def test_no_nan_unsafe_slope_test_outside_core():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "core.py")
    found = [hit for p in paths for hit in nan_unsafe_slope_tests(p.read_text(encoding="utf-8"), p.name)]
    assert found == []


# ---------------------------------------------------------------------------
# closed-form envelopes check their points in one place
# ---------------------------------------------------------------------------

def require_inside_scopes(source: str, filename: str = "<source>") -> list[str]:
    """The enclosing class/function path of each ``.require_inside(...)`` call
    in ``source``, in source order."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "require_inside":
                yield ".".join(scope) or "<module>"
            yield from walk(child, scope)

    return list(walk(ast.parse(source, filename), []))


def wrapped_envelopes(source: str, filename: str = "<source>") -> list[str]:
    """Each lambda in ``source`` that calls an ``envelopes.*`` function, as
    'file:line'; an envelope is passed as its object, not wrapped."""
    lines = sorted(node.lineno for node in ast.walk(ast.parse(source, filename))
                   if isinstance(node, ast.Lambda) and any(
                       isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                       and getattr(call.func.value, "id", None) == "envelopes"
                       for call in ast.walk(node.body)))
    return [f"{filename}:{line}" for line in lines]


def test_the_guard_sees_a_second_check_and_a_wrapped_envelope():
    source = ("class Envelope:\n"
              "    def __call__(self, x):\n"
              "        return self.value(self.dom.require_inside(x))\n"
              "def concave(m, x):\n"
              "    UnitBox(m.n).require_inside(x)\n"
              "    return lambda X: envelopes.concave_env_unitbox(m, X)\n"
              "zero = lambda X: np.zeros(len(X))\n"
              "conc = lambda X: envelopes.concave_unitbox(m)(X)\n")
    assert require_inside_scopes(source) == ["Envelope.__call__", "concave"]
    assert wrapped_envelopes(source) == ["<source>:6", "<source>:8"]


def test_envelopes_check_points_in_one_place():
    assert require_inside_scopes((SRC / "envelopes.py").read_text(encoding="utf-8")) == [
        "Envelope.__call__"]
    assert wrapped_envelopes((SRC / "checks.py").read_text(encoding="utf-8"), "checks.py") == []
