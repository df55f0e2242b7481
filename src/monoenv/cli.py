"""Command-line surface: compute bounds, run verifications, export facets and
emit the D/E comparison sweep.

Exit codes: 0 success / all checks passed, 1 usage error, 2 verification
failure, 3 scale refusal.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional, Sequence

import numpy as np

from . import bounds, envelopes, hulls, oracle, polyrelax
from .core import (
    ComplementSimplex,
    CornerSimplexOne,
    Monomial,
    RatioBox,
    ScaleExceeded,
    StdSimplex,
    SubBox,
    SymBox,
    UnitBox,
    Verdict,
    eval_monomial,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_SCALE = 3


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def _fmt_point(p) -> str:
    return "(" + ", ".join(_fmt(float(v)) for v in np.asarray(p).ravel()) + ")"


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _write(out_path: Optional[str], text: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _gridspec(args) -> oracle.GridSpec:
    kwargs = {}
    if getattr(args, "grid", None):
        kwargs["resolution"] = args.grid
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    return oracle.GridSpec(**kwargs)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _domain_from_args(args, n: int):
    name = args.domain
    if name == "unit":
        return UnitBox(n)
    if name == "sub":
        if not (args.lower and args.upper):
            raise ValueError("--domain sub needs --lower and --upper")
        return SubBox(args.lower, args.upper)
    if name == "ratio":
        if args.r is None:
            raise ValueError("--domain ratio needs --r")
        return RatioBox(n, args.r)
    if name == "sym":
        return SymBox(n)
    if name == "simplex":
        return StdSimplex(n)
    if name == "corner":
        if not args.lam:
            raise ValueError("--domain corner needs --lam")
        return CornerSimplexOne(args.lam)
    if name == "comp":
        return ComplementSimplex(n)
    raise ValueError(f"unknown domain {name!r}")


def cmd_bounds(args) -> int:
    if args.alpha:
        mono = Monomial(args.alpha)
    elif args.n:
        mono = Monomial.multilinear(args.n)
    else:
        raise ValueError("bounds needs --alpha or --n")
    n, d = mono.n, mono.degree
    rows: list[tuple[str, float, str]] = []

    if d >= 2:
        bs = bounds.bound_set(d)
        rows.append(("c1 (concave/hull, degree-only)", bs.c1,
                     _fmt_point(np.full(n, d ** (1.0 / (1.0 - d))))))
        rows.append(("c2 (convex, degree-only)", bs.c2,
                     _fmt_point(np.full(n, 1.0 - 1.0 / d))))

    dom = _domain_from_args(args, n)
    if isinstance(dom, (UnitBox, SubBox, CornerSimplexOne, ComplementSimplex)):
        g = envelopes.gamma_vector(mono, dom)
        rows.append(("gamma bound (convex over domain)", bounds.gamma_bound(g),
                     "gamma=" + _fmt_point(g)))
        if isinstance(dom, SubBox):
            fmin, _ = oracle.extremize_f(mono, dom, "min")
            fmax, _ = oracle.extremize_f(mono, dom, "max")
            cb = bounds.concave_bound_xi(mono, fmin, fmax)
            rows.append(("concave bound at domain range", cb.bound, _fmt_point(cb.point)))
    elif isinstance(dom, RatioBox):
        D, E = bounds.ratio_box_constants(n, dom.r)
        # tE = ((r^n - 1) / (n (r - 1)))^(1/(n-1)), in logs so large n cannot overflow
        logr = math.log(dom.r)
        tE = math.exp((n * logr + math.log1p(-math.exp(-n * logr))
                       - math.log(n * (dom.r - 1.0))) / (n - 1))
        rows.append(("D (convex envelope error)", D, "on the diagonal"))
        rows.append(("E (concave envelope error)", E, _fmt_point(np.full(n, tE))))
    elif isinstance(dom, SymBox):
        x0, w0 = bounds.symbox_attainment(n)
        rows.append(("hull error over the symmetric box", bounds.symbox_error(n),
                     _fmt_point(x0) + f" w={_fmt(w0)} (+ reflections)"))
    elif isinstance(dom, StdSimplex):
        sb = bounds.simplex_bounds(mono)
        aa = mono.alpha_power()
        rows.append(("simplex concave bound", sb.conc,
                     _fmt_point(np.full(n, aa ** (1.0 / d) / d))))
        rows.append(("simplex convex envelope error", sb.cvx,
                     _fmt_point(np.asarray(mono.alpha, float) / d)))

    width = max(len(r[0]) for r in rows)
    lines = [f"alpha={list(mono.alpha)} degree={d} domain={args.domain}"]
    for name, val, att in rows:
        lines.append(f"{name:<{width}}  {_fmt(val):>14}  at {att}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    verdict: str
    measured: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.verdict in ("TIGHT", "VALID_UPPER", "PASS")


def _check_from_report(name: str, rep) -> Check:
    return Check(name=name, verdict=rep.verdict.value,
                 measured=rep.measured_value, bound=rep.bound_value)


def verify_unitbox(alpha, grid, tol) -> list[Check]:
    mono = Monomial(alpha)
    est = lambda X: envelopes.concave_env_unitbox(mono, X)
    rep = oracle.max_gap(mono, UnitBox(mono.n), est, oracle.OVER,
                         bound=bounds.c1(mono.degree), grid=grid, tol=tol)
    return [_check_from_report(f"unitbox hull error alpha={list(alpha)}", rep)]


def verify_cvxmulti(n, grid, tol) -> list[Check]:
    mono = Monomial.multilinear(n)
    est = lambda X: envelopes.convex_env_unitbox_multilinear(n, X)
    rep = oracle.max_gap(mono, UnitBox(n), est, oracle.UNDER,
                         bound=bounds.c2(n), grid=grid, tol=tol)
    return [_check_from_report(f"multilinear convex envelope n={n}", rep)]


def verify_ratiobox(n, r, grid, tol) -> list[Check]:
    mono = Monomial.multilinear(n)
    D, E = bounds.ratio_box_constants(n, r)
    dom = RatioBox(n, r)
    conc = oracle.max_gap(mono, dom, lambda X: envelopes.concave_env_ratiobox(n, r, X),
                          oracle.OVER, bound=E, grid=grid, tol=tol)
    cvx = oracle.max_gap(mono, dom, lambda X: envelopes.convex_env_ratiobox(n, r, X),
                         oracle.UNDER, bound=D, grid=grid, tol=tol)
    return [
        _check_from_report(f"ratio box concave error n={n} r={_fmt(r)}", conc),
        _check_from_report(f"ratio box convex error n={n} r={_fmt(r)}", cvx),
    ]


def verify_symbox(n, grid, tol) -> list[Check]:
    mono = Monomial.multilinear(n)
    fs = hulls.build_symbox_hull(n)
    bound = bounds.symbox_error(n)
    dom = SymBox(n)

    under = oracle.max_gap(mono, dom, fs.envelope_lower, oracle.UNDER,
                           bound=bound, grid=grid, tol=tol)
    over = oracle.max_gap(mono, dom, fs.envelope_upper, oracle.OVER,
                          bound=bound, grid=grid, tol=tol)
    checks = [
        _check_from_report(f"symbox convex-side error n={n}", under),
        _check_from_report(f"symbox concave-side error n={n}", over),
    ]

    # direct evaluation at every reflection of the anchor attainment point
    x0, w0 = bounds.symbox_attainment(n)
    worst = 0.0
    member_all = True
    for mask in range(2 ** n):
        s = np.array([-1.0 if (mask >> i) & 1 else 1.0 for i in range(n)])
        x = s * x0
        w = w0 * float(np.prod(s))
        err = abs(w - eval_monomial(mono, x))
        worst = max(worst, abs(err - bound))
        member_all = member_all and hulls.hull_membership(fs, x, w).member
    checks.append(Check(
        name=f"symbox reflections n={n} (2^{n} points, membership={member_all})",
        verdict="PASS" if worst <= 1e-9 and member_all else "VIOLATED",
        measured=worst, bound=1e-9))
    return checks


def verify_integrality_case(n, trials, seed) -> list[Check]:
    rep = hulls.verify_integrality(n, trials=trials, seed=seed)
    return [Check(
        name=f"integrality n={n} trials={trials} seed={seed}",
        verdict="PASS" if rep.passed else "VIOLATED",
        measured=rep.max_value_gap, bound=1e-9)]


def verify_simplex(alpha, grid, tol) -> list[Check]:
    mono = Monomial(alpha)
    sb = bounds.simplex_bounds(mono)
    dom = StdSimplex(mono.n)
    conc = oracle.max_gap(mono, dom, lambda X: envelopes.concave_env_unitbox(mono, X),
                          oracle.OVER, bound=sb.conc, grid=grid, tol=tol)
    zero = lambda X: np.zeros(X.shape[0])
    cvx = oracle.max_gap(mono, dom, zero, oracle.UNDER, bound=sb.cvx, grid=grid, tol=tol)
    return [
        _check_from_report(f"simplex concave bound alpha={list(alpha)}", conc),
        _check_from_report(f"simplex convex error alpha={list(alpha)}", cvx),
    ]


def _e_deficit_leading(n: int, r: float) -> float:
    """Leading term of the deficit 1 - E/(r^n - 1) as n grows."""
    return (r / (r - 1.0)) * (1.0 + math.log(n * (r - 1.0) / r)) / n


def verify_e_asymptote() -> list[Check]:
    """E/(r^n - 1) -> 1 at r = 2, from n = 100 on; the convergence is logarithmic.

    The closed form is matched against the 50-digit decimal diagonal maximum
    at n = 100, its deficit must fall strictly over n = 2..1000 and track the
    leading term ever closer, and the 0.05 window must first hold at n = 228
    by the decimal reference, with the closed form agreeing.
    """
    r = 2.0
    e_ratio = {n: bounds.ratio_box_asymptotics(n, r)[0]
               for n in (*range(2, 1001), 10 ** 4, 10 ** 5)}
    t_star, ref = oracle.ratio_box_diagonal_max(100, r)
    scan = [oracle.ratio_box_diagonal_gap(100, r, Decimal(k) / 200) for k in range(201)]
    scan_ok = max(scan) <= ref and abs(scan.index(max(scan)) / 200 - float(t_star)) <= 1 / 200
    err = abs(e_ratio[100] - float(ref))
    # deficit(n+1) - deficit(n) = e_ratio(n) - e_ratio(n+1) must stay negative
    step = max(e_ratio[n] - e_ratio[n + 1] for n in range(2, 1000))
    dist = [abs((1.0 - e_ratio[n]) / _e_deficit_leading(n, r) - 1.0)
            for n in (100, 10 ** 3, 10 ** 4, 10 ** 5)]
    shrinking = all(b < a for a, b in zip(dist, dist[1:]))
    window = (227, 228, 300, 1000)
    ref_in = [abs(1 - oracle.ratio_box_diagonal_max(n, r)[1]) <= Decimal("0.05") for n in window]
    closed_in = [abs(e_ratio[n] - 1.0) <= 0.05 for n in window]
    window_ok = ref_in == [False, True, True, True] and closed_in == ref_in
    return [
        Check(name="E/(r^n-1) at n=100 r=2 vs 50-digit diagonal maximum",
              verdict="PASS" if err <= 1e-12 and scan_ok else "VIOLATED",
              measured=err, bound=1e-12),
        Check(name="largest step of 1-E/(r^n-1) over n=2..1000 r=2",
              verdict="PASS" if step < 0.0 and e_ratio[1000] < 1.0 else "VIOLATED",
              measured=step, bound=0.0),
        Check(name="|(1-E/(r^n-1))/leading term - 1| at n=100 r=2, "
                   "shrinking at n=1e3,1e4,1e5",
              verdict="PASS" if dist[0] <= 0.02 and shrinking else "VIOLATED",
              measured=dist[0], bound=0.02),
        Check(name="|E/(r^n-1)-1| at n=228 r=2; the window holds at n=228,300,1000 "
                   "and fails at n=227 (decimal reference, closed form agrees)",
              verdict="PASS" if window_ok else "VIOLATED",
              measured=abs(e_ratio[228] - 1.0), bound=0.05),
    ]


def verify_figure1(tol) -> list[Check]:
    worst = 0.0
    for n in range(2, 101):
        for r in (1.01, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0):
            ratio, _ = bounds.ratio_box_ratios(n, r)
            worst = max(worst, ratio)
    checks = [Check(name="D/E over the sweep grid", verdict="PASS" if worst <= 1.0 + 1e-12 else "VIOLATED",
                    measured=worst, bound=1.0)]
    checks += verify_e_asymptote()
    _, d_ratio = bounds.ratio_box_asymptotics(100, 2.0)
    case = bounds.d_bound_cases(100, 2.0).case
    if case in ("exact", "stationary"):
        ok = d_ratio <= 1.0 / np.e + 0.02
        checks.append(Check(name=f"D/(r^n-1) at n=100 r=2 (case {case})",
                            verdict="PASS" if ok else "VIOLATED",
                            measured=d_ratio, bound=1.0 / np.e + 0.02))
    return checks


def verify_fixedpoint(seed) -> list[Check]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        alpha = tuple(int(a) for a in rng.integers(1, 4, size=n))
        mono = Monomial(alpha)
        beta = 1.0 + 3.0 * rng.random(n)
        kappa = 1.0 + (np.asarray(alpha) - 1.0) * rng.random(n)
        j = int(rng.integers(0, n))
        kappa[j] = min(kappa[j], beta[j], alpha[j])
        sigma = float(rng.random() * 0.9 * beta.sum())
        C = bounds.c_beta_kappa(mono, beta, kappa, sigma)
        worst = max(worst, abs(bounds.phi_beta_kappa(beta, kappa, sigma, C) - C))
    return [Check(name="fixed point of the transfer map (100 random triples)",
                  verdict="PASS" if worst <= 1e-12 else "VIOLATED",
                  measured=worst, bound=1e-12)]


def verify_root_sweep() -> list[Check]:
    worst = 0.0
    ok = True
    for lam1 in range(2, 11):
        for lam2 in np.arange(1.0, lam1, 0.5):
            res = bounds.find_root_power_linear(lam1, float(lam2))
            if not res.has_root or res.root <= res.lower_bound:
                ok = False
            worst = max(worst, abs(res.residual))
    return [Check(name="root finder sweep lam1=2..10",
                  verdict="PASS" if ok and worst <= 1e-12 else "VIOLATED",
                  measured=worst, bound=1e-12)]


def verify_underestimator(seed) -> list[Check]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 4))
        alpha = tuple(int(a) for a in rng.integers(1, 4, size=n))
        if sum(alpha) > 6:
            alpha = tuple(1 for _ in alpha)
        mono = Monomial(alpha)
        lower = 0.5 * rng.random(n)
        upper = lower + (1.0 - lower) * rng.random(n)
        box = SubBox(tuple(lower), tuple(upper))
        g = envelopes.gamma_vector(mono, box)
        res = max(2, int(round(100_000 ** (1.0 / n))))
        axes = [np.linspace(lower[j], upper[j], res) for j in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        ell = 1.0 + (pts - 1.0) @ g
        f = eval_monomial(mono, pts)
        worst = max(worst, float(np.max(ell - f)))
    checks = [Check(name="gamma underestimator validity (20 random boxes)",
                    verdict="PASS" if worst <= 1e-12 else "VIOLATED",
                    measured=worst, bound=1e-12)]
    sig_worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 4))
        alpha = tuple(int(a) for a in rng.integers(1, 4, size=n))
        mono = Monomial(alpha)
        sig = oracle.sigma_numeric(mono, UnitBox(n), np.asarray(alpha, float))
        sig_worst = max(sig_worst, abs(sig - 1.0))
    checks.append(Check(name="sigma(alpha)=1 over the unit box (10 random alpha)",
                        verdict="PASS" if sig_worst <= 1e-4 else "VIOLATED",
                        measured=sig_worst, bound=1e-4))
    return checks


def verify_sweeps() -> list[Check]:
    ok = all(bounds.dineq_check(d) for d in range(2, 51))
    strict = all(bounds.dineq_margins(d)[1] > 0 for d in range(3, 51))
    eq2 = abs(bounds.dineq_margins(2)[1]) <= 1e-15
    c1s = [bounds.c1(d) for d in range(2, 51)]
    c2s = [bounds.c2(d) for d in range(2, 51)]
    mono1 = all(b > a for a, b in zip(c1s, c1s[1:]))
    mono2 = all(b > a for a, b in zip(c2s, c2s[1:]))
    order = all(y <= x for x, y in zip(c1s, c2s)) and abs(c1s[0] - c2s[0]) <= 1e-15
    strict_order = all(y < x for x, y in zip(c1s[1:], c2s[1:]))
    toward = c2s[-1] < 1.0 / np.e
    good = ok and strict and eq2 and mono1 and mono2 and order and strict_order and toward
    return [Check(name="inequality sweeps d=2..50",
                  verdict="PASS" if good else "VIOLATED",
                  measured=float(good), bound=1.0)]


def cmd_verify(args) -> int:
    grid = _gridspec(args)
    tol = args.tol if args.tol is not None else 1e-3
    case = args.case
    checks: list[Check] = []
    if case == "unitbox":
        checks = verify_unitbox(args.alpha or (1, 1), grid, tol)
    elif case == "cvxmulti":
        checks = verify_cvxmulti(args.n or 3, grid, tol)
    elif case == "ratiobox":
        checks = verify_ratiobox(args.n or 3, args.r or 2.0, grid, tol)
    elif case == "symbox":
        checks = verify_symbox(args.n or 3, grid, tol)
    elif case == "integrality":
        checks = verify_integrality_case(args.n or 4, args.trials, args.seed)
    elif case == "simplex":
        checks = verify_simplex(args.alpha or (1, 1), grid, tol)
    elif case == "figure1":
        checks = verify_figure1(tol)
    elif case == "fixedpoint":
        checks = verify_fixedpoint(args.seed)
    elif case == "root":
        checks = verify_root_sweep()
    elif case == "underestimator":
        checks = verify_underestimator(args.seed)
    elif case == "sweeps":
        checks = verify_sweeps()
    elif case == "all":
        checks = (
            verify_unitbox((1, 1, 1), grid, tol)
            + verify_cvxmulti(3, grid, tol)
            + verify_ratiobox(3, 2.0, grid, tol)
            + verify_symbox(3, grid, tol)
            + verify_integrality_case(3, min(args.trials, 200), args.seed)
            + verify_simplex((1, 1), grid, tol)
            + verify_figure1(tol)
            + verify_fixedpoint(args.seed)
            + verify_root_sweep()
            + verify_underestimator(args.seed)
            + verify_sweeps()
        )
    else:
        raise ValueError(f"unknown case {case!r}")

    lines = []
    for ch in checks:
        lines.append(f"[{ch.verdict}] {ch.name}: measured={_fmt(ch.measured)} "
                     f"bound={_fmt(ch.bound)}")
    failed = [ch for ch in checks if not ch.ok]
    lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if not failed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# figure1 / facets / gap / sigma / root
# ---------------------------------------------------------------------------

def _svg_chart(rows: list[tuple[int, float, float, float, float, float]],
               r_values: Sequence[float]) -> str:
    """Minimal polyline chart of D/E against n, one series per r."""
    width, height, margin = 640, 400, 48
    ns = sorted({row[0] for row in rows})
    n_lo, n_hi = min(ns), max(ns)
    y_max = max(max(row[4] for row in rows), 1.0)
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd",
               "#ff7f0e", "#8c564b", "#17becf"]

    def sx(n):
        return margin + (n - n_lo) / max(n_hi - n_lo, 1) * (width - 2 * margin)

    def sy(v):
        return height - margin - v / y_max * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">n</text>',
        f'<text x="14" y="{height // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height // 2})">D/E</text>',
    ]
    for k, r in enumerate(r_values):
        series = [(row[0], row[4]) for row in rows if row[1] == r]
        pts = " ".join(f"{sx(n):.2f},{sy(v):.2f}" for n, v in series)
        color = palette[k % len(palette)]
        parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 14 * k}" '
                     f'font-size="11" fill="{color}">r={_fmt(r)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_figure1(args) -> int:
    r_values = args.r_list or (1.01, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        for r in r_values:
            D, E = bounds.ratio_box_constants(n, r)
            ratio, relaxed = bounds.ratio_box_ratios(n, r)
            rows.append((n, r, D, E, ratio, relaxed))
    lines = ["n,r,D,E,ratio,relaxed_ratio"]
    for n, r, D, E, ratio, relaxed in rows:
        lines.append(f"{n},{_fmt(r)},{_fmt(D)},{_fmt(E)},{_fmt(ratio)},{_fmt(relaxed)}")
    _write(args.out, "\n".join(lines) + "\n")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(_svg_chart(rows, r_values))
    return EXIT_OK


def cmd_facets(args) -> int:
    fs = hulls.build_symbox_hull(args.n)
    if args.format == "csv":
        _write(args.out, hulls.export_facets_csv(fs))
    else:
        _write(args.out, hulls.export_facets_text(fs))
    return EXIT_OK


def cmd_gap(args) -> int:
    poly = polyrelax.load_polynomial(args.poly)
    gb = polyrelax.gap_bound(poly)
    lines = [
        f"n={poly.n} terms={len(poly.terms)} total_degree={poly.total_degree}",
        f"lprime          {_fmt(polyrelax.lprime(poly))}",
        f"tight bound     {_fmt(gb.tight)}  (count bound {gb.monomial_count_bound})",
        f"cheap bound     {_fmt(gb.cheap)}",
        f"sharp variant   {_fmt(gb.sharp)}  (actual term count; not part of the guarantee)",
    ]
    if poly.total_degree >= 2:
        lines.append(
            f"hierarchy threshold delta-hat(n={poly.n}, m={poly.total_degree}) "
            f"{_fmt(polyrelax.hierarchy_threshold(poly.n, poly.total_degree))}"
        )
    code = EXIT_OK
    if args.certify:
        rep = polyrelax.certify_gap_small_instance(poly, UnitBox(poly.n), _gridspec(args))
        lines.append(f"z*              {_fmt(rep.z_star)} at {_fmt_point(rep.argmin_exact)}")
        lines.append(f"z_mon           {_fmt(rep.z_mon)} at {_fmt_point(rep.argmin_relaxed)}")
        lines.append(f"measured gap    {_fmt(rep.gap)} <= tight {_fmt(rep.tight_bound)}: "
                     f"{'PASS' if rep.passed else 'FAIL'}")
        if not rep.passed:
            code = EXIT_VERIFY
    _write(args.out, "\n".join(lines) + "\n")
    return code


def cmd_sigma(args) -> int:
    mono = Monomial(args.alpha)
    dom = _domain_from_args(args, mono.n)
    beta = np.asarray(args.beta if args.beta else mono.alpha, dtype=float)
    iv = bounds.sigma_beta(mono, dom, beta)
    lines = [f"alpha={list(mono.alpha)} beta={[float(b) for b in beta]} domain={args.domain}"]
    if iv.exact:
        lines.append(f"sigma exact     {_fmt(iv.lo)}")
    else:
        lines.append(f"sigma interval  [{_fmt(iv.lo)}, {_fmt(iv.hi)}]")
    num = oracle.sigma_numeric(mono, dom, beta, _gridspec(args))
    lines.append(f"sigma numeric   {_fmt(num)}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_root(args) -> int:
    res = bounds.find_root_power_linear(args.lambda1, args.lambda2)
    if not res.has_root:
        _write(args.out,
               f"no root in (0,1]: polynomial positive there "
               f"(grid min {_fmt(res.certificate_min)})\n")
    else:
        _write(args.out,
               f"root={res.root!r} residual={_fmt(res.residual)} "
               f"lower_bound={_fmt(res.lower_bound)}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="monoenv",
                description="Monomial envelope error bounds and their verification")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--grid", type=int, default=None,
                        help="per-coordinate grid resolution override")
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("bounds", help="print closed-form bounds for a monomial/domain")
    sp.add_argument("--alpha", type=_ints, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--domain", type=str, default="unit",
                    choices=["unit", "sub", "ratio", "sym", "simplex", "corner", "comp"])
    sp.add_argument("--lower", type=_floats, default=None)
    sp.add_argument("--upper", type=_floats, default=None)
    sp.add_argument("--lam", type=_floats, default=None)
    add_common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("verify", help="run oracle verifications")
    sp.add_argument("--case", type=str, required=True,
                    choices=["unitbox", "cvxmulti", "ratiobox", "symbox", "integrality",
                             "simplex", "figure1", "fixedpoint", "root",
                             "underestimator", "sweeps", "all"])
    sp.add_argument("--alpha", type=_ints, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--trials", type=int, default=1000)
    add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("figure1", help="emit the D/E comparison sweep as CSV (+SVG)")
    sp.add_argument("--n-min", type=int, default=2)
    sp.add_argument("--n-max", type=int, default=100)
    sp.add_argument("--r-list", type=_floats, default=None)
    sp.add_argument("--svg", type=str, default=None)
    add_common(sp)
    sp.set_defaults(func=cmd_figure1)

    sp = sub.add_parser("facets", help="export the symmetric-box hull facets")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--format", type=str, default="text", choices=["text", "csv"])
    add_common(sp)
    sp.set_defaults(func=cmd_facets)

    sp = sub.add_parser("gap", help="polynomial gap bounds (and small-instance certify)")
    sp.add_argument("--poly", type=str, required=True)
    sp.add_argument("--certify", action="store_true")
    add_common(sp)
    sp.set_defaults(func=cmd_gap)

    sp = sub.add_parser("sigma", help="best valid intercept for a slope vector")
    sp.add_argument("--alpha", type=_ints, required=True)
    sp.add_argument("--beta", type=_floats, default=None)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--domain", type=str, default="unit",
                    choices=["unit", "sub", "simplex", "corner", "comp"])
    sp.add_argument("--lower", type=_floats, default=None)
    sp.add_argument("--upper", type=_floats, default=None)
    sp.add_argument("--lam", type=_floats, default=None)
    add_common(sp)
    sp.set_defaults(func=cmd_sigma)

    sp = sub.add_parser("root", help="unique (0,1] root of (1-s)^lam1 + lam2*s - 1")
    sp.add_argument("--lambda1", type=int, required=True)
    sp.add_argument("--lambda2", type=float, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_root)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScaleExceeded as exc:
        sys.stderr.write(f"scale refusal: {exc}\n")
        return EXIT_SCALE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
