"""Command-line surface: compute bounds, run verifications, export facets and
emit the D/E comparison sweep.

Exit codes: 0 success / all checks passed, 1 usage error, 2 verification
failure, 3 scale refusal.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Optional, Sequence

import numpy as np

from . import bounds, checks, envelopes, hulls, oracle, polyrelax
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
    UnsupportedDomain,
    require_count,
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
    return oracle.GridSpec(resolution=args.grid)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _gamma_rows(mono: Monomial, dom) -> list[tuple[str, float, str]]:
    g = envelopes.gamma_vector(mono, dom)
    return [("gamma bound (convex over domain)", bounds.gamma_bound(g), "gamma=" + _fmt_point(g))]


def _subbox_rows(mono: Monomial, dom) -> list[tuple[str, float, str]]:
    rows = _gamma_rows(mono, dom)
    cb = bounds.concave_bound_box(mono, dom)
    return rows + [("concave bound at domain range", cb.bound, _fmt_point(cb.point))]


def _require_multilinear(mono: Monomial, domain: str) -> None:
    """The ratio-box and symmetric-box rows are the constants of x_1...x_n only."""
    if not mono.is_multilinear():
        raise UnsupportedDomain(f"--domain {domain} has bounds for x_1...x_n only: "
                                "give --n, or an --alpha of ones")


def _ratio_rows(mono: Monomial, dom) -> list[tuple[str, float, str]]:
    _require_multilinear(mono, "ratio")
    n, r = mono.n, dom.r
    D, E = bounds.ratio_box_constants(n, r)
    tE = bounds.ratio_box_e_point(n, r)
    return [("D (convex envelope error)", D, "on the diagonal"),
            ("E (concave envelope error)", E, _fmt_point(np.full(n, tE)))]


def _symbox_rows(mono: Monomial, dom) -> list[tuple[str, float, str]]:
    _require_multilinear(mono, "sym")
    x0, w0 = bounds.symbox_attainment(mono.n)
    return [("hull error over the symmetric box", bounds.symbox_error(mono.n),
             _fmt_point(x0) + f" w={_fmt(w0)} (+ reflections)")]


def _simplex_rows(mono: Monomial, dom) -> list[tuple[str, float, str]]:
    sb = bounds.simplex_bounds(mono)
    d = mono.degree
    return [("simplex concave bound", sb.conc,
             _fmt_point(np.full(mono.n, mono.alpha_power() ** (1.0 / d) / d))),
            ("simplex convex envelope error", sb.cvx,
             _fmt_point(np.asarray(mono.alpha, float) / d))]


# the flags that describe a domain, with their parsers
_DOMAIN_FLAGS = {"r": float, "lower": _floats, "upper": _floats, "lam": _floats}
# --domain name: (the domain flags it reads, its constructor from n and their
# values, the rows `bounds` prints for it)
_DOMAINS = {
    "unit": ((), UnitBox, _gamma_rows),
    "sub": (("lower", "upper"), lambda n, lower, upper: SubBox(lower, upper), _subbox_rows),
    "ratio": (("r",), RatioBox, _ratio_rows),
    "sym": ((), SymBox, _symbox_rows),
    "simplex": ((), StdSimplex, _simplex_rows),
    "corner": (("lam",), lambda n, lam: CornerSimplexOne(lam), _gamma_rows),
    "comp": ((), ComplementSimplex, _gamma_rows),
}


def _require_read(args, flags, reads, who: str) -> None:
    """Each of `flags` that the user gave must be one of those `who` reads."""
    for flag in flags:
        if getattr(args, flag, None) is not None and flag not in reads:
            raise ValueError(f"{who} does not read --{flag}")


def _domain(args, n: int):
    """The --domain the user chose; a domain flag it does not read is a usage error."""
    reads, build, _ = _DOMAINS[args.domain]
    _require_read(args, _DOMAIN_FLAGS, reads, f"--domain {args.domain}")
    values = [getattr(args, flag) for flag in reads]
    if None in values:
        raise ValueError(f"--domain {args.domain} needs " + " and ".join(f"--{f}" for f in reads))
    return build(n, *values)


def cmd_bounds(args) -> int:
    if args.alpha:
        mono = Monomial(args.alpha)
    elif args.n:
        mono = Monomial.multilinear(args.n)
    else:
        raise ValueError("bounds needs --alpha or --n")
    n, d = mono.n, require_count(mono.degree, "degree", 2)
    rows = [("c1 (concave/hull, degree-only)", bounds.c1(d),
             _fmt_point(bounds.concave_bound_xi(mono, 0.0, 1.0).point)),
            ("c2 (convex, degree-only)", bounds.c2(d),
             _fmt_point(np.full(n, 1 - 1 / d)))]
    rows += _DOMAINS[args.domain][2](mono, _domain(args, n))

    width = max(len(r[0]) for r in rows)
    lines = [f"alpha={list(mono.alpha)} degree={d} domain={args.domain}"]
    for name, val, att in rows:
        lines.append(f"{name:<{width}}  {_fmt(val):>14}  at {att}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# `--case all` runs every case with these arguments and the shared flags (grid,
# tol, seed, trials capped at 200); it does not read --alpha, --n or --r
_ALL_ARGS = {"unitbox": {"alpha": (1, 1, 1)}, "integrality": {"n": 3}}
_SHARED = ("grid", "tol", "seed", "trials")
# the flags of `verify`, each feeding the case parameter of its name
_CASE_FLAGS = ("alpha", "n", "r", "trials", "tol", "grid", "seed")


def _params(name: str):
    return inspect.signature(checks.CASES[name]).parameters


def _run_case(name: str, given: dict) -> list[checks.Check]:
    """Run a case on the given arguments it takes; its signature defaults the rest."""
    params = _params(name)
    return checks.CASES[name](**{k: v for k, v in given.items() if k in params and v is not None})


def _case_reads(case: str) -> set[str]:
    """The flags feeding a parameter of the case (under `all`, shared flags of some case)."""
    names = list(checks.CASES) if case == "all" else [case]
    passed = _SHARED if case == "all" else _CASE_FLAGS
    return {p for name in names for p in _params(name) if p in passed}


def cmd_verify(args) -> int:
    _require_read(args, _CASE_FLAGS, _case_reads(args.case), f"--case {args.case}")
    shared = {"grid": _gridspec(args), "tol": args.tol, "seed": args.seed}
    if args.case == "all":
        shared["trials"] = 200 if args.trials is None else min(args.trials, 200)
        results = [ch for name in checks.CASES
                   for ch in _run_case(name, {**shared, **_ALL_ARGS.get(name, {})})]
    else:
        results = _run_case(args.case, {**shared, "alpha": args.alpha, "n": args.n,
                                        "r": args.r, "trials": args.trials})

    lines = [f"[{ch.verdict}] {ch.name}: measured={_fmt(ch.measured)} bound={_fmt(ch.bound)}"
             for ch in results]
    failed = [ch for ch in results if not ch.ok]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
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
    if args.n_min > args.n_max:
        raise ValueError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
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
        rep = polyrelax.certify_gap_small_instance(poly, UnitBox(poly.n))
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
    dom = _domain(args, mono.n)
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

    shared = {"seed": {"type": int},
              "grid": {"type": int, "help": "per-coordinate grid resolution override"},
              "tol": {"type": float}}

    def add_common(sp, reads=()):
        # --out, and only those of the shared flags that the subcommand reads
        for flag in reads:
            sp.add_argument(f"--{flag}", default=None, **shared[flag])
        sp.add_argument("--out", type=str, default=None)

    def add_domain(sp, choices):
        # --domain and the domain flags that one of its choices reads
        sp.add_argument("--domain", type=str, default="unit", choices=choices)
        read = {flag for name in choices for flag in _DOMAINS[name][0]}
        for flag, parse in _DOMAIN_FLAGS.items():
            if flag in read:
                sp.add_argument(f"--{flag}", type=parse, default=None)

    sp = sub.add_parser("bounds", help="print closed-form bounds for a monomial/domain")
    sp.add_argument("--alpha", type=_ints, default=None)
    sp.add_argument("--n", type=int, default=None)
    add_domain(sp, list(_DOMAINS))
    add_common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("verify", help="run oracle verifications")
    sp.add_argument("--case", type=str, required=True,
                    choices=[*checks.CASES, "all"])
    sp.add_argument("--alpha", type=_ints, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--trials", type=int, default=None)
    add_common(sp, reads=("seed", "grid", "tol"))  # cmd_verify checks them per case
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
    add_domain(sp, ["unit", "sub", "simplex", "corner", "comp"])
    add_common(sp, reads=("grid",))
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
