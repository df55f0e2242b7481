import argparse
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import monoenv
from monoenv import checks, polyrelax
from monoenv.cli import EXIT_OK, EXIT_SCALE, EXIT_USAGE, EXIT_VERIFY, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_unit_box_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--alpha", "1,1,1", "--domain", "unit")
        assert code == EXIT_OK
        assert "0.384900" in out
        assert "0.296296" in out

    def test_symbox_value(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "3", "--domain", "sym")
        assert code == EXIT_OK
        assert "1.037037" in out

    def test_ratio_constants(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "2", "--r", "2", "--domain", "ratio")
        assert code == EXIT_OK
        assert out.count("0.25") >= 2

    def test_ratio_constants_beyond_float_range(self, capsys):
        from monoenv import bounds
        code, out, _ = run_cli(capsys, "bounds", "--n", "2000", "--r", "2", "--domain", "ratio")
        assert code == EXIT_OK
        D, E = bounds.ratio_box_constants(2000, 2.0)
        printed = {ln[0]: ln.split("  at ")[0].split()[-1]
                   for ln in out.splitlines() if ln[:2] in ("D ", "E ")}
        assert printed == {"D": f"{D:.9g}", "E": f"{E:.9g}"}

    @pytest.mark.parametrize("argv", [
        ["bounds", "--alpha", "200,200", "--domain", "simplex"],
        ["verify", "--case", "simplex", "--alpha", "75,75"],
    ], ids=["bounds", "verify"])
    def test_simplex_peak_overflow_is_a_scale_refusal(self, capsys, argv):
        # alpha**alpha or d**d overflowed into an OverflowError traceback
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_SCALE
        assert out == "" and "scale refusal" in err

    def test_ratio_box_power_overflow_is_a_scale_refusal(self, capsys):
        # r**(n-1) overflowed into an OverflowError traceback
        code, out, err = run_cli(capsys, "verify", "--case", "ratiobox", "--n", "3",
                                 "--r", "1e300", "--grid", "4")
        assert code == EXIT_SCALE
        assert out == "" and "scale refusal:" in err

    @pytest.mark.parametrize("n, r", [("3", "1e103"), ("2", "1e155")])
    def test_ratio_box_top_value_overflow_is_a_scale_refusal(self, capsys, n, r):
        # r**(n-1) is finite but r**n is not: three RuntimeWarnings, then a
        # nan measurement error (exit 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", "--case", "ratiobox", "--n", n, "--r", r)
        assert code == EXIT_SCALE
        assert out == "" and err.startswith("scale refusal: r**n overflows")

    @pytest.mark.parametrize("argv", [
        ["bounds", "--n", "1"],
        ["bounds", "--alpha", "1", "--domain", "corner", "--lam", "0.5"],
    ], ids=["unit", "corner"])
    def test_degree_one_is_refused_by_degree(self, capsys, argv):
        # both ended in "sum of gamma must exceed 1", an internal quantity
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and "degree must be an integer >= 2, got 1" in err

    def test_ratio_constants_near_one(self, capsys):
        # both were formed by cancelling terms of size r - 1: D printed
        # 3.33510997e-13 and E 7.50177698e-13
        code, out, _ = run_cli(capsys, "bounds", "--n", "3", "--r", "1.000001", "--domain", "ratio")
        assert code == EXIT_OK
        assert " 3.3333363e-13  at on the diagonal\n" in out
        assert " 7.50000375e-13  at (1.0000005, 1.0000005, 1.0000005)\n" in out

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--domain", "warp"])
        assert exc.value.code == EXIT_USAGE


class TestVerify:
    def test_module_entry_runs_from_a_source_tree(self):
        # python -m monoenv needs no installed script, only the package on the path
        src = str(Path(monoenv.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "monoenv", "verify", "--case", "all"],
                              capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1].endswith("checks passed")

    def test_symbox_tight(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "symbox", "--n", "3")
        assert code == EXIT_OK
        assert "TIGHT" in out
        assert "1.03703704" in out

    def test_ratiobox_tight(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "ratiobox", "--n", "3", "--r", "2")
        assert code == EXIT_OK
        assert out.count("TIGHT") == 2

    def test_integrality_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "integrality", "--n", "4",
                               "--trials", "100", "--seed", "7")
        assert code == EXIT_OK
        assert "PASS" in out

    def test_integrality_fail(self, capsys, faulty_maximizer):
        code, out, _ = run_cli(capsys, "verify", "--case", "integrality", "--n", "3",
                               "--trials", "10")
        assert code == EXIT_VERIFY
        assert out.startswith("[VIOLATED] integrality n=3") and "0/1 checks passed" in out

    def test_scale_refusal(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--case", "integrality", "--n", "9")
        assert code == EXIT_SCALE
        assert "scale refusal" in err

    def test_sweeps(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "sweeps")
        assert code == EXIT_OK

    def test_figure1_asymptote_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "figure1")
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if "E/(r^n-1)" in ln]
        assert len(lines) == 4
        assert all(ln.startswith("[PASS]") for ln in lines)
        assert "vs 50-digit diagonal maximum" in out
        assert "bound=1e-12" in out

    def test_verification_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setitem(checks.CASES, "sweeps",
                            lambda: [checks.Check("forced", "VIOLATED", 1.0, 0.0)])
        code, out, _ = run_cli(capsys, "verify", "--case", "sweeps")
        assert code == EXIT_VERIFY
        assert "VIOLATED" in out

    @pytest.mark.parametrize("argv", [
        ["--case", "ratiobox", "--n", "3", "--r", "0"],
        ["--case", "ratiobox", "--n", "0"],
        ["--case", "cvxmulti", "--n", "0"],
        ["--case", "symbox", "--n", "0"],
        ["--case", "integrality", "--n", "0"],
        ["--case", "unitbox", "--grid", "0"],
        ["--case", "integrality", "--trials", "0"],
        ["--case", "integrality", "--trials", "-5"],
        ["--case", "all", "--trials", "0"],
        ["--case", "unitbox", "--tol", "nan"],
        ["--case", "unitbox", "--tol", "-1"],
        ["--case", "unitbox", "--tol", "inf"],
        ["--case", "unitbox", "--seed", "-1"],
        ["--case", "integrality", "--seed", "-1"],
        ["--case", "ratiobox", "--r", "inf"],
    ], ids=" ".join)
    def test_given_value_is_used_not_replaced(self, capsys, argv):
        # each of these once ran a default instead, or reported a vacuous verdict
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ")


    @pytest.mark.parametrize("argv", [
        ["--case", "sweeps", "--tol", "nan"],
        ["--case", "unitbox", "--n", "5"],
        ["--case", "all", "--alpha", "1,1"],
        ["--case", "all", "--n", "3"],
        ["--case", "all", "--r", "2"],
        ["--case", "integrality", "--grid", "8"],
        ["--case", "figure1", "--seed", "1"],
        ["--case", "unitbox", "--seed", "5"],
    ], ids=" ".join)
    def test_unread_flag_is_a_usage_error(self, capsys, argv):
        # each of these once ran as if the flag had not been given, and exited 0
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ") and argv[2] in err


class TestRegistry:
    def test_all_runs_every_case(self, capsys, monkeypatch):
        seen = []

        def stub(name):
            def run(grid, tol, seed):
                seen.append((name, tol, seed))
                return [checks.Check(name, "PASS", 0.0, 0.0)]
            return run

        for name in list(checks.CASES):
            monkeypatch.setitem(checks.CASES, name, stub(name))
        code, out, _ = run_cli(capsys, "verify", "--case", "all", "--tol", "0.5", "--seed", "3")
        assert code == EXIT_OK
        assert seen == [(name, 0.5, 3) for name in checks.CASES]
        assert out.splitlines()[-1] == f"{len(checks.CASES)}/{len(checks.CASES)} checks passed"

    def test_all_keeps_signature_defaults_and_caps_trials(self, capsys, monkeypatch):
        seen = []

        def run(seed=42, trials=1000):
            seen.append((seed, trials))
            return [checks.Check("stub", "PASS", 0.0, 0.0)]

        for name in list(checks.CASES):
            monkeypatch.setitem(checks.CASES, name, run)
        assert run_cli(capsys, "verify", "--case", "all")[0] == EXIT_OK
        assert run_cli(capsys, "verify", "--case", "all", "--trials", "50")[0] == EXIT_OK
        assert seen == [(42, 200)] * len(checks.CASES) + [(42, 50)] * len(checks.CASES)

    def test_all_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "all")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "21/21 checks passed"

    def test_every_criterion_runs_in_an_acceptance_test(self):
        source = (Path(__file__).parent / "test_acceptance.py").read_text()
        public = [name for name, fn in vars(checks).items()
                  if inspect.isfunction(fn) and fn.__module__ == checks.__name__
                  and not name.startswith("_")]
        assert sorted(public) == sorted(fn.__name__ for fn in checks.CASES.values())
        assert [name for name in public if f"checks.{name}(" not in source] == []


class TestFigure1:
    def test_header_and_content(self, capsys, tmp_path):
        out_file = tmp_path / "fig.csv"
        code, _, _ = run_cli(capsys, "figure1", "--n-max", "10", "--out", str(out_file))
        assert code == EXIT_OK
        lines = out_file.read_text().splitlines()
        assert lines[0] == "n,r,D,E,ratio,relaxed_ratio"
        assert len(lines) == 1 + 9 * 7
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "1.01"

    def test_n2_r2_ratio_is_one(self, capsys, tmp_path):
        out_file = tmp_path / "fig.csv"
        run_cli(capsys, "figure1", "--n-max", "2", "--r-list", "2", "--out", str(out_file))
        row = out_file.read_text().splitlines()[1].split(",")
        assert row == ["2", "2", "0.25", "0.25", "1", "1"]

    def test_all_ratios_at_most_one(self, capsys, tmp_path):
        out_file = tmp_path / "fig.csv"
        run_cli(capsys, "figure1", "--n-max", "40", "--out", str(out_file))
        for line in out_file.read_text().splitlines()[1:]:
            parts = line.split(",")
            assert float(parts[4]) <= 1.0 + 1e-12
            assert float(parts[5]) <= 1.0 + 1e-12

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "figure1", "--n-max", "20", "--out", str(a))
        run_cli(capsys, "figure1", "--n-max", "20", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_svg_emitted(self, capsys, tmp_path):
        svg = tmp_path / "fig.svg"
        run_cli(capsys, "figure1", "--n-max", "12", "--out", str(tmp_path / "f.csv"),
                "--svg", str(svg))
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text


    def test_ratio_next_to_one(self, capsys):
        # D/E came from log(e^a - e^b) with a and b rounding equal: "math domain error"
        code, out, _ = run_cli(capsys, "figure1", "--n-max", "3", "--r-list", "1.0000000000001")
        assert code == EXIT_OK
        assert out.splitlines()[1].split(",")[4] == "1"

    @pytest.mark.parametrize("svg", [False, True], ids=["csv", "svg"])
    def test_empty_range_is_usage_error(self, capsys, tmp_path, svg):
        # it once printed only the header, or failed inside the SVG writer
        extra = ["--svg", str(tmp_path / "f.svg")] if svg else []
        code, out, err = run_cli(capsys, "figure1", "--n-min", "5", "--n-max", "3", *extra)
        assert code == EXIT_USAGE
        assert out == "" and "--n-min 5 exceeds --n-max 3" in err
        assert not (tmp_path / "f.svg").exists()


class TestFacets:
    def test_text_count(self, capsys):
        code, out, _ = run_cli(capsys, "facets", "--n", "2")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 4

    def test_csv_count(self, capsys):
        code, out, _ = run_cli(capsys, "facets", "--n", "3", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "mask,sense,rhs"
        assert len(lines) == 1 + 8

    def test_round_trip_membership(self, capsys, tmp_path):
        from monoenv import hulls
        out_file = tmp_path / "facets.txt"
        run_cli(capsys, "facets", "--n", "3", "--out", str(out_file))
        back = hulls.parse_facets_text(out_file.read_text())
        fs = hulls.build_symbox_hull(3)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-1.1, 1.1, 3)
            w = rng.uniform(-1.1, 1.1)
            assert (hulls.hull_membership(fs, x, w).member
                    == hulls.hull_membership(back, x, w).member)

    def test_scale_refusal(self, capsys):
        code, _, err = run_cli(capsys, "facets", "--n", "24")
        assert code == EXIT_SCALE


class TestGap:
    def test_bounds_output(self, capsys, tmp_path):
        poly = tmp_path / "p.txt"
        poly.write_text("2 1 1 0\n-3 1 1 1\n")
        code, out, _ = run_cli(capsys, "gap", "--poly", str(poly))
        assert code == EXIT_OK
        assert "lprime" in out and "1.15470054" in out
        assert "hierarchy threshold" in out

    def test_huge_exponent_returns_at_once(self, capsys, tmp_path):
        # the hierarchy threshold summed one log1p per unit of degree: this hung
        poly = tmp_path / "p.json"
        poly.write_text(json.dumps({"n": 1, "terms": [{"coeff": 1.0, "alpha": [10 ** 9]}]}))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "gap", "--poly", str(poly))
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK
        assert "delta-hat(n=1, m=1000000000) 0\n" in out

    @pytest.mark.parametrize("name", ["deg-400-digits.txt", "neg-deg-400-digits.txt"])
    def test_degree_beyond_float_range_is_a_scale_refusal(self, capsys, tmp_path, name):
        # c2 (positive coefficient) and c1 (negative) raised OverflowError on
        # the degree; they are finite now, and the count C(n+m, n) is refused
        poly = tmp_path / name
        poly.write_text(POLY_FILES[name])
        code, out, err = run_cli(capsys, "gap", "--poly", str(poly))
        assert code == EXIT_SCALE
        assert out == "" and "scale refusal: the monomial count" in err

    def test_certify_pass(self, capsys, tmp_path):
        poly = tmp_path / "p.txt"
        poly.write_text("1 1 1 0\n-1 0 1 1\n1 1 0 1\n")
        code, out, _ = run_cli(capsys, "gap", "--poly", str(poly), "--certify")
        assert code == EXIT_OK
        assert "PASS" in out

    def test_certify_fail(self, capsys, tmp_path, monkeypatch):
        # a tight bound below the measured gap fails the certificate
        gap_bound = polyrelax.gap_bound
        monkeypatch.setattr(polyrelax, "gap_bound",
                            lambda p: dataclasses.replace(gap_bound(p), tight=-1.0))
        poly = tmp_path / "p.txt"
        poly.write_text("1 1 1 0\n-1 0 1 1\n1 1 0 1\n")
        code, out, _ = run_cli(capsys, "gap", "--poly", str(poly), "--certify")
        assert code == EXIT_VERIFY
        assert "<= tight -1: FAIL" in out

    def test_json_input(self, capsys, tmp_path):
        poly = tmp_path / "p.json"
        poly.write_text(json.dumps(
            {"n": 2, "terms": [{"coeff": 1.0, "alpha": [1, 1]}]}))
        code, out, _ = run_cli(capsys, "gap", "--poly", str(poly))
        assert code == EXIT_OK
        assert "tight bound" in out

    def test_nan_coefficient_is_usage_error(self, capsys, tmp_path):
        poly = tmp_path / "p.txt"
        poly.write_text("nan 1 1\n1 2 0\n")
        code, out, err = run_cli(capsys, "gap", "--poly", str(poly))
        assert code == EXIT_USAGE
        assert out == "" and "non-finite coefficient" in err

    @pytest.mark.parametrize("name", ["alpha-1.5.json", "n-2.9.json", "alpha-1e400.json"])
    def test_non_integer_json_is_usage_error(self, capsys, tmp_path, name):
        # these certified x1*x2 and exited 0, read n = 2, and ended in an
        # OverflowError traceback
        poly = tmp_path / name
        poly.write_text(POLY_FILES[name])
        code, out, err = run_cli(capsys, "gap", "--poly", str(poly), "--certify")
        assert code == EXIT_USAGE
        assert out == "" and "must be an integer >= " in err

    def test_json_without_terms_is_usage_error(self, capsys, tmp_path):
        poly = tmp_path / "p.json"
        poly.write_text(json.dumps({"n": 2}))
        code, _, err = run_cli(capsys, "gap", "--poly", str(poly))
        assert code == EXIT_USAGE
        assert "'terms'" in err


class TestSigmaRoot:
    def test_sigma_exact_output(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--alpha", "1,2,3",
                               "--beta", "1,2,3", "--domain", "comp")
        assert code == EXIT_OK
        assert "sigma exact" in out
        assert "sigma numeric" in out

    @pytest.mark.filterwarnings("error")
    def test_slope_sum_beyond_floats_is_a_scale_refusal(self, capsys):
        # it printed two numpy RuntimeWarnings from the refinement's
        # weighted centering before its exit 3
        code, out, err = run_cli(capsys, "sigma", "--alpha", "1,1", "--beta", "1e308,1e308")
        assert code == EXIT_SCALE
        assert out == "" and "the sum of beta" in err

    def test_no_default_grid_names_the_grid_flag(self, capsys):
        # it told a command-line user to supply a GridSpec
        code, out, err = run_cli(capsys, "sigma", "--alpha", "1,1,1,1,1,1,1",
                                 "--domain", "simplex")
        assert code == EXIT_SCALE
        assert out == "" and "no default grid for n=7" in err and "--grid" in err

    def test_large_slopes_keep_the_numeric_intercept(self, capsys):
        # it printed "sigma numeric   0": sum(beta) cancelled the minimum
        code, out, _ = run_cli(capsys, "sigma", "--alpha", "1,1", "--beta", "1e300,1e300")
        assert code == EXIT_OK
        assert "sigma exact     1\n" in out and "sigma numeric   1\n" in out

    def test_root_output(self, capsys):
        code, out, _ = run_cli(capsys, "root", "--lambda1", "6", "--lambda2", "3")
        assert code == EXIT_OK
        assert "root=" in out and "lower_bound=" in out

    def test_no_root_output(self, capsys):
        code, out, _ = run_cli(capsys, "root", "--lambda1", "3", "--lambda2", "3")
        assert code == EXIT_OK
        assert "no root" in out


    def test_zero_polynomial_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "root", "--lambda1", "1", "--lambda2", "1")
        assert code == EXIT_USAGE
        assert "no root" not in out and "zero polynomial" in err

    def test_infinite_lambda2_is_usage_error(self, capsys):
        # it once printed "no root" with an infinite certificate and exited 0
        code, out, err = run_cli(capsys, "root", "--lambda1", "3", "--lambda2", "inf")
        assert code == EXIT_USAGE
        assert out == "" and "lam2 must be finite" in err

@pytest.mark.parametrize("argv, flag", [
    (["bounds", "--n", "2", "--domain", "sym", "--grid", "8"], "grid"),
    (["verify", "--case", "sweeps", "--seed", "3"], "seed"),
    (["figure1", "--n-max", "3", "--tol", "0.1"], "tol"),
    (["facets", "--n", "2", "--tol", "nan", "--seed", "3", "--grid", "0"], "seed"),
    (["gap", "--poly", "{poly}", "--certify", "--grid", "8"], "grid"),
    (["sigma", "--alpha", "1,2", "--tol", "0.1"], "tol"),
    (["sigma", "--alpha", "1,2", "--seed", "2"], "seed"),
    (["root", "--lambda1", "6", "--lambda2", "3", "--tol", "nan", "--grid", "0"], "grid"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_unread_shared_flag_is_a_usage_error(capsys, tmp_path, argv, flag):
    # apart from verify, each of these printed its usual output and exited 0.
    # verify refuses a flag its case does not read; argparse ends the rest,
    # whose parsers do not offer the flag
    poly = tmp_path / "p.txt"
    poly.write_text("1 1 1 0\n-1 0 1 1\n")
    argv = [str(poly) if a == "{poly}" else a for a in argv]
    if argv[0] == "verify":
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ") and f"does not read --{flag}" in err
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE and out == ""
    assert f"--{flag}" in err.split("unrecognized arguments: ", 1)[1].split()


def test_sigma_reads_grid(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--alpha", "1,2", "--grid", "4")
    assert code == EXIT_OK and "sigma numeric" in out


# the options each subcommand offers: a flag is offered only where it is read
OFFERED = {
    "bounds": {"--alpha", "--n", "--domain", "--r", "--lower", "--upper", "--lam", "--out"},
    "verify": {"--case", "--alpha", "--n", "--r", "--trials", "--seed", "--grid", "--tol",
               "--out"},
    "figure1": {"--n-min", "--n-max", "--r-list", "--svg", "--out"},
    "facets": {"--n", "--format", "--out"},
    "gap": {"--poly", "--certify", "--out"},
    "sigma": {"--alpha", "--beta", "--domain", "--lower", "--upper", "--lam", "--grid", "--out"},
    "root": {"--lambda1", "--lambda2", "--out"},
}


def test_each_subcommand_offers_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    offered = {name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
               for name, sp in sub.choices.items()}
    assert offered == OFFERED


# the domain flags each --domain reads, and a valid value for every flag
DOMAIN_READS = {"unit": (), "sub": ("lower", "upper"), "ratio": ("r",), "sym": (),
                "simplex": (), "corner": ("lam",), "comp": ()}
FLAG_VALUES = {"r": "2", "lower": "0,0", "upper": "1,1", "lam": "0.5,0.5"}
SIGMA_DOMAINS = ("unit", "sub", "simplex", "corner", "comp")


def _domain_argv(command, domain, extra=()):
    argv = [command, "--alpha", "1,1", "--domain", domain]
    for flag in DOMAIN_READS[domain] + tuple(extra):
        argv += [f"--{flag}", FLAG_VALUES[flag]]
    return argv


@pytest.mark.parametrize("argv", [
    ["sigma", "--alpha", "1,2", "--r", "2", "--lower", "0,0", "--lam", "0.5,0.5"],
    ["bounds", "--n", "2", "--domain", "sym", "--r", "3", "--lam", "0.2,0.3"],
], ids=lambda v: v[0])
def test_unread_domain_flag_commands_exit_1(capsys, argv):
    # both printed their usual output and exited 0 while the flags were ignored;
    # sigma now has no --r, so argparse ends it
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_USAGE and capsys.readouterr().out == ""


@pytest.mark.parametrize("command, domain, flag", [
    (command, domain, flag)
    for command, domains in (("bounds", DOMAIN_READS), ("sigma", SIGMA_DOMAINS))
    for domain in domains for flag in FLAG_VALUES
    if flag not in DOMAIN_READS[domain] and not (command == "sigma" and flag == "r")
])
def test_unread_domain_flag_is_a_usage_error(capsys, command, domain, flag):
    code, out, err = run_cli(capsys, *_domain_argv(command, domain, [flag]))
    assert code == EXIT_USAGE
    assert out == "" and err == f"error: --domain {domain} does not read --{flag}\n"


@pytest.mark.parametrize("domain", SIGMA_DOMAINS)
def test_sigma_takes_no_ratio_flag(capsys, domain):
    with pytest.raises(SystemExit) as exc:
        main(_domain_argv("sigma", domain, ["r"]))
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --r" in capsys.readouterr().err


@pytest.mark.parametrize("command, domain", [("bounds", d) for d in DOMAIN_READS]
                         + [("sigma", d) for d in SIGMA_DOMAINS])
def test_each_domain_runs_on_the_flags_it_reads(capsys, command, domain):
    code, out, _ = run_cli(capsys, *_domain_argv(command, domain), *(
        ["--grid", "4"] if command == "sigma" else []))
    assert code == EXIT_OK and f"domain={domain}" in out


BIG = "1" + "0" * 400  # an integer beyond the float range


@pytest.mark.parametrize("domain", ["unit", "sub", "simplex", "corner", "comp"])
def test_exponent_beyond_the_float_range_is_a_scale_refusal(capsys, domain):
    # each ended in an OverflowError traceback; these rows need the exponent
    # as a float (gamma = alpha where the domain reaches x_i = 1, or alpha**alpha)
    argv = ["bounds", "--alpha", BIG + ",1", "--domain", domain]
    for flag in DOMAIN_READS[domain]:
        argv += [f"--{flag}", FLAG_VALUES[flag]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_SCALE, "") and err.startswith("scale refusal: ")


@pytest.mark.parametrize("alpha", ["2,1", "3,1", BIG + ",1"])
@pytest.mark.parametrize("domain", ["ratio", "sym"])
def test_multilinear_only_domains_refuse_other_exponents(capsys, domain, alpha):
    # both printed the constants of x1 x2 whatever --alpha said (the 400-digit
    # one ended in an OverflowError traceback)
    argv = ["bounds", "--alpha", alpha, "--domain", domain]
    for flag in DOMAIN_READS[domain]:
        argv += [f"--{flag}", FLAG_VALUES[flag]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"error: --domain {domain} has bounds for x_1...x_n only: "
                   "give --n, or an --alpha of ones\n")


def test_root_for_lambda1_beyond_the_float_range(capsys):
    # (lam2/lam1)**(1/(lam1-1)) ended in an OverflowError traceback; the
    # root is 1/lam2 once (1-s)**lam1 vanishes
    code, out, _ = run_cli(capsys, "root", "--lambda1", BIG, "--lambda2", "1.5")
    assert code == EXIT_OK
    assert out == f"root={1 / 1.5!r} residual=0 lower_bound=0\n"


def test_root_below_float_resolution_is_a_scale_refusal(capsys):
    # 1 - s rounds to 1 near this root: it printed root=6.93e-21 with
    # residual=0.34657359 and exited 0
    code, out, err = run_cli(capsys, "root", "--lambda1", "100000000000000000000",
                             "--lambda2", "5e19")
    assert (code, out) == (EXIT_SCALE, "")
    assert err.startswith("scale refusal:")


@pytest.mark.parametrize("domain", [d for d, reads in DOMAIN_READS.items() if reads])
def test_missing_domain_flag_is_a_usage_error(capsys, domain):
    code, out, err = run_cli(capsys, "bounds", "--alpha", "1,1", "--domain", domain)
    reads = " and ".join(f"--{f}" for f in DOMAIN_READS[domain])
    assert code == EXIT_USAGE and err == f"error: --domain {domain} needs {reads}\n"


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


class TestAdditionalSurfaces:
    def test_bounds_subbox_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--alpha", "2,1", "--domain", "sub",
                               "--lower", "0,0", "--upper", "0.5,1")
        assert code == EXIT_OK
        assert "gamma bound" in out
        assert "1.5" in out  # gamma_1 = (1 - 0.25)/0.5
        assert "concave bound at domain range" in out

    @pytest.mark.parametrize("a, row", [("7060", "0.899984987 at (0.899984987, 0.899984987)"),
                                        ("100000", "0.89999894 at (0.89999894, 0.89999894)"),
                                        (str(10 ** 18), "0.9 at (0.9, 0.9)")])
    def test_bounds_subbox_concave_row_past_an_underflowing_corner(self, capsys, a, row):
        # 0.9**a * 0.8 is subnormal at a = 7060 and 0 from about 7090 on; the
        # row read from it printed 0.900025961, then 0 at (0, 0)
        code, out, _ = run_cli(capsys, "bounds", "--alpha", f"{a},1", "--domain", "sub",
                               "--lower", "0.5,0.5", "--upper", "0.9,0.8")
        assert code == EXIT_OK
        rows = [" ".join(line.split()) for line in out.splitlines()]
        assert f"concave bound at domain range {row}" in rows

    def test_bounds_corner_simplex(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--alpha", "2,1", "--domain", "corner",
                               "--lam", "0.5,1")
        assert code == EXIT_OK
        assert "gamma bound" in out

    def test_sigma_interval_path(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--alpha", "2,1",
                               "--beta", "1,1", "--domain", "unit")
        assert code == EXIT_OK
        assert "sigma interval" in out
        assert "[0, 1]" in out

    def test_verify_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--case", "ratiobox", "--n", "2", "--r", "2")
        _, out2, _ = run_cli(capsys, "verify", "--case", "ratiobox", "--n", "2", "--r", "2")
        assert out1 == out2

    def test_out_file_option(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(capsys, "verify", "--case", "sweeps", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert "inequality sweeps" in target.read_text()

    def test_grid_override(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "unitbox",
                               "--alpha", "1,1", "--grid", "16")
        assert code == EXIT_OK
        assert "TIGHT" in out


# ---------------------------------------------------------------------------
# fuzzed argv: every subcommand ends at an exit code, never a traceback
# ---------------------------------------------------------------------------

POLY_FILES = {
    "p.txt": "1 1 1 0\n-1 0 1 1\n",
    "p.json": json.dumps({"n": 2, "terms": [{"coeff": 1.0, "alpha": [1, 1]}]}),
    "const.json": json.dumps({"n": 0, "terms": [{"coeff": 2.0, "alpha": []}]}),
    "alpha-1.5.json": '{"n": 2, "terms": [{"coeff": 1.0, "alpha": [1.5, 1]}]}',
    "n-2.9.json": '{"n": 2.9, "terms": [{"coeff": 1.0, "alpha": [1, 1]}]}',
    "alpha-1e400.json": '{"n": 1, "terms": [{"coeff": 1.0, "alpha": [1e400]}]}',
    "deg-400-digits.txt": "1.0 " + "9" * 400 + "\n",
    "neg-deg-400-digits.txt": "-1.0 " + "9" * 400 + "\n",
}
BAD = ("0", "-1", "2.5", "nan", "inf", "x", "")


def _values(*valid):
    return st.sampled_from(valid + BAD)


# each subcommand's flags and the values drawn for them ({tmp} is the test's
# directory); a flag without a value takes None
_COMMON = {"--seed": _values("3"), "--grid": _values("4", "8"), "--tol": _values("0.001"),
           "--out": st.sampled_from(("{tmp}/out.txt", "{tmp}/no-dir/out.txt"))}
_DOMAIN = {"--domain": st.sampled_from((*DOMAIN_READS, "warp")), "--lower": _values("0.1,0.2"),
           "--upper": _values("0.9,0.8"), "--lam": _values("0.5,0.5")}
FUZZ_FLAGS = {
    "bounds": {"--alpha": _values("1,1", "2,3", "200,200", BIG + ",1"), "--n": _values("3"),
               "--r": _values("2", "1.0000000000001"), **_DOMAIN},
    "verify": {"--case": st.sampled_from(list(checks.CASES)),
               "--alpha": _values("1,1", "2,1", "75,75"), "--n": _values("2", "3"),
               "--r": _values("2", "1e103"), "--trials": _values("5")},
    "figure1": {"--n-min": _values("2"), "--n-max": _values("5"),
                "--r-list": _values("1.5,2", "1.0000000000001"),
                "--svg": st.just("{tmp}/f.svg")},
    "facets": {"--n": st.sampled_from(("1", "2", "12", "21", *BAD)),
               "--format": st.sampled_from(("text", "csv", "xml"))},
    "gap": {"--poly": st.sampled_from([f"{{tmp}}/{name}" for name in (*POLY_FILES, "none.json")]),
            "--certify": st.none()},
    "sigma": {"--alpha": _values("1,1", "2,3"), "--beta": _values("1.5,1.5"), **_DOMAIN},
    "root": {"--lambda1": _values("3", BIG), "--lambda2": _values("1.5", "4")},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = {**FUZZ_FLAGS[command], **_COMMON}
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=5)):
        value = draw(flags[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
@example(["bounds", "--alpha", "200,200", "--domain", "simplex"])
@example(["verify", "--case", "simplex", "--alpha", "75,75"])
@example(["gap", "--poly", "{tmp}/alpha-1e400.json"])
@example(["gap", "--poly", "{tmp}/deg-400-digits.txt"])
@example(["figure1", "--n-max", "3", "--r-list", "1.0000000000001"])
@example(["bounds", "--alpha", BIG + ",1", "--domain", "unit"])
@example(["root", "--lambda1", BIG, "--lambda2", "1.5"])
def test_fuzzed_argv_ends_at_an_exit_code(capsys, tmp_path, argv):
    for name, text in POLY_FILES.items():
        (tmp_path / name).write_text(text)
    try:
        code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    capsys.readouterr()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY, EXIT_SCALE)
