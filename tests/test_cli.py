import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from monoenv import checks
from monoenv.cli import EXIT_OK, EXIT_SCALE, EXIT_USAGE, EXIT_VERIFY, main


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

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--domain", "warp"])
        assert exc.value.code == EXIT_USAGE


class TestVerify:
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
    ], ids=" ".join)
    def test_unread_flag_is_a_usage_error(self, capsys, argv):
        # each of these once ran as if the flag had not been given, and exited 0
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ") and argv[2] in err

    def test_seed_feeds_the_grid_restarts(self, capsys, monkeypatch):
        seen = []

        def stub(grid, tol=None):
            seen.append(grid.seed)
            return [checks.Check("stub", "PASS", 0.0, 0.0)]

        monkeypatch.setitem(checks.CASES, "unitbox", stub)
        assert run_cli(capsys, "verify", "--case", "unitbox", "--seed", "5")[0] == EXIT_OK
        assert run_cli(capsys, "verify", "--case", "unitbox")[0] == EXIT_OK
        assert seen == [5, 42]


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

    def test_certify_pass(self, capsys, tmp_path):
        poly = tmp_path / "p.txt"
        poly.write_text("1 1 1 0\n-1 0 1 1\n1 1 0 1\n")
        code, out, _ = run_cli(capsys, "gap", "--poly", str(poly), "--certify")
        assert code == EXIT_OK
        assert "PASS" in out

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

@pytest.mark.parametrize("argv, flag", [
    (["bounds", "--n", "2", "--domain", "sym", "--grid", "8"], "grid"),
    (["verify", "--case", "sweeps", "--seed", "3"], "seed"),
    (["figure1", "--n-max", "3", "--tol", "0.1"], "tol"),
    (["facets", "--n", "2", "--tol", "nan", "--seed", "3", "--grid", "0"], "seed"),
    (["gap", "--poly", "{poly}", "--certify", "--grid", "8"], "grid"),
    (["sigma", "--alpha", "1,2", "--tol", "0.1"], "tol"),
    (["root", "--lambda1", "6", "--lambda2", "3", "--tol", "nan", "--grid", "0"], "grid"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_unread_shared_flag_is_a_usage_error(capsys, tmp_path, argv, flag):
    # apart from verify, each of these printed its usual output and exited 0
    poly = tmp_path / "p.txt"
    poly.write_text("1 1 1 0\n-1 0 1 1\n")
    argv = [str(poly) if a == "{poly}" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ") and f"does not read --{flag}" in err


def test_sigma_reads_grid_and_seed(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--alpha", "1,2", "--grid", "4", "--seed", "2")
    assert code == EXIT_OK and "sigma numeric" in out


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
