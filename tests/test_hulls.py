import dataclasses

import numpy as np
import pytest

from monoenv import DimensionMismatch, Monomial, OutsideDomain, ScaleExceeded, eval_monomial
from monoenv import bounds, envelopes
from monoenv.hulls import (
    FacetSystem,
    SignedSubsetInequality,
    build_symbox_hull,
    constructive_maximizer,
    export_facets_csv,
    export_facets_text,
    hull_membership,
    parse_facets_csv,
    parse_facets_text,
    verify_integrality,
)


class TestBuild:
    def test_counts(self):
        assert len(build_symbox_hull(2).facets) == 4
        assert len(build_symbox_hull(3).facets) == 8
        for n in range(1, 8):
            assert len(build_symbox_hull(n).facets) == 2 ** n

    def test_subsets_are_odd(self):
        for f in build_symbox_hull(4).facets:
            assert len(f.subset()) % 2 == 1

    def test_two_dimensional_subsets(self):
        subs = {f.subset() for f in build_symbox_hull(2).facets}
        assert subs == {(1,), (2,), (3,), (1, 2, 3)}

    def test_scale_guard(self):
        with pytest.raises(ScaleExceeded):
            build_symbox_hull(21)

    def test_facets_follow_from_n(self):
        assert [f.name for f in dataclasses.fields(FacetSystem)] == ["n"]
        assert [f.name for f in dataclasses.fields(SignedSubsetInequality)] == ["mask", "n"]
        for n in range(1, 7):
            fs = FacetSystem(n)
            assert fs == build_symbox_hull(n) and hash(fs) == hash(build_symbox_hull(n))
            assert [f.mask for f in fs.facets] == [
                m for m in range(1, 2 ** (n + 1)) if bin(m).count("1") % 2 == 1]
            assert {f.sense for f in fs.facets} == {"GE"}
        assert FacetSystem(2) != FacetSystem(3)

    def test_no_partial_system(self):
        # a one-facet FacetSystem(2, facets[:1]) once called w = 0.9 at
        # x = (0.5, -0.5) a member, above its own upper envelope 0.0
        with pytest.raises(TypeError):
            FacetSystem(2, build_symbox_hull(2).facets[:1])
        fs = FacetSystem(2)
        assert fs.envelope_bounds([0.5, -0.5]) == (-1.0, 0.0)
        assert not hull_membership(fs, [0.5, -0.5], 0.9).member

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_a_positive_dimension(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            FacetSystem(n)


class TestMembership:
    def test_parity_vertex_examples(self):
        fs = build_symbox_hull(2)
        assert hull_membership(fs, [1.0, 1.0], 1.0).member
        res = hull_membership(fs, [1.0, 1.0], -1.0)
        assert not res.member
        assert [f.subset() for f in res.violated] == [(3,)]

    def test_attainment_point_is_member(self):
        fs = build_symbox_hull(3)
        res = hull_membership(fs, [1 / 3, 1 / 3, 1 / 3], -1.0)
        assert res.member

    def test_center_is_member(self):
        assert hull_membership(build_symbox_hull(2), [0.0, 0.0], 0.0).member

    def test_box_violation_reported(self):
        res = hull_membership(build_symbox_hull(2), [1.5, 0.0], 0.0)
        assert not res.member
        assert res.box_violations == (1,)

    def test_pm_one_membership_iff_even_minus_count(self):
        for n in (2, 3, 4):
            fs = build_symbox_hull(n)
            for mask in range(2 ** (n + 1)):
                z = np.array([-1.0 if (mask >> i) & 1 else 1.0 for i in range(n + 1)])
                member = hull_membership(fs, z[:-1], z[-1]).member
                assert member == (bin(mask).count("1") % 2 == 0)

    def test_graph_points_are_members(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            fs = build_symbox_hull(n)
            m = Monomial.multilinear(n)
            for x in rng.uniform(-1.0, 1.0, (200, n)):
                assert hull_membership(fs, x, eval_monomial(m, x)).member

    def test_violated_matches_per_facet_sums(self):
        # one facet at a time: sum over the subset minus the rest >= -(n-1)
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            fs = build_symbox_hull(n)
            for _ in range(200):
                z = rng.uniform(-1.2, 1.2, n + 1)
                want = [f for f in fs.facets
                        if sum(z[i - 1] for i in f.subset())
                        - sum(z[i] for i in range(n + 1) if i + 1 not in f.subset())
                        < -(n - 1) - 1e-9]
                assert list(hull_membership(fs, z[:-1], z[-1]).violated) == want

    def test_reflection_equivalence(self):
        rng = np.random.default_rng(1)
        n = 3
        fs = build_symbox_hull(n)
        m = Monomial.multilinear(n)
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, n)
            lo, hi = fs.envelope_bounds(x)
            w = lo + (hi - lo) * rng.random()
            assert hull_membership(fs, x, w).member
            s = rng.choice([-1.0, 1.0], n)
            x2 = s * x
            w2 = w * float(np.prod(s))
            assert hull_membership(fs, x2, w2).member
            err1 = abs(w - eval_monomial(m, x))
            err2 = abs(w2 - eval_monomial(m, x2))
            assert err1 == pytest.approx(err2, abs=1e-12)

    def test_several_points_rejected(self):
        # only the first row used to be checked: [5, 5] passed as a member
        with pytest.raises(DimensionMismatch):
            hull_membership(build_symbox_hull(2), [[0.0, 0.0], [5.0, 5.0]], 0.0)
        assert hull_membership(build_symbox_hull(2), [[0.0, 0.0]], 0.0).member

    @pytest.mark.parametrize("x, w", [([0.0, 0.0], float("nan")),
                                      ([0.0, 0.0], float("inf")),
                                      ([float("nan"), 0.0], 0.0),
                                      ([0.0, -float("inf")], 0.0)])
    def test_non_finite_point_rejected(self, x, w):
        # used to report a non-member violating every facet
        with pytest.raises(ValueError, match="finite"):
            hull_membership(build_symbox_hull(2), x, w)

    def test_envelope_bounds_match_closed_form(self):
        # reference from the facet rows A [x; w] <= b: rows with a negative w
        # coefficient (w in the subset) bound w from below, the rest from above
        rng = np.random.default_rng(2)
        for n in (2, 3, 5, 7):
            fs = build_symbox_hull(n)
            A, b = fs.to_ub()
            below = A[:, n] < 0
            X = rng.uniform(-1.0, 1.0, (200, n))
            bound = (b - X @ A[:, :n].T) / A[:, n]
            lo_ref = np.maximum(bound[:, below].max(axis=1), -1.0)
            hi_ref = np.minimum(bound[:, ~below].min(axis=1), 1.0)
            for lo, hi in (fs.envelope_bounds(X), envelopes.envelopes_symbox(n, X)):
                assert np.max(np.abs(lo - lo_ref)) <= 1e-12
                assert np.max(np.abs(hi - hi_ref)) <= 1e-12

    def test_max_member_error_equals_bound(self):
        rng = np.random.default_rng(3)
        n = 3
        fs = build_symbox_hull(n)
        m = Monomial.multilinear(n)
        X = rng.uniform(-1.0, 1.0, (2000, n))
        lo, hi = fs.envelope_bounds(X)
        f = eval_monomial(m, X)
        worst = float(np.max(np.maximum(f - lo, hi - f)))
        assert worst <= bounds.symbox_error(n) + 1e-12

    @pytest.mark.parametrize("name", ["envelope_bounds", "envelope_lower", "envelope_upper"])
    @pytest.mark.parametrize("x", [[5.0, 5.0], [float("nan"), 0.5]], ids=["outside", "nan"])
    def test_envelope_bounds_check_their_points(self, name, x):
        # [5, 5] once gave (9.0, 1.0) and [nan, 0.5] gave (nan, nan)
        env = getattr(build_symbox_hull(2), name)
        with pytest.raises(OutsideDomain):
            env(x)
        with pytest.raises(OutsideDomain):
            env([[0.0, 0.0], x])

    def test_envelope_sides_are_the_pair(self):
        fs = build_symbox_hull(3)
        X = np.random.default_rng(4).uniform(-1.0, 1.0, (50, 3))
        lo, hi = fs.envelope_bounds(X)
        assert np.array_equal(fs.envelope_lower(X), lo)
        assert np.array_equal(fs.envelope_upper(X), hi)
        assert (fs.envelope_lower(X[0]), fs.envelope_upper(X[0])) == fs.envelope_bounds(X[0])


class TestConstructive:
    def test_all_ones(self):
        for n in (2, 3, 4):
            z, v = constructive_maximizer(np.ones(n + 1))
            assert v == pytest.approx(n + 1)
            assert np.all(z == 1.0)

    def test_single_negative(self):
        for n in (2, 3, 4):
            c = np.ones(n + 1)
            c[0] = -1.0
            z, v = constructive_maximizer(c)
            assert v == pytest.approx(n + 1 - 2)
            assert int((z < 0).sum()) % 2 == 0

    def test_zero_coordinate_absorbs_parity(self):
        c = np.array([-2.0, 0.0, 1.0])
        z, v = constructive_maximizer(c)
        assert v == pytest.approx(3.0)
        assert int((z < 0).sum()) % 2 == 0


class TestIntegrality:
    @pytest.mark.parametrize("n", [2, 3])
    def test_small_dimensions(self, n):
        rep = verify_integrality(n, trials=200, seed=123)
        assert rep.passed
        assert rep.max_value_gap <= 1e-9

    def test_scale_guard(self):
        with pytest.raises(ScaleExceeded):
            verify_integrality(7, trials=1)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_rejects_no_trials(self, trials):
        # zero trials would compare nothing and report a pass
        with pytest.raises(ValueError, match="trials"):
            verify_integrality(3, trials=trials)

    def test_a_faulty_maximizer_fails(self, faulty_maximizer):
        # a wrong value counts a failure per trial; an odd parity point clears
        # constructive_all_pm1_even
        rep = verify_integrality(3, trials=20)
        assert not rep.passed
        if faulty_maximizer == "value":
            assert rep.failures == 20 and rep.constructive_all_pm1_even
        else:
            assert rep.failures == 0 and not rep.constructive_all_pm1_even

    def test_deterministic(self):
        a = verify_integrality(2, trials=50, seed=5)
        b = verify_integrality(2, trials=50, seed=5)
        assert a == b


class TestExport:
    def test_text_round_trip(self):
        fs = build_symbox_hull(3)
        text = export_facets_text(fs)
        assert text.splitlines()[0] == "# symbox-hull n=3 facets=8"
        back = parse_facets_text(text)
        assert back == fs

    def test_csv_round_trip(self):
        fs = build_symbox_hull(2)
        csv_text = export_facets_csv(fs)
        assert csv_text.splitlines()[0] == "mask,sense,rhs"
        back = parse_facets_csv(csv_text)
        assert back == fs

    def test_round_trip_membership_agreement(self):
        rng = np.random.default_rng(4)
        fs = build_symbox_hull(3)
        back = parse_facets_text(export_facets_text(fs))
        for _ in range(100):
            x = rng.uniform(-1.2, 1.2, 3)
            w = rng.uniform(-1.2, 1.2)
            assert hull_membership(fs, x, w).member == hull_membership(back, x, w).member

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_round_trip_up_to_n8(self, fmt, n):
        export = {"text": export_facets_text, "csv": export_facets_csv}[fmt]
        fs = FacetSystem(n)
        out = export(fs)
        back = _PARSERS[fmt](out)
        assert back == fs
        # equality reads only n, so the bytes carry the facet check
        assert export(back) == out

    def test_facet_line_format(self):
        fs = build_symbox_hull(2)
        lines = export_facets_text(fs).splitlines()
        assert lines[1] == "I={1} sense=GE rhs=-1"
        assert lines[4] == "I={1,2,3} sense=GE rhs=-1"


_FULL_N2 = [(1, "GE", -1), (2, "GE", -1), (4, "GE", -1), (7, "GE", -1)]


def _facet_inputs(n, rows):
    """The same (mask, sense, rhs) rows written in the text and the CSV format."""
    text = [f"# symbox-hull n={n} facets={len(rows)}"]
    for mask, sense, rhs in rows:
        idx = ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)
        text.append(f"I={{{idx}}} sense={sense} rhs={rhs}")
    csv = ["mask,sense,rhs"] + [f"{m},{s},{r}" for m, s, r in rows]
    return {"text": "\n".join(text) + "\n", "csv": "\n".join(csv) + "\n"}


_PARSERS = {"text": parse_facets_text, "csv": parse_facets_csv}


class TestParseFullHullOnly:
    """The parsers accept exactly the 2^n odd-subset GE facets with rhs -(n-1)."""

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_shuffled_full_set_accepted(self, fmt):
        rows = [_FULL_N2[i] for i in (3, 1, 0, 2)]
        assert _PARSERS[fmt](_facet_inputs(2, rows)[fmt]) == build_symbox_hull(2)

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("text", ["", "  \n\n"])
    def test_empty_input(self, fmt, text):
        with pytest.raises(ValueError, match="empty"):
            _PARSERS[fmt](text)

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_even_parity_mask(self, fmt):
        rows = _FULL_N2[:3] + [(3, "GE", -1)]
        with pytest.raises(ValueError, match="mask 3 is not an odd subset"):
            _PARSERS[fmt](_facet_inputs(2, rows)[fmt])

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_out_of_range_mask(self, fmt):
        rows = _FULL_N2[:3] + [(64, "GE", -1)]
        with pytest.raises(ValueError):
            _PARSERS[fmt](_facet_inputs(2, rows)[fmt])

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_unknown_sense(self, fmt):
        rows = _FULL_N2[:2] + [(4, "LE", -1)] + _FULL_N2[3:]
        with pytest.raises(ValueError, match="sense 'LE'"):
            _PARSERS[fmt](_facet_inputs(2, rows)[fmt])

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_partial_set(self, fmt):
        with pytest.raises(ValueError, match="not the full hull"):
            _PARSERS[fmt](_facet_inputs(2, _FULL_N2[:3])[fmt])

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_duplicated_facet(self, fmt):
        with pytest.raises(ValueError, match="not the full hull"):
            _PARSERS[fmt](_facet_inputs(2, _FULL_N2 + _FULL_N2[:1])[fmt])

    def test_trailing_text_on_a_facet_line(self):
        text = _facet_inputs(2, _FULL_N2)["text"].replace("rhs=-1\n", "rhs=-1 LE\n", 1)
        with pytest.raises(ValueError, match="bad facet line"):
            parse_facets_text(text)

    @pytest.mark.parametrize("fmt, message", [("text", "missing facet header line"),
                                              ("csv", "missing csv header")])
    def test_missing_header(self, fmt, message):
        text = _facet_inputs(2, _FULL_N2)[fmt]
        with pytest.raises(ValueError, match=message):
            _PARSERS[fmt](text.split("\n", 1)[1])

    def test_facet_count_disagrees_with_header(self):
        text = _facet_inputs(2, _FULL_N2)["text"].replace("facets=4", "facets=5")
        with pytest.raises(ValueError, match="facet count disagrees with header"):
            parse_facets_text(text)

    def test_bad_csv_row(self):
        text = _facet_inputs(2, _FULL_N2)["csv"].replace("2,GE,-1", "2,GE,-1,0")
        with pytest.raises(ValueError, match="bad csv row: '2,GE,-1,0'"):
            parse_facets_csv(text)

    @pytest.mark.parametrize("rhs", ["nan", "inf"])
    def test_csv_rhs_not_finite(self, rhs):
        rows = [(1, "GE", rhs)] + _FULL_N2[1:]
        with pytest.raises(ValueError, match="csv needs facet rows with a finite rhs"):
            parse_facets_csv(_facet_inputs(2, rows)["csv"])

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_wrong_rhs(self, fmt):
        rows = _FULL_N2[:3] + [(7, "GE", -2)]
        with pytest.raises(ValueError, match="rhs"):
            _PARSERS[fmt](_facet_inputs(2, rows)[fmt])


class TestParityRegrouping:
    """The odd-subset facets over n+1 coordinates regroup, by whether the
    lifted coordinate belongs to the subset, into the two-sided description
    over the first n coordinates."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_split_counts_and_parities(self, n):
        fs = build_symbox_hull(n)
        wbit = 1 << n
        lower = [f for f in fs.facets if f.mask & wbit]
        upper = [f for f in fs.facets if not f.mask & wbit]
        assert len(lower) == len(upper) == 2 ** (n - 1)
        # w-side facets drop to even x-subsets; the rest keep odd x-subsets
        for f in lower:
            xsub = [i for i in f.subset() if i <= n]
            assert len(xsub) % 2 == 0
        for f in upper:
            xsub = [i for i in f.subset() if i <= n]
            assert len(xsub) % 2 == 1

    def test_lower_side_bounds_w_from_below(self):
        n = 3
        fs = build_symbox_hull(n)
        rng = np.random.default_rng(11)
        wbit = 1 << n
        for _ in range(50):
            x = rng.uniform(-1.0, 1.0, n)
            lo, hi = fs.envelope_bounds(x)
            # at w slightly below lo only lower-side facets (or the box) break
            res = hull_membership(fs, x, lo - 1e-6)
            assert all(f.mask & wbit for f in res.violated)
            res = hull_membership(fs, x, hi + 1e-6)
            assert all(not f.mask & wbit for f in res.violated)
