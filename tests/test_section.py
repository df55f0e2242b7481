import warnings

import numpy as np
import pytest

from monoenv import oracle
from monoenv.core import DimensionMismatch
from monoenv.oracle import SECTION_POINTS, SECTION_STEPS, SECTION_WIDTH, section_max

SHRINK = 2.0 / (SECTION_POINTS + 1)  # a step keeps two of the SECTION_POINTS + 1 cells


def _peaks(centers):
    c = np.asarray(centers, dtype=float)
    return lambda T, rows: -(T - c[rows][:, None]) ** 2


def _steps(width):
    """Steps a bracket of this width takes until it is closed."""
    k = 0
    while width > SECTION_WIDTH and k < SECTION_STEPS:
        width *= SHRINK
        k += 1
    return k


def _every_step_section_max(func, lo, hi):
    # reference bookkeeping: live refiltered, and a[live], b[live] written,
    # on every step
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    i = np.arange(1, SECTION_POINTS + 1)
    live = np.arange(len(a))
    for _ in range(SECTION_STEPS):
        live = live[b[live] - a[live] > SECTION_WIDTH]
        if len(live) == 0:
            break
        al = a[live]
        h = (b[live] - al) / (SECTION_POINTS + 1)
        best = np.argmax(func(al[:, None] + i * h[:, None], live), axis=1)
        a[live] = al + best * h
        b[live] = al + (best + 2) * h
    return 0.5 * (a + b)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_steps_follow_from_points():
    # the least step count that takes a unit bracket down to SECTION_WIDTH
    assert SHRINK ** SECTION_STEPS <= SECTION_WIDTH < SHRINK ** (SECTION_STEPS - 1)


class TestSectionMax:
    def test_finds_each_peak(self):
        centers = [0.3, -1.25, 2.0]
        ts = section_max(_peaks(centers), [0.0, -3.0, 1.0], [1.0, 0.0, 2.0])
        assert ts.tolist() == pytest.approx(centers, abs=1e-12)

    def test_bracket_together_equals_bracket_alone(self):
        # narrower brackets close first; the rest keep the one-bracket arithmetic
        rng = np.random.default_rng(4)
        lo = (-rng.random(7)).tolist()
        hi = (rng.random(7) * 10.0 ** -rng.integers(0, 8, 7)).tolist()
        centers = (rng.random(7) - 0.5).tolist()
        together = section_max(_peaks(centers), lo, hi)
        for k in range(7):
            alone = section_max(_peaks(centers[k:k + 1]), lo[k:k + 1], hi[k:k + 1])
            assert together[k] == alone[0]

    def test_one_call_per_step_on_open_brackets(self):
        calls = []

        def f(T, rows):
            assert T.shape == (len(rows), SECTION_POINTS)
            calls.append(rows.tolist())
            return -T * T

        section_max(f, [-1.0, -1e-12], [1.0, 1e-12])
        both = sum(rows == [0, 1] for rows in calls)
        assert calls[:both] == [[0, 1]] * both  # the narrow bracket closes first,
        assert both == _steps(2e-12) < SECTION_STEPS  # once it is SECTION_WIDTH wide,
        assert calls[both:] == [[0]] * (len(calls) - both)  # and is never asked again
        assert len(calls) == _steps(2.0) == SECTION_STEPS

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "SECTION_WIDTH", 0.0)
        calls = []

        def f(T, rows):
            calls.append(rows)
            return -np.abs(T - 0.1)

        (t,) = section_max(f, [0.0], [1.0])
        assert abs(t - 0.1) <= SHRINK ** SECTION_STEPS / 2
        assert len(calls) == SECTION_STEPS

    @pytest.mark.parametrize("seed", range(6))
    def test_bits_of_the_every_step_loop(self, seed):
        # brackets from 1e3 wide down to below SECTION_WIDTH, so they close
        # by width at different steps, some before the cap and one at once
        rng = np.random.default_rng(seed)
        k = 40
        width = 10.0 ** rng.uniform(-15.0, 3.0, k)
        width[0] = 0.5 * SECTION_WIDTH
        lo = rng.normal(size=k) * 10.0 ** rng.integers(-3, 4, k)
        hi = lo + width
        c = lo + rng.uniform(-0.2, 1.2, k) * width  # some peaks outside the bracket
        p = rng.choice([1.0, 2.0, 0.5], k)
        flat = rng.random(k) < 0.25  # plateaus: the first of equal values wins

        def f(T, rows, steps=None):
            if steps is not None:
                steps[rows] += 1
            v = -np.abs(T - c[rows][:, None]) ** p[rows][:, None]
            return np.where(flat[rows][:, None], np.minimum(v, -1e-3 * width[rows][:, None]), v)

        steps = np.zeros(k, dtype=int)
        ref = _every_step_section_max(lambda T, rows: f(T, rows, steps), lo, hi)
        got = section_max(f, lo, hi)
        assert np.array_equal(_bits(got), _bits(ref))
        assert steps[0] == 0 and len(set(steps.tolist())) >= 4
        assert (steps < SECTION_STEPS).sum() >= 5

    def test_lo_and_hi_of_different_lengths(self):
        with pytest.raises(DimensionMismatch, match="same length"):
            section_max(_peaks([0.0, 0.0]), [0.0, 0.0], [1.0])

    @pytest.mark.parametrize("lo, hi", [
        ([0.0], [np.inf]), ([np.nan], [1.0]), ([-np.inf, 0.0], [0.0, 1.0]),
    ], ids=["hi-inf", "lo-nan", "lo-minus-inf"])
    def test_an_end_that_is_not_finite(self, lo, hi):
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite") as err:
                section_max(lambda T, rows: calls.append(rows) or -T * T, lo, hi)
        assert not isinstance(err.value, DimensionMismatch) and calls == []

    @pytest.mark.parametrize("func", [
        lambda T, rows: -T[:, :3], lambda T, rows: -T.ravel(), lambda T, rows: -T[:, :, None],
    ], ids=["columns", "flat", "extra-axis"])
    def test_a_result_of_another_shape(self, func):
        with pytest.raises(DimensionMismatch, match="one value per parameter"):
            section_max(func, [0.0, -1.0], [1.0, 1.0])
