"""The oracle's line search, ``oracle._line``, on stacks of lines.

The lines lie in SymBox(2) and run along the first coordinate. The second
coordinate of a line's start is its tag, which a line never changes (its
direction there is 0), so a test function can give each line its own peak.
A line of direction d has a feasible segment 2/d wide in its parameter, so
directions from 2e-3 to 2e15 give segments from 1e3 down past the 1e-14
search floor.
"""

import numpy as np
import pytest

from monoenv import oracle
from monoenv.core import SymBox
from monoenv.oracle import SECTION_POINTS, SECTION_STEPS

SHRINK = 2.0 / (SECTION_POINTS + 1)  # a step keeps two of the SECTION_POINTS + 1 cells
DOM = SymBox(2)


def _stack(starts, dirs):
    """Starts X (tags in column 1), values V = -inf and directions D."""
    k = len(starts)
    X = np.column_stack([starts, np.linspace(-0.5, 0.5, k)])
    D = np.column_stack([dirs, np.zeros(k)])
    return X, np.full(k, -np.inf), D


def _tagged(X, per_line):
    """func(P) = per_line(P[:, 0], k) where k is the line of each point."""
    tags = X[:, 1].copy()
    return lambda P: per_line(P[:, 0], np.searchsorted(tags, P[:, 1]))


def _peaks(X, centers):
    c = np.asarray(centers, dtype=float)
    return _tagged(X, lambda x, k: -(x - c[k]) ** 2)


def _every_step_line(func, dom, X, V, D, reach, steps):
    # reference: one line at a time, in scalars, for every step of the
    # search; steps[k] counts the steps of line k
    tlo, thi = dom.line_range(X, D)
    i = np.arange(1, SECTION_POINTS + 1)[:, None]
    for k in range(len(X)):
        a, b = max(tlo[k], -reach), min(thi[k], reach)
        if not (np.isfinite(a) and np.isfinite(b) and b - a > 1e-14):
            continue
        x, d = X[k].copy(), D[k]
        for _ in range(SECTION_STEPS):
            steps[k] += 1
            h = (b - a) / (SECTION_POINTS + 1)
            P = x + (a + i * h) * d
            vals = func(P)
            best = int(np.argmax(vals))
            a, b = a + best * h, a + (best + 2) * h
        p, v = P[best], vals[best]  # the last step's best point and value
        if v > V[k]:
            X[k], V[k] = p, v


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_steps_follow_from_points():
    # SECTION_STEPS steps of SECTION_POINTS points leave under 1e-13 of a segment
    assert SHRINK ** SECTION_STEPS <= 1e-13


class TestSectionMax:
    """``oracle._line``: the section search's maxima along a stack of lines."""

    def test_finds_each_peak(self):
        centers = [0.3, -0.25, 0.9]
        X, V, D = _stack([0.0, 0.5, -0.7], [1.0, -2.0, 1e-3])
        func = _peaks(X, centers)
        oracle._line(func, DOM, X, V, D)
        assert X[:, 0].tolist() == pytest.approx(centers, abs=1e-12)
        assert np.array_equal(_bits(V), _bits(func(X)))

    def test_bracket_together_equals_bracket_alone(self):
        # segments from 1e-2 to 1e13 wide, each with its own peak
        rng = np.random.default_rng(4)
        starts = rng.uniform(-1.0, 1.0, 7)
        dirs = 10.0 ** rng.uniform(-2.0, 13.0, 7) * rng.choice([-1.0, 1.0], 7)
        centers = rng.uniform(-1.0, 1.0, 7)
        X, V, D = _stack(starts, dirs)
        func = _peaks(X, centers)
        together_X, together_V = X.copy(), V.copy()
        oracle._line(func, DOM, together_X, together_V, D)
        for k in range(7):
            alone_X, alone_V = X[k:k + 1].copy(), V[k:k + 1].copy()
            oracle._line(func, DOM, alone_X, alone_V, D[k:k + 1])
            assert np.array_equal(_bits(together_X[k]), _bits(alone_X[0]))
            assert _bits(together_V[k]) == _bits(alone_V[0])

    def test_one_call_per_step_on_open_brackets(self):
        # segments 2, 2e-12 and 5e-15 wide: the last is under the search
        # floor and never asked; the others take every step, however narrow,
        # and no other call
        X, V, D = _stack([0.0, 0.0, 0.0], [1.0, 1e12, 4e14])
        calls = []

        def f(P):
            calls.append(len(P))
            return -P[:, 0] ** 2

        oracle._line(f, DOM, X, V, D)
        assert calls == [2 * SECTION_POINTS] * SECTION_STEPS
        assert X[2, 0] == 0.0 and V[2] == -np.inf

    def test_step_cap(self):
        X, V, D = _stack([0.0], [1.0])
        calls = []

        def f(P):
            calls.append(len(P))
            return -np.abs(P[:, 0] - 0.1)

        oracle._line(f, DOM, X, V, D)
        assert abs(X[0, 0] - 0.1) <= 2.0 * SHRINK ** SECTION_STEPS / 2
        assert len(calls) == SECTION_STEPS

    def test_a_line_ends_on_the_best_point_of_its_last_step(self):
        # no call after the last step: each line keeps the first largest
        # row of that step's call and the value the call gave it
        rng = np.random.default_rng(11)
        k = 9
        X, V, D = _stack(rng.uniform(-1.0, 1.0, k), 10.0 ** rng.uniform(-2.0, 12.0, k))
        calls = []
        func = _peaks(X, rng.uniform(-1.0, 1.0, k))

        def f(P):
            calls.append((P.copy(), func(P)))
            return calls[-1][1]

        oracle._line(f, DOM, X, V, D)
        assert len(calls) == SECTION_STEPS
        P, v = calls[-1]
        P, v = P.reshape(k, SECTION_POINTS, 2), v.reshape(k, SECTION_POINTS)
        best = np.argmax(v, axis=1)
        assert np.array_equal(_bits(X), _bits(P[np.arange(k), best]))
        assert np.array_equal(_bits(V), _bits(v[np.arange(k), best]))

    def test_each_step_hands_over_a_column_major_read_only_stack(self):
        # stored column by column like the grid; its rows run line by line,
        # point by point along each line
        rng = np.random.default_rng(5)
        k = 6
        X, V, D = _stack(rng.uniform(-1.0, 1.0, k), 10.0 ** rng.uniform(-2.0, 3.0, k))
        tags = np.repeat(X[:, 1], SECTION_POINTS)
        func = _peaks(X, rng.uniform(-1.0, 1.0, k))
        calls = []

        def f(P):
            calls.append((P.flags.f_contiguous, P.flags.writeable, P.copy()))
            return func(P)

        oracle._line(f, DOM, X, V, D)
        assert len(calls) == SECTION_STEPS
        for f_contiguous, writeable, P in calls:
            assert f_contiguous and not writeable
            assert np.array_equal(P[:, 1], tags)
            assert (np.diff(P[:, 0].reshape(k, SECTION_POINTS), axis=1) >= 0).all()
        with pytest.raises(ValueError, match="read-only"):
            oracle._line(lambda P: P.sort(axis=0), DOM, X, V, D)

    @pytest.mark.filterwarnings("error")
    def test_brackets_below_float_resolution_stay_finite(self):
        # segments from 1e3 wide down to just above the floor: after 11
        # steps a narrow bracket is far below the spacing of floats at its
        # ends, and its points must stay finite and on the segment
        k = 24
        width = np.geomspace(1e3, 1.01e-14, k)
        X, V, D = _stack(np.linspace(-0.9, 0.9, k), 2.0 / width)
        calls = []

        def f(P):
            calls.append((len(P), bool(np.isfinite(P).all())))
            return -np.abs(P[:, 0] - 0.3)

        oracle._line(f, DOM, X, V, D)
        assert calls == [(SECTION_POINTS * k, True)] * SECTION_STEPS
        assert np.isfinite(X).all() and np.isfinite(V).all()
        assert DOM.contains_many(X).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_bits_of_the_every_step_loop(self, seed):
        # segments from 1e3 wide down to below the 1e-14 floor, so some are
        # never searched; a reach of 50 clips the widest segments, so some
        # peaks lie outside the bracket
        rng = np.random.default_rng(seed)
        k = 40
        width = 10.0 ** rng.uniform(-15.0, 3.0, k)
        width[:2] = 0.5e-14, 1.5e-14  # just under and just over the floor
        X, V, D = _stack(rng.uniform(-1.0, 1.0, k), 2.0 / width * rng.choice([-1.0, 1.0], k))
        c = rng.uniform(-1.2, 1.2, k)  # some peaks outside the segment
        p = rng.choice([1.0, 2.0, 0.5], k)
        flat = rng.random(k) < 0.25  # plateaus: the first of equal values wins

        def per_line(x, j):
            v = -np.abs(x - c[j]) ** p[j]
            return np.where(flat[j], np.minimum(v, -1e-3), v)

        func = _tagged(X, per_line)
        V[:] = func(X)
        X0, ref_X, ref_V = X.copy(), X.copy(), V.copy()
        steps = np.zeros(k, dtype=int)
        _every_step_line(func, DOM, ref_X, ref_V, D, 50.0, steps)
        oracle._line(func, DOM, X, V, D, 50.0)
        assert np.array_equal(_bits(X), _bits(ref_X))
        assert np.array_equal(_bits(V), _bits(ref_V))
        assert steps[0] == 0 and steps[1] == SECTION_STEPS
        assert set(steps.tolist()) == {0, SECTION_STEPS}
        assert (X != X0).any(axis=1).sum() >= 20  # most lines moved
