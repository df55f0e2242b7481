import numpy as np
import pytest

from monoenv.oracle import SECTION_POINTS, section_max


def _peaks(centers):
    c = np.asarray(centers, dtype=float)
    return lambda T, rows: -(T - c[rows][:, None]) ** 2


class TestSectionMax:
    def test_finds_each_peak(self):
        centers = [0.3, -1.25, 2.0]
        ts = section_max(_peaks(centers), [0.0, -3.0, 1.0], [1.0, 0.0, 2.0], 14, 1e-13)
        assert ts.tolist() == pytest.approx(centers, abs=1e-12)

    def test_bracket_together_equals_bracket_alone(self):
        # narrower brackets close first; the rest keep the one-bracket arithmetic
        rng = np.random.default_rng(4)
        lo = (-rng.random(7)).tolist()
        hi = (rng.random(7) * 10.0 ** -rng.integers(0, 8, 7)).tolist()
        centers = (rng.random(7) - 0.5).tolist()
        together = section_max(_peaks(centers), lo, hi, 14, 1e-13)
        for k in range(7):
            alone = section_max(_peaks(centers[k:k + 1]), lo[k:k + 1], hi[k:k + 1], 14, 1e-13)
            assert together[k] == alone[0]

    def test_one_call_per_step_on_open_brackets(self):
        calls = []

        def f(T, rows):
            assert T.shape == (len(rows), SECTION_POINTS)
            calls.append(rows.tolist())
            return -T * T

        section_max(f, [-1.0, -1e-12], [1.0, 1e-12], 14, 1e-13)
        both = sum(rows == [0, 1] for rows in calls)
        assert calls[:both] == [[0, 1]] * both  # the narrow bracket closes first,
        assert both == 2                       # after two steps (2e-12 * (2/17)**2 < 1e-13),
        assert calls[both:] == [[0]] * (len(calls) - both)  # and is never asked again
        assert len(calls) == 14

    def test_step_cap(self):
        calls = []

        def f(T, rows):
            calls.append(rows)
            return -np.abs(T - 0.1)

        (t,) = section_max(f, [0.0], [1.0], 5, 0.0)
        assert abs(t - 0.1) <= (2.0 / 17.0) ** 5 / 2
        assert len(calls) == 5
